"""Result serialization, the JSONL result-log import, and campaign resume
through the campaign database."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.core.config import LeonConfig
from repro.fault.campaign import CampaignConfig, CampaignResult
from repro.fault.executor import CampaignExecutor
from repro.fault.results import (
    config_key,
    result_from_dict,
    result_to_dict,
)
from repro.store import CampaignDatabase

FAST = dict(flux=400.0, fluence=500.0, instructions_per_second=30_000.0)


def _config(seed=1, let=110.0, **overrides):
    settings = dict(FAST)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


def _result(seed=1, **overrides) -> CampaignResult:
    return CampaignResult(
        config=_config(seed=seed, **overrides),
        counts={"ITE": 1, "IDE": 0, "DTE": 0, "DDE": 0, "RFE": 2, "Total": 3},
        upsets=4,
        upsets_by_target={"regfile": 2, "icache-tag": 2},
        sw_errors=0,
        error_traps=0,
        halted=False,
        iterations=12,
        instructions=25_000,
        wall_seconds=0.5,
    )


def _line(result) -> str:
    return json.dumps(result_to_dict(result), sort_keys=True) + "\n"


def _write_log(path, results, tail=""):
    """A JSONL result log of *results*, plus a raw *tail* (a torn line)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(_line(result) for result in results)
        handle.write(tail)


def _ingest(path):
    """Import a log into a fresh database: the stored results, in order."""
    with CampaignDatabase(":memory:") as db:
        campaign, _ = db.ingest_results(path)
        return db.results(campaign)


def _by_key(results):
    return {config_key(result.config): result for result in results}


# -- serialization -------------------------------------------------------------


def test_result_dict_round_trip():
    result = _result(seed=5)
    again = result_from_dict(result_to_dict(result))
    assert again.comparable() == result.comparable()
    assert config_key(again.config) == config_key(result.config)


def test_config_key_distinguishes_runs():
    assert config_key(_config(seed=1)) != config_key(_config(seed=2))
    assert config_key(_config(let=60.0)) != config_key(_config(let=110.0))
    assert config_key(_config()) == config_key(_config())


def test_config_key_rejects_custom_device():
    with pytest.raises(ConfigurationError):
        config_key(_config(leon=LeonConfig.standard()))


# -- the database as result store ------------------------------------------------


def test_append_load_round_trip():
    db = CampaignDatabase(":memory:")
    campaign = db.ensure_campaign("runs")
    results = [_result(seed=seed) for seed in (1, 2, 3)]
    db.add_results(campaign, results[:2])
    db.add_results(campaign, results[2:])
    assert [r.comparable() for r in db.results(campaign)] == \
        [r.comparable() for r in results]


def test_split_pending_partitions():
    db = CampaignDatabase(":memory:")
    campaign = db.ensure_campaign("runs")
    configs = [_config(seed=seed) for seed in (1, 2, 3)]
    db.add_results(campaign, [_result(seed=2)])
    done, pending = db.split_pending(campaign, configs)
    assert set(done) == {config_key(configs[1])}
    assert [config.seed for config in pending] == [1, 3]


# -- importing JSONL result logs ---------------------------------------------------


def test_later_lines_supersede(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    first = _result(seed=1)
    second = _result(seed=1)
    second.iterations = 99
    _write_log(path, [first, _result(seed=2), second])
    loaded = _ingest(path)
    # The re-run wins without moving the run.
    assert [r.config.seed for r in loaded] == [1, 2]
    assert loaded[0].iterations == 99


def test_truncated_tail_is_tolerated(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    _write_log(path, [_result(seed=1)],
               tail='{"config": {"program": "iu')  # crash mid-append
    assert len(_ingest(path)) == 1


def test_append_after_crash_repairs_partial_tail(tmp_path):
    """A log whose last append was cut mid-line imports its complete
    lines, and the campaign carries on in the database: the torn run is
    simply still pending."""
    path = str(tmp_path / "runs.jsonl")
    _write_log(path, [_result(seed=1)],
               tail='{"config": {"program": "iu')  # crash mid-append
    db = CampaignDatabase(":memory:")
    campaign, written = db.ingest_results(path)
    assert written == 1
    _, pending = db.split_pending(campaign,
                                  [_config(seed=1), _config(seed=2)])
    assert [config.seed for config in pending] == [2]
    db.add_results(campaign, [_result(seed=2)])
    assert [r.config.seed for r in db.results(campaign)] == [1, 2]


def test_append_trims_newline_free_fragment(tmp_path):
    """A log holding only a partial first line imports as empty, and the
    campaign it names still takes new runs."""
    path = str(tmp_path / "runs.jsonl")
    _write_log(path, [], tail='{"config"')
    db = CampaignDatabase(":memory:")
    campaign, written = db.ingest_results(path)
    assert written == 0
    db.add_results(campaign, [_result(seed=7)])
    assert len(db.results(campaign)) == 1


def test_mid_file_garbage_raises(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json at all\n" + _line(_result(seed=1)))
    db = CampaignDatabase(":memory:")
    with pytest.raises(ConfigurationError, match=r"runs.jsonl:1"):
        db.ingest_results(path)
    assert db.campaigns() == []  # a failed import leaves no campaign


def test_ingest_missing_file_raises(tmp_path):
    with pytest.raises(OSError):
        CampaignDatabase(":memory:").ingest_results(
            str(tmp_path / "absent.jsonl"))


def test_database_file_is_not_a_result_log(tmp_path):
    path = str(tmp_path / "runs.db")
    with CampaignDatabase(path) as db:
        db.add_results(db.ensure_campaign("runs"), [_result(seed=1)])
    with pytest.raises(ConfigurationError, match="not a JSONL result log"):
        CampaignDatabase(":memory:").ingest_results(path)


def test_pre_grading_rows_load_with_defaults(tmp_path):
    """Logs written before fast grading lack the exit fields; importing
    them defaults to the legacy markers so mixed-version corpora work."""
    path = str(tmp_path / "runs.jsonl")
    row = result_to_dict(_result(seed=1))
    row.pop("exit_reason", None)
    row.pop("graded_at_instruction", None)
    # A pre-grading row flagged effaced was the window-close
    # reconvergence exit; effaced is now derived from exit_reason.
    effaced_row = json.loads(json.dumps(row))
    effaced_row["effaced"] = True
    effaced_row["config"]["seed"] = 3
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
        handle.write(_line(_result(seed=2)))  # a newer-format row
        handle.write(json.dumps(effaced_row) + "\n")
    loaded = _by_key(_ingest(path))
    assert len(loaded) == 3
    result = loaded[config_key(_config(seed=1))]
    assert result.exit_reason == ""
    assert result.graded_at_instruction is None
    assert not result.effaced
    effaced = loaded[config_key(_config(seed=3))]
    assert effaced.exit_reason == "reconverged"
    assert effaced.effaced
    assert effaced.graded_at_instruction is None
    assert result_to_dict(effaced)["effaced"] is True


# -- resume through the executor -----------------------------------------------


def test_resumed_campaign_recomputes_only_the_missing_runs(crash_mid_batch):
    configs = [_config(seed=seed) for seed in (21, 22, 23, 24)]
    executor = CampaignExecutor(1)
    full = executor.run_many(configs)
    db = CampaignDatabase(":memory:")
    campaign = db.ensure_campaign("runs")

    # The first batch lands; the second fails after its first row.
    db.add_results(campaign, full[:2])
    crash_mid_batch(2)
    with pytest.raises(OSError):
        db.add_results(campaign, full[2:])
    # The whole failed batch rolled back, so resume re-runs exactly it.
    done, pending = db.split_pending(campaign, configs)
    assert len(done) == 2 and pending == configs[2:]
    executor.run_many(pending,
                      on_results=lambda batch: db.add_results(campaign,
                                                              batch))
    assert [r.comparable() for r in db.results(campaign)] == \
        [r.comparable() for r in full]


def test_on_results_preserves_config_order_parallel():
    db = CampaignDatabase(":memory:")
    campaign = db.ensure_campaign("runs")
    configs = [_config(seed=seed) for seed in (31, 32, 33, 34)]
    CampaignExecutor(2, chunksize=1).run_many(
        configs, on_results=lambda batch: db.add_results(campaign, batch))
    assert [r.config.seed for r in db.results(campaign)] == \
        [31, 32, 33, 34]
