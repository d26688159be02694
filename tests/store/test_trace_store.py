"""One trace store: traced runs land in the campaign database with their
result rows, whichever front end ran them.

``CampaignDatabase.add_results`` writes a traced result's events in the
transaction that writes its run row, tagged with the row's campaign
position.  So CLI resumes and service jobs sharing a campaign never reuse
a run index, a failed batch leaves no orphaned events, and the CLI and the
job queue store the same trace for the same configs.
"""

import json
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.fault.campaign import CampaignConfig
from repro.fault.executor import CampaignExecutor, expand_runs, run_campaign_traced
from repro.service import JobQueue
from repro.service.api import make_server
from repro.store import CampaignDatabase
from repro.store.db import file_stem

#: Tiny settings (2.25k instructions end to end): real traces at unit-test
#: cost.
TINY = dict(flux=400.0, fluence=150.0, instructions_per_second=2_000.0,
            beam_delay_s=0.25, beam_tail_s=0.5,
            flush_period_instructions=400)

#: The CLI campaign of the trace smoke: IUTEST at LET 110, strikes in
#: every run.
CLI_CAMPAIGN = ["campaign", "--program", "iutest", "--let", "110",
                "--flux", "400", "--fluence", "600", "--ips", "20000"]
CLI_CONFIG = CampaignConfig(program="iutest", let=110.0, flux=400.0,
                            fluence=600.0, instructions_per_second=20_000.0)


def _tiny(let=110.0, seed=11):
    return CampaignConfig(program="iutest", let=let, seed=seed, **TINY)


def _stored_events(path):
    with CampaignDatabase(path) as db:
        return db.events(db.campaign_id(file_stem(path)))


def _without_wall(events):
    """Events minus their host wall timings (the only nondeterminism)."""
    return [{key: value for key, value in event.items() if key != "wall_s"}
            for event in events]


def _run_starts(events):
    return [event for event in events if event["ev"] == "run-start"]


def test_cli_resume_numbers_new_runs_after_stored_ones(tmp_path, capsys):
    """`--runs 2` then `--runs 3`: the resumed run is run 2, not a second
    run 0, and every run's trace belongs to its own config."""
    path = str(tmp_path / "r.db")
    for runs in ("2", "3"):
        assert main(CLI_CAMPAIGN + ["--runs", runs, "--results", path,
                                    "--trace"]) == 0
    assert "resume: 2 of 3" in capsys.readouterr().out
    events = _stored_events(path)
    assert {event["run"] for event in events} == {0, 1, 2}
    starts = _run_starts(events)
    assert [event["run"] for event in starts] == [0, 1, 2]
    assert [event["seed"] for event in starts] == \
        [config.seed for config in expand_runs(CLI_CONFIG, 3)]


def test_named_jobs_sharing_a_campaign_keep_every_trace():
    with CampaignDatabase(":memory:") as db:
        queue = JobQueue(db).start()
        try:
            for seed in (11, 21):
                job = queue.submit(expand_runs(_tiny(seed=seed), 2),
                                   name="shared", options={"trace": True})
                assert queue.wait(job, timeout_s=120)["state"] == "done"
        finally:
            queue.stop()
        campaign = db.campaign_id("shared")
        results = db.results(campaign)
        starts = _run_starts(db.events(campaign))
    assert len(results) == 4
    assert [event["run"] for event in starts] == [0, 1, 2, 3]
    assert [event["seed"] for event in starts] == \
        [result.config.seed for result in results]


def test_failed_batch_stores_no_events_and_resume_matches(crash_mid_batch):
    configs = expand_runs(_tiny(), 4)
    traced = CampaignExecutor(1, runner=run_campaign_traced)
    full = traced.run_many(configs)
    with CampaignDatabase(":memory:") as reference:
        uninterrupted = reference.ensure_campaign("runs")
        reference.add_results(uninterrupted, full)
        expected = reference.events(uninterrupted)

    with CampaignDatabase(":memory:") as db:
        campaign = db.ensure_campaign("runs")
        db.add_results(campaign, full[:2])
        stored = db.events(campaign)
        crash_mid_batch(2)
        with pytest.raises(OSError):
            db.add_results(campaign, full[2:])
        # The failed batch's first run was written before the crash; its
        # events rolled back with its row.
        assert db.events(campaign) == stored
        assert {event["run"] for event in stored} == {0, 1}
        _done, pending = db.split_pending(campaign, configs)
        assert pending == configs[2:]
        traced.run_many(pending, on_results=lambda batch:
                        db.add_results(campaign, batch))
        resumed = db.events(campaign)
    assert _without_wall(resumed) == _without_wall(expected)


@pytest.mark.parametrize("jobs", [1, 2])
def test_cli_and_service_store_the_same_trace(tmp_path, capsys, jobs):
    path = str(tmp_path / "cli.db")
    assert main(CLI_CAMPAIGN + ["--runs", "2", "--jobs", str(jobs),
                                "--results", path, "--trace"]) == 0
    capsys.readouterr()
    with CampaignDatabase(":memory:") as db:
        queue = JobQueue(db).start()
        try:
            job = queue.submit(expand_runs(CLI_CONFIG, 2), name="svc",
                               options={"trace": True, "jobs": jobs})
            assert queue.wait(job, timeout_s=120)["state"] == "done"
        finally:
            queue.stop()
        service = db.events(db.campaign_id("svc"))
    cli = _stored_events(path)
    assert _run_starts(cli)
    assert _without_wall(cli) == _without_wall(service)


def test_digit_named_database_through_cli_and_service(tmp_path, capsys):
    """`7.db` holds campaign '7' (id 1): every reader resolves the name,
    not id 7."""
    path = str(tmp_path / "7.db")
    assert main(CLI_CAMPAIGN + ["--runs", "2", "--results", path,
                                "--trace"]) == 0
    assert main(["trace", path]) == 0
    assert "upset 0" in capsys.readouterr().out
    assert main(["stats", path]) == 0
    assert "events vs run-end readouts: match" in capsys.readouterr().out

    server = make_server(path, port=0)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        with urllib.request.urlopen(
                server.url + "/api/campaigns/7/stats") as response:
            stats = json.loads(response.read())
    finally:
        server.shutdown()
        server.queue.stop()
        server.server_close()
        server.db.close()
    assert stats["runs"] == 2
    assert stats["consistent"] is True
