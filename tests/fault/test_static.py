"""Static pre-classification vs the executed oracle: bit-for-bit parity.

The analyzer lets ``Campaign.run`` grade provably-dead transient strikes
without executing the run.  These tests hold that shortcut to the same
standard as early-exit grading: byte-identical results, rows and traces
against full execution with the analyzer disabled, at any ``--jobs``.
"""

import dataclasses

import pytest

from repro.fault.campaign import (
    Campaign,
    CampaignConfig,
    prepare_warm_start,
)
from repro.fault.executor import (
    CampaignExecutor,
    expand_runs,
    run_campaign_traced,
)
from repro.store import CampaignDatabase

#: random:7 analyzes window-accurately (117/136 words provably dead, FP
#: file untouched), and the small-cache express device keeps the claimable
#: arrays (regfile + fpregs) the majority of the fault space -- so a good
#: fraction of struck runs is provably dead.  Tiny phases keep the
#: 200-replica executed oracle affordable.
STATIC = dict(flux=400.0, fluence=900.0, instructions_per_second=2_000.0,
              beam_delay_s=0.25, beam_tail_s=0.5,
              flush_period_instructions=400)


def _leon():
    from repro.core.config import CacheConfig, LeonConfig
    return LeonConfig.leon_express(icache=CacheConfig(size_bytes=256),
                                   dcache=CacheConfig(size_bytes=256))


def _cfg(let=20.0, seed=7, **overrides):
    settings = dict(STATIC)
    settings.update(overrides)
    return CampaignConfig(program="random:7", let=let, seed=seed,
                          leon=_leon(), **settings)


def _oracle(config):
    """The analyzer-disabled, full-execution twin of ``config``."""
    return dataclasses.replace(config, static_grading=False,
                               early_exit=False)


@pytest.fixture(scope="module")
def warm():
    return prepare_warm_start(_cfg())


def test_warm_start_carries_the_ace_map(warm):
    assert warm.ace is not None
    assert warm.ace.window_claims
    assert warm.ace.claimable_words > 100
    assert warm.timeline is not None


def test_static_masked_matches_full_oracle_200_runs(warm):
    """200 seeded replicas, graded statically where provable, against the
    executed oracle -- results must be byte-identical."""
    configs = expand_runs(_cfg(), 200)
    fast = CampaignExecutor(1).run_many(configs, warm=warm)
    oracle = CampaignExecutor(1).run_many(
        [_oracle(config) for config in configs], warm=warm, batch=False)
    assert [r.comparable() for r in fast] == \
        [r.comparable() for r in oracle]
    statics = [r for r in fast if r.exit_reason == "static_masked"]
    assert statics, "no run was statically graded -- test proves nothing"
    assert any(r.upsets > 0 for r in statics)
    assert all(r.exit_reason == "full" for r in oracle)
    # A statically-masked run reports the golden readouts.
    for result in statics:
        assert result.counts == warm.timeline.counts
        assert result.effaced


def test_jobs_invariant(warm):
    configs = expand_runs(_cfg(), 24)
    serial = CampaignExecutor(1).run_many(configs, warm=warm)
    parallel = CampaignExecutor(4, chunksize=1).run_many(configs, warm=warm)
    assert [r.comparable() for r in parallel] == \
        [r.comparable() for r in serial]
    assert any(r.exit_reason == "static_masked" for r in serial)


def test_store_rows_are_identical(tmp_path):
    """The persisted rows of a static campaign reload equal to the
    oracle's -- the store sees no difference either.  (The database keys
    runs on the default device, so this variant drops the custom leon.)"""
    base = CampaignConfig(program="random:7", let=20.0, seed=7, **STATIC)
    warm = prepare_warm_start(base)
    configs = expand_runs(base, 40)
    with CampaignDatabase(str(tmp_path / "fast.db")) as db:
        campaign = db.ensure_campaign("fast")
        fast = CampaignExecutor(1).run_many(
            configs, warm=warm,
            on_results=lambda batch: db.add_results(campaign, batch))
        stored = db.results(campaign)
    assert any(r.exit_reason == "static_masked" for r in fast)
    oracle = CampaignExecutor(1).run_many(
        [_oracle(config) for config in configs], warm=warm, batch=False)
    assert [r.comparable() for r in stored] == \
        [r.comparable() for r in oracle]


def test_traced_streams_match_the_oracle(warm):
    """Strike/detect/resolve/close streams of a statically-graded run are
    byte-identical to the executed oracle's."""
    config = None
    for seed in range(1, 30):
        candidate = _cfg(seed=seed)
        probe = Campaign(candidate).run(warm=warm)
        if probe.exit_reason == "static_masked" and probe.upsets > 0:
            config = candidate
            break
    assert config is not None, "no struck seed graded statically"
    fast = run_campaign_traced(config, warm)
    oracle = run_campaign_traced(_oracle(config), warm)
    kinds = ("strike", "detect", "resolve", "close")
    assert [e for e in fast.trace if e["ev"] in kinds] == \
        [e for e in oracle.trace if e["ev"] in kinds]
    assert any(e["ev"] == "early-exit" and e["reason"] == "static-masked"
               for e in fast.trace)
    # Both traces describe the analysis identically.
    for trace in (fast.trace, oracle.trace):
        notes = [e for e in trace if e["ev"] == "ace"]
        assert len(notes) == 1
        assert notes[0]["claimable_words"] == warm.ace.claimable_words
    assert fast.comparable() == oracle.comparable()


def test_persistent_faults_are_never_statically_graded(warm):
    """Stuck-at faults re-assert into their 'dead' word; the static claim
    does not apply and the run must execute."""
    configs = expand_runs(_cfg(fault_model="stuck-at-0"), 12)
    results = CampaignExecutor(1).run_many(configs, warm=warm)
    assert all(r.exit_reason != "static_masked" for r in results)
    oracle = CampaignExecutor(1).run_many(
        [_oracle(config) for config in configs], warm=warm, batch=False)
    assert [r.comparable() for r in results] == \
        [r.comparable() for r in oracle]


def test_static_grading_flag_disables_the_shortcut(warm):
    configs = expand_runs(_cfg(static_grading=False), 12)
    results = CampaignExecutor(1).run_many(configs, warm=warm)
    assert all(r.exit_reason != "static_masked" for r in results)
    fast = CampaignExecutor(1).run_many(expand_runs(_cfg(), 12), warm=warm)
    assert [r.comparable() for r in results] == \
        [r.comparable() for r in fast]
