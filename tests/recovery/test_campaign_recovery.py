"""Beam campaigns that recover: runs continue *through* failures.

The pinned scenario: the standard (no-FT) device at LET 110 with a dense
beam -- seed 16 halts in error mode partway through the window, seeds 1
and 3 park in the unexpected-trap handler persistently enough to climb
the ladder.  With a recovery policy those runs complete end to end and
report per-level counts, downtime and MTTR; without one they terminate
at the first failure exactly as before.
"""

import pytest

from repro import LeonConfig
from repro.fault.campaign import Campaign, CampaignConfig, prepare_warm_start
from repro.fault.executor import CampaignExecutor
from repro.fault.results import result_from_dict, result_to_dict
from repro.store import CampaignDatabase
from repro.recovery import RESTART_CYCLES

#: Beam dense enough to halt the unprotected device (seed 16).
HOSTILE = dict(let=110.0, flux=5_000.0, fluence=10_000.0,
               instructions_per_second=30_000.0)
WINDOW = 60_000  # instructions in the beam window at these settings


def _config(seed, recovery="none", **overrides):
    settings = dict(HOSTILE)
    settings.update(overrides)
    return CampaignConfig(program="iutest", seed=seed, recovery=recovery,
                          leon=LeonConfig.standard(), **settings)


@pytest.fixture(scope="module")
def halting_baseline():
    """Seed 16 without recovery: the device halts mid-window."""
    result = Campaign(_config(16)).run()
    assert result.halted, "seed 16 must halt for these tests to bite"
    return result


def test_ladder_recovers_the_halting_run(halting_baseline):
    result = Campaign(_config(16, recovery="ladder")).run()
    assert not result.halted
    assert not result.unrecovered
    # The run reached the window close instead of dying early.
    assert result.instructions == WINDOW
    assert result.instructions > halting_baseline.instructions
    # The halt was recovered by a watchdog-detected reset, with downtime.
    assert result.halts >= 1
    assert "warm-reset" in result.recoveries or \
        "cold-reboot" in result.recoveries
    assert result.downtime_cycles > 0
    assert result.mttr_cycles > 0
    assert 0.0 < result.availability < 1.0
    assert result.cycles > result.downtime_cycles
    # Recovered halts count as failures: totals stay comparable.
    assert result.failures >= halting_baseline.failures


def test_persistent_park_climbs_the_ladder():
    """Seed 1 parks at the trap handler and re-fails immediately after a
    restart, so the controller escalates rung by rung."""
    result = Campaign(_config(1, recovery="ladder")).run()
    assert not result.halted
    assert "pipeline-restart" in result.recoveries
    assert "warm-reset" in result.recoveries
    # The paper's 4-cycle restart is what pipeline-restart recoveries cost.
    assert result.recovery_downtime["pipeline-restart"] == \
        RESTART_CYCLES * result.recoveries["pipeline-restart"]


def test_restart_only_policy_cannot_recover_a_halt(halting_baseline):
    result = Campaign(_config(16, recovery="restart")).run()
    assert result.halted
    assert result.unrecovered
    assert result.instructions == halting_baseline.instructions


def test_fault_free_run_identical_across_policies():
    """At a LET below threshold nothing fails, so an armed recovery policy
    must not perturb the measurement at all."""
    quiet = dict(let=2.0, flux=400.0, fluence=500.0,
                 instructions_per_second=30_000.0)
    plain = Campaign(_config(7, **quiet)).run()
    guarded = Campaign(_config(7, recovery="ladder", **quiet)).run()
    assert guarded.recoveries == {}
    fields = plain.comparable()
    guarded_fields = guarded.comparable()
    fields.pop("config")
    guarded_fields.pop("config")
    assert guarded_fields == fields


def test_recovery_campaign_jobs_invariant():
    """The acceptance bar: identical results at --jobs 1 and --jobs 2."""
    configs = [_config(16, recovery="ladder"), _config(1, recovery="ladder")]
    serial = CampaignExecutor(1).run_many(configs)
    parallel = CampaignExecutor(2, chunksize=1).run_many(configs)
    assert [r.comparable() for r in parallel] == \
           [r.comparable() for r in serial]


def test_warm_start_recovery_identical_to_cold():
    """The warm-reset checkpoint is the beam-entry state either way, so a
    warm-started recovery run reproduces the cold run byte for byte."""
    config = _config(16, recovery="ladder", beam_delay_s=0.2)
    cold = Campaign(config).run()
    warm = Campaign(config).run(warm=prepare_warm_start(config))
    assert warm.comparable() == cold.comparable()


#: Fast default-device settings for the serialization tests.
FAST = dict(flux=400.0, fluence=300.0, instructions_per_second=20_000.0)


def test_result_store_roundtrip_with_recovery_fields():
    config = CampaignConfig(program="iutest", seed=3, recovery="ladder",
                            **FAST)
    result = Campaign(config).run()
    # Make the recovery fields non-trivial regardless of what the run did.
    result.cycles = 123_456
    result.recoveries = {"warm-reset": 2, "pipeline-restart": 3}
    result.recovery_downtime = {"warm-reset": 90_000, "pipeline-restart": 12}
    result.halts = 2
    result.unrecovered = True
    with CampaignDatabase(":memory:") as db:
        campaign = db.ensure_campaign("runs")
        db.add_results(campaign, [result])
        loaded, = db.results(campaign)
    assert loaded.comparable() == result.comparable()
    assert loaded.config.recovery == "ladder"
    assert loaded.mttr_cycles == result.mttr_cycles


def test_old_result_lines_load_with_defaults():
    """Pre-recovery JSONL lines (no recovery fields) stay loadable."""
    result = Campaign(CampaignConfig(program="iutest", seed=3, **FAST)).run()
    payload = result_to_dict(result)
    for key in ("cycles", "recoveries", "recovery_downtime", "halts",
                "unrecovered"):
        payload.pop(key)
    payload["config"].pop("recovery")
    loaded = result_from_dict(payload)
    assert loaded.config.recovery == "none"
    assert loaded.recoveries == {}
    assert loaded.cycles == 0
    assert not loaded.unrecovered
    assert loaded.sw_errors == result.sw_errors
