"""Golden-timeline grading: early exit, strike batches, byte-identity."""

import dataclasses
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.fault import campaign as campaign_module
from repro.fault.campaign import (
    Campaign,
    CampaignConfig,
    prepare_warm_start,
)
from repro.fault.executor import (
    CampaignExecutor,
    expand_runs,
    plan_batches,
    run_campaign_traced,
)
from repro.fault.grading import (
    DivergenceFix,
    checkpoint_schedule,
    divergence_exit,
    first_strike_instructions,
)
from repro.store import CampaignDatabase
from repro.programs.builder import build_test_program

#: Mid-size settings (10k prefix, 25k window close, 27k end): enough span
#: for a ten-boundary timeline with eight in-window batch anchors, and a
#: periodic flush so struck runs actually reconverge (section 4.8).
MID = dict(flux=400.0, fluence=300.0, instructions_per_second=20_000.0,
           beam_delay_s=0.5, beam_tail_s=0.1,
           flush_period_instructions=4_000)

#: Tiny settings (2.25k instructions end to end) for the wide campaigns.
TINY = dict(flux=400.0, fluence=150.0, instructions_per_second=2_000.0,
            beam_delay_s=0.25, beam_tail_s=0.5,
            flush_period_instructions=400)


def _mid(let=60.0, seed=7, **overrides):
    settings = dict(MID)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


def _tiny(let=60.0, seed=11, **overrides):
    settings = dict(TINY)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


@pytest.fixture(scope="module")
def warm_mid():
    return prepare_warm_start(_mid())


@pytest.fixture(scope="module")
def warm_tiny():
    return prepare_warm_start(_tiny())


# -- the checkpoint schedule ---------------------------------------------------


def test_checkpoint_schedule_shape():
    bounds = checkpoint_schedule(10_000, 15_000, 2_000)
    assert list(bounds) == sorted(set(bounds))
    assert bounds[0] > 10_000
    assert 25_000 in bounds  # the window close is always a boundary
    assert bounds[-1] == 27_000  # ... and so is the run end
    # A pure function of the phase shape: recomputing is byte-identical.
    assert checkpoint_schedule(10_000, 15_000, 2_000) == bounds


def test_checkpoint_schedule_respects_spacing_floor():
    assert checkpoint_schedule(0, 8_000, 0, count=16, min_interval=2_000) \
        == (2_000, 4_000, 6_000, 8_000)


def test_checkpoint_schedule_empty_window():
    assert checkpoint_schedule(5_000, 0, 0) == ()


# -- the golden timeline -------------------------------------------------------


def test_timeline_matches_schedule_and_anchors(warm_mid):
    timeline = warm_mid.timeline
    assert timeline is not None
    prefix, window, tail = _mid().phase_instructions()
    assert timeline.window_close == prefix + window
    assert [cp.instruction for cp in timeline.checkpoints] == \
        list(checkpoint_schedule(prefix, window, tail))
    # Restore snapshots exist exactly at the in-window boundaries.
    for cp in timeline.checkpoints:
        assert (cp.snapshot is not None) == \
            (cp.instruction <= timeline.window_close)
    anchors = timeline.anchors()
    assert anchors[-1].instruction == timeline.window_close
    assert timeline.tail_cycles_from(anchors[-1]) == \
        timeline.end_cycles - anchors[-1].cycles
    # The timeline's end readouts are the strike-free run's: below the
    # SEU threshold nothing lands, so a cold run executes the golden run.
    golden = Campaign(_mid(let=3.0)).run()
    assert golden.upsets == 0
    assert (timeline.end, timeline.end_cycles) == \
        (golden.instructions, golden.cycles)
    assert (timeline.sw_errors, timeline.error_traps, timeline.iterations,
            timeline.halted, timeline.counts) == \
        (golden.sw_errors, golden.error_traps, golden.iterations,
         golden.halted, golden.counts)


def _build_trapper(config, *, iterations, spins):
    """A program that counts down ``spins`` times, then takes an
    unexpected trap and parks on ``_trap_spin`` (about 3 instructions per
    spin)."""
    body = f"""
main:
    set {spins}, %o0
count_down:
    subcc %o0, 1, %o0
    bne count_down
    nop
    ta 1
    nop
"""
    return build_test_program(body, config, name="trapper"), 0


@pytest.mark.parametrize("spins, parks", [
    (50, "prefix"), (250, "window"), (500, "tail")])
def test_timeline_absent_exactly_when_golden_parks_by_window_close(
        monkeypatch, spins, parks):
    """No timeline (and no ACE map) when the golden run parks at or before
    the window close: such a warm start grades nothing and runs full."""
    monkeypatch.setitem(campaign_module._BUILDERS, "trapper", _build_trapper)
    config = dataclasses.replace(_tiny(), program="trapper",
                                 program_kwargs={"spins": spins})
    prefix, window, _tail = config.phase_instructions()
    warm = prepare_warm_start(config)
    assert warm.failed == (parks == "prefix")
    assert (warm.timeline is None) == (parks != "tail")
    if warm.timeline is None:
        assert warm.ace is None
    else:
        # Parked in the tail: the timeline ends early, past the close.
        assert prefix + window < warm.timeline.end < sum(
            config.phase_instructions())
    result = Campaign(config).run(warm=warm)
    if parks != "tail":
        assert result.exit_reason == "full"
    assert result.comparable() == Campaign(config).run().comparable()


def test_timeline_byte_identical_across_preparations(warm_mid):
    again = prepare_warm_start(_mid())
    assert pickle.dumps(again.timeline) == pickle.dumps(warm_mid.timeline)
    assert pickle.dumps(again) == pickle.dumps(warm_mid)


# -- early-exit vs full-execution equivalence ----------------------------------


def test_early_exit_matches_full_oracle_wide_campaign(warm_tiny):
    """200 seeded replicas: fast grading vs the full-execution oracle."""
    configs = expand_runs(_tiny(), 200)
    oracle_configs = [dataclasses.replace(config, early_exit=False)
                      for config in configs]
    oracle = CampaignExecutor(1).run_many(oracle_configs, warm=warm_tiny,
                                          batch=False)
    fast = CampaignExecutor(1).run_many(configs, warm=warm_tiny)
    assert [r.comparable() for r in fast] == \
        [r.comparable() for r in oracle]
    assert all(r.exit_reason == "full" for r in oracle)
    assert any(r.exit_reason == "reconverged" for r in fast)
    assert any(r.upsets > 0 for r in fast)


def test_jobs_invariant_with_batching(warm_mid):
    configs = expand_runs(_mid(), 6)
    serial = CampaignExecutor(1).run_many(configs, warm=warm_mid)
    parallel = CampaignExecutor(4, chunksize=1).run_many(
        configs, warm=warm_mid)
    assert [r.comparable() for r in parallel] == \
        [r.comparable() for r in serial]


def test_resume_reproduces_early_exit_results(warm_tiny, crash_mid_batch):
    configs = expand_runs(_tiny(), 6)
    db = CampaignDatabase(":memory:")
    campaign = db.ensure_campaign("runs")
    batches = []

    def store(batch):
        batches.append(len(batch))
        db.add_results(campaign, batch)

    # The host dies while storing the last run: its whole batch (strike
    # batches release several runs at once) rolls back.
    crash_mid_batch(6)
    with pytest.raises(OSError):
        CampaignExecutor(1).run_many(configs, warm=warm_tiny,
                                     on_results=store)
    full = CampaignExecutor(1).run_many(configs, warm=warm_tiny)
    _, pending = db.split_pending(campaign, configs)
    assert pending == configs[len(configs) - batches[-1]:]
    assert len(db.results(campaign)) == len(configs) - batches[-1] > 0
    # A resumed campaign re-prepares its warm start; the timeline it gets
    # is byte-identical, so grading decisions are too.
    resumed = prepare_warm_start(_tiny())
    assert pickle.dumps(resumed.timeline) == pickle.dumps(warm_tiny.timeline)
    CampaignExecutor(1).run_many(pending, warm=resumed, on_results=store)
    assert [r.comparable() for r in db.results(campaign)] == \
        [r.comparable() for r in full]


def test_early_exit_off_runs_full(warm_mid):
    config = _mid(let=3.0, early_exit=False)
    result = Campaign(config).run(warm=warm_mid)
    assert result.exit_reason == "full"
    assert not result.effaced
    # Static grading would claim this run first (its strikes are all
    # provably dead); hold it off so the early-exit path stays observable.
    on = Campaign(_mid(let=3.0, static_grading=False)).run(warm=warm_mid)
    assert on.exit_reason == "reconverged"
    assert result.comparable() == on.comparable()


def test_exit_fields_excluded_from_comparable(warm_mid):
    result = Campaign(_mid(let=3.0, static_grading=False)).run(warm=warm_mid)
    assert result.exit_reason == "reconverged"
    assert result.graded_at_instruction is not None
    comparable = result.comparable()
    assert "exit_reason" not in comparable
    assert "graded_at_instruction" not in comparable
    assert "early_exit" not in comparable["config"]


# -- permanent-divergence detection --------------------------------------------

#: Parked settings: the program finishes its single iteration mid-window
#: and parks alive at ``_exit``, so strikes landing afterwards stay
#: latent forever -- the faulted digest repeats at every later boundary
#: and the fixed-point detector can extrapolate the tail.
PARKED = dict(flux=400.0, fluence=600.0, instructions_per_second=20_000.0,
              beam_delay_s=0.1, beam_tail_s=0.5,
              program_kwargs={"iterations": 1})


def _parked(let=60.0, seed=11, **overrides):
    settings = dict(PARKED)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


@pytest.fixture(scope="module")
def warm_parked():
    return prepare_warm_start(_parked())


def test_divergence_exit_math():
    fix = DivergenceFix(boundary=10_000, period=2_500,
                        cycles_per_period=3_000)
    assert divergence_exit(fix, 20_000) == (4, 0)
    assert divergence_exit(fix, 21_300) == (4, 1_300)
    assert divergence_exit(fix, 11_200) == (0, 1_200)
    assert divergence_exit(fix, 10_000) == (0, 0)


def test_diverged_matches_full_oracle_parked_campaign(warm_parked):
    """Latent parked runs: fixed-point exits vs the full-execution oracle."""
    configs = expand_runs(_parked(), 24)
    oracle_configs = [dataclasses.replace(config, early_exit=False)
                      for config in configs]
    oracle = CampaignExecutor(1).run_many(oracle_configs, warm=warm_parked,
                                          batch=False)
    fast = CampaignExecutor(1).run_many(configs, warm=warm_parked)
    assert [r.comparable() for r in fast] == \
        [r.comparable() for r in oracle]
    diverged = [r for r in fast if r.exit_reason == "diverged"]
    assert diverged  # the detector actually fired
    total = sum(_parked().phase_instructions())
    for result in diverged:
        # The extrapolated readouts claim the full run's span.
        assert result.instructions == total
        assert result.graded_at_instruction is not None
        assert result.graded_at_instruction < total
        assert not result.effaced


def test_divergence_declines_when_flush_phase_shifts(warm_parked):
    """A flush period that does not divide the boundary gap breaks the
    periodicity proof: the detector must decline (runs drain fully)."""
    config = _parked(flush_period_instructions=1_000)
    warm = prepare_warm_start(config)
    results = CampaignExecutor(1).run_many(expand_runs(config, 6), warm=warm)
    assert all(r.exit_reason != "diverged" for r in results)


# -- batched strike scheduling -------------------------------------------------


def test_plan_batches_partitions_by_first_strike(warm_mid):
    configs = expand_runs(_mid(), 8)
    batches = plan_batches(configs, warm_mid)
    assert batches is not None
    covered = sorted(i for b in batches for i in b.indices)
    assert covered == list(range(len(configs)))
    anchors = warm_mid.timeline.anchors()
    firsts = first_strike_instructions(configs)
    for batch in batches:
        if batch.start is None:
            continue
        for index in batch.indices:
            first = firsts[index]
            if first is None:
                assert batch.start == anchors[-1]
            else:
                fits = [a for a in anchors if a.instruction <= first]
                assert batch.start == fits[-1]


def test_strike_free_runs_anchor_at_window_close(warm_mid):
    configs = [_mid(let=3.0, seed=seed) for seed in (1, 2)]
    batches = plan_batches(configs, warm_mid)
    assert batches is not None and len(batches) == 1
    assert batches[0].start == warm_mid.timeline.anchors()[-1]
    assert batches[0].indices == (0, 1)


def test_plan_batches_requires_a_timeline(warm_mid):
    assert plan_batches([_mid()], None) is None
    gutted = dataclasses.replace(warm_mid, timeline=None)
    assert plan_batches([_mid()], gutted) is None


def test_batched_start_matches_unbatched_run(warm_mid):
    anchors = warm_mid.timeline.anchors()
    chosen = start = None
    for seed in range(1, 40):
        config = _mid(seed=seed)
        first = first_strike_instructions([config])[0]
        if first is None:
            continue
        fits = [a for a in anchors if a.instruction <= first]
        if fits and fits[-1].instruction > warm_mid.executed:
            chosen, start = config, fits[-1]
            break
    assert chosen is not None, "no seed strikes past the first anchor"
    plain = Campaign(chosen).run(warm=warm_mid)
    batched = Campaign(chosen).run(warm=warm_mid, start=start)
    assert batched.comparable() == plain.comparable()
    assert batched.upsets > 0


def test_strike_free_batched_start_reconverges_on_the_spot(warm_mid):
    # static_grading off: the analyzer would claim this run before the
    # batched-start reconvergence check this test is about gets to run.
    config = _mid(let=3.0, static_grading=False)
    start = warm_mid.timeline.anchors()[-1]
    plain = Campaign(config).run(warm=warm_mid)
    batched = Campaign(config).run(warm=warm_mid, start=start)
    assert batched.comparable() == plain.comparable()
    assert batched.exit_reason == "reconverged"
    assert batched.graded_at_instruction == warm_mid.timeline.window_close


def test_start_requires_warm_and_snapshot(warm_mid):
    anchor = warm_mid.timeline.anchors()[0]
    with pytest.raises(ConfigurationError):
        Campaign(_mid()).run(start=anchor)
    tail_checkpoint = warm_mid.timeline.checkpoints[-1]
    assert tail_checkpoint.snapshot is None
    with pytest.raises(ConfigurationError):
        Campaign(_mid()).run(warm=warm_mid, start=tail_checkpoint)


def test_start_past_first_upset_rejected(warm_mid):
    last = warm_mid.timeline.anchors()[-1]
    for seed in range(1, 40):
        config = _mid(seed=seed)
        first = first_strike_instructions([config])[0]
        if first is not None and first < last.instruction:
            with pytest.raises(ConfigurationError):
                Campaign(config).run(warm=warm_mid, start=last)
            return
    pytest.fail("no struck config found")


# -- telemetry parity ----------------------------------------------------------


def test_traced_lifecycle_matches_full_execution(warm_mid):
    """Strike/detect/resolve/close streams are byte-identical: the close
    events of a graded run carry the golden end-of-run instruction."""
    config = None
    for seed in range(1, 12):
        candidate = _mid(seed=seed)
        probe = Campaign(candidate).run(warm=warm_mid)
        if probe.exit_reason == "reconverged" and probe.upsets > 0:
            config = candidate
            break
    assert config is not None, "no struck seed reconverged"
    fast = run_campaign_traced(config, warm_mid)
    oracle = run_campaign_traced(
        dataclasses.replace(config, early_exit=False), warm_mid)
    kinds = ("strike", "detect", "resolve", "close")
    assert [e for e in fast.trace if e["ev"] in kinds] == \
        [e for e in oracle.trace if e["ev"] in kinds]
    assert any(e["ev"] == "early-exit" for e in fast.trace)
    assert all(e["ev"] != "early-exit" for e in oracle.trace)
    assert fast.comparable() == oracle.comparable()
