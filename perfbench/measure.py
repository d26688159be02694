"""What one benchmark run measures: setup, campaigns, the sim run, checks.

Host time throughout, except where a name says *simulated*.  The
end-to-end pass runs untraced; the traced pass (``--trace 1``) repeats
one campaign under :class:`tracing.Tracer` and derives the per-layer
metrics from its spans and counters.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.system import LeonSystem
from repro.fault.campaign import CampaignResult, WarmStart, \
    prepare_warm_start, resolve_builder
from repro.fault.executor import CampaignExecutionError, CampaignExecutor, \
    run_campaign
from repro.programs.builder import ProgramHarness
from repro.store import CampaignDatabase, fold_results

from tracing import Tracer
from workloads import Workload, run_key

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Campaign cycles per run: one per CYCLE_SECONDS of ``--seconds``
#: (a cycle takes about that long on a 2-core host), between MIN_CYCLES
#: and MAX_CYCLES (the expected readouts are committed for that many at
#: the default seed).  A fixed count keeps every run's inputs, memory
#: and sim length the same.
CYCLE_SECONDS = 5.0
MIN_CYCLES = 2
MAX_CYCLES = 4
#: Setups per run (one per cycle, topped up to this many for the median).
MIN_SETUPS = 3

#: Timed chunks of the fault-free sim run.
SIM_CHUNKS = 16


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


def host_speed() -> float:
    """Iterations/s of the fixed pure-Python loop that ``_host_speed`` in
    benchmarks/test_perf_throughput.py times, so the records line up."""
    best = 0.0
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * 17) & 0xFFFFFFFF
        best = max(best, 200_000 / (time.perf_counter() - started))
    return best


def host_fingerprint() -> Dict[str, object]:
    """Recorded with every result; nothing gates on it."""
    return {"nproc": nproc(), "platform": platform.platform(),
            "python": platform.python_version(),
            "host_speed": round(host_speed(), 1)}


def readout_hash(result: CampaignResult) -> str:
    """Hash of a run's measured readouts: ``comparable()`` (cycles
    included) as canonical JSON."""
    blob = json.dumps(result.comparable(), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


def run_sampling_rss(config, warm=None, start=None) -> CampaignResult:
    """The default runner, plus the worker's peak RSS (KiB) riding back
    on the result as an extra attribute (not a dataclass field, so
    ``comparable()`` and the store never see it)."""
    result = run_campaign(config, warm, start)
    result.worker_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


@contextlib.contextmanager
def jit_disabled():
    previous = os.environ.get("REPRO_JIT")
    os.environ["REPRO_JIT"] = "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_JIT", None)
        else:
            os.environ["REPRO_JIT"] = previous


@dataclass
class Checks:
    """Runs attempted and failed, and the expected readouts in use."""

    workload: Workload
    seed: int
    jobs: int
    expected: Dict[str, str] = field(default_factory=dict)
    sim: Optional[Dict] = None
    attempted: int = 0
    failed: int = 0
    #: Runs the oracle executed in this process, and its wall time.
    oracle_runs: int = 0
    oracle_s: float = 0.0
    _oracle_warm: Optional[WarmStart] = None

    @classmethod
    def load(cls, workload: Workload, seed: int, jobs: int) -> "Checks":
        checks = cls(workload, seed, jobs)
        path = EXPECTED_DIR / f"{workload.name}.json"
        record = json.loads(path.read_text())
        # The sim run is fault-free and seed-independent.
        checks.sim = record["sim"]
        if seed == record["seed"]:
            checks.expected = dict(record["runs"])
        return checks

    def ensure(self, configs) -> None:
        """Run the full-execution oracle for runs without a committed
        readout: no early exit, no static grading, no JIT, from a warm
        start prepared without the JIT."""
        missing = [c for c in configs if run_key(c) not in self.expected]
        if missing:
            started = time.perf_counter()
            if self._oracle_warm is None:
                self._oracle_warm = oracle_warm(self.workload)
            self.expected.update(oracle_hashes(missing, self._oracle_warm,
                                               self.jobs))
            self.oracle_runs += len(missing)
            self.oracle_s += time.perf_counter() - started

    def check_runs(self, configs, results, stored) -> None:
        by_key = {run_key(r.config): r for r in stored}
        for config, result in zip(configs, results):
            want = self.expected[run_key(config)]
            copy = by_key.get(run_key(config))
            self.attempted += 1
            if (result is None or readout_hash(result) != want
                    or copy is None or readout_hash(copy) != want):
                self.failed += 1

    def check_sim(self, sim: "SimRun") -> None:
        self.attempted += 1
        want = self.sim
        if (not sim.complete or sim.chunks != SIM_CHUNKS
                or sim.instructions != want["instructions"]
                or sim.digest != want["state_digest"]
                or sim.perf != want["perf"]):
            self.failed += 1


def oracle_warm(workload: Workload) -> WarmStart:
    """The oracle's warm start: the golden prefix executed without JIT."""
    with jit_disabled():
        return prepare_warm_start(workload.base,
                                  checkpoints=workload.checkpoints)


def oracle_hashes(configs, warm: WarmStart, jobs: int) -> Dict[str, str]:
    """Readout hashes of the configs run in full, unbatched, without JIT."""
    with jit_disabled():
        reference = [replace(c, early_exit=False, static_grading=False)
                     for c in configs]
        results = CampaignExecutor(jobs).run_many(reference, warm=warm,
                                                  batch=False)
    return {run_key(c): readout_hash(r) for c, r in zip(configs, results)}


class SimRun:
    """One fault-free run of the workload's program on its device.

    Boots through ProgramHarness and warms up until the JIT has compiled
    the program's hot loops (``workload.sim_warmup``); :meth:`advance`
    then times ``run_fast`` chunk by chunk.  The end-to-end pass spreads
    the chunks over the whole run, between its campaign cycles, because
    the host's speed swings in phases of 10-20 s; the run always totals
    SIM_CHUNKS chunks, so its final state is fixed.
    """

    def __init__(self, workload: Workload, *, jit: bool) -> None:
        self.chunk = workload.sim_instructions
        leon = workload.leon
        self.system = LeonSystem(leon, jit=jit)
        program, _checksum = resolve_builder(workload.base.program)(
            leon, iterations=1_000_000)
        ProgramHarness(self.system, program)
        self.instructions = self.system.run_fast(
            workload.sim_warmup).instructions
        self.complete = self.instructions == workload.sim_warmup
        self.chunks = 0
        self.seconds = 0.0

    def advance(self, chunks: int) -> None:
        for _ in range(chunks):
            started = time.perf_counter()
            done = self.system.run_fast(self.chunk).instructions
            self.seconds += time.perf_counter() - started
            self.instructions += done
            self.complete = self.complete and done == self.chunk
            self.chunks += 1

    @property
    def ips(self) -> float:
        """Simulated instructions per host second over the timed chunks."""
        return self.chunks * self.chunk / self.seconds

    def finish(self) -> "SimRun":
        self.advance(SIM_CHUNKS - self.chunks)
        self.digest = self.system.state_digest()
        self.perf = self.system.perf.capture()
        return self


@dataclass
class CampaignRun:
    wall_s: float
    #: Executor results in config order (None: the run raised).
    results: List[Optional[CampaignResult]]
    #: The results as the Table-2 read saw them.
    stored: List[CampaignResult]


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer else contextlib.nullcontext({})


def campaign(workload: Workload, configs, warm, jobs: int, workdir: Path,
             tracer: Optional[Tracer] = None) -> CampaignRun:
    """Steps 2 and 3 of the load model: run the configs on the executor,
    ingesting each batch as it completes, then read Table 2 back.

    The store keys runs by ``config_key``, which refuses a non-default
    device, so a campaign on a custom device (random7-static) cannot be
    stored; it folds its in-memory results instead.
    """
    db = None
    if workload.base.leon is None:
        handle, path = tempfile.mkstemp(suffix=".db", dir=workdir)
        os.close(handle)
        db = CampaignDatabase(path)
        campaign_id = db.ensure_campaign(workload.name)

    def ingest(batch) -> None:
        with _span(tracer, "store.ingest") as record:
            record["runs"] = len(batch)
            db.add_results(campaign_id, batch)

    executor = CampaignExecutor(jobs, runner=run_sampling_rss)
    try:
        started = time.perf_counter()
        with _span(tracer, "campaign"):
            try:
                with _span(tracer, "fault.executor"):
                    results = executor.run_many(
                        configs, warm=warm,
                        on_results=ingest if db is not None else None)
            except CampaignExecutionError as exc:
                results = exc.results
            with _span(tracer, "store.read"):
                stored = db.results(campaign_id) if db is not None \
                    else [r for r in results if r is not None]
            with _span(tracer, "store.fold"):
                fold_results(stored)
        wall = time.perf_counter() - started
    finally:
        if db is not None:
            db.close()
    return CampaignRun(wall, results, stored)


def peak_rss_mb(runs: List[CampaignRun]) -> Dict[str, float]:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = max((getattr(r, "worker_rss_kb", 0)
                  for run in runs for r in run.results if r is not None),
                 default=0)
    return {"process_mb": own / 1024, "worker_mb": worker / 1024}


@contextlib.contextmanager
def workspace(root: Path):
    """A scratch directory inside the checkout, removed afterwards."""
    base = root / ".perfbench"
    base.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def cycle_count(seconds: float) -> int:
    return min(MAX_CYCLES, max(MIN_CYCLES, round(seconds / CYCLE_SECONDS)))


def end_to_end(workload: Workload, checks: Checks, seconds: float,
               workdir: Path, smoke: bool = False) -> Dict[str, float]:
    """The untraced pass: campaign cycles, extra setups, the sim run.

    ``smoke`` shrinks it to one run per LET, one cycle and one setup."""
    replicas, cycles, min_setups = (1, 1, 1) if smoke else \
        (0, cycle_count(seconds), MIN_SETUPS)
    sim = SimRun(workload, jit=True)
    sim.advance(SIM_CHUNKS // (cycles + 1))
    setups: List[float] = []
    runs: List[CampaignRun] = []
    for cycle in range(cycles):
        configs = workload.configs(checks.seed, cycle, replicas)
        checks.ensure(configs)  # before timing
        started = time.perf_counter()
        warm = prepare_warm_start(workload.base,
                                  checkpoints=workload.checkpoints)
        setups.append(time.perf_counter() - started)
        run = campaign(workload, configs, warm, checks.jobs, workdir)
        del warm
        checks.check_runs(configs, run.results, run.stored)
        runs.append(run)
        sim.advance(SIM_CHUNKS // (cycles + 1))
    while len(setups) < min_setups:
        started = time.perf_counter()
        prepare_warm_start(workload.base, checkpoints=workload.checkpoints)
        setups.append(time.perf_counter() - started)
    checks.check_sim(sim.finish())
    rss = peak_rss_mb(runs)
    return {
        "setup_s": statistics.median(setups),
        # Each cycle's configs are fresh draws from the seed, so the mean
        # over cycles estimates the workload's campaign wall; a median of
        # two or three draws would throw half of them away.
        "campaign_s": statistics.fmean(run.wall_s for run in runs),
        "sim_ips": sim.ips,
        "peak_rss_mb": rss["process_mb"] + rss["worker_mb"],
        "cycles": len(runs),
        "runs": sum(len(run.results) for run in runs),
        "process_rss_mb": rss["process_mb"],
        "worker_rss_mb": rss["worker_mb"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced(workload: Workload, checks: Checks, workdir: Path,
           smoke: bool = False) -> "tuple[Dict[str, float], Tracer]":
    """The traced pass: setup under the tracer; one campaign untraced at
    jobs=nproc (parallel efficiency) and at jobs=1 (the reference for the
    tracing cost); the same campaign at jobs=1 and the sim run under the
    tracer; then the interpreted sim run."""
    configs = workload.configs(checks.seed, 0, 1 if smoke else 0)
    checks.ensure(configs)
    tracer = Tracer()
    with tracer.patched():
        with tracer.span("setup") as setup:
            warm = prepare_warm_start(workload.base,
                                      checkpoints=workload.checkpoints)
        tracer.fold_jit()
    parallel = campaign(workload, configs, warm, checks.jobs, workdir)
    checks.check_runs(configs, parallel.results, parallel.stored)
    plain = campaign(workload, configs, warm, 1, workdir)
    checks.check_runs(configs, plain.results, plain.stored)
    with tracer.patched():
        run = campaign(workload, configs, warm, 1, workdir, tracer)
        with tracer.span("sim"):
            sim = SimRun(workload, jit=True).finish()
        tracer.systems.append(sim.system)
        tracer.fold_jit()
    checks.check_runs(configs, run.results, run.stored)
    checks.check_sim(sim)
    # Interpreted speed over the sim run's first two timed chunks (the
    # JIT sim run already checks the readouts).
    interp = SimRun(workload, jit=False)
    interp.advance(2)

    by_name = tracer.by_name

    def in_runs(name: str) -> List[Dict]:
        """Spans of ``name`` inside any traced ``Campaign.run``."""
        return [s for s in by_name(name) if s["run"] is not None]

    runs = by_name("fault.run")
    done = [r for r in run.results if r is not None]
    run_s = tracer.total(runs)
    run_self_s = sum(tracer.self_time(span) for span in runs)
    executed = sum(s["instructions"] for s in in_runs("core.run_fast"))
    digests = in_runs("state.digest")
    snapshots = in_runs("state.snapshot")
    encodes = in_runs("state.encode")
    restores = in_runs("state.restore")
    decodes = in_runs("state.decode")
    store_s = tracer.total(by_name("store.ingest") + by_name("store.read")
                           + by_name("store.fold"))
    campaign_wall = tracer.total(by_name("campaign"))
    core = by_name("core.run_fast")
    core_s = tracer.total(core)
    instructions = sum(s["instructions"] for s in core)
    jit = tracer.jit_totals
    parallel_walls = sum(r.wall_seconds for r in parallel.results
                         if r is not None)
    plain_walls = sum(r.wall_seconds for r in plain.results if r is not None)
    traced_walls = sum(r.wall_seconds for r in done)
    exits = {reason: 0 for reason in
             ("static_masked", "reconverged", "diverged", "full")}
    for result in done:
        exits[result.exit_reason] = exits.get(result.exit_reason, 0) + 1
    ace = warm.ace
    metrics = {
        "fault.run_s": run_s,
        "fault.run_self_s": run_self_s,
        **{f"fault.exit.{reason}": count for reason, count in exits.items()},
        "fault.upsets": sum(r.upsets for r in done),
        "fault.executed_frac": _ratio(executed,
                                      sum(r.instructions for r in done)),
        "fault.boundaries_per_run": _ratio(len(digests), len(done)),
        "fault.executor.parallel_eff": _ratio(
            parallel_walls, checks.jobs * parallel.wall_s),
        "fault.executor.overhead_s": campaign_wall - run_s - store_s,
        "state.digest_ms": 1e3 * _ratio(tracer.total(digests), len(digests)),
        "state.digest_calls": len(digests),
        "state.snapshot_ms": 1e3 * _ratio(
            tracer.total(snapshots) + tracer.total(encodes), len(snapshots)),
        "state.snapshot_calls": len(snapshots),
        "state.restore_ms": 1e3 * _ratio(
            tracer.total(restores) + tracer.total(decodes), len(restores)),
        "state.restore_calls": len(restores),
        "core.run_fast_s": core_s,
        "core.instructions": instructions,
        "core.ips": _ratio(instructions, core_s),
        "jit.coverage": _ratio(jit.get("burst_instructions", 0),
                               instructions),
        "jit.mean_burst": _ratio(jit.get("burst_instructions", 0),
                                 jit.get("bursts", 0)),
        "jit.deopt_ratio": _ratio(jit.get("deopts", 0), jit.get("bursts", 0)),
        "jit.compile_fail_ratio": _ratio(
            jit.get("compile_failures", 0),
            jit.get("compiles", 0) + jit.get("compile_failures", 0)),
        "jit.verify_drops": jit.get("verify_drops", 0),
        "iu.interp_ips": interp.ips,
        "cache.icache_hit_ratio": _ratio(
            sim.perf["icache_hits"],
            sim.perf["icache_hits"] + sim.perf["icache_misses"]),
        "cache.dcache_hit_ratio": _ratio(
            sim.perf["dcache_hits"],
            sim.perf["dcache_hits"] + sim.perf["dcache_misses"]),
        "analysis.analyze_s": tracer.total(
            tracer.under(setup, "analysis.analyze")),
        "analysis.ace_fraction": ace.ace_fraction() if ace is not None
        else 0.0,
        "setup.run_fast_s": tracer.total(tracer.under(setup,
                                                      "core.run_fast")),
        "setup.digest_s": tracer.total(tracer.under(setup, "state.digest")),
        "setup.snapshot_s": tracer.total(
            tracer.under(setup, "state.snapshot")
            + tracer.under(setup, "state.encode")),
        "store.ingest_ms": 1e3 * _ratio(tracer.total(by_name("store.ingest")),
                                        len(done)),
        "store.fold_ms": 1e3 * tracer.total(by_name("store.read")
                                            + by_name("store.fold")),
        "trace.overhead_frac": _ratio(traced_walls - plain_walls,
                                      plain_walls),
    }
    return metrics, tracer
