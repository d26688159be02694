"""The SEU campaign runner: the simulator's Louvain test procedure.

Reproduces the measurement loop of section 6: run a self-checking test
program, let the beam strike the device, read the on-chip error-monitor
counters (ITE / IDE / DTE / DDE / RFE), verify the program's checksum, and
classify failures (error traps or software-detected corruption).

Time scaling
------------
Real beam runs inject ~1 upset per hundreds of milliseconds while the
device executes tens of millions of instructions per second.  Simulating
that literally is infeasible, so the campaign maps beam time to simulated
instructions through ``instructions_per_second`` -- the *virtual device
speed*.  Error counts and cross-sections are unbiased under this scaling
(every upset is still detected or missed by exactly the same program
logic); what accelerates is the ratio of upset arrivals to storage
*residency* time, which only matters for the multiple-error build-up
experiment (E6) where the flux axis is scaled accordingly (EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.analysis.program import AceMap, analyze_program, entry_context
from repro.core.config import LeonConfig
from repro.core.system import LeonSystem
from repro.errors import ConfigurationError
from repro.fault.beam import BeamParameters
from repro.fault.grading import (
    DEFAULT_CHECKPOINTS,
    DivergenceFix,
    GoldenCheckpoint,
    GoldenTimeline,
    checkpoint_schedule,
    divergence_exit,
)
from repro.fault.injector import FaultInjector
from repro.fault.models import build_model
from repro.iu.pipeline import HaltReason
from repro.programs import (
    ProgramHarness,
    build_cncf,
    build_iutest,
    build_paranoia,
    build_random,
)
from repro.recovery import RecoveryController, RecoveryLevel, resolve_policy
from repro.state.snapshot import Snapshot
from repro.telemetry.bus import NULL_TELEMETRY, Telemetry

_BUILDERS = {
    "iutest": build_iutest,
    "paranoia": build_paranoia,
    "cncf": build_cncf,
}


def resolve_builder(program: str):
    """Builder for a ``--program`` spec: a named program or ``random:<seed>``.

    ``random:<seed>`` builds a seeded self-checking straight-line program
    (:func:`repro.programs.build_random`), so campaigns can sweep workload
    diversity without hand-written tests.  Raises ConfigurationError for
    anything else.
    """
    if program in _BUILDERS:
        return _BUILDERS[program]
    if program.startswith("random:"):
        spec = program.split(":", 1)[1]
        try:
            seed = int(spec, 0)
        except ValueError:
            raise ConfigurationError(
                f"bad random program spec {program!r} "
                "(expected random:<seed>)") from None

        def build(config, **kwargs):
            return build_random(config, seed=seed, **kwargs)
        return build
    raise ConfigurationError(
        f"unknown test program {program!r} "
        f"(choose from {sorted(_BUILDERS)} or random:<seed>)")


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign run: a program under one beam setting."""

    program: str = "iutest"
    let: float = 110.0
    flux: float = 400.0  # ions / s / cm^2
    fluence: float = 1.0e4  # ions / cm^2 (the paper's runs: 1e5)
    seed: int = 1
    #: Virtual device speed: simulated instructions per beam second.
    instructions_per_second: float = 50_000.0
    #: Hard cap on simulated instructions (safety valve).
    max_instructions: int = 20_000_000
    #: Periodic cache flush, in instructions (0 = never).  Section 4.8:
    #: "In small programs, a cache flush could therefore periodically be
    #: performed to force a refresh of all cache contents" -- flushing
    #: discards latent cache errors before they can pair up.
    flush_period_instructions: int = 0
    leon: Optional[LeonConfig] = None
    program_kwargs: Dict = field(default_factory=dict)
    #: Fault-free warm-up before the beam opens, in beam seconds.  The run
    #: executes ``beam_delay_s * instructions_per_second`` instructions with
    #: the shutter closed -- the stretch warm-start campaigns snapshot past.
    beam_delay_s: float = 0.0
    #: Strike-free observation stretch after the beam closes, in beam
    #: seconds.  Gives latent errors time to surface (and effaced runs time
    #: to be worth skipping).
    beam_tail_s: float = 0.0
    #: Recovery policy name (:data:`repro.recovery.POLICIES`): "none"
    #: terminates the run at the first halt/park as before; any other
    #: policy lets the supervision logic recover and the run continue
    #: *through* failures, recording per-level counts and downtime.
    recovery: str = "none"
    #: Golden-timeline early-exit grading (``--no-early-exit`` clears it).
    #: An execution-strategy knob only -- measured results are
    #: byte-identical either way -- so it is excluded from
    #: :func:`warm_start_key`, the result-store key, and
    #: :meth:`CampaignResult.comparable`.
    early_exit: bool = True
    #: Static ACE-map pre-classification (``--no-static`` clears it): a
    #: transient strike landing in a register word the static analyzer
    #: proved dead is graded ``masked`` with the golden readouts *without
    #: executing the run at all* (``exit_reason="static_masked"``).
    #: Requires ``early_exit`` (one oracle switch disables every
    #: shortcut).  Like ``early_exit``, an execution-strategy knob:
    #: byte-identical results, excluded from the warm-start key, the
    #: result-store key, and :meth:`CampaignResult.comparable`.
    static_grading: bool = True
    #: Fault model (:data:`repro.fault.models.MODELS`): ``"seu"`` is the
    #: paper's transient bit-flip beam, byte-identical to the
    #: pre-model-layer campaign; see the module docs for ``stuck-at-0/1``,
    #: ``sefi``, ``instruction-skip`` and ``opcode``.
    fault_model: str = "seu"
    #: Model-specific parameters (attack models: ``pc``, ``window``,
    #: ``bit``, ``time_s``).  Serialized to the result-store key only when
    #: non-empty, so default-model keys are unchanged.
    fault_params: Dict = field(default_factory=dict)

    def beam_parameters(self) -> BeamParameters:
        return BeamParameters(let=self.let, flux=self.flux,
                              fluence=self.fluence, seed=self.seed)

    def phase_instructions(self) -> "tuple[int, int, int]":
        """(prefix, window, tail) instruction counts for this run.

        The window formula is unchanged from the pre-warm-start campaign
        runner, so configs with zero delay/tail reproduce recorded results
        exactly.
        """
        ips = self.instructions_per_second
        prefix = int(self.beam_delay_s * ips)
        window = min(int(self.beam_parameters().duration_s * ips),
                     self.max_instructions)
        tail = int(self.beam_tail_s * ips)
        return prefix, window, tail


@dataclass
class CampaignResult:
    """What the host computer logged for one run."""

    config: CampaignConfig
    counts: Dict[str, int]  # ITE IDE DTE DDE RFE Total
    upsets: int  # physical strikes applied
    upsets_by_target: Dict[str, int]
    sw_errors: int  # checksum mismatches the program caught
    error_traps: int  # unexpected traps (incl. register/memory error traps)
    halted: bool  # processor reached error mode
    iterations: int  # completed program self-check iterations
    instructions: int
    #: Host wall-clock time of the run, seconds (0.0 in pre-existing logs).
    wall_seconds: float = 0.0
    #: Device cycles the run consumed, including recovery downtime
    #: (0 in pre-existing logs).
    cycles: int = 0
    #: Recovery actions applied, by ladder level (empty without a policy).
    recoveries: Dict[str, int] = field(default_factory=dict)
    #: Downtime charged by each ladder level, device cycles.
    recovery_downtime: Dict[str, int] = field(default_factory=dict)
    #: Error-mode halts the run recovered from (an *unrecovered* final
    #: halt reports through ``halted`` as before).
    halts: int = 0
    #: True when a recovery policy was active but gave up (attempt budget
    #: exhausted or no applicable rung) and the run ended failed.
    unrecovered: bool = False
    #: How classification concluded: ``"full"`` (the complete measurement
    #: loop executed), ``"reconverged"`` (the architectural digest hit a
    #: golden-timeline checkpoint and the golden readouts were reported),
    #: ``"diverged"`` (a fixed point was caught and its periods through
    #: the run end extrapolated) or ``"static_masked"`` (the ACE map
    #: proved every strike dead; nothing was executed).  ``""`` in
    #: pre-grading logs.  Execution annotation only -- every *measured*
    #: field is identical to the full run's.
    exit_reason: str = ""
    #: Instruction count at which grading concluded an early exit
    #: (None for full runs and pre-grading logs).
    graded_at_instruction: Optional[int] = None
    #: Telemetry events of the run (traced executor runs only; never
    #: serialized with the result row -- traces have their own sink).
    trace: Optional[list] = None

    @property
    def effaced(self) -> bool:
        """True when the run reported the golden readouts: its faulted
        trajectory provably rejoined (or never left) the golden one.  Cold
        runs have no golden timeline and are never effaced."""
        return self.exit_reason in ("reconverged", "static_masked")

    @property
    def instructions_per_second(self) -> float:
        """Host throughput of the run (simulated instructions / wall second)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions / self.wall_seconds

    @property
    def failures(self) -> int:
        """Paper terminology: "error traps or software failures".

        Recovered halts count exactly like the terminal halt of a
        no-recovery run, so failure totals stay comparable across
        policies."""
        return (self.sw_errors + self.error_traps + self.halts
                + (1 if self.halted else 0))

    @property
    def recovery_events(self) -> int:
        """Total recovery actions applied."""
        return sum(self.recoveries.values())

    @property
    def downtime_cycles(self) -> int:
        """Total downtime charged by recoveries, device cycles."""
        return sum(self.recovery_downtime.values())

    @property
    def mttr_cycles(self) -> float:
        """Mean time to repair: downtime per recovery action, cycles."""
        events = self.recovery_events
        return self.downtime_cycles / events if events else 0.0

    @property
    def availability(self) -> float:
        """In-beam availability: fraction of device time doing useful work."""
        if self.cycles <= 0:
            return 1.0
        return 1.0 - self.downtime_cycles / self.cycles

    @property
    def undetected_errors(self) -> int:
        """Errors that escaped the FT machinery and corrupted results."""
        return self.sw_errors

    def cross_section(self, kind: str = "Total") -> float:
        """Measured cross-section, cm^2: corrected errors per unit fluence."""
        return self.counts[kind] / self.config.fluence

    def cross_sections(self) -> Dict[str, float]:
        return {kind: count / self.config.fluence
                for kind, count in self.counts.items()}

    def row(self) -> Dict[str, object]:
        """One Table 2 row."""
        out: Dict[str, object] = {
            "TEST": self.config.program.upper()[:4],
            "LET": self.config.let,
        }
        out.update(self.counts)
        out["X-sect"] = self.cross_section("Total")
        return out

    def comparable(self) -> Dict[str, object]:
        """The deterministic measurement fields, for byte-identity checks.

        Excludes ``wall_seconds`` (host timing), ``exit_reason`` and
        ``graded_at_instruction`` (execution annotations that depend on
        whether a golden timeline was available, not on what was
        measured; ``effaced`` derives from them), ``trace`` (observation,
        with host wall times inside), and the config's ``early_exit``
        strategy switch.
        """
        out = dataclasses.asdict(self)
        out.pop("wall_seconds", None)
        out.pop("exit_reason", None)
        out.pop("graded_at_instruction", None)
        out.pop("trace", None)
        out["config"].pop("early_exit", None)
        out["config"].pop("static_grading", None)
        return out


def warm_start_key(config: CampaignConfig) -> tuple:
    """Everything a warm-start snapshot depends on.

    The beam-window *timeline* and the fault-free prefix are functions of
    these fields; LET and seed are deliberately absent -- they only shape
    the strike schedule, so one warm start serves a whole LET sweep and
    every derived-seed replica.
    """
    return (
        config.program,
        tuple(sorted(config.program_kwargs.items())),
        config.instructions_per_second,
        config.max_instructions,
        config.flush_period_instructions,
        config.flux,
        config.fluence,
        config.beam_delay_s,
        config.beam_tail_s,
        config.leon,
    )


@dataclass(frozen=True)
class WarmStart:
    """A shared campaign prefix: snapshot bytes plus the golden timeline.

    Produced once by :func:`prepare_warm_start` in the parent process and
    shipped (pickled) to every worker; workers restore the snapshot instead
    of re-executing the prefix.
    """

    key: tuple
    snapshot: bytes
    executed: int
    since_flush: int
    failed: bool
    spin_pc: int
    result_base: int
    #: Golden digest timeline and end-of-run readouts, for early-exit
    #: grading and strike batching.  None exactly when the golden run
    #: parked at or before the window close.
    timeline: Optional[GoldenTimeline] = None
    #: Static ACE map of the program from the snapshot state
    #: (:mod:`repro.analysis.program`), for strike pre-classification.
    #: Only attached when the golden run completed trap-free -- the
    #: soundness witness the static claims require.
    ace: Optional[AceMap] = None


@dataclass
class _RunContext:
    """One run in flight: what setup, the strike loop, the grading ladder
    and the readout share."""

    started: float
    #: None for a statically graded run, which executes nothing.
    system: Optional[LeonSystem]
    spin: int = 0
    result_base: int = 0
    #: ``executed`` / ``since_flush`` / ``failed`` (see ``_run_until``).
    state: Dict = field(default_factory=dict)
    recovery: Optional[RecoveryController] = None
    #: Result-area tallies banked by reset recoveries, and the baselines
    #: the next harvest subtracts.
    harvested: Dict[str, int] = field(default_factory=lambda: {
        "sw_errors": 0, "error_traps": 0, "iterations": 0,
        "base_sw_errors": 0, "base_iterations": 0})
    injector: Optional[FaultInjector] = None
    upsets_by_target: Dict[str, int] = field(default_factory=dict)

    @property
    def recovered(self) -> bool:
        """Whether a recovery fired (such runs are never graded early:
        their readouts carry harvested tallies the golden run lacks)."""
        return self.recovery is not None and bool(self.recovery.events)

    def harvest(self, system: LeonSystem) -> None:
        """Bank the program's software-visible tallies accumulated since
        the last reset -- before a reset discards execution state, and
        once more when the host reads the result area at the run end."""
        read, base, banked = system.read_word, self.result_base, \
            self.harvested
        banked["sw_errors"] += read(base + 0x14) - banked["base_sw_errors"]
        banked["iterations"] += read(base + 0x10) - banked["base_iterations"]
        banked["error_traps"] += int(read(base + 0x08) == 1)

    def count_upset(self, strike) -> None:
        tally = self.upsets_by_target
        tally[strike.target] = tally.get(strike.target, 0) + 1
        if strike.mbu:
            tally[strike.target + "+mbu"] = \
                tally.get(strike.target + "+mbu", 0) + 1


class Campaign:
    """Builds the device + beam and executes one (or more) runs."""

    def __init__(self, config: CampaignConfig, *,
                 telemetry: Optional[Telemetry] = None) -> None:
        self._builder = resolve_builder(config.program)
        self.config = config
        self.leon_config = config.leon or LeonConfig.leon_express()
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        # Validates the policy and fault-model names early (both raise
        # ConfigurationError on unknown names).
        self.recovery_policy = resolve_policy(config.recovery)
        build_model(config.fault_model, config)
        #: Persistent-fault re-assert hook, installed per run for
        #: non-transient models and invoked at every execution-chunk
        #: boundary of :meth:`_run_until`.
        self._reassert = None

    def build_system(self) -> LeonSystem:
        return LeonSystem(self.leon_config, telemetry=self.telemetry)

    def _build_program(self):
        """Fresh system with the test program loaded; returns
        (system, spin pc, result-area base, program image)."""
        config = self.config
        system = self.build_system()
        builder = self._builder
        # Effectively-endless by default; a finite override makes the
        # program park at ``_exit`` when done (still alive, still hit by
        # the beam -- the divergence detector's natural prey).
        kwargs = {"iterations": 1_000_000, **config.program_kwargs}
        program, _expected = builder(self.leon_config, **kwargs)
        harness = ProgramHarness(system, program)
        return (system, program.symbols["_trap_spin"],
                harness.layout.result, program)

    def _run_until(self, system: LeonSystem, spin: int, state: Dict,
                   target_instructions: int) -> None:
        """Advance execution, honouring the periodic cache flush.

        A failed run parks the program at ``_trap_spin``, so the stop
        condition is a plain PC compare -- ``stop_pc`` keeps the system
        on its tight :meth:`LeonSystem.run_fast` loop instead of paying
        a Python predicate call per step.
        """
        period = self.config.flush_period_instructions
        while state["executed"] < target_instructions and not state["failed"]:
            chunk = target_instructions - state["executed"]
            if period:
                chunk = min(chunk, period - state["since_flush"])
            run = system.run(chunk, stop_pc=spin)
            state["executed"] += run.instructions
            state["since_flush"] += run.instructions
            if run.stop_reason in ("halted", "stop-pc"):
                state["failed"] = True
                return
            if period and state["since_flush"] >= period:
                system.icache.flush()
                system.dcache.flush()
                state["since_flush"] = 0
            if self._reassert is not None:
                # Stuck-at cells re-asserted at every chunk boundary: a
                # rewrite (scrub, store, flush) holds the golden value
                # only until here.  Chunk boundaries are a deterministic
                # function of the phase shape and flush period, so the
                # re-assert schedule is identical across jobs/warm/cold.
                self._reassert()

    def _make_recovery(self, ctx: _RunContext, warm: Optional[WarmStart]
                       ) -> Optional[RecoveryController]:
        """Build the run's :class:`RecoveryController` (None without a policy).

        Called with the system at the beam-window entry (prefix executed):
        that state is the warm-reset checkpoint.  The cold-reboot image is
        the load-time state of a freshly built program system -- identical
        for cold and warm runs, so recovery trajectories are too.
        """
        policy = self.recovery_policy
        if policy is None:
            return None
        checkpoint = boot = None
        if RecoveryLevel.WARM_RESET in policy.ladder:
            if warm is not None:
                checkpoint = Snapshot.from_bytes(warm.snapshot)
            else:
                checkpoint = ctx.system.snapshot()
        if RecoveryLevel.COLD_REBOOT in policy.ladder:
            boot, _spin, _rb, _program = self._build_program()
            boot = boot.snapshot()
        return RecoveryController(ctx.system, policy, checkpoint=checkpoint,
                                  boot_snapshot=boot,
                                  on_state_loss=ctx.harvest)

    def _advance(self, ctx: _RunContext, target_instructions: int) -> bool:
        """Advance to ``target_instructions``, recovering through failures.

        Returns False when the run is dead: no policy configured, or the
        policy gave up -- the caller ends the run with the failure standing.
        """
        system, state, recovery = ctx.system, ctx.state, ctx.recovery
        while True:
            self._run_until(system, ctx.spin, state, target_instructions)
            if not state["failed"]:
                return True
            if recovery is None:
                return False
            halted = system.iu.halted is not HaltReason.RUNNING
            kind = "halt" if halted else "error-trap"
            event = recovery.recover(kind, executed=state["executed"])
            if event is None:
                return False
            state["failed"] = False
            if event.state_loss:
                # The restored image's result-area values are the new
                # baseline the next harvest subtracts.
                read, base = system.read_word, ctx.result_base
                ctx.harvested["base_sw_errors"] = read(base + 0x14)
                ctx.harvested["base_iterations"] = read(base + 0x10)
                state["since_flush"] = 0

    def _strike_at(self, strike) -> int:
        """Absolute instruction count at which *strike* lands."""
        config = self.config
        prefix, window, _tail = config.phase_instructions()
        return prefix + min(
            int(strike.time_s * config.instructions_per_second), window)

    def run(self, warm: Optional[WarmStart] = None, *,
            start: Optional[GoldenCheckpoint] = None) -> CampaignResult:
        """Execute one run: setup, strike loop, grading ladder, readout.

        ``warm`` skips the fault-free prefix (and grades against its
        golden timeline); ``start`` is a batched golden checkpoint to
        resume from instead of the warm snapshot.
        """
        started = time.perf_counter()
        config = self.config
        self._reassert = None  # installed by the strike loop if persistent
        telemetry = self.telemetry
        traced = telemetry.enabled
        prefix, window, tail = config.phase_instructions()
        total_instructions = prefix + window + tail

        if traced:
            telemetry.note("run-start", program=config.program,
                           let=config.let, flux=config.flux,
                           fluence=config.fluence, seed=config.seed,
                           recovery=config.recovery,
                           warm=warm is not None)

        if start is not None and (warm is None or start.snapshot is None):
            raise ConfigurationError(
                "a start checkpoint requires a warm start and a golden "
                "snapshot at the checkpoint")

        model = build_model(config.fault_model, config)

        if warm is not None:
            if warm.key != warm_start_key(config):
                raise ConfigurationError(
                    "warm start was prepared for an incompatible campaign "
                    "configuration")
            result = self._static_grade(warm, model, started)
            if result is not None:
                return result

        ctx = self._setup(warm, start, started)
        # The golden-digest argument ("state match => identical future")
        # only holds for one-shot corruption: a persistent fault keeps
        # re-asserting past any matching boundary, so grading degrades to
        # full execution for non-transient models.
        timeline = warm.timeline \
            if (warm is not None and config.early_exit
                and model.transient) else None
        ctx.recovery = self._make_recovery(ctx, warm)
        beam_started = time.perf_counter()
        alive = self._strike_window(ctx, model)

        # Early-exit grading: once every scheduled strike has been applied
        # the run is strike-free, so an architectural-digest match at any
        # golden checkpoint boundary proves the remaining execution --
        # every instruction, counter freeze, and result-area write -- is
        # exactly the golden run's, and the run can stop there reporting
        # the golden end-of-run readouts.  Counter deltas cannot occur
        # past a match: digest equality implies the suspect sets are
        # empty, and only suspect storage triggers corrections.  Runs
        # that recovered are never graded early: their readouts include
        # harvested tallies the golden run does not carry.
        graded: Optional[GoldenCheckpoint] = None
        diverged: Optional[DivergenceFix] = None
        if alive and timeline is not None and not ctx.recovered:
            graded, diverged = self._grade(ctx, timeline)
            alive = not ctx.state["failed"]
        elif alive:
            alive = self._advance(ctx, prefix + window)
        if traced:
            telemetry.note("span", phase="beam",
                           wall_s=time.perf_counter() - beam_started,
                           instr=ctx.state["executed"])

        if graded is not None:
            return self._readout(ctx, "reconverged", timeline, graded,
                                 graded_at=graded.instruction)

        # Permanent-divergence exit: the faulted digest repeated across
        # two consecutive mismatching boundaries, so the run is parked in
        # a fixed point and will never reconverge.  Full periods are
        # architectural no-ops; executing the sub-period remainder lands
        # on the exact end-of-run state, and the readout adds the skipped
        # periods' cycle and counter costs back arithmetically -- the
        # readouts are byte-identical to draining the tail.
        if diverged is not None and alive and not ctx.recovered:
            _periods, advance = divergence_exit(diverged, total_instructions)
            alive = self._advance(ctx, diverged.boundary + advance)
            if alive and not ctx.recovered:
                return self._readout(ctx, "diverged", None, diverged,
                                     graded_at=diverged.boundary)

        drain_started = time.perf_counter()
        if alive:
            self._advance(ctx, total_instructions)
        if traced:
            telemetry.note("span", phase="drain",
                           wall_s=time.perf_counter() - drain_started,
                           instr=ctx.state["executed"])
        return self._readout(ctx, "full")

    def _setup(self, warm: Optional[WarmStart],
               start: Optional[GoldenCheckpoint],
               started: float) -> _RunContext:
        """Bring a device to the run's first strike-eligible instruction.

        A warm run restores the warm snapshot -- or, batched, the golden
        state at ``start`` -- instead of executing anything; a cold run
        boots the program and executes the fault-free prefix.
        """
        telemetry = self.telemetry
        traced = telemetry.enabled
        if warm is None:
            system, spin, result_base, _program = self._build_program()
            ctx = _RunContext(started, system, spin, result_base,
                              {"executed": 0, "since_flush": 0,
                               "failed": False})
            if traced:
                telemetry.note("span", phase="setup",
                               wall_s=time.perf_counter() - started,
                               instr=0)
            prefix_started = time.perf_counter()
            prefix, _window, _tail = self.config.phase_instructions()
            self._run_until(system, spin, ctx.state, prefix)
            if traced:
                telemetry.note("span", phase="golden-prefix",
                               wall_s=time.perf_counter() - prefix_started,
                               instr=ctx.state["executed"])
            return ctx

        system = self.build_system()
        if start is not None:
            # Batched strike scheduling: resume from the golden state
            # at the checkpoint instead of replaying the strike-free
            # stretch from the warm snapshot.  Legal only while no
            # strike has landed yet -- the executor's batch planner
            # guarantees start.instruction <= the first upset.
            snapshot, executed = start.snapshot, start.instruction
            since_flush = start.since_flush
        else:
            snapshot, executed = warm.snapshot, warm.executed
            since_flush = warm.since_flush
        system.restore(Snapshot.from_bytes(snapshot))
        state = {"executed": executed, "since_flush": since_flush,
                 "failed": warm.failed}
        ace = warm.ace  # lint: ok=ace-transient-gate -- JIT hint only; no grading decision
        if ace is not None and ace.loop_heads and system.jit is not None:
            # Statically-recovered loop headers are the JIT's candidate
            # superblock entries: prime them so the first visit
            # compiles (restore() just invalidated the block cache).
            system.jit.prime(ace.loop_heads)
        if traced:
            telemetry.note("span", phase="setup",
                           wall_s=time.perf_counter() - started,
                           instr=state["executed"])
            self._note_ace(warm)
        return _RunContext(started, system, warm.spin_pc, warm.result_base,
                           state)

    def _strike_window(self, ctx: _RunContext, model) -> bool:
        """Schedule the model's strikes and apply each at its instruction.

        Returns whether the run is still alive once the last strike has
        landed (False: it failed and no recovery brought it back).
        """
        config = self.config
        telemetry = self.telemetry
        injector = ctx.injector = FaultInjector(ctx.system)
        strikes = model.schedule(injector)
        self._reassert = None if model.transient \
            else injector.reassert_persistent
        for strike in strikes:
            strike_at = self._strike_at(strike)
            if strike_at < ctx.state["executed"]:
                raise ConfigurationError(
                    "start checkpoint lies past the run's first upset")
            if not self._advance(ctx, strike_at):
                return False
            if telemetry.enabled:
                telemetry.strike(
                    strike.target, strike.flat_bit,
                    word=model.locate(strike, injector),
                    time_s=strike.time_s, let=config.let, mbu=strike.mbu,
                    instr=ctx.state["executed"], kind=strike.kind)
            model.apply(strike, injector)
            ctx.count_upset(strike)
        return True

    def _note_ace(self, warm: WarmStart) -> None:
        """Record the warm start's ACE-map summary in the trace.

        Emitted on every traced warm run that carries a map -- whether or
        not static grading consumed it -- so static and oracle traces
        describe the analysis identically and ``repro stats`` can report
        the program's ACE fraction.  A summary of the *analysis*, not a
        grading decision, so FT701's transient gate does not apply.
        """
        telemetry = self.telemetry
        ace = warm.ace  # lint: ok=ace-transient-gate -- reporting only; no grading decision
        if ace is None:
            return
        if not telemetry.enabled:
            return
        telemetry.note(
            "ace", fraction=round(ace.ace_fraction(), 6),
            claimable_words=ace.claimable_words,
            regfile_words=ace.regfile_words,
            fpregs_dead=ace.fpregs_dead,
            window_claims=ace.window_claims)

    def _static_grade(self, warm: WarmStart, model,
                      started: float) -> Optional[CampaignResult]:
        """Grade the run statically, without executing it, if possible.

        Static pre-classification: when every scheduled strike lands in a
        register word the ACE map proved dead, the faulted trajectory *is*
        the golden trajectory and the run's readouts are the golden
        readouts -- report them without restoring or executing anything.
        Called before the snapshot restore.  Schedules the run's strikes
        on a throwaway same-geometry system -- schedules are a pure
        function of the beam parameters and the device geometry, so they
        are identical to the ones the executed run would draw -- and
        consults the ACE map for every strike site.  Returns None (execute
        normally) unless *every* strike is provably dead; with lifecycle
        tracing enabled, write-only ("ambiguous") sites also fall back to
        execution so the traced close states stay byte-identical to the
        oracle's.

        A successful static grade reports the golden readouts verbatim:
        the faulted trajectory equals the golden one instruction for
        instruction -- same instructions, cycles, counters, result-area
        writes -- and every struck word stays resident (suspect), which is
        exactly the ``latent`` close state the full run would log.
        """
        config = self.config
        # Gated on ``model.transient``: a persistent stuck-at/SEFI fault
        # keeps re-asserting, so a "dead at strike time" word is not dead
        # for the rest of the run and must never be statically
        # pre-classified (lint rule FT701 enforces this gate on every
        # ACE-map consumer).  An ACE map implies a timeline: both need a
        # golden run that passed the window close trap-free.
        if not (config.early_exit and config.static_grading
                and model.transient and warm.ace is not None
                and self.recovery_policy is None):
            return None
        telemetry = self.telemetry
        probe = self.build_system()
        injector = FaultInjector(probe)
        strikes = model.schedule(injector)
        for strike in strikes:
            claim = warm.ace.classify(strike.target,
                                      model.locate(strike, injector))
            if claim is None or (telemetry.enabled and claim != "latent"):
                return None

        # Nothing executes: the run stays at the warm-start entry, and the
        # readout has no machine to read (every struck word closes latent).
        ctx = _RunContext(started, None, state={"executed": warm.executed})
        for strike in strikes:
            ctx.count_upset(strike)
        if telemetry.enabled:
            telemetry.note("span", phase="setup",
                           wall_s=time.perf_counter() - started,
                           instr=warm.executed)
            self._note_ace(warm)
            for strike in strikes:
                telemetry.strike(
                    strike.target, strike.flat_bit,
                    word=model.locate(strike, injector),
                    time_s=strike.time_s, let=config.let, mbu=strike.mbu,
                    instr=self._strike_at(strike), kind=strike.kind)
        return self._readout(ctx, "static_masked", warm.timeline,
                             graded_at=warm.executed)

    def _grade(self, ctx: _RunContext, timeline: GoldenTimeline
               ) -> "tuple[Optional[GoldenCheckpoint], " \
                    "Optional[DivergenceFix]]":
        """Walk the golden checkpoint boundaries grading the run.

        Called once every scheduled strike has been applied.  Returns
        ``(checkpoint, None)`` for the first boundary whose architectural
        digest the faulted run matches (reconverged), ``(None, fix)``
        when two consecutive mismatching boundaries repeat the *faulted*
        digest and flush phase (permanently diverged into a fixed point
        -- e.g. parked in the end-of-program spin with a latent upset
        resident), and ``(None, None)`` when the run diverges through
        the last boundary aperiodically, fails, or recovers mid-walk
        (recovered runs carry harvested tallies the golden readouts do
        not).
        """
        system, state = ctx.system, ctx.state
        flush_period = self.config.flush_period_instructions
        previous = None  # (digest, flush phase, instruction, cycles, counts)
        for checkpoint in timeline.checkpoints:
            if checkpoint.instruction < state["executed"]:
                continue
            if not self._advance(ctx, checkpoint.instruction):
                return None, None
            if ctx.recovered:
                return None, None
            digest = system.grading_digest()
            if digest == checkpoint.digest:
                return checkpoint, None
            # The flush phase is the one behavioural input outside the
            # digest: a repeat only proves periodicity if it repeats too
            # (without periodic flushing there is no phase to match).
            phase = state["since_flush"] % flush_period if flush_period else 0
            cycles = system.perf.cycles
            counts = dict(system.errors.as_dict())
            if (previous is not None and previous[0] == digest
                    and previous[1] == phase):
                period = checkpoint.instruction - previous[2]
                if period > 0:
                    return None, DivergenceFix(
                        boundary=checkpoint.instruction,
                        period=period,
                        cycles_per_period=cycles - previous[3],
                        counts_per_period={
                            name: counts[name] - previous[4].get(name, 0)
                            for name in counts
                        },
                    )
            previous = (digest, phase, checkpoint.instruction, cycles, counts)
        return None, None

    def _readout(self, ctx: _RunContext, exit_reason: str,
                 source: Optional[GoldenTimeline] = None,
                 extrapolation=None, *,
                 graded_at: Optional[int] = None) -> CampaignResult:
        """What the host computer logs at the end of a run.

        The one place a :class:`CampaignResult` is built, for every exit
        of the grading ladder.  ``source`` says where the result area is
        read: the golden timeline's end readouts (the run provably ends on
        the golden trajectory) or, when None, the machine itself plus the
        tallies earlier reset recoveries banked.  ``extrapolation`` adds
        what was not executed: nothing (None), the golden tail from a
        matched :class:`GoldenCheckpoint`, or the whole fixed-point
        periods of a :class:`DivergenceFix` through the run end.  A
        statically graded run has no machine: its counters and cycles are
        the golden end-of-run ones.
        """
        config = self.config
        system, recovery = ctx.system, ctx.recovery
        if system is None:
            counts, cycles = dict(source.counts), source.end_cycles
        else:
            counts, cycles = dict(system.errors.as_dict()), system.perf.cycles
            # EDAC corrections on external memory are monitor-visible but
            # sit outside the Table-2 counters.  Model campaigns fold them
            # in (key "EDAC") so the security readout counts an
            # EDAC-caught attack as *detected*; default-seu counts stay
            # byte-identical to every stored row.
            if config.fault_model != "seu" and system.errors.edac_corrected:
                counts["EDAC"] = system.errors.edac_corrected
        if source is not None:
            readouts = dict(sw_errors=source.sw_errors,
                            error_traps=source.error_traps,
                            halted=source.halted,
                            iterations=source.iterations,
                            instructions=source.end)
        else:
            # Read out the result area the way the host computer would:
            # one last harvest adds it to what earlier resets banked.
            ctx.harvest(system)
            banked = ctx.harvested
            readouts = dict(sw_errors=banked["sw_errors"],
                            error_traps=banked["error_traps"],
                            halted=system.iu.halted is not HaltReason.RUNNING,
                            iterations=banked["iterations"],
                            instructions=ctx.state["executed"])
        if isinstance(extrapolation, GoldenCheckpoint):
            cycles += source.tail_cycles_from(extrapolation)
        elif isinstance(extrapolation, DivergenceFix):
            end = sum(config.phase_instructions())
            periods, _advance = divergence_exit(extrapolation, end)
            cycles += periods * extrapolation.cycles_per_period
            for name, delta in extrapolation.counts_per_period.items():
                if delta:
                    counts[name] = counts.get(name, 0) + periods * delta
            readouts["instructions"] = end

        result = CampaignResult(
            config=config,
            counts=counts,
            upsets=sum(count for name, count in ctx.upsets_by_target.items()
                       if not name.endswith("+mbu")),
            upsets_by_target=ctx.upsets_by_target,
            wall_seconds=time.perf_counter() - ctx.started,
            cycles=cycles,
            recoveries=recovery.counts_by_level if recovery else {},
            recovery_downtime=recovery.downtime_by_level if recovery else {},
            halts=sum(1 for e in recovery.events
                      if e.kind in ("halt", "watchdog")) if recovery else 0,
            unrecovered=recovery.gave_up if recovery else False,
            exit_reason=exit_reason,
            graded_at_instruction=graded_at,
            **readouts,
        )
        telemetry = self.telemetry
        if telemetry.enabled:
            if exit_reason != "full":
                telemetry.note(
                    "early-exit", reason=exit_reason.replace("_", "-"),
                    at=graded_at,
                    skipped=result.instructions - ctx.state["executed"])
            # Nothing executed after a static grade, so every struck word
            # is still resident; model-specific sites outside the SEU
            # registry (SEFI control cells, attack words) stay resident
            # until software or a reset repairs them.  Both close latent.
            injector = ctx.injector
            self._finish_trace(result, lambda target, word: "latent" if (
                injector is None or target not in injector.targets
                or injector.is_latent(target, word)) else "masked")
        return result

    def _finish_trace(self, result: CampaignResult, close) -> None:
        """Close every still-open upset and emit the run-end readouts.

        ``close(target, word)`` names each undetected strike's terminal
        state (latent if the corruption is still resident, masked if it
        was overwritten unobserved) -- together with the resolve events
        this guarantees every strike's lifecycle terminates.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return
        telemetry.close_open(close, instr=result.instructions)
        telemetry.note("run-end", counts=dict(result.counts),
                       upsets=result.upsets, sw_errors=result.sw_errors,
                       error_traps=result.error_traps,
                       halted=result.halted, iterations=result.iterations,
                       instructions=result.instructions,
                       effaced=result.effaced,
                       wall_s=round(result.wall_seconds, 6))


def prepare_warm_start(config: CampaignConfig, *,
                       checkpoints: int = DEFAULT_CHECKPOINTS) -> WarmStart:
    """Execute the golden prefix once and package it for sharing.

    Runs the fault-free prefix (``beam_delay_s``), snapshots the device,
    then continues the *golden* (strike-free) run through the beam window
    and tail, recording an architectural digest at every
    :func:`~repro.fault.grading.checkpoint_schedule` boundary -- plus a
    restore snapshot at the in-window boundaries, the anchors of batched
    strike scheduling -- and the final host readouts.  The result is
    picklable and serves every run whose config shares
    :func:`warm_start_key` -- a whole LET sweep, every seed.
    """
    campaign = Campaign(config)
    prefix, window, tail = config.phase_instructions()
    window_close = prefix + window

    system, spin, result_base, program = campaign._build_program()
    state = {"executed": 0, "since_flush": 0, "failed": False}
    campaign._run_until(system, spin, state, prefix)
    snapshot = system.snapshot().to_bytes()
    # The analyzer's entry state is the snapshot state: every warm run
    # restores these bytes, so the static CFG walk starts exactly where
    # execution will.
    entry = entry_context(system)
    executed, since_flush = state["executed"], state["since_flush"]
    failed = state["failed"]

    timeline: Optional[GoldenTimeline] = None
    marks = []
    reached_close = False
    for boundary in checkpoint_schedule(prefix, window, tail,
                                        count=checkpoints):
        campaign._run_until(system, spin, state, boundary)
        if state["failed"] or state["executed"] != boundary:
            # Parked mid-stretch.  At or before the window close that
            # kills the golden run (no digest to compare against, so no
            # timeline); in the tail the timeline simply ends early -- a
            # run matching any recorded boundary has the identical
            # (parked) future.
            break
        marks.append(GoldenCheckpoint(
            instruction=boundary,
            digest=system.grading_digest(),
            cycles=system.perf.cycles,
            since_flush=state["since_flush"],
            snapshot=(system.snapshot().to_bytes()
                      if boundary <= window_close else None),
        ))
        reached_close = reached_close or boundary == window_close
    if reached_close:
        read = system.read_word
        timeline = GoldenTimeline(
            window_close=window_close,
            end=state["executed"],
            end_cycles=system.perf.cycles,
            checkpoints=tuple(marks),
            sw_errors=read(result_base + 0x14),
            error_traps=int(read(result_base + 0x08) == 1),
            iterations=read(result_base + 0x10),
            halted=system.iu.halted is not HaltReason.RUNNING,
            counts=dict(system.errors.as_dict()),
        )

    # Static ACE map, computed once per warm start and shipped to every
    # run.  Attached only when the golden run completed *trap-free*
    # (``perf.traps == 0``): the CFG walk treats trap-raising paths as
    # terminal on the strength of that witness -- the golden run proves
    # the program never takes them, and a strike in a dead register
    # cannot steer control onto one (dead means no instruction ever
    # reads the word).  A parked golden run necessarily trapped, so the
    # witness also implies the timeline is complete.
    ace: Optional[AceMap] = None
    if timeline is not None and system.perf.traps == 0:
        ace = analyze_program(program, entry).ace  # lint: ok=ace-transient-gate -- producer; consumers gate per FT701

    return WarmStart(
        key=warm_start_key(config),
        snapshot=snapshot,
        executed=executed,
        since_flush=since_flush,
        failed=failed,
        spin_pc=spin,
        result_base=result_base,
        timeline=timeline,
        ace=ace,
    )
