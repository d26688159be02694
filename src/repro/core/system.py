"""The assembled LEON system (paper figure 1).

``LeonSystem`` builds and wires every block of the block diagram: the SPARC
V8 integer unit with its register file, the FPU, both caches, the AMBA AHB
bus with the memory controller, and the APB bridge with timers, UARTs,
interrupt controller, I/O port and the FT error monitor.
"""

from __future__ import annotations

import hashlib
import pickle
import time
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

from repro.amba.ahb import AhbBus, TransferSize
from repro.amba.apb import ApbBridge
from repro.cache.dcache import DataCache
from repro.cache.icache import InstructionCache
from repro.core.config import LeonConfig
from repro.core.statistics import ErrorCounters, PerfCounters
from repro.errors import BusError, SimulationError, StateError
from repro.fpu.fpu import Fpu
from repro.ft.protection import ProtectionScheme
from repro.ft.tmr import FlipFlopBank
from repro.iu.pipeline import HaltReason, IntegerUnit, StepEvent, StepResult
from repro.iu.psr import SpecialRegisters
from repro.iu.regfile import RegisterFile
from repro.jit import JitEngine, jit_default_enabled
from repro.mem.memctrl import MemoryController
from repro.peripherals import (
    IRQ_TIMER1,
    IRQ_TIMER2,
    IRQ_UART1,
    IRQ_UART2,
)
from repro.peripherals.dma import DmaEngine
from repro.peripherals.errmon import ErrorMonitor
from repro.peripherals.ioport import IoPort
from repro.peripherals.irqctrl import InterruptController
from repro.peripherals.sysregs import SystemRegisters
from repro.peripherals.timer import TimerUnit
from repro.peripherals.uart import Uart
from repro.sparc.asm import Program
from repro.state.snapshot import (
    PICKLE_PROTOCOL,
    Snapshot,
    drop_diag,
)
from repro.telemetry.bus import NULL_TELEMETRY, Telemetry

#: Base address of the APB bridge (LEON-2 register map).
APB_BASE = 0x80000000


@dataclass
class RunResult:
    """Outcome of :meth:`LeonSystem.run`."""

    instructions: int
    cycles: int
    steps: int
    halted: HaltReason
    stop_reason: str
    pc: int
    #: Host wall-clock time the run took, seconds.
    wall_seconds: float = 0.0

    @property
    def instructions_per_second(self) -> float:
        """Host throughput of the run (simulated instructions / wall second)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions / self.wall_seconds


class LeonSystem:
    """A complete LEON processor plus its memory system and peripherals."""

    def __init__(self, config: Optional[LeonConfig] = None, *,
                 telemetry: Optional[Telemetry] = None,
                 jit: Optional[bool] = None) -> None:
        self.config = config or LeonConfig.fault_tolerant()
        config = self.config
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

        self.errors = ErrorCounters()
        self.perf = PerfCounters()
        self.ffbank = FlipFlopBank(
            tmr=config.ft.tmr_flipflops,
            separate_clock_trees=config.ft.tmr_separate_clock_trees,
        )

        # -- AHB: memory controller ----------------------------------------------
        self.bus = AhbBus()
        self.cpu_master = self.bus.add_master("cpu", priority=1)
        self.memctrl = MemoryController(config.memory)
        for bank in self.memctrl.banks():
            self.bus.attach(bank)

        # -- APB: peripherals ------------------------------------------------------
        self.apb = ApbBridge(APB_BASE)  # state: wiring -- bridge topology; peripheral state captured per-slave
        self.bus.attach(self.apb)
        self.irqctrl = InterruptController(ffbank=self.ffbank)  # state: wiring -- register state lives in the ffbank
        raise_irq = self.irqctrl.raise_interrupt
        self.sysregs = SystemRegisters(config, ffbank=self.ffbank)
        self.timers = TimerUnit(irq_levels=(IRQ_TIMER1, IRQ_TIMER2),
                                raise_irq=raise_irq, ffbank=self.ffbank)
        self.uart1 = Uart("uart1", 0x70, irq_level=IRQ_UART1,
                          raise_irq=raise_irq, ffbank=self.ffbank)
        self.uart2 = Uart("uart2", 0x80, irq_level=IRQ_UART2,
                          raise_irq=raise_irq, ffbank=self.ffbank)
        self.ioport = IoPort(raise_irq=raise_irq, ffbank=self.ffbank)
        self.errmon = ErrorMonitor(self.errors)  # state: wiring -- view over self.errors, captured as 'errors'
        # The DMA masters the bus that (through the APB bridge) holds it,
        # and the system registers drive the caches that hold that bus:
        # both back edges are weak, so a finished run's device is freed
        # by refcount instead of waiting for a cyclic GC pass.
        self.dma = DmaEngine(weakref.proxy(self.bus), ffbank=self.ffbank)
        for slave in (self.sysregs, self.timers, self.uart1, self.uart2,
                      self.irqctrl, self.ioport, self.errmon, self.dma):
            self.apb.attach(slave)

        # -- caches --------------------------------------------------------------------
        self.icache = InstructionCache(config.icache, self.bus, self.cpu_master,
                                       self.errors, self.perf, self.telemetry)
        self.dcache = DataCache(config.dcache, self.bus, self.cpu_master,
                                self.errors, self.perf, self.telemetry)
        self.dcache.double_store_delay = (
            config.ft.regfile_protection is not ProtectionScheme.NONE
        )
        self.sysregs.icache = weakref.proxy(self.icache)
        self.sysregs.dcache = weakref.proxy(self.dcache)
        self.sysregs.write_protector = self.memctrl.write_protector

        # -- processor -------------------------------------------------------------------
        self.regfile = RegisterFile(
            config.nwindows,
            config.ft.regfile_protection,
            duplicated=config.ft.regfile_duplicated,
        )
        self.special = SpecialRegisters(self.ffbank, config.nwindows,  # state: wiring -- register state lives in the ffbank
                                        reset_pc=config.memory.prom_base)
        if config.has_fpu:
            # Closed over components, not ``self``: a callback holding the
            # system would make it a reference cycle that outlives its run.
            errors, perf, telemetry = self.errors, self.perf, self.telemetry
            mech = config.ft.regfile_protection.value

            def _count_fp_correction() -> None:
                # The f-registers live in the register-file RAM: their
                # corrections increment the same RFE counter (section 4.4).
                errors.rfe += 1
                perf.pipeline_restarts += 1
                if telemetry.enabled:
                    instr_count = perf.instructions
                    telemetry.detect("fpregs", None, mech=mech,
                                     kind="correctable", counter="RFE",
                                     instr=instr_count)
                    telemetry.resolve("fpregs", None,
                                      action="correct-writeback",
                                      instr=instr_count)

            self.fpu = Fpu(self.ffbank,
                           protection=config.ft.regfile_protection,
                           on_corrected=_count_fp_correction)
        else:
            self.fpu = None
        self.iu = IntegerUnit(
            config=config,
            regfile=self.regfile,
            special=self.special,
            icache=self.icache,
            dcache=self.dcache,
            fpu=self.fpu,
            ffbank=self.ffbank,
            errors=self.errors,
            perf=self.perf,
            is_cacheable=self.memctrl.is_cacheable,
            irqctrl=self.irqctrl,
            telemetry=self.telemetry,
        )
        #: Set when an injection has touched the flip-flop bank since the
        #: last step, to trigger a TMR scrub (hardware scrubs every edge).
        self._ffbank_dirty = False
        #: Whether the watchdog output is wired to the reset line (the
        #: paper's "normally wired to system reset").  Harnesses that only
        #: want to observe the latch can unwire it.
        self.watchdog_reset_enabled = True  # state: config -- harness wiring choice, constant per run
        #: Trace-JIT engine, or None when disabled (``jit=False`` or
        #: ``REPRO_JIT=0``).  Pure acceleration state -- never part of a
        #: snapshot, invalidated on restore/reset/reload.
        if jit is None:
            jit = jit_default_enabled()
        self.jit = JitEngine(self) if jit else None

    # -- state capture ---------------------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Capture the complete device state as a :class:`Snapshot`.

        Component order is fixed so identical states produce identical
        serialized bytes.  Everything that can influence future execution is
        included; pure observation state rides along under ``"diag"`` keys
        (or in the ``errors``/``perf`` components) where architectural
        digests ignore it.
        """
        components = {
            "system": {"ffbank_dirty": self._ffbank_dirty},
            "ffbank": self.ffbank.capture(),
            "regfile": self.regfile.capture(),
            "fpu": self.fpu.capture() if self.fpu is not None else None,
            "iu": self.iu.capture(),
            "icache": self.icache.capture(),
            "dcache": self.dcache.capture(),
            "memory": self.memctrl.capture(),
            "timers": self.timers.capture(),
            "uart1": self.uart1.capture(),
            "uart2": self.uart2.capture(),
            "ioport": self.ioport.capture(),
            "dma": self.dma.capture(),
            "sysregs": self.sysregs.capture(),
            "bus": self.bus.capture(),
            "errors": self.errors.capture(),
            "perf": self.perf.capture(),
        }
        return Snapshot(repr(self.config), components)

    def restore(self, snapshot: Snapshot, *, skip: "tuple" = ()) -> None:
        """Restore a snapshot captured from an identically-configured system.

        ``skip`` names components to leave untouched -- the recovery
        subsystem uses it for warm resets (``skip=("memory", "errors",
        "perf")``: memory contents survive the reset, and the cumulative
        error/performance counters keep counting across it).
        """
        if snapshot.config_key != repr(self.config):
            raise StateError(
                "snapshot was captured from a different device configuration")
        components = snapshot.components
        skipped = frozenset(skip)
        unknown = skipped - set(components)
        if unknown:
            raise StateError(f"unknown snapshot components: {sorted(unknown)}")
        if "system" not in skipped:
            self._ffbank_dirty = bool(components["system"]["ffbank_dirty"])
        restorers = (
            ("ffbank", self.ffbank),
            ("regfile", self.regfile),
            ("fpu", self.fpu),
            ("iu", self.iu),
            ("icache", self.icache),
            ("dcache", self.dcache),
            ("memory", self.memctrl),
            ("timers", self.timers),
            ("uart1", self.uart1),
            ("uart2", self.uart2),
            ("ioport", self.ioport),
            ("dma", self.dma),
            ("sysregs", self.sysregs),
            ("bus", self.bus),
            ("errors", self.errors),
            ("perf", self.perf),
        )
        for name, component in restorers:
            if component is None or name in skipped:
                continue
            component.restore(components[name])
        if self.jit is not None:
            self.jit.invalidate()

    def state_digest(self) -> str:
        """Hex digest of the *architectural* state (counters excluded).

        Two systems with equal digests execute identical futures; their
        error/performance counters may differ (see :mod:`repro.state`).
        This is the canonical content hash, over a full snapshot.
        """
        return self.snapshot().digest(architectural=True)

    def grading_digest(self) -> str:
        """Hex digest equal between two systems of one configuration
        exactly when their :meth:`state_digest` is.

        The cheap form grading compares at every checkpoint boundary: each
        memory bank contributes the hashes of its non-zero pages
        (:meth:`ExternalMemory.page_digests`) instead of its 7.9 MB of
        planes, and observation state is dropped with :func:`drop_diag`,
        which suffices because captures file it only at their top level.
        """
        memctrl = self.memctrl
        # snapshot()'s components minus the observation ones (errors,
        # perf), with the memory planes replaced by their page hashes.
        components = (
            self.ffbank, self.regfile, self.fpu, self.iu, self.icache,
            self.dcache, memctrl.write_protector, self.timers, self.uart1,
            self.uart2, self.ioport, self.dma, self.sysregs, self.bus,
        )
        parts = (
            self._ffbank_dirty,
            [drop_diag(component.capture()) if component is not None
             else None for component in components],
            [memory.page_digests() for memory in (
                memctrl.prom_memory, memctrl.sram_memory,
                memctrl.io_memory)],
        )
        blob = pickle.dumps((repr(self.config), parts), PICKLE_PROTOCOL)
        return hashlib.sha256(blob).hexdigest()

    # -- program loading -------------------------------------------------------------

    def load_program(self, program: Program, *, set_pc: bool = True) -> None:
        """Load an assembled program image into PROM/SRAM and point the
        processor at its base address."""
        self.write_image(program.base, program.to_bytes())
        if set_pc:
            self.special.pc = program.base
            self.special.npc = program.base + 4
        if self.jit is not None:
            self.jit.invalidate()

    def write_image(self, base: int, image: bytes) -> None:
        for memory, bank in ((self.memctrl.prom_memory, self.memctrl.prom),
                             (self.memctrl.sram_memory, self.memctrl.sram),
                             (self.memctrl.io_memory, self.memctrl.io)):
            if bank.covers(base):
                if not bank.covers(base + max(len(image) - 1, 0)):
                    raise SimulationError("image does not fit in one memory bank")
                memory.load_image(base - bank.base, image)
                return
        raise SimulationError(f"address {base:#x} is not in PROM, SRAM or I/O space")

    # -- direct memory access for tests/harnesses -----------------------------------------

    def read_word(self, address: int) -> int:
        result = self.bus.read(address, TransferSize.WORD)
        if result.error:
            raise BusError(address)
        return result.data

    def write_word(self, address: int, value: int) -> None:
        result = self.bus.write(address, value, TransferSize.WORD)
        if result.error:
            raise BusError(address)

    # -- execution ---------------------------------------------------------------------------

    def reset(self, *, watchdog: bool = False) -> None:
        """Assert the system reset line.

        The integer unit leaves error mode and restarts at the reset
        vector, the caches flush (valid bits clear on reset), and the
        watchdog disarms until software re-arms it.  RAM contents --
        register file, memory -- survive; boot code re-initializes them.
        """
        self.iu.reset()
        self.icache.flush()
        self.dcache.flush()
        self.timers.reset_watchdog()
        if self.jit is not None:
            self.jit.invalidate()
        if watchdog:
            self.perf.watchdog_resets += 1
            if self.telemetry.enabled:
                self.telemetry.note("watchdog-reset",
                                    instr=self.perf.instructions)

    def step(self) -> StepResult:
        """Execute one instruction; advance peripherals by its cycle cost."""
        if self._ffbank_dirty:
            self.ffbank.scrub()
            self._ffbank_dirty = False
            if self.telemetry.enabled and self.ffbank.tmr:
                # With TMR the scrub votes every struck lane back clean;
                # without it the recirculation clears nothing, so the
                # upsets stay open (closed latent at end of run).
                self.telemetry.tmr_scrub(instr=self.perf.instructions)
        if self.sysregs.power_down_requested:
            self.sysregs.power_down_requested = False
            self.iu.power_down = True
        result = self.iu.step()
        if result.cycles:
            self.apb.tick(result.cycles)
            if self.timers.watchdog_expired and self.watchdog_reset_enabled:
                # The watchdog output is wired to reset (section 2): a hung
                # or error-mode processor reboots instead of staying dead.
                self.reset(watchdog=True)
        return result

    def mark_ffbank_dirty(self) -> None:
        """Called by the fault injector after striking a flip-flop lane."""
        self._ffbank_dirty = True

    def run(
        self,
        max_instructions: int = 1_000_000,
        *,
        stop_pc: Optional[int] = None,
        stop_when: Optional[Callable[[StepResult], bool]] = None,
        max_idle_steps: int = 100_000,
    ) -> RunResult:
        """Run until a stop condition.

        Stops on: the processor halting (error mode), ``stop_pc`` being
        reached, ``stop_when`` returning True, the instruction budget, or
        a power-down period exceeding ``max_idle_steps``.

        When no ``stop_when`` predicate is given the loop takes
        :meth:`run_fast` -- the cheap-PC-compare path campaigns use for the
        fault-free stretches between scheduled strikes.
        """
        if stop_when is None:
            return self.run_fast(max_instructions, stop_pc=stop_pc,
                                 max_idle_steps=max_idle_steps)
        started = time.perf_counter()
        instructions = 0
        steps = 0
        idle = 0
        stop_reason = "budget"
        while instructions < max_instructions:
            if stop_pc is not None and self.special.pc == stop_pc \
                    and self.iu.halted is HaltReason.RUNNING:
                stop_reason = "stop-pc"
                break
            result = self.step()
            steps += 1
            if result.event is StepEvent.OK:
                instructions += 1
            if result.event is StepEvent.HALTED:
                stop_reason = "halted"
                break
            if result.event is StepEvent.IDLE:
                idle += 1
                if idle > max_idle_steps:
                    stop_reason = "idle"
                    break
            else:
                idle = 0
            if stop_when(result):
                stop_reason = "predicate"
                break
        return RunResult(
            instructions=instructions,
            cycles=self.perf.cycles,
            steps=steps,
            halted=self.iu.halted,
            stop_reason=stop_reason,
            pc=self.special.pc,
            wall_seconds=time.perf_counter() - started,
        )

    def run_fast(
        self,
        max_instructions: int = 1_000_000,
        *,
        stop_pc: Optional[int] = None,
        max_idle_steps: int = 100_000,
    ) -> RunResult:
        """The tight run loop: no per-step predicate, only a PC compare.

        Semantically identical to :meth:`run` with ``stop_when=None`` --
        campaigns drive their fault-free stretches through here so the
        per-step cost is a handful of attribute reads, not a Python
        callback.
        """
        started = time.perf_counter()
        instructions = 0
        steps = 0
        idle = 0
        stop_reason = "budget"
        step = self.step
        special = self.special
        iu = self.iu
        ok = StepEvent.OK
        halted_event = StepEvent.HALTED
        idle_event = StepEvent.IDLE
        running = HaltReason.RUNNING
        jit = self.jit
        try_burst = jit.try_burst if jit is not None else None
        while instructions < max_instructions:
            if stop_pc is not None and special.pc == stop_pc \
                    and iu.halted is running:
                stop_reason = "stop-pc"
                break
            if try_burst is not None:
                burst = try_burst(max_instructions - instructions, stop_pc)
                if burst is not None:
                    instructions += burst[0]
                    steps += burst[1]
                    idle = 0
                    continue
            result = step()
            steps += 1
            event = result.event
            if event is ok:
                instructions += 1
                idle = 0
            elif event is halted_event:
                stop_reason = "halted"
                break
            elif event is idle_event:
                idle += 1
                if idle > max_idle_steps:
                    stop_reason = "idle"
                    break
            else:
                idle = 0
        return RunResult(
            instructions=instructions,
            cycles=self.perf.cycles,
            steps=steps,
            halted=iu.halted,
            stop_reason=stop_reason,
            pc=special.pc,
            wall_seconds=time.perf_counter() - started,
        )

    # -- convenience -----------------------------------------------------------------------------

    @property
    def halted(self) -> HaltReason:
        return self.iu.halted

    def uart_output(self) -> bytes:
        return self.uart1.transcript()
