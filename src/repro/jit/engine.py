"""The burst driver: hot-PC counting, block cache and entry guards.

``JitEngine.try_burst`` is called by ``LeonSystem.run_fast`` before
each interpreted step.  It either runs a compiled burst (returning the
instruction/step counts the driver folds into its loop totals) or
returns ``None``, in which case the driver interprets exactly one step
as before.

The entry guard set proves, before any compiled code runs, that the
interpreter would take its fault-free fast path for the whole burst:

* pipeline state -- running, not powered down, ``npc == pc + 4``, no
  pending annul, no scrub due in the flip-flop bank;
* no interrupt deliverable right now (ET, PIL and the pending/mask
  registers are read lane-0 only after their dirty flags are checked,
  so TMR voting stays with the interpreter);
* quiescent peripherals -- watchdog never started, timers disabled,
  UART shifters empty, DMA idle -- which makes the per-step APB tick a
  proven no-op for any number of burst cycles, so it is skipped;
* no fault in flight: every TMR register guard-listed clean, the
  write protector disabled;
* caches enabled, and every block word either resident in the
  i-cache or not resident at all.  A resident word that differs from
  the compiled one (a reloaded or rewritten program) drops the block
  for recompilation (``stats["verify_drops"]``).  All words resident
  selects the block's fast variant; otherwise its checked variant runs
  (``stats["checked_entries"]``), which tests each fetch and performs
  clean plain misses itself (``stats["refills"]``);
* no parity/BCH suspect the burst could meet.  Upsets outside the
  block's footprint stay latent exactly as under interpretation, so
  each array is guarded only where the burst touches it:

  - i-cache: no extra guard.  Residency is tested through
    ``peek_word``, which fails for a suspect tag or data index, and a
    burst fetches no word outside its block.  The fast variant runs
    only when every block word is a clean hit.  The checked variant
    refills a line only through ``CacheBase.clean_refill``, whose
    probe refuses a suspect tag, a resident (possibly suspect) word
    and a line that is not EDAC-clean in a memory bank; the block
    deopts there and the interpreter takes the parity-forced miss,
    the EDAC correction or the access-error trap.  A refill rewrites
    the line's data words, clearing their suspects exactly as the
    interpreter's refill does;
  - d-cache loads: no guard.  Compiled loads probe with ``DPEEK``
    (``peek_word``) and deopt on ``None``, so the interpreter performs
    the forced miss;
  - d-cache stores: a block containing a store is refused while any
    d-cache tag is suspect (the store's tag probe would detect it).  A
    word store to a suspect *data* word runs the real
    ``DataCache.write``, which clears the suspect as interpretation
    does;
  - register file: the block's registers (read, written, or checked by
    the interpreter's execute stage) are mapped through the entry CWP
    with the block prologue's formula; the burst is refused if any of
    them is suspect.  No block instruction changes the CWP.

  These refusals are counted in ``stats["suspect_rejects"]``; they are
  reached only while a suspect set is non-empty, so fault-free entry
  pays only the emptiness tests of the d-cache tag and register-file
  sets;
* a stop_pc never inside the block and enough instruction budget for
  one worst-case iteration.

Hot counting is per system, compiled code per process: blocks are
bound from :mod:`repro.jit.blocks`' code cache (``stats[
"code_cache_hits"]``), and a burst that leaves its block without a
deopt primes its exit pc hot, so after a ``restore()`` a loop primed
at one head is compiled whole within one iteration.

Anything that changes these facts mid-campaign (fault injection,
snapshot restore, a trap) makes the next guard pass fail, so execution
falls back to the interpreter at a step boundary with bit-identical
state.
"""

from __future__ import annotations

import os
import weakref
from typing import Dict, Optional, Tuple, Union

from repro.iu.pipeline import HaltReason
from repro.jit.blocks import (
    MAX_BLOCK_INSTRUCTIONS,
    CompiledBlock,
    bind_checked,
    build_block,
)
from repro.mem.writeprotect import WpMode
from repro.peripherals.dma import _STATUS_BUSY
from repro.peripherals.irqctrl import _LEVEL_MASK
from repro.peripherals.timer import _CTRL_ENABLE
from repro.peripherals.uart import _STATUS_TX_SHIFT_EMPTY

#: Executions of a PC before it is considered hot and compiled.
HOT_THRESHOLD = 16
#: Bound on the hot-counter table; cleared wholesale when exceeded.
MAX_COUNTERS = 8192


def jit_default_enabled() -> bool:
    """Trace compilation is on unless ``REPRO_JIT=0``."""
    return os.environ.get("REPRO_JIT", "1") != "0"


class JitEngine:
    """Per-system trace-compilation state.  Never snapshotted: blocks
    bind live component objects, so a restored system re-detects and
    recompiles its hot loops (the counters are part of the snapshot's
    *performance*, never its architecture)."""

    def __init__(self, system) -> None:
        # Weak, so a finished run's system is freed by refcount: the
        # system owns its engine, not the other way round.
        self._system = weakref.ref(system)
        self._config_key = repr(system.config)
        self._perf = system.perf
        iu = system.iu
        self.iu = iu
        #: pc -> CompiledBlock, or False for PCs proven uncompilable.
        self.blocks: Dict[int, Union[CompiledBlock, bool]] = {}
        self.counts: Dict[int, int] = {}
        regs = iu.r
        self._pc_reg = regs._pc
        self._npc_reg = regs._npc
        self._psr_reg = regs.psr._reg
        self._y_reg = regs._y
        self._annul_reg = iu._annul
        irq = system.irqctrl
        self._irq_pending = irq._pending
        self._irq_mask = irq._mask
        timers = system.timers
        self._timers = timers
        self._watchdog = timers.watchdog
        self._t1_control = timers.timer1.control
        self._t2_control = timers.timer2.control
        self._uart1_status = system.uart1._status
        self._uart2_status = system.uart2._status
        self._dma_status = system.dma._status
        #: Registers whose lane-0 values the guards (or compiled code)
        #: read directly; any dirty flag defers to the interpreter so
        #: TMR voting, scrubbing and disagreement counting stay exact.
        self._guard_regs = (
            self._npc_reg, self._psr_reg, self._y_reg, self._annul_reg,
            self._irq_pending, self._irq_mask, self._watchdog,
            self._t1_control, self._t2_control,
            self._uart1_status, self._uart2_status, self._dma_status,
        )
        self._regfile = iu.regfile
        self._nw16 = iu.regfile.nwindows * 16
        self._icache = system.icache
        self._dcache = system.dcache
        self._protector = system.memctrl.write_protector
        self._sysregs = system.sysregs
        self.stats = {
            "bursts": 0, "burst_instructions": 0, "burst_steps": 0,
            "deopts": 0, "compiles": 0, "compile_failures": 0,
            "verify_drops": 0, "suspect_rejects": 0,
            "refills": 0, "checked_entries": 0, "code_cache_hits": 0,
        }

    def invalidate(self) -> None:
        """Drop every compiled block and hot counter.  Called on
        snapshot restore, reset and program (re)load: compiled closures
        bind component internals that those events may rebind."""
        self.blocks.clear()
        self.counts.clear()

    def prime(self, pcs) -> None:
        """Pre-seed hot counters for statically-discovered loop heads.

        The static analyzer (:mod:`repro.analysis.program`) recovers the
        program's natural loops; their headers are exactly the PCs the
        hot-counting would eventually discover.  Priming them to the
        threshold makes the first visit compile immediately instead of
        waiting out ``HOT_THRESHOLD`` interpreted iterations.  Purely a
        warm-up hint: compiled bursts are byte-identical to
        interpretation, so priming never changes results.
        """
        counts = self.counts
        for pc in pcs:
            if pc not in self.blocks:
                counts[pc] = HOT_THRESHOLD

    def try_burst(self, budget: int,
                  stop_pc: Optional[int]) -> Optional[Tuple[int, int]]:
        """Run one compiled burst if every guard passes.

        Returns ``(instructions, steps)`` actually retired (both > 0),
        or ``None`` when the driver must interpret a step instead.
        """
        pc_reg = self._pc_reg
        if pc_reg._dirty:
            return None
        pc = pc_reg._lanes[0]
        block = self.blocks.get(pc)
        if block is None:
            counts = self.counts
            seen = counts.get(pc, 0) + 1
            # Near the end of a run's budget no block could run, and the
            # steps the interpreter takes there would each compile a hot
            # pc in turn: wait for a visit that can use the code.
            if seen < HOT_THRESHOLD or budget < MAX_BLOCK_INSTRUCTIONS:
                if len(counts) >= MAX_COUNTERS:
                    counts.clear()
                counts[pc] = seen
                return None
            counts.pop(pc, None)
            built = build_block(self._system(), pc, self._config_key)
            if built is None:
                self.stats["compile_failures"] += 1
                self.blocks[pc] = False
                return None
            self.stats["compiles"] += 1
            if built.cached:
                self.stats["code_cache_hits"] += 1
            self.blocks[pc] = built
            block = built
        elif block is False:
            return None

        if budget < block.max_path_instructions:
            return None
        if stop_pc is not None and stop_pc in block.addresses:
            return None
        iu = self.iu
        if iu.halted is not HaltReason.RUNNING or iu.power_down:
            return None
        if self._system()._ffbank_dirty \
                or self._sysregs.power_down_requested:
            return None
        for reg in self._guard_regs:
            if reg._dirty:
                return None
        if self._npc_reg._lanes[0] != (pc + 4) & 0xFFFFFFFF:
            return None
        if self._annul_reg._lanes[0]:
            return None
        psr_raw = self._psr_reg._lanes[0]
        if psr_raw & 0x20:  # ET set: a deliverable interrupt must trap
            active = (self._irq_pending._lanes[0]
                      & self._irq_mask._lanes[0] & _LEVEL_MASK)
            if active and active.bit_length() - 1 > (psr_raw >> 8) & 0xF:
                return None
        timers = self._timers
        if timers.watchdog_expired or self._watchdog._lanes[0]:
            return None
        if (self._t1_control._lanes[0]
                | self._t2_control._lanes[0]) & _CTRL_ENABLE:
            return None
        if not self._uart1_status._lanes[0] & _STATUS_TX_SHIFT_EMPTY:
            return None
        if not self._uart2_status._lanes[0] & _STATUS_TX_SHIFT_EMPTY:
            return None
        if self._dma_status._lanes[0] & _STATUS_BUSY:
            return None
        icache = self._icache
        dcache = self._dcache
        if not (icache.enabled and dcache.enabled):
            return None
        for unit in self._protector.units:
            if unit.mode is not WpMode.DISABLED:
                return None
        # Footprint-scoped suspect guards.  Suspect sets are re-resolved
        # through their owners: restore() rebinds them.  Cache suspects
        # elsewhere are covered by word verification (i-cache) and the
        # DPEEK deopt (d-cache loads).
        if block.has_store and dcache.tag_ram._suspect:
            self.stats["suspect_rejects"] += 1
            return None
        suspect = self._regfile._suspect
        if suspect:
            cw = (psr_raw & 31) << 4
            nw16 = self._nw16
            for reg in block.regs:
                if (reg if reg < 8 else 8 + (cw + reg - 8) % nw16) in suspect:
                    self.stats["suspect_rejects"] += 1
                    return None
        resident = True
        ipeek = icache.peek_word
        for addr, word in block.verify:
            cached = ipeek(addr)
            if cached != word:
                if cached is not None:
                    self.stats["verify_drops"] += 1
                    del self.blocks[pc]
                    return None
                resident = False

        stats = self.stats
        if resident:
            xpc, n_i, n_s, deopt = block.fn(budget)
        else:
            fn = block.checked or bind_checked(self._system(), block)
            stats["checked_entries"] += 1
            perf = self._perf
            misses = perf.icache_misses
            xpc, n_i, n_s, deopt = fn(budget)
            stats["refills"] += perf.icache_misses - misses
        if deopt:
            stats["deopts"] += 1
        elif xpc not in self.blocks:
            # Chain priming: the block this burst ran into is hot too,
            # so a loop is compiled whole within one iteration.
            self.counts[xpc] = HOT_THRESHOLD
        if n_s == 0:
            # Deopt at the first covered instruction: nothing retired,
            # nothing written; interpret it (no livelock, the
            # interpreter always makes progress).
            return None
        stats["bursts"] += 1
        stats["burst_instructions"] += n_i
        stats["burst_steps"] += n_s
        return n_i, n_s
