"""Shared direct-mapped cache machinery for the I- and D-caches.

Address layout (direct-mapped):

    | tag | line index | word offset | byte |

The tag RAM stores, per line, one 32-bit word combining the address tag and
the per-word valid bits (sub-blocking, section 4.6); the parity bits of the
tag word therefore cover tag *and* valid bits.  The data RAM stores one
32-bit word per cache word.  On any parity error the access is turned into
a miss and the line is re-fetched from external memory -- parity errors are
*corrected by refetch*, never by the code itself (section 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.amba.ahb import AhbBus, AhbMaster, TransferSize
from repro.cache.ram import CacheRam
from repro.core.config import CacheConfig
from repro.core.statistics import ErrorCounters, PerfCounters
from repro.ft.protection import ErrorKind
from repro.mem.memctrl import MemoryBank
from repro.telemetry.bus import NULL_TELEMETRY, Telemetry


@dataclass
class CacheAccess:
    """Result of one cache access, as seen by the integer unit.

    ``cycles`` counts *extra* cycles beyond the instruction's base timing:
    zero for a hit, the bus transfer time for a miss or an uncached access.
    ``mem_error`` reports an uncorrectable EDAC error on the requested word,
    which the integer unit converts into a precise access-error trap.
    """

    data: int = 0
    cycles: int = 0
    hit: bool = True
    mem_error: bool = False
    tag_parity_error: bool = False
    data_parity_error: bool = False
    corrected: int = 0


class CacheBase:
    """One direct-mapped cache (instruction or data)."""

    #: 'i' or 'd'; selects which ErrorCounters fields this cache increments.
    kind = "?"

    def __init__(self, config: CacheConfig, bus: AhbBus, master: AhbMaster,
                 errors: ErrorCounters, perf: PerfCounters,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.config = config
        self.bus = bus
        self.master = master
        self.errors = errors
        self.perf = perf
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.enabled = True

        self.lines = config.lines
        self.words_per_line = config.words_per_line
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._index_mask = self.lines - 1
        self._word_mask = self.words_per_line - 1
        self._valid_mask = (1 << self.words_per_line) - 1

        prefix = f"{self.kind}cache"
        self.tag_ram = CacheRam(f"{prefix}-tags", self.lines, config.parity)
        self.data_ram = CacheRam(
            f"{prefix}-data", self.lines * self.words_per_line, config.parity
        )
        self._tag_shift = self._offset_bits + (self.lines.bit_length() - 1)
        #: Telemetry site names (matching the injector's target names) and
        #: the protection mechanism label for detect events.
        self._site_tag = f"{prefix}-tag"
        self._site_data = f"{prefix}-data"
        self._mech = config.parity.value

    # -- address helpers ---------------------------------------------------------

    def _index(self, address: int) -> int:
        return (address >> self._offset_bits) & self._index_mask

    def _word(self, address: int) -> int:
        return (address >> 2) & self._word_mask

    def _tag(self, address: int) -> int:
        return address >> (self._offset_bits + (self.lines.bit_length() - 1))

    def _line_base(self, address: int) -> int:
        return address & ~(self.config.line_bytes - 1)

    def _tag_entry(self, tag: int, valid: int) -> int:
        return ((tag << self.words_per_line) | (valid & self._valid_mask)) & 0xFFFFFFFF

    def _split_tag_entry(self, entry: int):
        return entry >> self.words_per_line, entry & self._valid_mask

    # -- counting ---------------------------------------------------------------

    def _count_tag_error(self, index: int) -> None:
        if self.kind == "i":
            self.errors.ite += 1
            counter = "ITE"
        else:
            self.errors.dte += 1
            counter = "DTE"
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.detect(self._site_tag, index, mech=self._mech,
                             kind="detected", counter=counter,
                             instr=self.perf.instructions)

    def _count_data_error(self, word_index: int) -> None:
        if self.kind == "i":
            self.errors.ide += 1
            counter = "IDE"
        else:
            self.errors.dde += 1
            counter = "DDE"
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.detect(self._site_data, word_index, mech=self._mech,
                             kind="detected", counter=counter,
                             instr=self.perf.instructions)

    def _count_hit(self) -> None:
        if self.kind == "i":
            self.perf.icache_hits += 1
        else:
            self.perf.dcache_hits += 1

    def _count_miss(self) -> None:
        if self.kind == "i":
            self.perf.icache_misses += 1
        else:
            self.perf.dcache_misses += 1

    # -- state capture -----------------------------------------------------------

    def capture(self) -> dict:
        """Bit-exact cache state: both RAMs plus the enable flag."""
        return {
            "enabled": self.enabled,
            "tags": self.tag_ram.capture(),
            "data": self.data_ram.capture(),
        }

    def restore(self, state: dict) -> None:
        self.enabled = bool(state["enabled"])
        self.tag_ram.restore(state["tags"])
        self.data_ram.restore(state["data"])

    # -- core lookup/refill -------------------------------------------------------

    def flush(self) -> None:
        """Clear all valid bits (the FLUSH instruction / cache control
        register).  Tag words are rewritten so their parity stays valid."""
        for index in range(self.lines):
            self.tag_ram.write(index, 0)

    def invalidate_word(self, address: int) -> None:
        """Clear the valid bit of one word (keeps the rest of the line)."""
        index = self._index(address)
        entry, kind = self.tag_ram.read(index)
        if kind is not ErrorKind.NONE:
            self.tag_ram.write(index, 0)
            return
        tag, valid = self._split_tag_entry(entry)
        valid &= ~(1 << self._word(address))
        self.tag_ram.write(index, self._tag_entry(tag, valid))

    def lookup_word(self, address: int) -> Optional[int]:
        """Zero-cycle hit probe for the hot fetch path.

        Returns the stored data word for a clean hit -- valid word, matching
        tag, no suspect parity in either RAM -- and ``None`` otherwise, in
        which case the caller must take the full :meth:`lookup` path (which
        handles parity errors, misses and refill).  Equivalent to
        :meth:`lookup` on the hit path but performs no allocation and no
        parity re-encode.
        """
        index = (address >> self._offset_bits) & self._index_mask
        tag_ram = self.tag_ram
        if tag_ram._suspect and index in tag_ram._suspect:
            return None
        entry = tag_ram._data[index]
        word = (address >> 2) & self._word_mask
        if (entry >> self.words_per_line) != (address >> self._tag_shift) \
                or not (entry >> word) & 1:
            return None
        data_index = index * self.words_per_line + word
        data_ram = self.data_ram
        if data_ram._suspect and data_index in data_ram._suspect:
            return None
        self._count_hit()
        return data_ram._data[data_index]

    def peek_word(self, address: int) -> Optional[int]:
        """Side-effect-free twin of :meth:`lookup_word`: same clean-hit
        predicate, but counts nothing.  The trace JIT uses it to verify
        block words at burst entry and to probe loads whose hit counting is
        committed separately (only once the covered step is known to
        complete), so a deopt never double-counts a hit.
        """
        index = (address >> self._offset_bits) & self._index_mask
        tag_ram = self.tag_ram
        if tag_ram._suspect and index in tag_ram._suspect:
            return None
        entry = tag_ram._data[index]
        word = (address >> 2) & self._word_mask
        if (entry >> self.words_per_line) != (address >> self._tag_shift) \
                or not (entry >> word) & 1:
            return None
        data_index = index * self.words_per_line + word
        data_ram = self.data_ram
        if data_ram._suspect and data_index in data_ram._suspect:
            return None
        return data_ram._data[data_index]

    def lookup(self, address: int) -> CacheAccess:
        """Read one word through the cache.

        Implements the full section 4.3 policy: tag parity error -> forced
        miss (count tag error); tag mismatch or invalid word -> plain miss;
        data parity error -> forced miss (count data error); otherwise hit.
        """
        access = CacheAccess()
        index = self._index(address)
        entry, tag_kind = self.tag_ram.read(index)
        if tag_kind is not ErrorKind.NONE:
            self._count_tag_error(index)
            access.tag_parity_error = True
            access = self._refill(address, access)
            if self.telemetry.enabled:
                self.telemetry.resolve(self._site_tag, index,
                                       action="refetch",
                                       instr=self.perf.instructions)
            return access
        tag, valid = self._split_tag_entry(entry)
        word = self._word(address)
        if tag != self._tag(address) or not (valid >> word) & 1:
            return self._refill(address, access)
        word_index = index * self.words_per_line + word
        data, data_kind = self.data_ram.read(word_index)
        if data_kind is not ErrorKind.NONE:
            self._count_data_error(word_index)
            access.data_parity_error = True
            access = self._refill(address, access)
            if self.telemetry.enabled:
                self.telemetry.resolve(self._site_data, word_index,
                                       action="refetch",
                                       instr=self.perf.instructions)
            return access
        access.data = data
        self._count_hit()
        return access

    # -- clean refill -------------------------------------------------------------
    #
    # A refill whose whole line lies in one memory bank and reads back
    # EDAC-clean has fixed effects: no correction, no error, no telemetry.
    # ``_refill`` applies them through ``_install_line`` instead of a bus
    # burst, and the trace JIT's compiled fetches call the same function
    # (through ``clean_refill``), so the two tiers share one definition.

    def _clean_line(self, address: int) -> Optional[Tuple[List[int], int]]:
        """``(words, burst cycles)`` of the line holding ``address`` when
        it lies in one memory bank and every word is EDAC-clean, else
        None.  Side-effect free."""
        base = address & ~(self.config.line_bytes - 1)
        bank = self.bus.decode(base)
        if not isinstance(bank, MemoryBank) \
                or not bank.covers(base + self.config.line_bytes - 1):
            return None
        count = self.words_per_line
        words = bank.memory.clean_words(base - bank.base, count)
        if words is None:
            return None
        return words, bank.burst_cycles(count)

    def _install_line(self, address: int, words: List[int],
                      cycles: int) -> int:
        """Apply a clean refill of the line holding ``address``: the miss
        count, the burst's AHB accounting, every data word and the
        all-valid tag.  Returns the burst's bus ``cycles``."""
        self._count_miss()
        self.bus.account_burst(self.master, len(words), cycles)
        index = (address >> self._offset_bits) & self._index_mask
        write = self.data_ram.write
        slot = index * self.words_per_line
        for data in words:
            write(slot, data)
            slot += 1
        self.tag_ram.write(index, self._tag_entry(
            address >> self._tag_shift, self._valid_mask))
        return cycles

    def refill_probe(self, address: int,
                     word: int) -> Optional[Tuple[List[int], int]]:
        """Side-effect-free test that :meth:`lookup` of ``address`` would
        be a plain miss whose clean refill delivers ``word``: the tag is
        not suspect, the word is not resident (a resident word is a hit,
        or a parity-forced miss when suspect), the line is clean in a
        memory bank and holds ``word``.  Returns what
        :meth:`_install_line` needs, or None."""
        index = (address >> self._offset_bits) & self._index_mask
        tag_ram = self.tag_ram
        if tag_ram._suspect and index in tag_ram._suspect:
            return None
        entry = tag_ram._data[index]
        offset = (address >> 2) & self._word_mask
        if (entry >> self.words_per_line) == (address >> self._tag_shift) \
                and (entry >> offset) & 1:
            return None
        line = self._clean_line(address)
        if line is None or line[0][offset] != word:
            return None
        return line

    def memory_word(self, address: int) -> Optional[int]:
        """The word a clean refill of ``address`` would deliver, or None
        when its line is not clean in a memory bank.  Side-effect free."""
        line = self._clean_line(address)
        if line is None:
            return None
        return line[0][(address >> 2) & self._word_mask]

    def clean_refill(self, address: int, word: int) -> Optional[int]:
        """Perform the refill :meth:`refill_probe` vouches for and return
        its bus cycles; None (nothing changed) when the probe refuses."""
        line = self.refill_probe(address, word)
        if line is None:
            return None
        return self._install_line(address, *line)

    def _refill(self, address: int, access: CacheAccess) -> CacheAccess:
        """Fetch the whole line from memory, applying sub-blocking."""
        access.hit = False
        line = self._clean_line(address)
        if line is not None:
            words, cycles = line
            access.cycles += self._install_line(address, words, cycles)
            access.data = words[self._word(address)]
            return access
        self._count_miss()
        index = self._index(address)
        base = self._line_base(address)
        results = self.bus.read_burst(base, self.words_per_line, self.master)
        valid = 0
        any_error = False
        edac_corrected = 0
        requested_word = self._word(address)
        for beat, result in enumerate(results):
            access.cycles += result.cycles
            access.corrected += result.corrected
            edac_corrected += result.corrected
            self.errors.edac_corrected += result.corrected
            if result.error:
                any_error = True
                continue
            valid |= 1 << beat
            self.data_ram.write(index * self.words_per_line + beat, result.data)
            if beat == requested_word:
                access.data = result.data
        if edac_corrected and self.telemetry.enabled:
            # EDAC repairs happen in place at the memory; the detect event
            # doubles as the resolution (no open upset bookkeeping -- the
            # beam only strikes the die; ext-mem strikes are manual).
            self.telemetry.detect("ext-mem", None, mech="edac",
                                  kind="correctable", counter="EDAC",
                                  instr=self.perf.instructions,
                                  count=edac_corrected)
        if not self.config.subblocking and any_error:
            # Without sub-blocking the line has a single valid bit: any
            # uncorrectable word poisons the whole line and the error is
            # signalled even if the failed word was only fetched on
            # speculation -- the spurious-trap problem sub-blocking solves.
            self.tag_ram.write(index, self._tag_entry(self._tag(address), 0))
            access.mem_error = True
            return access
        self.tag_ram.write(index, self._tag_entry(self._tag(address), valid))
        if not (valid >> requested_word) & 1:
            # The requested word itself is uncorrectable: its valid bit
            # stays clear and the error propagates to the processor, which
            # takes a precise access-error trap (section 4.6).
            access.mem_error = True
        return access

    def uncached_read(self, address: int, size: TransferSize) -> CacheAccess:
        """Bypass the cache (I/O space, or cache disabled)."""
        result = self.bus.read(address, size, self.master)
        return CacheAccess(
            data=result.data,
            cycles=result.cycles,
            hit=False,
            mem_error=result.error,
            corrected=result.corrected,
        )

    # -- fault-injection surface ----------------------------------------------------

    @property
    def total_bits(self) -> int:
        return self.tag_ram.total_bits + self.data_ram.total_bits

    def inject_flat(self, flat_bit: int) -> str:
        """Flip one stored bit anywhere in this cache's RAMs; tag RAM bits
        come first, then data RAM bits.  Returns 'tag' or 'data'."""
        if flat_bit < self.tag_ram.total_bits:
            self.tag_ram.inject_flat(flat_bit)
            return "tag"
        self.data_ram.inject_flat(flat_bit - self.tag_ram.total_bits)
        return "data"
