"""The memory controller: PROM / SRAM / I/O decode with the on-chip EDAC.

Each memory area is an AHB slave (:class:`MemoryBank`).  Reads pass through
the EDAC (when enabled): single errors are corrected in the delivered data
*and scrubbed back to memory*, double errors return an AHB ERROR response.
Sub-word writes are read-modify-write so the check bits stay consistent; an
uncorrectable word under a sub-word write also returns ERROR.

Timing: the first access costs ``1 + waitstates`` cycles; burst beats after
the first cost one cycle each (the controller streams sequential words),
which is what makes cache-line refill cheap.  EDAC adds no cycles -- the
paper: "error-detection and correction is done during the re-fill of the
caches without timing penalties".
"""

from __future__ import annotations

from typing import List, Optional

from repro.amba.ahb import AhbSlave, BusResult, TransferSize
from repro.core.config import MemoryConfig
from repro.ft.edac import Edac, EdacStatus
from repro.mem.storage import ExternalMemory
from repro.mem.writeprotect import WriteProtector


class MemoryBank(AhbSlave):
    """One decoded memory area (PROM, SRAM or I/O) on the AHB bus."""

    def __init__(self, name: str, base: int, memory: ExternalMemory,
                 waitstates: int, edac: Edac, *, read_only: bool = False,
                 write_protector: Optional[WriteProtector] = None) -> None:
        super().__init__(name, base, memory.size_bytes)
        self.memory = memory
        self.waitstates = waitstates
        self.edac = edac
        self.read_only = read_only
        self.write_protector = write_protector

    # -- helpers ---------------------------------------------------------------

    def _read_word(self, offset: int) -> BusResult:
        data, check = self.memory.read_raw(offset)
        if not self.memory.edac:
            return BusResult(data=data, cycles=1 + self.waitstates)
        result = self.edac.read(data, check)
        if result.status is EdacStatus.UNCORRECTABLE:
            return BusResult(data=data, cycles=1 + self.waitstates, error=True)
        if result.status is EdacStatus.CORRECTED:
            # Scrub: write the corrected word back so the error cannot pair
            # up with a later upset.
            self.memory.write_raw(offset, result.data, result.check)
            return BusResult(data=result.data, cycles=1 + self.waitstates, corrected=1)
        return BusResult(data=result.data, cycles=1 + self.waitstates)

    # -- AHB slave interface ----------------------------------------------------

    def ahb_read(self, address: int, size: TransferSize) -> BusResult:
        offset = (address - self.base) & ~3
        result = self._read_word(offset)
        if result.error or size is TransferSize.WORD:
            return result
        byte_offset = (address - self.base) & 3
        if size is TransferSize.HALFWORD:
            shift = (2 - byte_offset) * 8
            result.data = (result.data >> shift) & 0xFFFF
        else:  # BYTE
            shift = (3 - byte_offset) * 8
            result.data = (result.data >> shift) & 0xFF
        return result

    def ahb_write(self, address: int, value: int, size: TransferSize) -> BusResult:
        if self.read_only:
            return BusResult(error=True, cycles=1 + self.waitstates)
        if self.write_protector is not None and self.write_protector.blocks(address):
            # Wild-write guard: the store gets an ERROR response, which the
            # processor takes as a precise data_store_error trap.
            return BusResult(error=True, cycles=1 + self.waitstates)
        offset = (address - self.base) & ~3
        if size is TransferSize.WORD:
            self.memory.write_word(offset, value)
            return BusResult(cycles=1 + self.waitstates)
        # Sub-word store: read-modify-write to keep the check bits whole.
        current = self._read_word(offset)
        if current.error:
            return BusResult(error=True, cycles=current.cycles)
        byte_offset = (address - self.base) & 3
        if size is TransferSize.HALFWORD:
            shift = (2 - byte_offset) * 8
            mask = 0xFFFF << shift
            merged = (current.data & ~mask) | ((value & 0xFFFF) << shift)
        else:  # BYTE
            shift = (3 - byte_offset) * 8
            mask = 0xFF << shift
            merged = (current.data & ~mask) | ((value & 0xFF) << shift)
        self.memory.write_word(offset, merged)
        return BusResult(cycles=1 + self.waitstates, corrected=current.corrected)

    def burst_cycles(self, nwords: int) -> int:
        """Bus cycles of an ``nwords`` burst: :meth:`ahb_read_burst`
        charges the wait states on the first beat only."""
        return self.waitstates + nwords

    def ahb_read_burst(self, address: int, nwords: int) -> List[BusResult]:
        offset = (address - self.base) & ~3
        results = []
        for beat in range(nwords):
            result = self._read_word(offset + 4 * beat)
            # Streaming: wait states only on the first beat.
            if beat:
                result.cycles = 1
            results.append(result)
        return results


class MemoryController:
    """Builds the PROM, SRAM and I/O banks from a :class:`MemoryConfig`.

    The I/O area models external memory-mapped devices; it is never EDAC
    protected and never cached (the cache controllers know its range).
    """

    def __init__(self, config: MemoryConfig) -> None:
        self.config = config
        self.edac = Edac()  # state: wiring -- stateless coder shared by the banks
        self.write_protector = WriteProtector(units=2)
        self.prom_memory = ExternalMemory("prom", config.prom_bytes, edac=config.edac)
        self.sram_memory = ExternalMemory("sram", config.sram_bytes, edac=config.edac)
        self.io_memory = ExternalMemory("io", config.io_bytes, edac=False)
        self.prom = MemoryBank("prom", config.prom_base, self.prom_memory,  # state: wiring -- bank decode logic; words live in *_memory
                               config.prom_waitstates, self.edac,
                               write_protector=self.write_protector)
        self.sram = MemoryBank("sram", config.sram_base, self.sram_memory,  # state: wiring -- bank decode logic; words live in *_memory
                               config.sram_waitstates, self.edac,
                               write_protector=self.write_protector)
        self.io = MemoryBank("io", config.io_base, self.io_memory,  # state: wiring -- bank decode logic; words live in *_memory
                             config.prom_waitstates, self.edac)
        # Bound constants for the per-fetch is_cacheable test (the ranges
        # are fixed at construction; two compares beat four attribute
        # loads plus two method calls on every instruction).
        self._prom_lo = config.prom_base
        self._prom_hi = config.prom_base + config.prom_bytes
        self._sram_lo = config.sram_base
        self._sram_hi = config.sram_base + config.sram_bytes

    def banks(self) -> List[MemoryBank]:
        return [self.prom, self.sram, self.io]

    def capture(self) -> dict:
        """All three storage arrays plus the write-protect programming."""
        return {
            "prom": self.prom_memory.capture(),
            "sram": self.sram_memory.capture(),
            "io": self.io_memory.capture(),
            "writeprotect": self.write_protector.capture(),
        }

    def restore(self, state: dict) -> None:
        self.prom_memory.restore(state["prom"])
        self.sram_memory.restore(state["sram"])
        self.io_memory.restore(state["io"])
        self.write_protector.restore(state["writeprotect"])

    def is_cacheable(self, address: int) -> bool:
        """Only PROM and SRAM are cacheable; I/O and APB space are not."""
        return (self._prom_lo <= address < self._prom_hi
                or self._sram_lo <= address < self._sram_hi)
