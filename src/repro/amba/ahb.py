"""AMBA AHB: the high-speed bus between the caches and external memory.

The model is transaction-level: a master issues a read/write/burst and gets
back the data, the number of bus cycles the transfer occupied, and the
response status.  That is all the processor-side logic (cache refill, write
buffer) and the experiments (timing, EDAC behaviour) observe of the bus.

Fixed-priority arbitration is modelled by an occupancy counter: if two
masters issue transfers in the same time window the later one accumulates
the residual busy cycles of the earlier, which is how the (optional) PCI or
debug masters would steal cache-refill bandwidth.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import BusError, ConfigurationError


class TransferSize(enum.IntEnum):
    """HSIZE: bytes per beat."""

    BYTE = 1
    HALFWORD = 2
    WORD = 4


@dataclass
class BusResult:
    """Outcome of one AHB transfer (single or one beat of a burst).

    Attributes:
        data: read data (zero for writes).
        cycles: bus cycles the transfer occupied, including wait states.
        error: True for an ERROR response (e.g. uncorrectable EDAC word or
            an unmapped address).
        corrected: number of single-bit errors the slave corrected on the
            fly while serving this transfer (EDAC reporting path).
    """

    data: int = 0
    cycles: int = 1
    error: bool = False
    corrected: int = 0


class AhbSlave(abc.ABC):
    """One slave on the AHB bus, mapped at ``[base, base + size)``."""

    def __init__(self, name: str, base: int, size: int) -> None:
        if size <= 0:
            raise ConfigurationError(f"AHB slave {name!r} has non-positive size")
        self.name = name
        self.base = base
        self.size = size

    def covers(self, address: int) -> bool:
        return self.base <= address < self.base + self.size

    @abc.abstractmethod
    def ahb_read(self, address: int, size: TransferSize) -> BusResult:
        """Serve a read at ``address`` (already range-checked)."""

    @abc.abstractmethod
    def ahb_write(self, address: int, value: int, size: TransferSize) -> BusResult:
        """Serve a write at ``address`` (already range-checked)."""

    def ahb_read_burst(self, address: int, nwords: int) -> List[BusResult]:
        """Incrementing word burst; default implementation repeats reads.

        Slaves that can stream (the memory controller) override this to
        charge wait states only on the first beat.
        """
        return [
            self.ahb_read(address + 4 * beat, TransferSize.WORD)
            for beat in range(nwords)
        ]


@dataclass
class AhbMaster:
    """Identity of a bus master (for arbitration bookkeeping)."""

    name: str
    priority: int = 0
    granted_cycles: int = field(default=0, init=False)


class AhbBus:
    """The AHB interconnect: decoder, arbiter and transfer bookkeeping."""

    def __init__(self) -> None:
        self._slaves: List[AhbSlave] = []  # state: wiring -- bus topology, rebuilt by construction
        self._masters: List[AhbMaster] = []
        self.transfers = 0
        self.busy_cycles = 0

    # -- configuration -------------------------------------------------------

    def attach(self, slave: AhbSlave) -> AhbSlave:
        """Attach a slave; address ranges must not overlap."""
        for existing in self._slaves:
            if (slave.base < existing.base + existing.size
                    and existing.base < slave.base + slave.size):
                raise ConfigurationError(
                    f"AHB ranges of {slave.name!r} and {existing.name!r} overlap"
                )
        self._slaves.append(slave)
        return slave

    def add_master(self, name: str, priority: int = 0) -> AhbMaster:
        master = AhbMaster(name, priority)
        self._masters.append(master)
        return master

    def slaves(self) -> Tuple[AhbSlave, ...]:
        return tuple(self._slaves)

    def capture(self) -> dict:
        """Transfer bookkeeping -- all observation state, hence ``"diag"``."""
        return {
            "diag": {
                "transfers": self.transfers,
                "busy_cycles": self.busy_cycles,
                "granted": {master.name: master.granted_cycles
                            for master in self._masters},
            },
        }

    def restore(self, state: dict) -> None:
        diag = state.get("diag") or {}
        self.transfers = int(diag.get("transfers", 0))
        self.busy_cycles = int(diag.get("busy_cycles", 0))
        granted = diag.get("granted", {})
        for master in self._masters:
            master.granted_cycles = int(granted.get(master.name, 0))

    def decode(self, address: int) -> Optional[AhbSlave]:
        for slave in self._slaves:
            if slave.covers(address):
                return slave
        return None

    # -- transfers -----------------------------------------------------------

    def _account(self, master: Optional[AhbMaster], result: BusResult) -> BusResult:
        self.transfers += 1
        self.busy_cycles += result.cycles
        if master is not None:
            master.granted_cycles += result.cycles
        return result

    def account_burst(self, master: Optional[AhbMaster], beats: int,
                      cycles: int) -> None:
        """Book a ``beats``-beat burst of ``cycles`` bus cycles in total
        that the caller served without a transfer (a clean cache-line
        refill): the same totals as accounting each beat."""
        self.transfers += beats
        self.busy_cycles += cycles
        if master is not None:
            master.granted_cycles += cycles

    def read(self, address: int, size: TransferSize = TransferSize.WORD,
             master: Optional[AhbMaster] = None) -> BusResult:
        """One read transfer.  Unmapped addresses get an ERROR response."""
        slave = self.decode(address)
        if slave is None:
            return self._account(master, BusResult(error=True))
        return self._account(master, slave.ahb_read(address, size))

    def write(self, address: int, value: int, size: TransferSize = TransferSize.WORD,
              master: Optional[AhbMaster] = None) -> BusResult:
        """One write transfer."""
        slave = self.decode(address)
        if slave is None:
            return self._account(master, BusResult(error=True))
        return self._account(master, slave.ahb_write(address, value, size))

    def read_burst(self, address: int, nwords: int,
                   master: Optional[AhbMaster] = None) -> List[BusResult]:
        """Incrementing word burst (cache line refill)."""
        slave = self.decode(address)
        if slave is None:
            results = [BusResult(error=True) for _ in range(nwords)]
        else:
            results = slave.ahb_read_burst(address, nwords)
        for result in results:
            self._account(master, result)
        return results

    def read_word_checked(self, address: int,
                          master: Optional[AhbMaster] = None) -> int:
        """Convenience read that raises :class:`BusError` on ERROR responses
        (used by tests and examples, not by the processor)."""
        result = self.read(address, TransferSize.WORD, master)
        if result.error:
            raise BusError(address)
        return result.data
