"""LEON-FT: a portable, fault-tolerant SPARC V8 processor — in simulation.

Reproduction of J. Gaisler, "A Portable and Fault-Tolerant Microprocessor
Based on the SPARC V8 Architecture" (DSN 2002): a bit-accurate behavioral
model of the LEON-FT processor (SPARC V8 integer unit, FPU, parity-protected
caches, BCH/parity-protected register file, TMR flip-flops, EDAC external
memory, AMBA buses, peripherals) plus a Monte-Carlo heavy-ion beam and the
campaign harness that regenerates the paper's tables and figures.

Quickstart::

    from repro import LeonConfig, LeonSystem, assemble

    system = LeonSystem(LeonConfig.fault_tolerant())
    program = assemble('''
        set 0x40001000, %g1
        set 42, %g2
        st %g2, [%g1]
        done: ba done
        nop
    ''', base=0x40000000)
    system.load_program(program)
    system.run(stop_pc=program.address_of("done"))
    assert system.read_word(0x40001000) == 42
"""

from repro.core.config import CacheConfig, FtConfig, LeonConfig, MemoryConfig
from repro.core.master_checker import CompareError, LockStepReport, MasterChecker
from repro.core.statistics import ErrorCounters, PerfCounters
from repro.core.system import LeonSystem, RunResult
from repro.ft.protection import ProtectionScheme
from repro.recovery import (
    RecoveryController,
    RecoveryEvent,
    RecoveryLevel,
    RecoveryPolicy,
    resolve_policy,
)
from repro.sparc.asm import Program, assemble
from repro.sparc.disasm import disassemble
from repro.telemetry import (
    NULL_TELEMETRY,
    MemorySink,
    Telemetry,
)

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "CompareError",
    "ErrorCounters",
    "FtConfig",
    "LeonConfig",
    "LeonSystem",
    "LockStepReport",
    "MasterChecker",
    "MemoryConfig",
    "MemorySink",
    "NULL_TELEMETRY",
    "PerfCounters",
    "Program",
    "ProtectionScheme",
    "RecoveryController",
    "RecoveryEvent",
    "RecoveryLevel",
    "RecoveryPolicy",
    "RunResult",
    "Telemetry",
    "assemble",
    "disassemble",
    "resolve_policy",
    "__version__",
]
