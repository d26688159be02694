"""A mini trace-JIT over the instruction-stepped interpreter.

Hot straight-line blocks (detected via the decode memo's instruction
records) are compiled into specialized Python closures: source operands
pre-resolved to physical register-file indices, condition codes fused
into a local integer, no per-instruction dispatch, and one counter
write-back per burst instead of one per step.  Compiled bursts run only
behind a guard set that proves the interpreter would have taken its
fault-free fast path for every covered step (a clean i-cache line
refill included, which compiled code performs through the cache's own
refill function); anything the block cannot model -- d-cache miss,
trap, interrupt, parity/EDAC detection, fault injection into a covered
cell, peripheral activity -- fails a guard or
deopts back to the interpreter *before* the first unmodelled side
effect, so cycle counts, error counters, telemetry events and
architectural digests stay byte-identical to interpreted execution.

See DESIGN.md "Trace compilation" for the observables contract.
"""

from repro.jit.blocks import BLOCK_OBSERVABLES, CompiledBlock, build_block
from repro.jit.engine import JitEngine, jit_default_enabled

__all__ = [
    "BLOCK_OBSERVABLES",
    "CompiledBlock",
    "JitEngine",
    "build_block",
    "jit_default_enabled",
]
