"""Rule registration: importing this package registers every rule."""

from repro.analysis.rules import (
    ace,
    counters,
    determinism,
    faults,
    jit,
    state,
    telemetry,
)

__all__ = ["ace", "counters", "determinism", "faults", "jit", "state",
           "telemetry"]
