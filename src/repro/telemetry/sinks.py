"""Event sinks: where telemetry events go.

A sink is anything with a ``write(event)`` method taking a plain dict.
Two implementations cover the whole design space:

``NullSink``
    Swallows everything.  Paired with a disabled :class:`~repro.telemetry.bus.
    Telemetry` it makes the layer zero-cost; paired with an *enabled* bus it
    measures the pure emission overhead (the benchmark guard).

``MemorySink``
    Buffers events in a list.  Campaign worker processes use it so a run's
    trace can ride back to the parent attached to the ``CampaignResult``,
    which :meth:`repro.store.CampaignDatabase.add_results` stores with the
    run's result row.
"""

from __future__ import annotations

from typing import Dict, List


class NullSink:
    """Discards every event."""

    __slots__ = ()

    def write(self, event: Dict[str, object]) -> None:
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Buffers events in :attr:`events`, in emission order."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[Dict[str, object]] = []

    def write(self, event: Dict[str, object]) -> None:
        self.events.append(event)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

