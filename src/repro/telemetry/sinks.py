"""Event sinks: where telemetry events go.

A sink is anything with a ``write(event)`` method taking a plain dict.
Three implementations cover the whole design space:

``NullSink``
    Swallows everything.  Paired with a disabled :class:`~repro.telemetry.bus.
    Telemetry` it makes the layer zero-cost; paired with an *enabled* bus it
    measures the pure emission overhead (the benchmark guard).

``MemorySink``
    Buffers events in a list.  Campaign worker processes use it so a run's
    trace can ride back to the parent attached to the ``CampaignResult``.

``JsonlTraceSink``
    Crash-safe JSONL file sink, one event per line: events are buffered
    per run and flush+fsync'd in one batch by :meth:`write_run`, so a
    killed campaign leaves at most one truncated tail line and never a
    half-written run.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional


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


class JsonlTraceSink:
    """Append-only JSONL trace file, one event object per line.

    Events written through :meth:`write` land in an internal buffer;
    :meth:`flush` serialises the buffer, appends it and fsyncs, so the
    file is consistent after a crash mid-campaign.  :meth:`write_run`
    tags each event of a finished run with its run index and flushes in
    one batch -- the unit of durability is the run.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._buffer: List[Dict[str, object]] = []
        self._handle = None

    def write(self, event: Dict[str, object]) -> None:
        self._buffer.append(event)

    def write_run(self, events: List[Dict[str, object]],
                  run: int) -> None:
        """Append a whole run's events, each tagged ``"run": run``."""
        for event in events:
            tagged = {"run": run}
            tagged.update(event)
            self._buffer.append(tagged)
        self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        lines = "".join(json.dumps(event) + "\n" for event in self._buffer)
        self._buffer.clear()
        self._handle.write(lines)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self.flush()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlTraceSink":
        return self

    def __exit__(self, *exc) -> Optional[bool]:
        self.close()
        return None
