"""Spans recorded from outside the program, around calls into each layer.

The :class:`Tracer` keeps every span in memory (name, start, end, parent,
run id) and is only active inside :meth:`Tracer.patched`, which wraps the
public entry points of each layer for the duration of the block and puts
the originals back afterwards.  Nothing under ``src/`` knows about it.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Optional

from repro.core.system import LeonSystem
from repro.fault import campaign as campaign_module
from repro.fault.campaign import Campaign
from repro.state.snapshot import Snapshot

#: Span name -> the layer (module) it measures, for the self-time table.
LAYERS = {
    "setup": "benchmark",
    "campaign": "benchmark",
    "sim": "benchmark",
    "fault.executor": "repro.fault.executor",
    "fault.run": "repro.fault.campaign",
    "core.run_fast": "repro.core",
    "state.digest": "repro.state",
    "state.snapshot": "repro.state",
    "state.encode": "repro.state",
    "state.decode": "repro.state",
    "state.restore": "repro.state",
    "analysis.analyze": "repro.analysis",
    "store.ingest": "repro.store",
    "store.read": "repro.store",
    "store.fold": "repro.store",
}


class Tracer:
    """In-memory span recorder; see the module docs."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._runs = 0
        self.run: Optional[int] = None
        #: Systems whose ``jit.stats`` are not yet in :attr:`jit_totals`.
        self.systems: List[LeonSystem] = []
        self.jit_totals: Dict[str, int] = defaultdict(int)
        self._children: Dict[int, float] = defaultdict(float)

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict]:
        record = {"id": len(self.spans), "name": name,
                  "start": time.perf_counter() - self.origin,
                  "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._stack.pop()
            if record["parent"] is not None:
                self._children[record["parent"]] += self.duration(record)

    def fold_jit(self) -> None:
        """Add the pending systems' JIT counters to the totals and drop
        the systems (a campaign builds one per run)."""
        for system in self.systems:
            if system.jit is not None:
                for name, value in system.jit.stats.items():
                    self.jit_totals[name] += value
        self.systems.clear()

    def _inside(self, name: str) -> bool:
        return bool(self._stack) and \
            self.spans[self._stack[-1]]["name"] == name

    @contextlib.contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Wrap the layers' entry points while the block runs."""
        tracer = self
        originals = []

        def wrap(owner, attr, make):
            original = owner.__dict__[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, make(getattr(owner, attr)))

        def campaign_run(run):
            def traced(campaign, *args, **kwargs):
                tracer._runs += 1
                tracer.run = tracer._runs
                try:
                    with tracer.span("fault.run") as record:
                        result = run(campaign, *args, **kwargs)
                        record["exit"] = result.exit_reason
                        record["instructions"] = result.instructions
                    return result
                finally:
                    tracer.run = None
                    tracer.fold_jit()
            return traced

        def build_system(build):
            def traced(campaign):
                system = build(campaign)
                tracer.systems.append(system)
                return system
            return traced

        def run_fast(run):
            def traced(system, *args, **kwargs):
                with tracer.span("core.run_fast") as record:
                    result = run(system, *args, **kwargs)
                    record["instructions"] = result.instructions
                return result
            return traced

        def simple(name, skip_inside=None):
            def make(function):
                def traced(*args, **kwargs):
                    if skip_inside and tracer._inside(skip_inside):
                        return function(*args, **kwargs)
                    with tracer.span(name):
                        return function(*args, **kwargs)
                return traced
            return make

        def from_bytes(bound):
            decode = simple("state.decode")(bound)
            return classmethod(lambda cls, data: decode(data))

        wrap(Campaign, "run", campaign_run)
        wrap(Campaign, "build_system", build_system)
        wrap(LeonSystem, "run_fast", run_fast)
        wrap(LeonSystem, "state_digest", simple("state.digest"))
        # A digest captures a full snapshot internally; that capture is
        # digest cost, not a snapshot of its own.
        wrap(LeonSystem, "snapshot", simple("state.snapshot", "state.digest"))
        wrap(LeonSystem, "restore", simple("state.restore"))
        wrap(Snapshot, "to_bytes", simple("state.encode"))
        wrap(Snapshot, "from_bytes", from_bytes)
        # prepare_warm_start calls the analyzer through this module global.
        wrap(campaign_module, "analyze_program", simple("analysis.analyze"))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # -- reading the spans back ---------------------------------------------

    @staticmethod
    def duration(span: Dict) -> float:
        return span["end"] - span["start"]

    def total(self, spans: List[Dict]) -> float:
        return sum(self.duration(span) for span in spans)

    def self_time(self, span: Dict) -> float:
        """The span's duration minus the part its child spans cover."""
        return self.duration(span) - self._children[span["id"]]

    def by_name(self, name: str) -> List[Dict]:
        return [span for span in self.spans if span["name"] == name]

    def under(self, root: Dict, name: str) -> List[Dict]:
        """Spans called ``name`` nested at any depth inside ``root``."""
        found = []
        for span in self.spans[root["id"] + 1:]:
            if span["start"] >= root["end"]:
                break
            if span["name"] == name:
                found.append(span)
        return found

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        table: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            row = table.setdefault(span["name"],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += self.duration(span)
            row["self_s"] += self.self_time(span)
        return table
