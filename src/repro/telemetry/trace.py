"""Reading, folding and rendering JSONL campaign traces.

The reader is deliberately forgiving, like the result-log import of
:meth:`repro.store.CampaignDatabase.ingest_results`: a truncated final
line (crash mid-append) is dropped, blank lines are skipped, and unknown
keys ride along untouched so traces written by a newer build still fold
under an older one.

``fold_stats`` is the ``stats`` subcommand's engine: it rebuilds the
paper's Table-2 counters from the ``detect`` events alone and
cross-checks them against the ``run-end`` readouts each run recorded --
if the two disagree, the instrumentation missed an increment and
:attr:`TraceStats.consistent` goes False.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.telemetry.metrics import Histogram

#: Table 2 column order (Total is derived, checked independently).
TABLE2_COUNTERS = ("ITE", "IDE", "DTE", "DDE", "RFE")


def read_trace(path: str) -> List[Dict[str, object]]:
    """Load every event from a JSONL trace file.

    Tolerates a truncated tail line; raises :class:`ConfigurationError`
    for garbage elsewhere (the file is not a trace).
    """
    events: List[Dict[str, object]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace {path!r}: {exc}")
    for number, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            if number == len(lines) - 1:
                break  # crash-truncated tail
            raise ConfigurationError(
                f"{path}:{number + 1}: not a JSON event line")
        if not isinstance(event, dict) or "ev" not in event:
            raise ConfigurationError(
                f"{path}:{number + 1}: event object must have an 'ev' key")
        events.append(event)
    return events


@dataclass
class Lifecycle:
    """One upset's event chain within one run."""

    run: int
    upset: int
    strike: Optional[Dict[str, object]] = None
    detects: List[Dict[str, object]] = field(default_factory=list)
    resolves: List[Dict[str, object]] = field(default_factory=list)
    close: Optional[Dict[str, object]] = None

    @property
    def target(self) -> Optional[str]:
        """Struck target name, when the strike event is in the trace."""
        if self.strike is not None:
            return str(self.strike.get("target"))
        return None

    @property
    def state(self) -> str:
        """Terminal state: the resolve action, close state, or 'open'."""
        if self.resolves:
            return str(self.resolves[-1].get("action"))
        if self.close is not None:
            return str(self.close.get("state"))
        return "open"

    @property
    def terminal(self) -> bool:
        return bool(self.resolves) or self.close is not None

    @property
    def latency(self) -> Optional[int]:
        """Instructions from strike to first detection, when both known."""
        if self.strike is None or not self.detects:
            return None
        delta = int(self.detects[0].get("instr", 0)) - \
            int(self.strike.get("instr", 0))
        return max(0, delta)


def lifecycles(events: Sequence[Dict[str, object]]) -> List[Lifecycle]:
    """Group events into per-upset lifecycles, ordered by (run, upset)."""
    table: Dict[Tuple[int, int], Lifecycle] = {}

    def cell(event: Dict[str, object]) -> Optional[Lifecycle]:
        upset = event.get("upset")
        if upset is None:
            return None
        key = (int(event.get("run", 0)), int(upset))
        life = table.get(key)
        if life is None:
            life = table[key] = Lifecycle(run=key[0], upset=key[1])
        return life

    for event in events:
        kind = event.get("ev")
        life = cell(event) if kind in ("strike", "detect", "resolve",
                                       "close") else None
        if life is None:
            continue
        if kind == "strike":
            life.strike = event
        elif kind == "detect":
            life.detects.append(event)
        elif kind == "resolve":
            life.resolves.append(event)
        elif kind == "close":
            life.close = event
    return [table[key] for key in sorted(table)]


@dataclass
class SiteStats:
    detected: int = 0
    corrected: int = 0
    traps: int = 0
    latency: Histogram = field(default_factory=Histogram)


@dataclass
class TraceStats:
    """A whole trace folded down to aggregate readouts."""

    runs: int = 0
    strikes: int = 0
    strikes_by_target: Dict[str, int] = field(default_factory=dict)
    #: Strikes per fault-model kind; events without a ``kind`` tag are
    #: the transient-SEU default and fold under ``"seu"``.
    strikes_by_kind: Dict[str, int] = field(default_factory=dict)
    #: Table-2 counters rebuilt from detect events.
    counters: Dict[str, int] = field(default_factory=dict)
    #: The same counters summed from the run-end readouts.
    reported: Dict[str, int] = field(default_factory=dict)
    sites: Dict[str, SiteStats] = field(default_factory=dict)
    states: Dict[str, int] = field(default_factory=dict)
    spans: Dict[str, float] = field(default_factory=dict)
    recoveries: Dict[str, int] = field(default_factory=dict)
    recovery_downtime: Dict[str, int] = field(default_factory=dict)
    edac_corrected: int = 0
    trap_counts: Dict[str, int] = field(default_factory=dict)
    watchdog_resets: int = 0
    compare_errors: int = 0
    #: Early-exit notes folded by reason (reconverged / diverged /
    #: static-masked); empty for full-execution traces.
    early_exits: Dict[str, int] = field(default_factory=dict)
    #: The static analyzer's ACE summary, from the warm start's ``ace``
    #: note (None when the trace carries none).
    ace: Optional[Dict[str, object]] = None

    @property
    def consistent(self) -> bool:
        """Do event-derived counters match every run-end readout?"""
        for name in TABLE2_COUNTERS + ("Total",):
            if self.counters.get(name, 0) != self.reported.get(name, 0):
                return False
        return True


def fold_stats(events: Sequence[Dict[str, object]]) -> TraceStats:
    """Fold a trace into :class:`TraceStats`."""
    stats = TraceStats()
    for name in TABLE2_COUNTERS:
        stats.counters[name] = 0
        stats.reported[name] = 0
    stats.counters["Total"] = 0
    stats.reported["Total"] = 0

    strike_instr: Dict[Tuple[int, int], int] = {}
    seen_detect: set = set()

    for event in events:
        kind = event.get("ev")
        run = int(event.get("run", 0))
        if kind == "strike":
            stats.strikes += 1
            target = str(event.get("target"))
            stats.strikes_by_target[target] = \
                stats.strikes_by_target.get(target, 0) + 1
            fault_kind = str(event.get("kind", "seu"))
            stats.strikes_by_kind[fault_kind] = \
                stats.strikes_by_kind.get(fault_kind, 0) + 1
            upset = event.get("upset")
            if upset is not None:
                strike_instr[(run, int(upset))] = int(event.get("instr", 0))
        elif kind == "detect":
            site = str(event.get("site"))
            cell = stats.sites.get(site)
            if cell is None:
                cell = stats.sites[site] = SiteStats()
            count = int(event.get("count", 1))
            cell.detected += count
            if event.get("kind") == "correctable":
                cell.corrected += count
            counter = event.get("counter")
            if counter in stats.counters:
                stats.counters[str(counter)] += count
                stats.counters["Total"] += count
            elif counter == "EDAC":
                stats.edac_corrected += count
            elif counter:
                stats.trap_counts[str(counter)] = \
                    stats.trap_counts.get(str(counter), 0) + count
            upset = event.get("upset")
            if upset is not None:
                key = (run, int(upset))
                if key in strike_instr and key not in seen_detect:
                    seen_detect.add(key)
                    cell.latency.observe(
                        int(event.get("instr", 0)) - strike_instr[key])
        elif kind == "resolve":
            action = str(event.get("action"))
            if action == "trap":
                site = str(event.get("site"))
                cell = stats.sites.get(site)
                if cell is None:
                    cell = stats.sites[site] = SiteStats()
                cell.traps += 1
            if event.get("upset") is not None:
                stats.states[action] = stats.states.get(action, 0) + 1
        elif kind == "close":
            state = str(event.get("state"))
            stats.states[state] = stats.states.get(state, 0) + 1
        elif kind == "span":
            phase = str(event.get("phase"))
            stats.spans[phase] = stats.spans.get(phase, 0.0) + \
                float(event.get("wall_s", 0.0))
        elif kind == "recovery":
            level = str(event.get("level"))
            stats.recoveries[level] = stats.recoveries.get(level, 0) + 1
            stats.recovery_downtime[level] = \
                stats.recovery_downtime.get(level, 0) + \
                int(event.get("downtime_cycles", 0))
        elif kind == "watchdog-reset":
            stats.watchdog_resets += 1
        elif kind == "early-exit":
            reason = str(event.get("reason"))
            stats.early_exits[reason] = stats.early_exits.get(reason, 0) + 1
        elif kind == "ace":
            # Every run of a warm campaign notes the same map; keep one.
            stats.ace = {name: value for name, value in event.items()
                         if name not in ("ev", "run")}
        elif kind == "compare":
            stats.compare_errors += 1
        elif kind == "run-end":
            stats.runs += 1
            counts = event.get("counts")
            if isinstance(counts, dict):
                for name, value in counts.items():
                    if name in stats.reported:
                        stats.reported[name] += int(value)
    return stats


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def _table(rows: Sequence[Sequence[object]],
           header: Sequence[str]) -> List[str]:
    widths = [max(len(str(header[i])),
                  *(len(str(row[i])) for row in rows)) if rows
              else len(str(header[i])) for i in range(len(header))]
    lines = ["  ".join(str(header[i]).ljust(widths[i])
                       for i in range(len(header)))]
    lines.append("-" * len(lines[0]))
    for row in rows:
        lines.append("  ".join(str(row[i]).ljust(widths[i])
                               for i in range(len(header))))
    return lines


def render_lifecycle(life: Lifecycle) -> str:
    """Multi-line view of one upset's chain."""
    strike = life.strike or {}
    head = (f"run {life.run} upset {life.upset}  "
            f"{strike.get('target', '?')}"
            f"[{strike.get('word', '?')}] bit {strike.get('bit', '?')}  "
            f"t={strike.get('t_s', '?')}s  "
            f"instr {strike.get('instr', '?')}")
    if strike.get("mbu"):
        head += "  MBU"
    lines = [head]
    for det in life.detects:
        counter = det.get("counter")
        lines.append(f"    detect   {det.get('mech'):<12} "
                     f"{det.get('kind'):<13} "
                     f"{counter or '-':<22} instr {det.get('instr')}")
    for res in life.resolves:
        lines.append(f"    resolve  {res.get('action'):<26} "
                     f"{'':<22} instr {res.get('instr')}")
    if life.close is not None:
        lines.append(f"    close    {life.close.get('state'):<26} "
                     f"{'':<22} instr {life.close.get('instr')}")
    if not life.terminal:
        lines.append("    (no terminal event)")
    return "\n".join(lines)


def render_stats(stats: TraceStats) -> str:
    """The ``stats`` subcommand's text block."""
    lines = [f"trace: {stats.runs} run(s), {stats.strikes} strike(s)"]
    if stats.strikes_by_target:
        per = ", ".join(f"{target} {count}" for target, count
                        in sorted(stats.strikes_by_target.items()))
        lines.append(f"  strikes by target: {per}")
    if stats.strikes_by_kind and set(stats.strikes_by_kind) != {"seu"}:
        per = ", ".join(f"{kind} {count}" for kind, count
                        in sorted(stats.strikes_by_kind.items()))
        lines.append(f"  strikes by fault model: {per}")
    lines.append("")
    lines.append("Table 2 counters (rebuilt from detect events):")
    names = TABLE2_COUNTERS + ("Total",)
    lines.extend("  " + line for line in _table(
        [[stats.counters.get(n, 0) for n in names],
         [stats.reported.get(n, 0) for n in names]],
        header=names))
    verdict = ("match" if stats.consistent else "MISMATCH")
    lines.append(f"  events vs run-end readouts: {verdict}")
    if stats.edac_corrected:
        lines.append(f"  EDAC corrected (external memory): "
                     f"{stats.edac_corrected}")
    for name, count in sorted(stats.trap_counts.items()):
        lines.append(f"  {name}: {count}")
    if stats.sites:
        lines.append("")
        lines.append("per-site detection/correction:")
        rows = []
        for site, cell in sorted(stats.sites.items()):
            latency = (f"{cell.latency.mean:.0f}/{cell.latency.max}"
                       if cell.latency.count else "-")
            rows.append([site, cell.detected, cell.corrected, cell.traps,
                         latency])
        lines.extend("  " + line for line in _table(
            rows, header=["site", "detected", "corrected", "traps",
                          "latency mean/max (instr)"]))
    if stats.states:
        lines.append("")
        lines.append("terminal states: " + "  ".join(
            f"{state} {count}" for state, count
            in sorted(stats.states.items())))
    if stats.ace is not None:
        lines.append("")
        lines.append(
            f"static analysis: ACE fraction "
            f"{float(stats.ace.get('fraction', 1.0)):.3f} "
            f"({stats.ace.get('claimable_words', 0)}/"
            f"{stats.ace.get('regfile_words', 0)} register-file words "
            f"claimed dead"
            + (", fpregs dead" if stats.ace.get("fpregs_dead") else "")
            + ("" if stats.ace.get("window_claims")
               else ", degraded to globals") + ")")
    if stats.early_exits:
        lines.append("early exits: " + "  ".join(
            f"{reason} {count}" for reason, count
            in sorted(stats.early_exits.items())))
    if stats.spans:
        lines.append("")
        lines.append("phase timers: " + "  ".join(
            f"{phase} {wall:.3f}s" for phase, wall
            in sorted(stats.spans.items())))
    if stats.recoveries:
        lines.append("")
        lines.append("recoveries:")
        for level, count in sorted(stats.recoveries.items()):
            lines.append(f"  {level:<17} x{count:<5} "
                         f"{stats.recovery_downtime.get(level, 0):>9} cycles")
    if stats.watchdog_resets:
        lines.append(f"watchdog resets: {stats.watchdog_resets}")
    if stats.compare_errors:
        lines.append(f"lock-step compare errors: {stats.compare_errors}")
    return "\n".join(lines)
