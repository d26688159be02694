"""The query functions the CLI and the campaign service both sit on.

Every function takes the plain ordered ``List[CampaignResult]`` (or
event list) that :meth:`CampaignDatabase.results
<repro.store.db.CampaignDatabase.results>` returns, so the same query
runs unchanged over a database campaign or an in-memory batch -- and
produces byte-identical numbers over byte-identical results.  The renderers in :mod:`repro.fault.report` stay the single
formatting path; this module only *aggregates*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.fault.campaign import CampaignResult
from repro.fault.crosssection import (
    COUNTER_TARGETS,
    CrossSectionCurve,
    CrossSectionPoint,
    target_bits,
)
from repro.fault.models import security_fold
from repro.fault.report import render_recovery_summary, render_table2, table2_rows
from repro.fault.results import config_key
from repro.telemetry import fold_stats, lifecycles

#: Counter readouts summed by :func:`fold_results`.
_FOLD_COUNTERS = ("ITE", "IDE", "DTE", "DDE", "RFE", "Total")


def fold_results(results: Sequence[CampaignResult]) -> Dict[str, object]:
    """The Table-2 fold of a campaign: per-run rows plus the aggregate.

    ``rows``/``rendered`` are exactly the CLI ``campaign`` table; the
    ``totals`` block sums the counter readouts and failure bookkeeping
    the way the CLI's summary line does.
    """
    counts = {name: 0 for name in _FOLD_COUNTERS}
    upsets = failures = iterations = instructions = 0
    fluence = 0.0
    for result in results:
        for name in _FOLD_COUNTERS:
            counts[name] += result.counts.get(name, 0)
        upsets += result.upsets
        failures += result.failures
        iterations += result.iterations
        instructions += result.instructions
        fluence += result.config.fluence
    payload: Dict[str, object] = {
        "runs": len(results),
        "rows": table2_rows(results),
        "rendered": render_table2(results) if results else "",
        "totals": {
            "counts": counts,
            "upsets": upsets,
            "failures": failures,
            "iterations": iterations,
            "instructions": instructions,
            "fluence": fluence,
            "cross_section": (counts["Total"] / fluence) if fluence else 0.0,
        },
    }
    if any(result.recovery_events or result.halts or result.unrecovered
           for result in results):
        payload["recovery"] = render_recovery_summary(results)
    if any(result.config.fault_model != "seu" for result in results):
        # Security readout: detected / silent / masked per fault model.
        payload["security"] = {
            model: dict(outcomes)
            for model, outcomes in security_fold(results).items()}
    return payload


def curve_from_results(results: Sequence[CampaignResult],
                       leon=None) -> CrossSectionCurve:
    """Rebuild the per-bit cross-section curve from stored runs.

    Runs are grouped by LET in first-appearance order; each group's
    counts and fluence sum before the per-bit normalization.  For the
    one-run-per-LET campaigns :func:`repro.fault.crosssection.
    measure_curve` submits, the arithmetic reduces to exactly its
    ``count / fluence / bits`` -- the curve is byte-identical to the
    live sweep's, which is what the service-smoke equivalence check
    relies on.
    """
    program = results[0].config.program if results else ""
    curve = CrossSectionCurve(program,
                              {kind: [] for kind in COUNTER_TARGETS})
    curve.points["Total"] = []
    bits = target_bits(leon)
    total_bits = sum(bits.values())
    order: List[float] = []
    grouped: Dict[float, Dict[str, float]] = {}
    for result in results:
        let = result.config.let
        if let not in grouped:
            order.append(let)
            grouped[let] = {"fluence": 0.0}
            grouped[let].update({name: 0 for name in _FOLD_COUNTERS})
        cell = grouped[let]
        cell["fluence"] += result.config.fluence
        for name in _FOLD_COUNTERS:
            cell[name] += result.counts.get(name, 0)
    for let in order:
        cell = grouped[let]
        fluence = cell["fluence"] or 1.0
        for kind in COUNTER_TARGETS:
            count = int(cell[kind])
            curve.points[kind].append(CrossSectionPoint(
                let, count / fluence / bits[kind], count))
        total = int(cell["Total"])
        curve.points["Total"].append(CrossSectionPoint(
            let, total / fluence / total_bits, total))
    return curve


def availability_readout(results: Sequence[CampaignResult], *,
                         clock_hz: Optional[float] = None
                         ) -> Dict[str, object]:
    """Measured availability of a stored campaign, as plain JSON."""
    from repro.alternatives.availability import (
        DEFAULT_CLOCK_HZ,
        measure_availability,
    )

    hz = clock_hz if clock_hz is not None else DEFAULT_CLOCK_HZ
    measured = measure_availability(results, clock_hz=hz)
    return {
        "runs": measured.runs,
        "clock_hz": measured.clock_hz,
        "uptime_seconds": measured.uptime_seconds,
        "downtime_seconds": measured.downtime_seconds,
        "availability": measured.availability,
        "mttr_seconds": measured.mttr_seconds,
        "mean_outage_seconds": measured.mean_outage_seconds,
        "recoveries": dict(measured.recoveries),
        "downtime_by_level": dict(measured.downtime_by_level),
        "halts": measured.halts,
        "unrecovered_runs": measured.unrecovered_runs,
    }


def diff_results(a: Sequence[CampaignResult],
                 b: Sequence[CampaignResult]) -> Dict[str, object]:
    """Compare two campaigns run for run, keyed by config identity.

    Runs sharing a config key are compared on their deterministic
    measurement fields (:meth:`CampaignResult.comparable`); the summary
    counts matches/changes and the counter-total delta -- the regression
    view of the dashboard.
    """
    a_by_key = {config_key(result.config): result for result in a}
    b_by_key = {config_key(result.config): result for result in b}
    changed: List[Dict[str, object]] = []
    matched = 0
    for key, result in a_by_key.items():
        other = b_by_key.get(key)
        if other is None:
            continue
        if result.comparable() == other.comparable():
            matched += 1
            continue
        fields: Dict[str, object] = {}
        if result.counts != other.counts:
            fields["counts"] = {"a": dict(result.counts),
                                "b": dict(other.counts)}
        for name in ("sw_errors", "error_traps", "halted", "iterations",
                     "instructions", "cycles", "upsets", "halts",
                     "unrecovered"):
            va, vb = getattr(result, name), getattr(other, name)
            if va != vb:
                fields[name] = {"a": va, "b": vb}
        changed.append({
            "program": result.config.program,
            "let": result.config.let,
            "seed": result.config.seed,
            "fields": fields,
        })
    delta = {}
    for name in _FOLD_COUNTERS:
        total_a = sum(r.counts.get(name, 0) for r in a)
        total_b = sum(r.counts.get(name, 0) for r in b)
        if total_a != total_b:
            delta[name] = total_b - total_a
    return {
        "runs_a": len(a),
        "runs_b": len(b),
        "matched": matched,
        "changed": changed,
        "only_a": sum(1 for key in a_by_key if key not in b_by_key),
        "only_b": sum(1 for key in b_by_key if key not in a_by_key),
        "counter_delta": delta,
        "failures_a": sum(r.failures for r in a),
        "failures_b": sum(r.failures for r in b),
    }


def lifecycle_rows(events: Sequence[Dict[str, object]]
                   ) -> List[Dict[str, object]]:
    """Per-upset lifecycle summaries from a stored (or file) trace."""
    rows = []
    for life in lifecycles(events):
        rows.append({
            "run": life.run,
            "upset": life.upset,
            "target": life.target,
            "state": life.state,
            "terminal": life.terminal,
            "latency": life.latency,
            "detects": len(life.detects),
            "resolves": len(life.resolves),
        })
    return rows


def trace_stats(events: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """A stored trace folded to its headline stats, as plain JSON."""
    stats = fold_stats(events)
    return {
        "runs": stats.runs,
        "strikes": stats.strikes,
        "strikes_by_target": dict(stats.strikes_by_target),
        "strikes_by_kind": dict(stats.strikes_by_kind),
        "counters": dict(stats.counters),
        "reported": dict(stats.reported),
        "consistent": stats.consistent,
        "states": dict(stats.states),
        "recoveries": dict(stats.recoveries),
        "early_exits": dict(stats.early_exits),
        "ace": dict(stats.ace) if stats.ace is not None else None,
    }
