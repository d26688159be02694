"""The storage + query layer: one corpus of runs, many readers.

ROADMAP item 1 (DAVOS Datamanager/Reportbuilder mold): campaign results
are a shared, queryable corpus, and SQLite is its only store.  The CLI
(``campaign/attack --results``, ``availability --measured``), the
campaign service and ``repro ingest`` all read and write it:

``repro.store.db``
    :class:`CampaignDatabase` -- the indexed SQLite schema (campaigns,
    runs, upsets, events, jobs) with idempotent import of JSONL result
    logs and telemetry traces.

``repro.store.query``
    The query functions the CLI and the campaign service both sit on:
    Table-2 folds, cross-section curves, availability readouts,
    campaign diffs and lifecycle traces.
"""

from repro.store.db import CampaignDatabase
from repro.store.query import (
    availability_readout,
    curve_from_results,
    diff_results,
    fold_results,
    lifecycle_rows,
    trace_stats,
)

__all__ = [
    "CampaignDatabase",
    "availability_readout",
    "curve_from_results",
    "diff_results",
    "fold_results",
    "lifecycle_rows",
    "trace_stats",
]
