"""The campaign database: an indexed SQLite schema over stored runs.

DAVOS keeps every injection campaign in one queryable datamanager store;
this is the equivalent for the simulator.  The schema:

``campaigns``
    One row per named corpus of runs -- a CLI ``--results`` file's
    campaign, a service job, an ingested JSONL log, or an ad-hoc insert.
``runs``
    One row per campaign run, keyed ``(campaign_id, config_key)`` with
    the full :func:`~repro.fault.results.result_to_dict` payload plus
    indexed columns for the common filters (program, LET, seed ...).
    Ingest is **idempotent**: re-inserting a run upserts the payload and
    keeps the row's original position, so re-running an ingest -- or
    resuming a crashed job -- never duplicates and never reorders.
``upsets`` / ``readouts``
    Per-run strike tallies by target and counter readouts by name,
    unpacked for per-target/per-counter SQL without JSON parsing.
``events``
    Telemetry trace events (the SEU lifecycles), ``(campaign, run, seq)``
    ordered, payloads verbatim.  A traced run's events are written with
    its ``runs`` row, in the same transaction, keyed by the row's
    ``position`` -- so a run is stored whole or not at all, and every run
    of a campaign has its own index however many commands, jobs or
    resumes added to it.
``jobs``
    The service's job queue (:mod:`repro.service.jobs`): submitted
    configs, lifecycle state, and progress counts.  Persisted here so a
    restarted server resumes interrupted jobs against the runs already
    stored.

Results read back from the database are bit-for-bit the results that
went in (the payload column is authoritative; the typed columns are an
index, not a second copy of the truth).

JSONL result logs -- one :func:`~repro.fault.results.result_to_dict`
object per line, the format campaigns were logged in before this
database existed -- and JSONL telemetry traces survive only as import
formats (:meth:`CampaignDatabase.ingest_results`,
:meth:`CampaignDatabase.ingest_trace`).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.fault.campaign import CampaignConfig, CampaignResult
from repro.fault.results import (
    config_from_dict,
    config_key,
    config_to_dict,
    result_from_dict,
    result_to_dict,
)

#: Bump when the schema changes incompatibly.
#: v2: runs.fault_model column (defaults 'seu' for rows written by v1).
SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    id         INTEGER PRIMARY KEY,
    name       TEXT NOT NULL UNIQUE,
    source     TEXT NOT NULL DEFAULT '',
    created_at REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS runs (
    id           INTEGER PRIMARY KEY,
    campaign_id  INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    position     INTEGER NOT NULL,
    config_key   TEXT NOT NULL,
    program      TEXT NOT NULL,
    let          REAL NOT NULL,
    flux         REAL NOT NULL,
    fluence      REAL NOT NULL,
    seed         TEXT NOT NULL,  -- derived seeds exceed signed 64-bit
    recovery     TEXT NOT NULL,
    fault_model  TEXT NOT NULL DEFAULT 'seu',
    upsets       INTEGER NOT NULL,
    sw_errors    INTEGER NOT NULL,
    error_traps  INTEGER NOT NULL,
    halted       INTEGER NOT NULL,
    iterations   INTEGER NOT NULL,
    instructions INTEGER NOT NULL,
    cycles       INTEGER NOT NULL,
    halts        INTEGER NOT NULL,
    unrecovered  INTEGER NOT NULL,
    exit_reason  TEXT NOT NULL,
    total_errors INTEGER NOT NULL,
    payload      TEXT NOT NULL,
    UNIQUE (campaign_id, config_key)
);
CREATE INDEX IF NOT EXISTS runs_by_position
    ON runs (campaign_id, position);
CREATE INDEX IF NOT EXISTS runs_by_let
    ON runs (campaign_id, program, let);
CREATE TABLE IF NOT EXISTS upsets (
    run_id INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    target TEXT NOT NULL,
    count  INTEGER NOT NULL,
    PRIMARY KEY (run_id, target)
);
CREATE TABLE IF NOT EXISTS readouts (
    run_id  INTEGER NOT NULL REFERENCES runs(id) ON DELETE CASCADE,
    counter TEXT NOT NULL,
    count   INTEGER NOT NULL,
    PRIMARY KEY (run_id, counter)
);
CREATE TABLE IF NOT EXISTS events (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    run         INTEGER NOT NULL,
    seq         INTEGER NOT NULL,
    ev          TEXT NOT NULL,
    payload     TEXT NOT NULL,
    PRIMARY KEY (campaign_id, run, seq)
);
CREATE TABLE IF NOT EXISTS jobs (
    id           INTEGER PRIMARY KEY,
    name         TEXT NOT NULL,
    state        TEXT NOT NULL,
    campaign_id  INTEGER REFERENCES campaigns(id),
    configs      TEXT NOT NULL,
    options      TEXT NOT NULL DEFAULT '{}',
    total        INTEGER NOT NULL,
    completed    INTEGER NOT NULL DEFAULT 0,
    error        TEXT NOT NULL DEFAULT '',
    submitted_at REAL NOT NULL DEFAULT 0.0
);
"""


def file_stem(path: str) -> str:
    """The default campaign name for a file: its base name, extension
    dropped -- so ``runs.jsonl`` ingests into the campaign a later
    ``campaign --results runs.db`` carries on."""
    return os.path.splitext(os.path.basename(path))[0]


def _not_a_database(path: str, exc: sqlite3.DatabaseError) -> str:
    """The error for a file SQLite refuses, naming the fix when the file
    is a JSONL result log or telemetry trace passed where the database
    belongs."""
    message = f"{path}: not a campaign database ({exc})"
    try:
        with open(path, "rb") as handle:
            first = handle.readline(1 << 16).strip()
    except OSError:
        first = b""
    if not first.startswith(b"{"):
        return message
    try:
        is_trace = "ev" in json.loads(first)
    except (ValueError, TypeError):
        is_trace = False
    if is_trace:
        return message + (f"; it looks like a JSONL telemetry trace -- "
                          f"import it with `repro ingest --trace {path} "
                          f"--db <database>`")
    return message + (f"; it looks like a JSONL result log -- import it "
                      f"with `repro ingest {path} --db <database>`")


def _read_result_log(path: str) -> List[CampaignResult]:
    """Every result in a JSONL result log, in first-appearance order.

    Later duplicate lines supersede earlier ones (a re-run wins) without
    moving the run.  An undecodable *final* line is the signature of a
    crash mid-append and is skipped; garbage anywhere else raises.  Rows
    written before fast grading or recovery existed load with their
    defaults (:func:`~repro.fault.results.result_from_dict`).
    """
    with open(path, "rb") as handle:
        lines = handle.readlines()
    if lines and lines[0].startswith(b"SQLite format 3\x00"):
        raise ConfigurationError(
            f"{path}: a campaign database, not a JSONL result log")
    results: Dict[str, CampaignResult] = {}
    for number, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            result = result_from_dict(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            if number == len(lines) - 1:
                break  # crash-truncated tail: the run was never stored
            raise ConfigurationError(
                f"{path}:{number + 1}: undecodable result line "
                f"({exc})") from None
        results[config_key(result.config)] = result
    return list(results.values())


def _wall_clock() -> float:
    """Submission/creation timestamps -- dashboard bookkeeping only,
    never part of any measured result."""
    return time.time()  # lint: ok=det-time -- service bookkeeping timestamp


class CampaignDatabase:
    """SQLite-backed store of campaigns, runs, lifecycles and jobs.

    Thread-safe: a single connection guarded by one lock serves every
    thread (the HTTP handler pool, the job scheduler, and the CLI), and
    each write method is one transaction, so a batch either lands whole
    or not at all.  ``path`` may be ``":memory:"`` for tests.  Opening a
    file that is not a campaign database, or a path SQLite cannot open,
    raises :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self, path: str = ":memory:") -> None:
        self.path = path
        self._lock = threading.RLock()
        try:
            self._conn = sqlite3.connect(path, check_same_thread=False)
        except sqlite3.Error as exc:
            raise ConfigurationError(
                f"{path}: cannot open campaign database ({exc})") from None
        self._conn.row_factory = sqlite3.Row
        try:
            self._open_schema(path)
        except sqlite3.DatabaseError as exc:
            self._conn.close()
            raise ConfigurationError(_not_a_database(path, exc)) from None

    def _open_schema(self, path: str) -> None:
        with self._lock, self._conn:
            self._conn.execute("PRAGMA foreign_keys = ON")
            if path != ":memory:" and not path.startswith("file:"):
                self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.executescript(_SCHEMA)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES (?, ?)",
                    ("schema_version", str(SCHEMA_VERSION)))
            else:
                self._migrate(path, int(row["value"]))

    def _migrate(self, path: str, version: int) -> None:
        """Upgrade an older on-disk schema in place (caller holds lock).

        v1 -> v2 adds ``runs.fault_model``; every pre-existing row was
        written before the model layer and is a transient-SEU run, which
        is exactly the column default.  Payloads are untouched, so
        results read back bit-for-bit.  Newer-than-us schemas still
        refuse to open.
        """
        if version == SCHEMA_VERSION:
            return
        if version > SCHEMA_VERSION:
            raise ConfigurationError(
                f"{path}: campaign database schema v{version} "
                f"(this build reads v{SCHEMA_VERSION})")
        if version == 1:
            columns = {row["name"] for row in self._conn.execute(
                "PRAGMA table_info(runs)").fetchall()}
            if "fault_model" not in columns:
                self._conn.execute(
                    "ALTER TABLE runs ADD COLUMN fault_model "
                    "TEXT NOT NULL DEFAULT 'seu'")
            version = 2
        if version != SCHEMA_VERSION:
            raise ConfigurationError(
                f"{path}: no migration path from campaign database "
                f"schema v{version} to v{SCHEMA_VERSION}")
        self._conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION),))

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "CampaignDatabase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- campaigns ---------------------------------------------------------

    def ensure_campaign(self, name: str, *, source: str = "") -> int:
        """The campaign's id, creating the row on first use."""
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT id FROM campaigns WHERE name = ?", (name,)).fetchone()
            if row is not None:
                return int(row["id"])
            cursor = self._conn.execute(
                "INSERT INTO campaigns (name, source, created_at) "
                "VALUES (?, ?, ?)", (name, source, _wall_clock()))
            return int(cursor.lastrowid)

    def campaign_id(self, name_or_id) -> int:
        """Resolve a campaign by name, or else by numeric id (an int or
        an all-digit string) -- a campaign named ``7`` wins over id 7."""
        row = None
        with self._lock:
            if not isinstance(name_or_id, int):
                row = self._conn.execute(
                    "SELECT id FROM campaigns WHERE name = ?",
                    (str(name_or_id),)).fetchone()
            if row is None and str(name_or_id).isdigit():
                row = self._conn.execute(
                    "SELECT id FROM campaigns WHERE id = ?",
                    (int(name_or_id),)).fetchone()
        if row is None:
            raise ConfigurationError(f"unknown campaign {name_or_id!r}")
        return int(row["id"])

    def campaigns(self) -> List[Dict[str, object]]:
        """Every campaign with its run count, insertion-ordered."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT c.id, c.name, c.source, c.created_at, "
                "       COUNT(r.id) AS runs, "
                "       COALESCE(SUM(r.total_errors), 0) AS total_errors, "
                "       COALESCE(SUM(r.upsets), 0) AS upsets "
                "FROM campaigns c LEFT JOIN runs r ON r.campaign_id = c.id "
                "GROUP BY c.id ORDER BY c.id").fetchall()
        return [dict(row) for row in rows]

    # -- runs --------------------------------------------------------------

    def add_results(self, campaign: int,
                    results: Iterable[CampaignResult]) -> int:
        """Upsert results into the campaign; returns rows written.

        One transaction: if anything fails partway through *results*, no
        row of the batch is stored, so a resume re-runs the whole batch.
        Idempotent by ``(campaign, config_key)``: a re-inserted run
        replaces its payload but keeps its original position, so ingest
        retries and job resumes leave the corpus unchanged.  A result
        whose ``trace`` is not None also replaces that run's telemetry
        events, tagged with the row's position as their ``run``.
        """
        written = 0
        with self._lock, self._conn:
            row = self._conn.execute(
                "SELECT COALESCE(MAX(position), -1) AS top FROM runs "
                "WHERE campaign_id = ?", (campaign,)).fetchone()
            position = int(row["top"]) + 1
            for result in results:
                payload = result_to_dict(result)
                key = config_key(result.config)
                config = result.config
                self._conn.execute(
                    "INSERT INTO runs (campaign_id, position, config_key, "
                    " program, let, flux, fluence, seed, recovery, "
                    " fault_model, upsets, "
                    " sw_errors, error_traps, halted, iterations, "
                    " instructions, cycles, halts, unrecovered, exit_reason, "
                    " total_errors, payload) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
                    "        ?, ?, ?, ?, ?, ?, ?) "
                    "ON CONFLICT (campaign_id, config_key) DO UPDATE SET "
                    " program = excluded.program, let = excluded.let, "
                    " flux = excluded.flux, fluence = excluded.fluence, "
                    " seed = excluded.seed, recovery = excluded.recovery, "
                    " fault_model = excluded.fault_model, "
                    " upsets = excluded.upsets, "
                    " sw_errors = excluded.sw_errors, "
                    " error_traps = excluded.error_traps, "
                    " halted = excluded.halted, "
                    " iterations = excluded.iterations, "
                    " instructions = excluded.instructions, "
                    " cycles = excluded.cycles, halts = excluded.halts, "
                    " unrecovered = excluded.unrecovered, "
                    " exit_reason = excluded.exit_reason, "
                    " total_errors = excluded.total_errors, "
                    " payload = excluded.payload",
                    (campaign, position, key, config.program, config.let,
                     config.flux, config.fluence, str(config.seed),
                     config.recovery, config.fault_model,
                     result.upsets, result.sw_errors,
                     result.error_traps, int(result.halted),
                     result.iterations, result.instructions, result.cycles,
                     result.halts, int(result.unrecovered),
                     result.exit_reason, result.counts.get("Total", 0),
                     json.dumps(payload, sort_keys=True)))
                stored = self._conn.execute(
                    "SELECT id, position FROM runs WHERE campaign_id = ? "
                    "AND config_key = ?", (campaign, key)).fetchone()
                run_id = int(stored["id"])
                self._conn.execute(
                    "DELETE FROM upsets WHERE run_id = ?", (run_id,))
                self._conn.execute(
                    "DELETE FROM readouts WHERE run_id = ?", (run_id,))
                self._conn.executemany(
                    "INSERT INTO upsets (run_id, target, count) "
                    "VALUES (?, ?, ?)",
                    [(run_id, target, count) for target, count
                     in sorted(result.upsets_by_target.items())])
                self._conn.executemany(
                    "INSERT INTO readouts (run_id, counter, count) "
                    "VALUES (?, ?, ?)",
                    [(run_id, counter, count) for counter, count
                     in sorted(result.counts.items())])
                if result.trace is not None:
                    self._replace_events(campaign, int(stored["position"]),
                                         result.trace)
                position += 1
                written += 1
        return written

    def results(self, campaign: int) -> List[CampaignResult]:
        """Every stored result of the campaign, in insertion order.

        Bit-for-bit the results that were inserted: rows decode through
        :func:`~repro.fault.results.result_from_dict` exactly like the
        lines of an imported JSONL result log.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM runs WHERE campaign_id = ? "
                "ORDER BY position", (campaign,)).fetchall()
        return [result_from_dict(json.loads(row["payload"])) for row in rows]

    def split_pending(
        self, campaign: int, configs: Sequence[CampaignConfig]
    ) -> "tuple[Dict[str, CampaignResult], List[CampaignConfig]]":
        """Partition configs into (already-stored results, still-to-run).

        The resume primitive of ``campaign/attack --results`` and the job
        scheduler: with runs keyed by config, appending to a campaign and
        resuming it are the same operation.
        """
        stored = {config_key(result.config): result
                  for result in self.results(campaign)}
        done: Dict[str, CampaignResult] = {}
        pending: List[CampaignConfig] = []
        for config in configs:
            key = config_key(config)
            if key in stored:
                done[key] = stored[key]
            else:
                pending.append(config)
        return done, pending

    # -- telemetry events --------------------------------------------------

    def _replace_events(self, campaign: int, run: int,
                        events: Sequence[Dict[str, object]]) -> None:
        """Replace the stored trace of one run, each event tagged
        ``"run": run`` (caller holds the lock and the transaction)."""
        self._conn.execute(
            "DELETE FROM events WHERE campaign_id = ? AND run = ?",
            (campaign, run))
        rows = []
        for seq, event in enumerate(events):
            tagged = {"run": run}
            tagged.update(event)
            tagged["run"] = run
            rows.append((campaign, run, seq, str(tagged.get("ev", "")),
                         json.dumps(tagged, sort_keys=True)))
        self._conn.executemany(
            "INSERT INTO events (campaign_id, run, seq, ev, payload) "
            "VALUES (?, ?, ?, ?, ?)", rows)

    def events(self, campaign: int) -> List[Dict[str, object]]:
        """The campaign's trace events in (run, seq) order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM events WHERE campaign_id = ? "
                "ORDER BY run, seq", (campaign,)).fetchall()
        return [json.loads(row["payload"]) for row in rows]

    # -- ingest ------------------------------------------------------------

    def ingest_results(self, path: str, *,
                       name: Optional[str] = None) -> "tuple[int, int]":
        """Import a JSONL result log; returns (campaign id, rows written).

        The campaign is named after the file stem unless *name* is given.
        Reads through the crash-tolerant :func:`_read_result_log`
        (truncated tail lines are skipped, later duplicates win) and
        upserts -- re-ingesting the same file is a no-op.  Raises
        :class:`OSError` for a missing file.
        """
        results = _read_result_log(path)
        campaign = self.ensure_campaign(name or file_stem(path),
                                        source=path)
        return campaign, self.add_results(campaign, results)

    def ingest_trace(self, path: str, *,
                     name: Optional[str] = None) -> "tuple[int, int]":
        """Import a JSONL telemetry trace; returns (campaign id, events).

        Events land in the campaign named after the trace file (or
        *name*), grouped by their ``run`` tags, in one transaction;
        re-ingesting replaces each run's events in place.  This is the
        import path for traces written outside the database: campaigns
        store their own traces through :meth:`add_results`.
        """
        from repro.telemetry import read_trace

        events = read_trace(path)
        by_run: Dict[int, List[Dict[str, object]]] = {}
        for event in events:
            by_run.setdefault(int(event.get("run", 0)), []).append(event)
        campaign = self.ensure_campaign(name or file_stem(path), source=path)
        with self._lock, self._conn:
            for run in sorted(by_run):
                self._replace_events(campaign, run, by_run[run])
        return campaign, len(events)

    # -- jobs --------------------------------------------------------------

    def create_job(self, configs: Sequence[CampaignConfig], *,
                   name: Optional[str] = None,
                   options: Optional[Dict[str, object]] = None) -> int:
        """Persist a submitted job (state ``queued``); returns its id.

        Without a *name* the job gets ``job-<id>`` and its own campaign;
        a named job appends to the campaign of that name -- submitting
        under one name accumulates a shared corpus across jobs.
        """
        payload = json.dumps([config_to_dict(config) for config in configs])
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "INSERT INTO jobs (name, state, configs, options, total, "
                " submitted_at) VALUES ('', 'queued', ?, ?, ?, ?)",
                (payload, json.dumps(options or {}, sort_keys=True),
                 len(configs), _wall_clock()))
            job_id = int(cursor.lastrowid)
            label = name or f"job-{job_id}"
            campaign = self.ensure_campaign(label, source="job")
            self._conn.execute(
                "UPDATE jobs SET name = ?, campaign_id = ? WHERE id = ?",
                (label, campaign, job_id))
            return job_id

    def job(self, job_id: int) -> Dict[str, object]:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        if row is None:
            raise ConfigurationError(f"unknown job {job_id}")
        record = dict(row)
        record["options"] = json.loads(record["options"])
        return record

    def job_configs(self, job_id: int) -> List[CampaignConfig]:
        with self._lock:
            row = self._conn.execute(
                "SELECT configs FROM jobs WHERE id = ?",
                (job_id,)).fetchone()
        if row is None:
            raise ConfigurationError(f"unknown job {job_id}")
        return [config_from_dict(payload)
                for payload in json.loads(row["configs"])]

    def jobs(self, states: Optional[Sequence[str]] = None
             ) -> List[Dict[str, object]]:
        """Job rows (without the config payload), submission-ordered."""
        query = ("SELECT id, name, state, campaign_id, total, completed, "
                 "error, submitted_at FROM jobs")
        args: tuple = ()
        if states:
            marks = ",".join("?" for _ in states)
            query += f" WHERE state IN ({marks})"
            args = tuple(states)
        with self._lock:
            rows = self._conn.execute(query + " ORDER BY id", args).fetchall()
        return [dict(row) for row in rows]

    def update_job(self, job_id: int, *, state: Optional[str] = None,
                   completed: Optional[int] = None,
                   error: Optional[str] = None) -> None:
        sets, args = [], []
        if state is not None:
            sets.append("state = ?")
            args.append(state)
        if completed is not None:
            sets.append("completed = ?")
            args.append(completed)
        if error is not None:
            sets.append("error = ?")
            args.append(error)
        if not sets:
            return
        args.append(job_id)
        with self._lock, self._conn:
            self._conn.execute(
                f"UPDATE jobs SET {', '.join(sets)} WHERE id = ?", args)
