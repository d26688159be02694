#!/usr/bin/env python
"""CI trace smoke: a tiny traced campaign end to end through the CLI.

Runs ``campaign --results DB --trace`` (two IUTEST replicas at LET 110,
fanned across two jobs), resumes it to three runs, then drives the
``trace`` and ``stats`` subcommands over the database it produced, and
checks the tentpole invariants directly:

  * every injected strike has a terminal lifecycle event
    (resolve or close) -- the trace view is complete;
  * the Table-2 counters folded from detect events alone match the
    run-end readouts each run recorded (``TraceStats.consistent``);
  * the resumed run is stored as run 2 with its own config's seed --
    a resume never reuses a run index;
  * the campaign's measured results are byte-identical to an untraced
    execution of the same configs -- telemetry only observes.

Exit code 1 on any violation.

Usage: PYTHONPATH=src python scripts/trace_smoke.py [trace.db]
"""

import os
import sys
import tempfile

from repro.cli import main as cli
from repro.fault.campaign import CampaignConfig
from repro.fault.executor import CampaignExecutor, expand_runs
from repro.store import CampaignDatabase
from repro.store.db import file_stem
from repro.telemetry import fold_stats, lifecycles

CAMPAIGN = ["campaign", "--program", "iutest", "--let", "110",
            "--flux", "400", "--fluence", "600", "--ips", "20000",
            "--jobs", "2"]
CONFIG = CampaignConfig(program="iutest", let=110.0, flux=400.0,
                        fluence=600.0, instructions_per_second=20_000.0)


def main() -> int:
    if len(sys.argv) > 1:
        path = sys.argv[1]
    else:
        handle, path = tempfile.mkstemp(suffix=".db", prefix="trace-")
        os.close(handle)

    for runs in ("2", "3"):
        if cli(CAMPAIGN + ["--runs", runs, "--results", path,
                           "--trace"]) != 0:
            print(f"FAIL: traced campaign (--runs {runs}) reported "
                  f"failures")
            return 1
    for view in (["trace", path], ["stats", path]):
        print(f"\n$ repro {' '.join(view)}")
        if cli(view) != 0:
            print(f"FAIL: {view[0]} subcommand rejected the trace")
            return 1

    failed = False
    with CampaignDatabase(path) as db:
        events = db.events(db.campaign_id(file_stem(path)))
    lives = lifecycles(events)
    strikes = [life for life in lives if life.strike is not None]
    dangling = [life for life in lives if not life.terminal]
    print(f"\n{len(strikes)} strike(s), {len(lives)} lifecycle(s)")
    if not strikes:
        print("FAIL: the campaign injected no strikes (smoke needs some)")
        failed = True
    if dangling:
        print(f"FAIL: {len(dangling)} upset(s) without a terminal event")
        failed = True

    stats = fold_stats(events)
    if not stats.consistent:
        print("FAIL: event-derived counters disagree with run-end readouts")
        failed = True

    configs = expand_runs(CONFIG, 3)
    starts = [(e["run"], e["seed"]) for e in events if e["ev"] == "run-start"]
    expected_starts = [(run, config.seed)
                       for run, config in enumerate(configs)]
    if starts != expected_starts:
        print(f"FAIL: run-start (run, seed) pairs {starts} != "
              f"{expected_starts} after the resume")
        failed = True
    else:
        print("resumed run stored as run 2 with its own seed: OK")

    # Byte-identity: re-run the same configs untraced and compare.
    untraced = CampaignExecutor(2).run_many(configs)
    run_end = [e for e in events if e["ev"] == "run-end"]
    readouts = [(e["counts"], e["upsets"], e["halted"]) for e in run_end]
    expected = [(dict(r.counts), r.upsets, r.halted) for r in untraced]
    if readouts != expected:
        print("FAIL: traced run-end readouts differ from an untraced run")
        failed = True
    else:
        print("traced readouts identical to untraced execution: OK")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
