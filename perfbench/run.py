"""Campaign benchmark: beam-campaign host cost, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload iutest-reconverge --seed 2002 \\
        --seconds 15 --trace 0

Load model: a closed loop with one submitter and one campaign at a time.
Each campaign cycle is ``prepare_warm_start`` (setup), then
``CampaignExecutor(jobs=nproc).run_many`` ingesting every completed batch
into a temporary ``CampaignDatabase``, then the Table-2 read
(``db.results`` and ``fold_results``).  Every run's readouts are checked
against the full-execution oracle: committed under ``expected/`` for the
default seed, computed before timing for any other seed.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced campaign, a self-time table per layer, and
writes the spans to ``.perfbench/traces/``.  The metric names and units
are the ones ``BENCHMARK.json`` lists.  The last line of standard output
is the JSON result; the exit code is non-zero when any run's readouts
differ from the oracle or a run raised.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _arguments(argv, workloads, default_seed):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=default_seed)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measured time to aim for (campaign cycles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one run per LET, one cycle (self-test size)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import measure
    from workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _arguments(argv, WORKLOADS, DEFAULT_SEED)
    workload = WORKLOADS[args.workload]
    host = measure.host_fingerprint()
    role = {DEFAULT_SEED: "default", HELD_OUT_SEED: "held-out"}.get(
        args.seed, "other")
    print(f"perfbench: workload {workload.name}, seed {args.seed} ({role}), "
          f"trace {args.trace}, jobs {host['nproc']}")
    print(f"  why: {workload.why}")
    print(f"  overlaps: {workload.overlaps}")
    print(f"  host: {json.dumps(host, sort_keys=True)}")

    checks = measure.Checks.load(workload, args.seed, host["nproc"])
    began = time.perf_counter()
    with measure.workspace(ROOT) as workdir:
        if args.trace:
            values, tracer = measure.traced(workload, checks, workdir,
                                            smoke=args.smoke)
            declared = spec["per_layer"]
        else:
            values = measure.end_to_end(workload, checks, args.seconds,
                                        workdir, smoke=args.smoke)
            declared = spec["end_to_end"]
            print(f"  measured {values['cycles']} campaign(s), "
                  f"{values['runs']} runs; peak RSS: process "
                  f"{values['process_rss_mb']:.1f} MB + largest worker "
                  f"{values['worker_rss_mb']:.1f} MB")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    width = max(len(name) for name in metrics)
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:.6g} {metric['unit']}")
    share = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"  {'runs_failed':<{width}}  {share:.6g} share "
          f"({checks.failed} of {checks.attempted})")
    if args.trace:
        _report_trace(tracer, values, workload, args.seed, host)
    print(f"  oracle: {checks.oracle_runs} runs in {checks.oracle_s:.1f} s "
          f"before timing; seed {args.seed}; total wall "
          f"{time.perf_counter() - began:.1f} s")
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


def _report_trace(tracer, values, workload, seed, host) -> None:
    from tracing import LAYERS

    table = tracer.self_times()
    print("  self time by span (layer, calls, total s, self s):")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"    {name:<18} {LAYERS[name]:<22} {row['calls']:>7} "
              f"{row['total_s']:>9.3f} {row['self_s']:>9.3f}")
    campaign_wall = sum(tracer.duration(s) for s in tracer.by_name("campaign"))
    overhead = values["fault.executor.overhead_s"]
    print(f"  unaccounted by any layer: {overhead:.3f} s = "
          f"{overhead / campaign_wall:.1%} of the traced campaign wall "
          f"(fault.executor.overhead_s)")
    out = ROOT / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"trace-{workload.name}-{seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                "host": host, "metrics": values,
                                "spans": tracer.spans}))
    print(f"  spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")


if __name__ == "__main__":
    sys.exit(main())
