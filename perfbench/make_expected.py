"""Regenerate the committed expected readouts of the default seed.

    python3 perfbench/make_expected.py [workload ...]

For every campaign cycle a run can reach (``measure.MAX_CYCLES``) the
readouts come from the full-execution oracle (no early exit, no static
grading, no JIT); the sim readouts from the interpreted sim run.  Only
rerun this when the simulator's results are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    from workloads import DEFAULT_SEED, WORKLOADS

    jobs = measure.nproc()
    measure.EXPECTED_DIR.mkdir(exist_ok=True)
    for name in argv or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        configs = [config for cycle in range(measure.MAX_CYCLES)
                   for config in workload.configs(DEFAULT_SEED, cycle)]
        runs = measure.oracle_hashes(configs, measure.oracle_warm(workload),
                                     jobs)
        sim = measure.SimRun(workload, jit=False).finish()
        record = {
            "workload": name,
            "seed": DEFAULT_SEED,
            "oracle": "early_exit=False, static_grading=False, jit=False",
            "sim": {"instructions": sim.instructions,
                    "state_digest": sim.digest, "perf": sim.perf},
            "runs": runs,
        }
        path = measure.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"{path.relative_to(ROOT)}: {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
