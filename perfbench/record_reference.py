"""Record the seed-0 reference outputs of every workload from this checkout.

    python3 perfbench/record_reference.py

Runs one round of each workload at full size and rewrites reference.json.
Refuses to write if any operation fails its other checks.
"""

import json
import sys

import run
from workloads import WORKLOADS


def main():
    refs = {}
    for name in WORKLOADS["full"]:
        workload, _, rounds = run.run_workload(name, seed=0, seconds=0, trace=False,
                                               size="full", reference=False)
        failed = [op for op in rounds[0].ops if op["failures"]]
        if failed:
            print(f"{name}: {failed[0]['label']}: {failed[0]['failures']}", file=sys.stderr)
            return 1
        refs[name] = {key: rows for _, key, rows in run.reference_values(workload, rounds[0])}
    run.REFERENCE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
