#!/usr/bin/env python3
"""Record reference.json: digests of the seeded replicate and table outputs
at the default workload seed.

Run from the root of a source checkout:

    python3 bench/record_reference.py

Every benchmark run re-runs these operations and compares digests, which
holds the seeded paths bit-identical. Re-record only for a change that is
meant to alter seeded output, and say so where the change is described.
"""

import json
import sys
from pathlib import Path

from run import ROOT, _import_package, run_op


def main() -> int:
    _import_package()
    from gumbeltail import cli

    import workloads

    digests = {}
    for name in workloads.WORKLOADS:
        workload = workloads.make_workload(name, workloads.DEFAULT_SEED, ROOT / ".bench_work" / "record")
        try:
            for key, op in workload.reference_ops():
                outcome = run_op(op, cli.dispatch, workloads.CheckFailed)
                if not outcome.ok:
                    print(f"{key}: {outcome.reason}", file=sys.stderr)
                    return 1
                digests[key] = workloads.digest(outcome.stdout)
        finally:
            workload.close()
    out = Path(__file__).parent / "reference.json"
    out.write_text(json.dumps({"default_seed": workloads.DEFAULT_SEED, "digests": digests},
                              indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
