#!/usr/bin/env python3
"""Print the three-estimator simulation table for one or more seeds.

The table couples an exponential, a square-root-exponential and a Pareto
sample built from the same sorted uniforms; columns two and three agree
exactly by construction, and column four illustrates the consistency of
the log-scale estimator on Pareto data.

Usage:
    python scripts/run_table.py --seed 42
    python scripts/run_table.py --seed 42 --seeds 5 --n-total 4000
"""

import argparse

from gumbeltail import RngSpec, reproduce_table
from gumbeltail.engine import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seeds", type=int, default=1,
                        help="number of consecutive seeds to run")
    parser.add_argument("--n-total", type=int, default=4000)
    args = parser.parse_args()

    for seed in range(args.seed, args.seed + args.seeds):
        rows = reproduce_table(RngSpec(seed=seed), n_total=args.n_total)
        print(f"seed {seed}")
        print(format_table(rows))
        worst = max(abs(row.identity_gap) for row in rows)
        print(f"max column-identity gap: {worst:.2e}\n")


if __name__ == "__main__":
    main()
