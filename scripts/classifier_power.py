#!/usr/bin/env python3
"""Power study of the normal-versus-exponential test.

Draws replicate samples from both parents (the catalog exponential and the
catalog normal, which the log transform renormalizes to |Z|, sharing
uniforms) and reports how often the test picks the true parent at each
sample size. Each replicate's log-scale estimate comes from the engine's
replicate loop.

Usage:
    python scripts/classifier_power.py --reps 200 --n-grid 400 1000 4000
"""

import argparse
import sys

from gumbeltail import (GumbelTailError, KPolicy, RngSpec, get_model, run_replicates,
                        transform_log, verdict)
from gumbeltail.select import EXPONENTIAL, NORMAL


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-grid", nargs="+", type=int, default=[400, 1000, 4000, 10000])
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--policy", default="sqrt")
    args = parser.parse_args()
    try:
        study(args)
    except GumbelTailError as exc:  # a bad argument, reported as the CLI reports it
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


def study(args: argparse.Namespace) -> None:
    policy = KPolicy.parse(args.policy)
    print(f"policy {policy.spec()}, reps {args.reps}, seed {args.seed}")
    print(f"{'n':>8} {'exp correct':>12} {'norm correct':>13}")
    for block, n in enumerate(args.n_grid):
        rates = []
        for name, truth in (("exponential", EXPONENTIAL), ("normal", NORMAL)):
            rs = run_replicates(transform_log(get_model(name)), n, policy, args.reps,
                                RngSpec(seed=args.seed, stream_id=block * args.reps))
            hits = sum(verdict(t, n, rs.constants.k).chosen == truth for t in rs.raw_t)
            rates.append(hits / args.reps)
        print(f"{n:>8} {rates[0]:>12.1%} {rates[1]:>13.1%}")


if __name__ == "__main__":
    main()
