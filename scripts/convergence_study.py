#!/usr/bin/env python3
"""Convergence study across sample sizes.

For each model the script replicates the max-spacing estimator and prints,
per n: the median of |T_n| (which should fall toward zero for models whose
log-composed law sits in the Gumbel max-domain), the fitted finite-n scale
ratio lambda, and the KS distance of the normalized statistics against the
lambda-scaled Gumbel law.

Usage:
    python scripts/convergence_study.py --models exp-of-log normal --reps 500
    python scripts/convergence_study.py --policy logpow:2 --reps 2000
"""

import argparse
import sys

import numpy as np

from gumbeltail import GumbelTailError, KPolicy, RngSpec, get_model, ks_distance, run_replicates


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", nargs="+",
                        default=["exp-of-log", "normal", "iterlog(1)"])
    parser.add_argument("--n-grid", nargs="+", type=int,
                        default=[10**3, 10**4, 10**5, 10**6])
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--policy", default="sqrt", help="sqrt | logpow:<ell> | fixed:<k>")
    args = parser.parse_args()
    try:
        study(args)
    except GumbelTailError as exc:  # a bad argument, reported as the CLI reports it
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)


def study(args: argparse.Namespace) -> None:
    policy = KPolicy.parse(args.policy)
    print(f"policy {policy.spec()}, reps {args.reps}, seed {args.seed}")
    print(f"{'model':>14} {'n':>8} {'k':>5} {'median |T|':>11} {'lambda':>8} {'KS':>8} {'pass':>5}")
    for name in args.models:
        model = get_model(name)
        for block, n in enumerate(args.n_grid):
            rs = run_replicates(model, n, policy, args.reps,
                                RngSpec(seed=args.seed, stream_id=block * args.reps))
            med = float(np.median(np.abs(rs.raw_t)))
            lam = rs.constants.lam
            if lam is not None and lam > 0.0:
                report = ks_distance(rs.normalized, lam)
                ks_text, lam_text = f"{report.ks:8.4f}", f"{lam:8.4f}"
                pass_text = "yes" if report.passed else "no"
            else:
                ks_text, lam_text, pass_text = "      --", "      --", "--"
            print(f"{name:>14} {n:>8} {rs.constants.k:>5} {med:>11.5f} {lam_text} {ks_text} {pass_text:>5}")


if __name__ == "__main__":
    main()
