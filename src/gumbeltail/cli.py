"""Command-line front door.

Subcommands: estimate, norming, simulate, ks, table, test. Every run
echoes its parsed configuration (seed included) so any output can be
reproduced from its own header. Exit codes: 0 success, 1 usage error,
2 domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass

from . import engine
from .errors import DomainError, GumbelTailError
from .estimators import KPolicy, SortedSample, de_haan_resnick, hill, select_k
from .models import get_model, lambda_ratio, model_names, norming
from .select import classify

DEFAULT_SEED = 42


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are 1
        raise _UsageError(message)


@dataclass(frozen=True)
class RunConfig:
    """Echoable record of one CLI invocation."""

    command: str
    model: str | None = None
    n: int | None = None
    k_policy: str | None = None
    reps: int | None = None
    seed: int | None = None
    stream: int | None = None
    log_scale: bool = False
    format: str = "text"
    out: str | None = None
    path: str | None = None
    n_total: int | None = None
    threshold: float | None = None

    def to_dict(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}


def _resolve_policy(args) -> KPolicy:
    if args.k is not None and args.k_policy is not None:
        raise _UsageError("give either --k or --k-policy, not both")
    try:
        if args.k is not None:
            return KPolicy.fixed(args.k)
        if args.k_policy is not None:
            return KPolicy.parse(args.k_policy)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    return KPolicy.sqrt()


def _get_model_checked(name: str):
    """Unknown model names are usage errors, caught before any computation."""
    try:
        return get_model(name)
    except DomainError as exc:
        raise _UsageError(str(exc)) from None


def _read_sample(path: str) -> SortedSample:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = [float(line) for line in fh if line.strip()]
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise GumbelTailError(f"non-numeric line in {path}: {exc}") from None
    if len(values) < 2:
        raise GumbelTailError(f"{path} holds fewer than two values")
    return SortedSample.from_values(values)


def _emit(config: RunConfig, payload: dict, out_text: str | None = None) -> None:
    if config.format == "json":
        doc = {"schema": 1, "config": config.to_dict(), **payload}
        text = json.dumps(doc, indent=2)
    else:
        header = f"# config: {json.dumps(config.to_dict())}"
        text = header if out_text is None else f"{header}\n{out_text}"
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise _UsageError(f"cannot write {config.out}: {exc}") from None
    else:
        print(text)


def _add_common(sub, model=False, n=False, k=False, reps=False, seed=False, fmt=None):
    if model:
        sub.add_argument("--model", required=True, help=f"one of: {', '.join(model_names())}")
    if n:
        sub.add_argument("--n", type=int, required=True, help="sample size per replicate")
    if k:
        sub.add_argument("--k", type=int, help="fixed number of top order statistics")
        sub.add_argument("--k-policy", help="sqrt | logpow:<ell> | fixed:<k> (default sqrt)")
    if reps:
        sub.add_argument("--reps", type=int, default=200, help="number of replicates")
    if seed:
        sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
        sub.add_argument("--stream", type=int, default=0, help="base stream id")
    if fmt:
        sub.add_argument("--format", choices=fmt, default="text")
        sub.add_argument("--out", help="write output to this path instead of stdout")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on the first call and shared after it.

    Reuse is safe: parse_args creates a fresh Namespace on every call and
    never mutates the parser, and the help text depends only on the static
    model catalog. Callers get the shared parser and must not mutate it.
    """
    parser = _Parser(prog="gumbeltail", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    est = subs.add_parser("estimate", help="max-spacing and Hill estimates from a file")
    _add_common(est, k=True, fmt=("text", "json"))
    est.add_argument("path", help="newline-delimited decimal numbers, UTF-8")

    nor = subs.add_parser("norming", help="norming constants a_n, b_n and a lambda probe")
    _add_common(nor, model=True, n=True, k=True, fmt=("text", "json"))

    sim = subs.add_parser("simulate", help="replicate the estimator under a model")
    _add_common(sim, model=True, n=True, k=True, reps=True, seed=True, fmt=("text", "csv", "json"))
    sim.add_argument("--log-scale", action="store_true", help="estimate on log X")

    ks = subs.add_parser("ks", help="simulate and test normalized statistics against Gumbel")
    _add_common(ks, model=True, n=True, k=True, reps=True, seed=True, fmt=("text", "json"))
    ks.add_argument("--log-scale", action="store_true")
    ks.add_argument("--threshold", type=float, help="KS pass threshold (default 1.36/sqrt(M))")

    tab = subs.add_parser("table", help="ten-row three-estimator simulation table")
    _add_common(tab, seed=True, fmt=("text", "json"))
    tab.add_argument("--n-total", type=int, default=4000)

    tst = subs.add_parser("test", help="normal-vs-exponential model test on a file")
    _add_common(tst, k=True, fmt=("text", "json"))
    tst.add_argument("path", help="newline-delimited positive decimal numbers")

    return parser


def _cmd_estimate(args) -> None:
    policy = _resolve_policy(args)
    sample = _read_sample(args.path)
    k = select_k(policy, sample.n)
    result = de_haan_resnick(sample, k)
    h = hill(sample, k)
    config = RunConfig(command="estimate", path=args.path, k_policy=policy.spec(),
                       format=args.format, out=args.out)
    _emit(config, {"n": sample.n, "k": k, "t_n": result.t_n, "h_n": h},
          out_text=f"n {sample.n}\nk {k}\nT_n {result.t_n:.12g}\nH_n {h:.12g}")


def _cmd_norming(args) -> None:
    model = _get_model_checked(args.model)
    policy = _resolve_policy(args)
    k = select_k(policy, args.n)
    nc = norming(model, args.n, k)
    probe = {}
    for factor in (1, 10, 100, 1000):
        n_probe = args.n * factor
        try:
            probe[str(n_probe)] = lambda_ratio(model, policy, n_probe)
        except GumbelTailError:
            probe[str(n_probe)] = None
    config = RunConfig(command="norming", model=args.model, n=args.n,
                       k_policy=policy.spec(), format=args.format, out=args.out)
    lam_text = "unknown" if nc.lam is None else f"{nc.lam:.12g}"
    probe_text = " ".join(f"{key}:{value:.6g}" for key, value in probe.items() if value is not None)
    _emit(config, {"n": args.n, "k": k, "a_n": nc.a_n, "b_n": nc.b_n,
                   "lambda": nc.lam, "lambda_probe": probe},
          out_text=f"k {k}\na_n {nc.a_n:.12g}\nb_n {nc.b_n:.12g}\nlambda {lam_text}\n"
                   f"lambda_probe {probe_text}")


def _replicates_from_args(args) -> tuple[KPolicy, engine.ReplicateSet]:
    model = _get_model_checked(args.model)
    policy = _resolve_policy(args)
    rng = engine.RngSpec(seed=args.seed, stream_id=args.stream)
    rs = engine.run_replicates(model, args.n, policy, args.reps, rng, log_scale=args.log_scale)
    return policy, rs


def _cmd_simulate(args) -> None:
    policy, rs = _replicates_from_args(args)
    config = RunConfig(command="simulate", model=args.model, n=args.n,
                       k_policy=policy.spec(), reps=args.reps, seed=args.seed,
                       stream=args.stream, log_scale=args.log_scale,
                       format=args.format, out=args.out)
    if args.format == "csv":
        header = f"config: {json.dumps(config.to_dict())}"
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="") as fh:
                    engine.write_replicates_csv(rs, fh, header_comment=header)
            except OSError as exc:
                raise _UsageError(f"cannot write {args.out}: {exc}") from None
        else:
            engine.write_replicates_csv(rs, sys.stdout, header_comment=header)
        return
    summary = engine.summarize(rs)
    _emit(config, {"summary": summary},
          out_text="\n".join(f"{key} {value}" for key, value in summary.items()))


def _cmd_ks(args) -> None:
    policy, rs = _replicates_from_args(args)
    lam = rs.constants.lam
    if lam is None or lam <= 0.0:
        raise GumbelTailError(f"finite-n lambda unavailable for model {args.model!r}")
    report = engine.ks_distance(rs.normalized, lam, threshold=args.threshold)
    config = RunConfig(command="ks", model=args.model, n=args.n,
                       k_policy=policy.spec(), reps=args.reps, seed=args.seed,
                       stream=args.stream, log_scale=args.log_scale,
                       threshold=args.threshold, format=args.format, out=args.out)
    summary = engine.summarize(rs, report)
    _emit(config, {"summary": summary},
          out_text="\n".join(f"{key} {value}" for key, value in summary.items()))


def _cmd_table(args) -> None:
    rng = engine.RngSpec(seed=args.seed, stream_id=args.stream)
    rows = engine.reproduce_table(rng, n_total=args.n_total)
    config = RunConfig(command="table", seed=args.seed, stream=args.stream,
                       n_total=args.n_total, format=args.format, out=args.out)
    if args.format == "json":
        _emit(config, {"rows": [asdict(row) for row in rows]})
        return
    lines = [f"{'n':>6} {'(log n/2)T1':>12} {'(log n)T2':>12} {'T3':>10} {'1-u_(n)':>10}"]
    for row in rows:
        lines.append(
            f"{row.n:>6} {row.half_log_n_t1:>12.4f} {row.log_n_t2:>12.4f} "
            f"{row.t3:>10.5f} {row.u_gap:>10.6f}"
        )
    _emit(config, {}, out_text="\n".join(lines))


def _cmd_test(args) -> None:
    policy = _resolve_policy(args)
    sample = _read_sample(args.path)
    verdict = classify(sample, policy)
    config = RunConfig(command="test", path=args.path, k_policy=policy.spec(),
                       format=args.format, out=args.out)
    _emit(config, {"verdict": verdict.to_dict()},
          out_text="\n".join(f"{key} {value}" for key, value in verdict.to_dict().items()))


_COMMANDS = {
    "estimate": _cmd_estimate,
    "norming": _cmd_norming,
    "simulate": _cmd_simulate,
    "ks": _cmd_ks,
    "table": _cmd_table,
    "test": _cmd_test,
}


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _COMMANDS[args.command](args)
        return 0
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse -h/--help
        code = exc.code
        return 0 if code in (0, None) else 1
    except GumbelTailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
