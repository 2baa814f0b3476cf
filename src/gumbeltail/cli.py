"""Command-line front door.

Subcommands: estimate, norming, simulate, ks, table, test. Every run
echoes its parsed configuration (seed included) so any output can be
reproduced from its own header. Exit codes: 0 success, 1 usage error,
2 domain error or an allocation that fails.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import warnings
from dataclasses import asdict

import numpy as np

from . import engine
from .errors import DomainError, GumbelTailError
from .estimators import KPolicy, SortedSample, de_haan_resnick, hill, select_k
from .models import get_model, lambda_ratio, model_names, norming, transform_log
from .select import classify

DEFAULT_SEED = 42


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); usage errors are 1
        raise _UsageError(message)


# the echoed keys, in echo order; each command echoes the ones it parses
_ECHO_KEYS = ("command", "model", "n", "k_policy", "reps", "seed", "stream", "log_scale",
              "format", "out", "path", "n_total", "threshold")


def _config(args, policy: KPolicy | None = None) -> dict:
    """The echo of a parsed command: every echo key the command has that is
    not None, with the k-policy in its normalized spec form and log_scale
    false for commands without --log-scale."""
    echo = {"log_scale": False, **vars(args),
            "k_policy": None if policy is None else policy.spec()}
    return {key: echo[key] for key in _ECHO_KEYS if echo.get(key) is not None}


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


def _non_numeric(path: str, fh, detail: str) -> str:
    """The message for a sample file that is not one number per line. It names
    the first non-blank line of the open file that is not one ASCII decimal
    number, counting lines from 1 with blank ones included, and falls back
    to detail when the file cannot be read again or no line is bad."""
    try:
        fh.seek(0)
        for number, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                if text.isascii() and "_" not in text:
                    float(text)
                    continue
            except ValueError:
                pass
            return f"non-numeric line {number} in {path}: {text!r}"
    except (OSError, UnicodeDecodeError):  # an unseekable stream, or bytes that are not UTF-8
        pass
    return f"non-numeric line in {path}: {detail}"


def _read_sample(path: str) -> SortedSample:
    """The sample in a file of ASCII decimal numbers, one per line; blank
    lines are skipped. numpy parses the lines in C with the same correctly
    rounded conversion as float(). The file is opened here, not by numpy,
    so a compressed-looking or URL-shaped path is read as plain text. A file
    numpy rejects is scanned again in Python, only to name its bad line."""
    try:
        with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
            # an empty file is reported below, as a file of fewer than two values
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                values = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
            except ValueError as exc:  # UnicodeDecodeError included
                raise GumbelTailError(_non_numeric(path, fh, str(exc))) from None
            if values.shape[1] != 1:
                raise GumbelTailError(_non_numeric(
                    path, fh, f"its lines hold {values.shape[1]} fields, not one number"))
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # open refuses the path, as one with a NUL byte
        raise GumbelTailError(f"non-numeric line in {path}: {exc}") from None
    if values.shape[0] < 2:
        raise GumbelTailError(f"{path} holds fewer than two values")
    return SortedSample.from_values(values[:, 0])


def _emit(config: dict, payload: dict, out_text: str | None = None) -> None:
    """Write the output of a run to --out or stdout.

    json is the config and payload; text and csv are a "# config:" line and
    out_text. csv rows keep their CRLF endings and get no further newline."""
    fmt, out = config["format"], config.get("out")
    if fmt == "json":
        text = json.dumps({"schema": 1, "config": config, **payload}, indent=2) + "\n"
    else:
        text = f"# config: {json.dumps(config)}\n"
        if out_text is not None:
            text += out_text if fmt == "csv" else out_text + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {out}: {exc}") from None


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
    t_n = de_haan_resnick(sample, k)
    h = hill(sample, k)
    _emit(_config(args, policy), {"n": sample.n, "k": k, "t_n": t_n, "h_n": h},
          out_text=f"n {sample.n}\nk {k}\nT_n {t_n:.12g}\nH_n {h:.12g}")


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
    lam_text = "unknown" if nc.lam is None else f"{nc.lam:.12g}"
    probe_text = " ".join(f"{key}:{value:.6g}" for key, value in probe.items() if value is not None)
    _emit(_config(args, policy), {"n": args.n, "k": k, "a_n": nc.a_n, "b_n": nc.b_n,
                                  "lambda": nc.lam, "lambda_probe": probe},
          out_text=f"k {k}\na_n {nc.a_n:.12g}\nb_n {nc.b_n:.12g}\nlambda {lam_text}\n"
                   f"lambda_probe {probe_text}")


def _cmd_replicates(args) -> None:
    """simulate and ks: M seeded replicates, then a summary (with the KS
    verdict for ks) or, for simulate --format csv, one row per replicate."""
    model = _get_model_checked(args.model)
    policy = _resolve_policy(args)
    rng = engine.RngSpec(seed=args.seed, stream_id=args.stream)
    ks = args.command == "ks"
    if ks:
        engine.check_ks_threshold(args.threshold)
    if args.log_scale:
        model = transform_log(model)
    rs = engine.run_replicates(model, args.n, policy, args.reps, rng)
    report = None
    if ks:
        lam = rs.constants.lam
        if lam is None or lam <= 0.0:
            raise GumbelTailError(f"finite-n lambda unavailable for model {args.model!r}")
        report = engine.ks_distance(rs.normalized, lam, threshold=args.threshold)
    if args.format == "csv":
        rows = io.StringIO()
        engine.write_replicates_csv(rs, rows)
        _emit(_config(args, policy), {}, out_text=rows.getvalue())
        return
    summary = engine.summarize(rs, report)
    _emit(_config(args, policy), {"summary": summary},
          out_text="\n".join(f"{key} {value}" for key, value in summary.items()))


def _cmd_table(args) -> None:
    rng = engine.RngSpec(seed=args.seed, stream_id=args.stream)
    rows = engine.reproduce_table(rng, n_total=args.n_total)
    config = _config(args)
    if args.format == "json":
        _emit(config, {"rows": [asdict(row) for row in rows]})
        return
    _emit(config, {}, out_text=engine.format_table(rows))


def _cmd_test(args) -> None:
    policy = _resolve_policy(args)
    sample = _read_sample(args.path)
    verdict = classify(sample, policy)
    _emit(_config(args, policy), {"verdict": verdict.to_dict()},
          out_text="\n".join(f"{key} {value}" for key, value in verdict.to_dict().items()))


_COMMANDS = {
    "estimate": _cmd_estimate,
    "norming": _cmd_norming,
    "simulate": _cmd_replicates,
    "ks": _cmd_replicates,
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
    except MemoryError as exc:  # past the raw draw, whose own message names n
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
