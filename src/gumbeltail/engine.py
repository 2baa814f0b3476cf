"""Seeded, reproducible Monte Carlo replication of the tail estimators.

Reproducibility contract
------------------------
Uniform variates come from numpy's PCG64 bit generator seeded with
``SeedSequence([seed, stream_id])``; replicate i of a run uses stream
``stream_id + i``, so replicates are independent and each one's output
depends only on its index. Raw draws are mapped to the open-interval
lattice ``(j + 0.5) / 2**53`` for j in [0, 2**53), which keeps every value
strictly inside (0, 1).

The replicate loop never materializes a sorted sample: the estimator and
its normalized form only consume the top order statistic and the (n-k)-th
one, which a linear-time partition of the raw integer draws extracts; the
two are mapped into (0, 1) and the quantile is evaluated once per run, on
the M top and the M (n-k)-th uniforms. Both maps are monotone, so this is
exactly what sorting the uniforms and transforming them would produce (the
test suite asserts bitwise equality with that slow reference path).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GumbelTailError
from .estimators import KPolicy, SortedSample, select_k
from .models import NormingConstants, TailModel, norming, transform_log


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream identifier of one deterministic uniform stream;
    both must be non-negative (SeedSequence entropy)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream_id < 0:
            raise DomainError(
                f"seed and stream must be non-negative, got seed={self.seed}, "
                f"stream={self.stream_id}"
            )

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, self.stream_id]))
        )

    def replicate(self, index: int) -> "RngSpec":
        return RngSpec(seed=self.seed, stream_id=self.stream_id + index)


@dataclass(frozen=True)
class ReplicateSet:
    """Estimator values and normalized statistics over M replicates."""

    model_name: str
    n: int
    k: int
    m: int
    raw_t: np.ndarray
    normalized: np.ndarray
    constants: NormingConstants


@dataclass(frozen=True)
class KsReport:
    """Empirical-vs-Gumbel Kolmogorov-Smirnov distance and its verdict."""

    ks: float
    m: int
    threshold: float
    passed: bool
    scale_lambda: float


def _open_uniforms(j: np.ndarray) -> np.ndarray:
    return (j + 0.5) * 2.0 ** -53


def sorted_uniforms(n: int, rng: RngSpec) -> np.ndarray:
    """n uniforms strictly inside (0, 1), sorted ascending, deterministic
    per RngSpec."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    u = _open_uniforms(rng.generator().integers(0, 1 << 53, size=n))
    u.sort()
    return u


def inverse_transform(model: TailModel, sorted_u: np.ndarray) -> SortedSample:
    """Map sorted uniforms through the upper-tail quantile at 1 - u.

    Q(1 - .) is non-increasing, so the output is ascending without
    re-sorting.
    """
    values = np.asarray(model.quantile(1.0 - np.asarray(sorted_u, dtype=float)))
    return SortedSample(values)


def run_replicates(
    model: TailModel,
    n: int,
    policy: KPolicy,
    m: int,
    rng: RngSpec,
    log_scale: bool = False,
) -> ReplicateSet:
    """M independent replicates of the max-spacing estimator on the model.

    Replicate i draws its own uniform stream (stream_id + i); the quantile
    is evaluated once, on the M top and M (n-k)-th uniforms, giving t_n and
    the normalized statistic (spacing - a_n b_n) / a_n. With log_scale=True
    the estimator runs on log X, i.e. on the log-transformed model. Results
    are deterministic for a fixed RngSpec and ordered by replicate index.
    """
    if m < 1:
        raise DomainError(f"need at least one replicate, got m={m}")
    k = select_k(policy, n)
    eff = transform_log(model) if log_scale else model
    nc = norming(eff, n, k)
    log_k = math.log(k)

    # a function, so each n-sized draw is freed, and its memory reused, before the next
    def order_stats(index: int) -> tuple[int, int]:
        j = rng.replicate(index).generator().integers(0, 1 << 53, size=n)
        j.partition(n - 1 - k)
        return j[n - 1 - k:].max(), j[n - 1 - k]

    u_top, u_k = _open_uniforms(np.array([order_stats(i) for i in range(m)])).T
    spacing = eff.quantile(1.0 - u_top) - eff.quantile(1.0 - u_k)
    raw_t = spacing / log_k
    normalized = (spacing - nc.a_n * nc.b_n) / nc.a_n
    return ReplicateSet(
        model_name=eff.name, n=n, k=k, m=m, raw_t=raw_t, normalized=normalized, constants=nc
    )


def gumbel_cdf(x, lambda_scale: float):
    """CDF of the lambda-scaled Gumbel law, exp(-e^(-x / lambda))."""
    if not lambda_scale > 0.0:
        raise DomainError(f"lambda scale must be positive, got {lambda_scale}")
    return np.exp(-np.exp(-np.asarray(x, dtype=float) / lambda_scale))


def ks_distance(values, lambda_scale: float, threshold: float | None = None) -> KsReport:
    """One-sample KS distance of values against the lambda-scaled Gumbel.

    The default threshold is the asymptotic 5% critical value 1.36/sqrt(M);
    a given threshold must be finite and positive.
    """
    if threshold is not None and not (math.isfinite(threshold) and threshold > 0.0):
        raise DomainError(f"KS threshold must be finite and > 0, got {threshold}")
    v = np.sort(np.asarray(values, dtype=float))
    m = v.size
    if m == 0:
        raise DomainError("need at least one value")
    ref = np.asarray(gumbel_cdf(v, lambda_scale))
    steps = np.arange(1, m + 1) / m
    ks = float(max(np.max(np.abs(steps - ref)), np.max(np.abs(steps - 1.0 / m - ref))))
    if threshold is None:
        threshold = 1.36 / math.sqrt(m)
    return KsReport(ks=ks, m=m, threshold=threshold, passed=ks <= threshold, scale_lambda=lambda_scale)


@dataclass(frozen=True)
class TableRow:
    """One row of the three-estimator simulation table."""

    n: int
    half_log_n_t1: float
    log_n_t2: float
    t3: float
    u_gap: float
    identity_gap: float


def reproduce_table(rng: RngSpec, n_total: int = 4000) -> list[TableRow]:
    """Three coupled estimators on nested prefixes of one uniform sample.

    From a single sorted uniform sample of size n_total, each row n in
    [n_total - 9, n_total] transforms the prefix u[:n] into exponential
    (y = -log(1-u)), square-root-exponential (x = sqrt(2y)) and Pareto
    (z = 1/(1-u)) samples and reports (log n / 2) T(y), (log n) T(x) and
    T(z) on the log scale with k = floor(sqrt(n)), plus the upper gap
    1 - u_(n). Because x = sqrt(2y), columns two and three agree exactly;
    the row is rejected if they drift beyond 1e-12.
    """
    if n_total < 100:
        raise DomainError(f"need n_total >= 100, got {n_total}")
    u_full = sorted_uniforms(n_total, rng)
    rows = []
    for n in range(n_total - 9, n_total + 1):
        u = u_full[:n]
        k = math.floor(math.sqrt(n))
        log_k = math.log(k)
        y = -np.log1p(-u)
        x = np.sqrt(2.0 * y)
        z = 1.0 / (1.0 - u)
        t1 = (math.log(y[-1]) - math.log(y[-1 - k])) / log_k
        t2 = (math.log(x[-1]) - math.log(x[-1 - k])) / log_k
        t3 = (math.log(z[-1]) - math.log(z[-1 - k])) / log_k
        col2 = 0.5 * math.log(n) * t1
        col3 = math.log(n) * t2
        gap = col3 - col2
        if abs(gap) > 1e-12:
            raise GumbelTailError(
                f"column identity violated at n={n}: (log n) T2 - (log n / 2) T1 = {gap}"
            )
        rows.append(
            TableRow(
                n=n,
                half_log_n_t1=col2,
                log_n_t2=col3,
                t3=t3,
                u_gap=float(1.0 - u[-1]),
                identity_gap=gap,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# emission


def write_replicates_csv(rs: ReplicateSet, fh, header_comment: str | None = None) -> None:
    """One row per replicate: index, t_n, normalized."""
    if header_comment is not None:
        fh.write(f"# {header_comment}\n")
    writer = csv.writer(fh)
    writer.writerow(["replicate", "t_n", "normalized"])
    for i in range(rs.m):
        writer.writerow([i, repr(float(rs.raw_t[i])), repr(float(rs.normalized[i]))])


def summarize(rs: ReplicateSet, report: KsReport | None = None) -> dict:
    """JSON-ready summary of a replicate set (schema version 1)."""
    out = {
        "schema": 1,
        "model": rs.model_name,
        "n": rs.n,
        "k": rs.k,
        "reps": rs.m,
        "a_n": rs.constants.a_n,
        "b_n": rs.constants.b_n,
        "lambda": rs.constants.lam,
        "mean_t": float(np.mean(rs.raw_t)),
        "median_t": float(np.median(rs.raw_t)),
        "mean_normalized": float(np.mean(rs.normalized)),
    }
    if report is not None:
        out["ks"] = report.ks
        out["ks_threshold"] = report.threshold
        out["pass"] = report.passed
        out["scale_lambda"] = report.scale_lambda
    return out
