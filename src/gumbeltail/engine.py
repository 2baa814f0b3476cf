"""Seeded, reproducible Monte Carlo replication of the tail estimators.

Reproducibility contract
------------------------
Uniform variates come from numpy's PCG64 bit generator seeded with
``SeedSequence([seed, stream_id])``; replicate i of a run uses stream
``stream_id + i``, so replicates are independent and each one's output
depends only on its index. Raw draws j in [0, 2**53) are mapped to
``(j + 0.5) / 2**53``; above 1/2 that value is rounded to a double, and
the top draw, which rounds to 1, is mapped to the largest double below 1.
The map is non-decreasing and keeps every value strictly inside (0, 1).
``_open_uniforms`` is the one map from a raw 64-bit output to its uniform:
it takes the 53-bit draw j = x >> 11 and applies that lattice.

Seeds and stream ids lie in [0, 2**64). A lone stream hands [seed,
stream_id] to PCG64, which builds numpy's own SeedSequence from it. The
replicate loop instead hashes the seed states of a run's streams in blocks
of 1024, as uint32 array arithmetic equal to SeedSequence bit for bit (its
hash constants do not depend on the entropy), and hands each state to PCG64.

Every draw is a run of raw 64-bit PCG64 outputs x, through numpy's
full-range ``integers`` path, which copies them with no bound applied, and
the 53-bit draw is x >> 11. That is bit for bit what
``Generator.integers(0, 2**53)`` returns: numpy bounds a 64-bit draw by
Lemire's multiply-shift method (Lemire 2019, Fast random integer
generation in an interval), whose rejection threshold
(2**64 - 2**53) mod 2**53 is 0 for a range of exactly 2**53, so it never
rejects and maps each output x to (x * 2**53) >> 64 = x >> 11.

The replicate loop never materializes a sorted sample: the estimator and
its normalized form only consume the top order statistic and the (n-k)-th
one, which a linear-time partition of the raw 64-bit outputs extracts.
x >> 11 never decreases as x grows, so the shifted pair is exactly the
pair of 53-bit order statistics, ties included. The two go through
``_open_uniforms``, and the quantile is evaluated in one call per run, on
the (M, 2) array of the M top and the M (n-k)-th uniforms. Every map is
monotone, so this is exactly what sorting the uniforms and transforming
them would produce (the test suite asserts bitwise equality with that slow
reference path).

A replicate draws its n raw outputs in chunks of at most 2**16 and keeps
only candidates for its k+1 largest, so it holds O(k + 2**16) of them, not
n, and its time stays linear in n. Each draw spends exactly one PCG64
output, so the chunks make up the same stream as one call of size n.
"""

from __future__ import annotations

import csv
import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, GumbelTailError
from .estimators import KPolicy, SortedSample, select_k
from .models import NormingConstants, TailModel, norming


# SeedSequence's hash (O'Neill's seed_seq): a 4-word pool, uint32 words,
# hash constants that step by a fixed multiplier on every use.
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_SEED_BLOCK = 1024  # streams hashed per block of array arithmetic


def _hash_chain(init: int, mult: int, uses: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of the first uses of a hash chain,
    as (uses, 1) uint32 columns."""
    chain = [init]
    for _ in range(uses):
        chain.append(chain[-1] * mult & _MASK32)
    column = np.array(chain, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


_MIX_XOR, _MIX_MUL = _hash_chain(0x43B0D7E5, 0x931E8875, 4 + 4 * 3)
_OUT_XOR, _OUT_MUL = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    out = values ^ xor
    out *= mul
    out ^= out >> _XSHIFT
    return out


def _seed_states(seed: int, first: int, count: int) -> np.ndarray:
    """PCG64 seed states of streams first..first+count-1, as (count, 4)
    uint64: row i is SeedSequence([seed, first + i]).generate_state(4, np.uint64).
    Seed and streams lie below 2**64, so their at most four entropy words fit
    SeedSequence's pool, and its hash runs no extra mixing pass."""
    # the entropy words, zero-padded as SeedSequence pads its pool:
    # seed low [seed high], stream low, stream high
    streams = np.arange(first, first + count, dtype=np.uint64)
    seed_words = 1 if seed <= _MASK32 else 2
    pool = np.zeros((4, count), dtype=np.uint32)
    pool[0] = seed & _MASK32
    pool[1] = seed >> 32
    pool[seed_words] = streams & _MASK32
    pool[seed_words + 1] = streams >> 32
    pool = _hashmix(pool, _MIX_XOR[:4], _MIX_MUL[:4])
    # each word mixes into the three others, with three further hash uses;
    # the source word does not change meanwhile, so the three are independent
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        uses = slice(4 + 3 * src, 7 + 3 * src)
        mixed = pool[dst] * _MIX_L - _hashmix(pool[src], _MIX_XOR[uses], _MIX_MUL[uses]) * _MIX_R
        mixed ^= mixed >> _XSHIFT
        pool[dst] = mixed
    words = _hashmix(np.concatenate((pool, pool)), _OUT_XOR, _OUT_MUL)  # 8 words, cycling the pool
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


class _SeedState:
    """A precomputed PCG64 seed state, handed to numpy's PCG64 through its
    ISeedSequence interface (registered on first use, so that importing this
    module does not load numpy.random). PCG64 asks it for 4 uint64 words,
    which is all it holds."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


@functools.cache
def _register_seed_state() -> None:
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_SeedState)


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream identifier of one deterministic uniform stream;
    both must lie in [0, 2**64).

    _state, when set by replicates(), is the stream's PCG64 seed state,
    equal to what SeedSequence([seed, stream_id]) generates; it is not
    compared or shown."""

    seed: int
    stream_id: int = 0
    _state: np.ndarray | None = field(default=None, compare=False, repr=False, kw_only=True)

    def __post_init__(self):
        if not (0 <= self.seed < 1 << 64 and 0 <= self.stream_id < 1 << 64):
            raise DomainError(f"seed and stream must lie in [0, 2**64), got seed={self.seed}, "
                              f"stream={self.stream_id}")

    def generator(self) -> np.random.Generator:
        seed = [self.seed, self.stream_id] if self._state is None else _SeedState(self._state)
        return np.random.Generator(np.random.PCG64(seed))

    def replicates(self, m: int) -> Iterator["RngSpec"]:
        """The streams of replicates 0..m-1 (stream_id + i), each with its
        seed state hashed in blocks of _SEED_BLOCK streams. Raises
        DomainError before the first stream if the last one reaches 2**64."""
        if self.stream_id + m > 1 << 64:
            raise DomainError(f"streams {self.stream_id}..{self.stream_id + m - 1} pass 2**64 - 1")
        _register_seed_state()
        for start in range(0, m, _SEED_BLOCK):
            first = self.stream_id + start
            states = _seed_states(self.seed, first, min(_SEED_BLOCK, m - start))
            for i, state in enumerate(states):
                yield RngSpec(seed=self.seed, stream_id=first + i, _state=state)


@dataclass(frozen=True)
class ReplicateSet:
    """Estimator values and normalized statistics over M replicates; n and k
    are those of the norming constants, M is the length of the arrays."""

    model_name: str
    raw_t: np.ndarray
    normalized: np.ndarray
    constants: NormingConstants


@dataclass(frozen=True)
class KsReport:
    """Empirical-vs-Gumbel Kolmogorov-Smirnov distance and its verdict."""

    ks: float
    threshold: float
    passed: bool


_SHIFT = 11  # a raw 64-bit output x gives the 53-bit draw x >> 11


def _draw(generator: np.random.Generator, size: int) -> np.ndarray:
    """The generator's next size raw 64-bit PCG64 outputs, as uint64."""
    return generator.integers(0, (1 << 64) - 1, size=size, dtype=np.uint64, endpoint=True)


def _open_uniforms(raw: np.ndarray) -> np.ndarray:
    """The uniforms in (0, 1) of raw 64-bit PCG64 outputs (see the module
    docstring). Shifts raw in place, so that a large draw is not copied."""
    raw >>= _SHIFT
    u = (raw + 0.5) * 2.0 ** -53
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)


def sorted_uniforms(n: int, rng: RngSpec) -> np.ndarray:
    """n uniforms strictly inside (0, 1), sorted ascending, deterministic
    per RngSpec."""
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    try:
        raw = _draw(rng.generator(), n)
    except (ValueError, MemoryError):  # numpy refuses the size, or malloc does at once
        raise DomainError(f"n={n} is beyond the largest array numpy can allocate") from None
    u = _open_uniforms(raw)
    u.sort()
    return u


def inverse_transform(model: TailModel, sorted_u: np.ndarray) -> SortedSample:
    """Map sorted uniforms through the upper-tail quantile at 1 - u.

    Q(1 - .) is non-increasing, so the output is ascending without
    re-sorting.
    """
    values = np.asarray(model.quantile(1.0 - np.asarray(sorted_u, dtype=float)))
    return SortedSample(values)


_CHUNK = 1 << 16


def _top_and_kth(n: int, k: int, rng: RngSpec, pool: np.ndarray) -> tuple[int, int]:
    """The largest and the (k+1)-th largest of the stream's first n raw
    64-bit outputs, drawn in chunks of at most _CHUNK into the uint64 pool,
    which holds min(n, 2k + 2 + _CHUNK) values.

    Once the pool holds 2(k+1) values it is partitioned and compacted to
    its k+1 largest, whose least is the floor; from then on a chunk adds
    only its values above the floor. Each compaction drops at least k+1
    values, so the partitions cost O(n) in all for any k.
    """
    generator = rng.generator()
    keep = k + 1
    # One chunk is partitioned where it lies: the loop would copy it into the
    # pool, which measured about 7% fewer ops/s on replicate-small-n.
    if n <= _CHUNK:
        top = _draw(generator, n)
    else:
        size = drawn = 0
        floor = None  # no floor before the first compaction
        while drawn < n:
            chunk = _draw(generator, min(_CHUNK, n - drawn))
            drawn += chunk.size
            above = chunk if floor is None else chunk[chunk > floor]
            pool[size:size + above.size] = above
            size += above.size
            if size >= 2 * keep:
                pool[:size].partition(size - keep)
                pool[:keep] = pool[size - keep:size]  # disjoint, as size - keep >= keep
                size, floor = keep, pool[0]
            del chunk, above  # so the next chunk reuses this one's memory
        top = pool[:size]
    top.partition(top.size - keep)
    return top[-keep:].max(), top[-keep]


def _order_stats(n: int, k: int, m: int, rng: RngSpec) -> np.ndarray:
    """The (M, 2) raw 64-bit outputs X_{n,n} and X_{n-k,n} of replicates
    0..M-1, as uint64; one pool serves every replicate."""
    if n > np.iinfo(np.intp).max:
        raise DomainError(f"n={n} is beyond the largest array numpy can allocate")
    try:
        pool = np.empty(min(n, 2 * (k + 1) + _CHUNK), dtype=np.uint64)
    except (ValueError, MemoryError):  # numpy refuses the size, or malloc does at once
        raise DomainError(
            f"k={k} at n={n}: the k+1 largest draws are beyond what numpy can allocate"
        ) from None
    try:
        stats = np.empty((m, 2), dtype=np.uint64)
    except (ValueError, MemoryError):
        raise DomainError(f"reps={m} is beyond the largest array numpy can allocate") from None
    for i, replicate in enumerate(rng.replicates(m)):
        stats[i] = _top_and_kth(n, k, replicate, pool)
    return stats


def run_replicates(
    model: TailModel,
    n: int,
    policy: KPolicy,
    m: int,
    rng: RngSpec,
) -> ReplicateSet:
    """M independent replicates of the max-spacing estimator on the model.

    Replicate i draws its own uniform stream (stream_id + i); the quantile
    is evaluated in one call, on the (M, 2) array of the M top and M
    (n-k)-th uniforms, giving t_n and the normalized statistic
    (spacing - a_n b_n) / a_n. To estimate on log X, pass
    transform_log(model). Results are deterministic for a fixed RngSpec and
    ordered by replicate index.
    """
    if m < 1:
        raise DomainError(f"need at least one replicate, got m={m}")
    k = select_k(policy, n)
    nc = norming(model, n, k)
    log_k = math.log(k)
    q = model.quantile(1.0 - _open_uniforms(_order_stats(n, k, m, rng)))
    spacing = q[:, 0] - q[:, 1]
    raw_t = spacing / log_k
    normalized = (spacing - nc.a_n * nc.b_n) / nc.a_n
    return ReplicateSet(model_name=model.name, raw_t=raw_t, normalized=normalized, constants=nc)


def gumbel_cdf(x, lambda_scale: float):
    """CDF of the lambda-scaled Gumbel law, exp(-e^(-x / lambda))."""
    if not lambda_scale > 0.0:
        raise DomainError(f"lambda scale must be positive, got {lambda_scale}")
    return np.exp(-np.exp(-np.asarray(x, dtype=float) / lambda_scale))


def check_ks_threshold(threshold: float | None) -> None:
    """A given KS pass threshold must be finite and positive; None means
    the default."""
    if threshold is not None and not (math.isfinite(threshold) and threshold > 0.0):
        raise DomainError(f"KS threshold must be finite and > 0, got {threshold}")


def ks_distance(values, lambda_scale: float, threshold: float | None = None) -> KsReport:
    """One-sample KS distance of finite values against the lambda-scaled Gumbel.

    The default threshold is the asymptotic 5% critical value 1.36/sqrt(M);
    a given threshold must pass check_ks_threshold.
    """
    check_ks_threshold(threshold)
    v = np.sort(np.asarray(values, dtype=float))
    m = v.size
    if m == 0 or not np.all(np.isfinite(v)):
        raise DomainError("need at least one value" if m == 0 else "KS values must be finite")
    ref = np.asarray(gumbel_cdf(v, lambda_scale))
    steps = np.arange(1, m + 1) / m
    ks = float(max(np.max(np.abs(steps - ref)), np.max(np.abs(steps - 1.0 / m - ref))))
    if threshold is None:
        threshold = 1.36 / math.sqrt(m)
    return KsReport(ks=ks, threshold=threshold, passed=ks <= threshold)


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

    A single sorted uniform sample u of size n_total is transformed once
    into exponential (y = -log(1-u)), square-root-exponential
    (x = sqrt(2y)) and Pareto (z = 1/(1-u)) samples. Each row n in
    [n_total - 9, n_total] reads the prefix of length n, through its top
    index n-1 and its (n-k)-th index n-1-k, and reports (log n / 2) T(y),
    (log n) T(x) and T(z) on the log scale with k = floor(sqrt(n)), plus
    the upper gap 1 - u_(n). Because x = sqrt(2y), columns two and three
    agree exactly; the row is rejected if they drift beyond 1e-12.
    """
    if n_total < 100:
        raise DomainError(f"need n_total >= 100, got {n_total}")
    u = sorted_uniforms(n_total, rng)
    y = -np.log1p(-u)
    x = np.sqrt(2.0 * y)
    z = 1.0 / (1.0 - u)
    rows = []
    for n in range(n_total - 9, n_total + 1):
        k = math.isqrt(n)
        log_k = math.log(k)
        top, kth = n - 1, n - 1 - k
        t1 = (math.log(y[top]) - math.log(y[kth])) / log_k
        t2 = (math.log(x[top]) - math.log(x[kth])) / log_k
        t3 = (math.log(z[top]) - math.log(z[kth])) / log_k
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
                u_gap=float(1.0 - u[top]),
                identity_gap=gap,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# emission


def format_table(rows: list[TableRow]) -> str:
    """The table as text: a header line and one line per row, no trailing
    newline."""
    lines = [f"{'n':>6} {'(log n/2)T1':>12} {'(log n)T2':>12} {'T3':>10} {'1-u_(n)':>10}"]
    for row in rows:
        lines.append(
            f"{row.n:>6} {row.half_log_n_t1:>12.4f} {row.log_n_t2:>12.4f} "
            f"{row.t3:>10.5f} {row.u_gap:>10.6f}"
        )
    return "\n".join(lines)


def write_replicates_csv(rs: ReplicateSet, fh) -> None:
    """One row per replicate: index, t_n, normalized."""
    writer = csv.writer(fh)
    writer.writerow(["replicate", "t_n", "normalized"])
    for i in range(rs.raw_t.size):
        writer.writerow([i, repr(float(rs.raw_t[i])), repr(float(rs.normalized[i]))])


def summarize(rs: ReplicateSet, report: KsReport | None = None) -> dict:
    """JSON-ready summary of a replicate set (schema version 1)."""
    out = {
        "schema": 1,
        "model": rs.model_name,
        "n": rs.constants.n,
        "k": rs.constants.k,
        "reps": rs.raw_t.size,
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
        out["scale_lambda"] = rs.constants.lam
    return out
