"""Replicate engine: determinism, the fast-path/reference-path identity,
Gumbel goodness-of-fit machinery and the three-estimator table."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gumbeltail.engine import (
    _CHUNK,
    _SEED_BLOCK,
    RngSpec,
    _draw,
    _order_stats,
    _open_uniforms,
    _seed_states,
    _select,
    _top_and_kth,
    gumbel_cdf,
    inverse_transform,
    ks_distance,
    reproduce_table,
    run_replicates,
    sorted_uniforms,
    summarize,
    write_replicates_csv,
)
from gumbeltail.errors import DomainError
from gumbeltail.estimators import KPolicy, de_haan_resnick, select_k
from gumbeltail.models import get_model, norming, transform_log

EULER_GAMMA = 0.5772156649015329


# ---------------------------------------------------------------------------
# uniforms


def test_sorted_uniforms_deterministic():
    rng = RngSpec(seed=123, stream_id=7)
    u1 = sorted_uniforms(1000, rng)
    u2 = sorted_uniforms(1000, rng)
    assert np.array_equal(u1, u2)
    u3 = sorted_uniforms(1000, RngSpec(seed=123, stream_id=8))
    assert not np.array_equal(u1, u3)


def test_sorted_uniforms_contract():
    u = sorted_uniforms(5000, RngSpec(seed=1))
    assert np.all(np.diff(u) >= 0.0)
    assert u[0] > 0.0 and u[-1] < 1.0
    with pytest.raises(DomainError, match="^need n >= 2, got 1$"):
        sorted_uniforms(1, RngSpec(0))


def test_open_uniforms_top_of_lattice():
    # (j + 0.5) / 2**53 rounds to 1.0 at the top draw; it must stay below 1.
    # The raw outputs carry j in their top 53 bits; the low 11 do not count
    j = np.array([0, 2**52, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    u = _open_uniforms(j << np.uint64(11) | np.uint64(0x7FF))
    assert np.all((u > 0.0) & (u < 1.0))
    assert np.all(np.diff(u) >= 0.0)
    assert u[-1] == np.nextafter(1.0, 0.0)
    assert np.array_equal(u[:-1], (j[:-1] + 0.5) * 2.0 ** -53)
    assert np.all(np.isfinite(get_model("pareto").quantile(1.0 - u)))


def test_sorted_uniforms_mean():
    n = 10**6
    u = sorted_uniforms(n, RngSpec(seed=2024))
    # CLT bound: 3 / sqrt(12 n) ~ 0.00087, comfortably inside 0.002
    assert abs(float(u.mean()) - 0.5) < 3.0 / math.sqrt(12.0 * n)


# ---------------------------------------------------------------------------
# stream seeding: the batch hash against numpy's SeedSequence


# runs (seed, first stream, count) on both sides of 2**32 and 2**64, runs
# longer than a block, and runs whose seed or streams leave [0, 2**64)
SEED_STATE_CASES = [
    (seed, first, count)
    for seed in (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 5, 2**96 + 1)
    for first, count in ((0, 3), (2**32 - 2, 4), (2**64 - 4, 4), (2**64 - 2, 4), (2**64, 2))
] + [(7, 0, _SEED_BLOCK + 5), (2**40 + 3, 2**32 - 300, 2 * _SEED_BLOCK), (-1, 0, 1), (0, -1, 1)]


def _oracle_state(seed, stream):
    return np.random.SeedSequence([seed, stream]).generate_state(4, np.uint64)


@pytest.mark.parametrize("seed,first,count", SEED_STATE_CASES)
def test_seed_states_equal_seed_sequence(seed, first, count):
    # a run whose seed and streams lie in [0, 2**64) gets one batch state per
    # stream, equal to SeedSequence's up to the stream 2**64 - 1; any other
    # run is rejected at RngSpec or before _order_stats draws its first stream
    if not (0 <= seed < 2**64 and 0 <= first and first + count <= 2**64):
        with pytest.raises(DomainError, match=r"2\*\*64"):
            _order_stats(4, 2, count, RngSpec(seed=seed, stream_id=first))
        return
    states = _seed_states(seed, first, count)
    assert states.shape == (count, 4) and states.dtype == np.uint64
    for i, state in enumerate(states):
        assert np.array_equal(state, _oracle_state(seed, first + i)), (seed, first + i)


def test_replicate_state_is_not_compared_or_shown():
    first = RngSpec(seed=3, stream_id=5, _state=_seed_states(3, 5, 1)[0])
    assert first._state is not None
    assert first == RngSpec(seed=3, stream_id=5)
    assert hash(first) == hash(RngSpec(seed=3, stream_id=5))
    assert repr(first) == "RngSpec(seed=3, stream_id=5)"


@pytest.mark.parametrize("seed,stream_id", [(1, 2.5), (1.5, 0), (2.0, 0), (True, 0), (1, False),
                                            ("1", 0), (None, 0)])
def test_rng_spec_refuses_a_non_integer_seed_or_stream(seed, stream_id):
    # a float stream would run as its truncation, and a float seed would
    # fail later, in numpy or in the batch hash; a bool is not a seed
    with pytest.raises(DomainError, match="^seed and stream must be integers"):
        RngSpec(seed=seed, stream_id=stream_id)


def test_rng_spec_keeps_numpy_integers_as_ints():
    rng = RngSpec(seed=np.uint64(2**64 - 1), stream_id=np.int32(7))
    assert rng == RngSpec(seed=2**64 - 1, stream_id=7)
    assert type(rng.seed) is int and type(rng.stream_id) is int
    # a uint64 stream plus M would wrap below 2**64 and pass the bound
    with pytest.raises(DomainError, match=r"pass 2\*\*64 - 1"):
        _order_stats(4, 2, 2, RngSpec(seed=1, stream_id=np.uint64(2**64 - 1)))


@pytest.mark.parametrize("seed,stream_id", [
    (5, 2**32 - 1200), (2**33, 2**32 - 1200), (2**64 - 1, 0), (9, 2**64 - 2500),
], ids=["crosses-2**32", "two-word-seed", "largest-seed", "ends-at-2**64-1"])
def test_run_replicates_matches_lone_streams(seed, stream_id):
    # M = 2500 spans three seed blocks; each replicate, seeded from the
    # batch hash, must equal the sorted reference path on
    # RngSpec(seed, stream_id + i) alone, which numpy's SeedSequence seeds
    model = get_model("exp-of-log")
    n, k, m = 40, 6, 2500
    rs = run_replicates(model, n, KPolicy.fixed(k), m, RngSpec(seed=seed, stream_id=stream_id))
    reference = [de_haan_resnick(inverse_transform(model, sorted_uniforms(
        n, RngSpec(seed=seed, stream_id=stream_id + i))), k) for i in range(m)]
    assert np.array_equal(rs.raw_t, reference)


# ---------------------------------------------------------------------------
# inverse transform


def test_inverse_transform_examples():
    exp_model = get_model("exponential")
    got = inverse_transform(exp_model, np.array([0.25, 0.5]))
    assert float(got.values[1]) == pytest.approx(math.log(2.0), rel=1e-15)
    pareto = get_model("pareto")
    assert float(inverse_transform(pareto, np.array([0.5, 0.9])).values[1]) == pytest.approx(
        10.0, rel=1e-12
    )
    normal = get_model("normal")
    assert float(inverse_transform(normal, np.array([0.5, 0.999])).values[1]) == pytest.approx(
        3.090232306167813, abs=1e-9
    )


def test_inverse_transform_keeps_order():
    u = sorted_uniforms(500, RngSpec(seed=5))
    s = inverse_transform(get_model("exp-of-log"), u)
    assert np.all(np.diff(s.values) >= 0.0)


# ---------------------------------------------------------------------------
# replicates


def test_run_replicates_deterministic():
    model = get_model("exp-of-log")
    rng = RngSpec(seed=99, stream_id=0)
    a = run_replicates(model, 2000, KPolicy.sqrt(), 8, rng)
    b = run_replicates(model, 2000, KPolicy.sqrt(), 8, rng)
    assert np.array_equal(a.raw_t, b.raw_t)
    assert np.array_equal(a.normalized, b.normalized)


def _normalized(values, k, nc):
    """The centred spacing (X_{n,n} - X_{n-k,n} - a_n b_n) / a_n of an
    ascending reference sample."""
    n = values.size
    spacing = float(values[n - 1]) - float(values[n - 1 - k])
    return (spacing - nc.a_n * nc.b_n) / nc.a_n


def test_run_replicates_matches_sorted_reference_path():
    # the partition shortcut must agree bit for bit with sorting the same
    # stream, transforming the whole sample and applying the estimators
    model = get_model("exp-of-log")
    n, m = 500, 6
    rng = RngSpec(seed=77, stream_id=10)
    k = select_k(KPolicy.sqrt(), n)
    rs = run_replicates(model, n, KPolicy.sqrt(), m, rng)
    nc = norming(model, n, k)
    for i in range(m):
        u = sorted_uniforms(n, RngSpec(seed=77, stream_id=10 + i))
        sample = inverse_transform(model, u)
        assert de_haan_resnick(sample, k) == rs.raw_t[i]
        assert _normalized(sample.values, k, nc) == rs.normalized[i]


@pytest.mark.parametrize("name,log_scale", [
    ("normal", False), ("iterlog(2)", False), ("mason", False), ("pareto", False),
    ("normal", True),
])
def test_run_replicates_batched_quantile_matches_reference(name, log_scale):
    # the quantile is evaluated once per run on arrays of length M; each
    # entry must still equal the per-replicate sort-then-transform value
    base = get_model(name)
    model = transform_log(base) if log_scale else base
    n, m = 500, 8
    rng = RngSpec(seed=31, stream_id=2)
    k = select_k(KPolicy.sqrt(), n)
    rs = run_replicates(model, n, KPolicy.sqrt(), m, rng)
    nc = norming(model, n, k)
    for i in range(m):
        sample = inverse_transform(model, sorted_uniforms(n, RngSpec(seed=31, stream_id=2 + i)))
        assert de_haan_resnick(sample, k) == rs.raw_t[i]
        assert _normalized(sample.values, k, nc) == rs.normalized[i]


def test_run_replicates_requires_a_replicate():
    with pytest.raises(DomainError):
        run_replicates(get_model("exp-of-log"), 1000, KPolicy.sqrt(), 0, RngSpec(seed=1))


def test_replicate_set_consistency():
    model = get_model("exp-of-log")
    rs = run_replicates(model, 1000, KPolicy.sqrt(), 12, RngSpec(seed=301))
    assert rs.raw_t.shape == (12,) and rs.normalized.shape == (12,)
    # normalized[i] rebuilt from raw_t[i]: spacing = t log k
    anbn = rs.constants.a_n * rs.constants.b_n
    rebuilt = (rs.raw_t * math.log(rs.constants.k) - anbn) / rs.constants.a_n
    assert np.allclose(rebuilt, rs.normalized, rtol=0.0, atol=1e-12)


def test_run_replicates_spacing_mean_matches_limit_law():
    # the normalized spacing tends to a lambda-scaled Gumbel, so the raw
    # spacing mean tends to a_n b_n + gamma r(1/n); at n = 1e6, k = 1000 the
    # center is log 2 and r(1/n) = 1/log(n)
    n, k, m = 10**6, 1000, 256
    model = get_model("exp-of-log")
    rs = run_replicates(model, n, KPolicy.fixed(k), m, RngSpec(seed=8, stream_id=0))
    spacing = rs.raw_t * math.log(k)
    oracle = math.log(2.0) + EULER_GAMMA / math.log(n)
    se = float(spacing.std(ddof=1)) / math.sqrt(m)
    assert abs(float(spacing.mean()) - oracle) <= 3.0 * se


def test_run_replicates_pareto_log_scale_mean_oracle():
    # log z of a unit-Pareto sample is standard exponential, so the top
    # spacing is a sum of scaled exponentials (Renyi) with mean H_k; the
    # replicate mean of T must sit at H_k / log k, not at the limit 1
    n, m = 4000, 200
    k = select_k(KPolicy.sqrt(), n)
    rs = run_replicates(transform_log(get_model("pareto")), n, KPolicy.sqrt(), m,
                        RngSpec(seed=42))
    oracle = sum(1.0 / i for i in range(1, k + 1)) / math.log(k)
    se = float(rs.raw_t.std(ddof=1)) / math.sqrt(m)
    assert abs(float(rs.raw_t.mean()) - oracle) <= 3.0 * se


def test_run_replicates_log_scale_matches_log_model():
    # estimating pareto on the log scale is estimating its log transform
    n, m = 4000, 5
    rng = RngSpec(seed=13)
    via_log = run_replicates(transform_log(get_model("pareto")), n, KPolicy.sqrt(), m, rng)
    assert via_log.model_name == "log(pareto)"
    k = select_k(KPolicy.sqrt(), n)
    for i in range(m):
        u = sorted_uniforms(n, RngSpec(seed=13, stream_id=i))
        z = inverse_transform(get_model("pareto"), u)
        from gumbeltail.estimators import de_haan_resnick_log_scale

        assert de_haan_resnick_log_scale(z, k) == via_log.raw_t[i]


# ---------------------------------------------------------------------------
# the streamed draw: chunk boundaries, ties, large k


CHUNK = 1 << 16
STREAM_CASES = [(n, k) for n in (CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7)
                for k in (2, math.isqrt(n), CHUNK - 1, CHUNK + 5) if k < n]


def test_chunked_draws_make_up_one_stream():
    # PCG64 spends one output per bounded 64-bit draw, so chunks of any size
    # concatenate to the stream of one call
    rng = RngSpec(seed=4, stream_id=3)
    whole = rng.generator().integers(0, 1 << 53, size=3 * CHUNK + 7)
    generator = rng.generator()
    parts = [generator.integers(0, 1 << 53, size=size) for size in (CHUNK, 5, CHUNK, CHUNK + 2)]
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("size", [1, 7, 1000, CHUNK, CHUNK + 1])
def test_draw_is_raw_pcg64_and_shifts_to_the_bounded_draw(size):
    # numpy's bound for a range of exactly 2**53 never rejects and maps a
    # raw output x to x >> 11, so on every seed the raw draw is PCG64's own
    # output and its shift is the bounded draw
    for seed in range(200):
        raw = _draw(RngSpec(seed=seed).generator(), size)
        assert raw.dtype == np.uint64
        pcg = np.random.PCG64(np.random.SeedSequence([seed, 0]))
        assert np.array_equal(raw, pcg.random_raw(size)), seed
        bounded = RngSpec(seed=seed).generator().integers(0, 1 << 53, size=size)
        assert np.array_equal(raw >> 11, bounded), seed


FULL = (1 << 64) - 1
# (args, kwargs) of Generator.integers: the engine's draw, then forms numpy answers
CALL_FORMS = {
    "draw": ((0, FULL), dict(size=1000, dtype=np.uint64, endpoint=True)),
    "draw-positional-size": ((0, FULL, 7), dict(dtype=np.uint64, endpoint=True)),
    "draw-empty": ((0, FULL), dict(size=0, dtype=np.uint64, endpoint=True)),
    "full-range-tuple-size": ((0, FULL), dict(size=(2, 3), dtype=np.uint64, endpoint=True)),
    "full-range-no-size": ((0, FULL), dict(dtype=np.uint64, endpoint=True)),
    "full-range-numpy-size": ((0, FULL), dict(size=np.int64(5), dtype=np.uint64, endpoint=True)),
    "full-range-numpy-high": ((0, np.uint64(FULL)), dict(size=5, dtype=np.uint64, endpoint=True)),
    "full-range-str-dtype": ((0, FULL), dict(size=5, dtype="uint64", endpoint=True)),
    "full-range-open-end": ((0, FULL), dict(size=5, dtype=np.uint64)),
    "uint64-bound-2**53": ((0, 1 << 53), dict(size=5, dtype=np.uint64, endpoint=True)),
    "uint64-low-2**32": ((1 << 32, FULL), dict(size=5, dtype=np.uint64, endpoint=True)),
    "array-bounds": ((np.zeros(3, dtype=np.uint64), FULL), dict(dtype=np.uint64, endpoint=True)),
    "one-bound": ((5,), dict(size=3)),
    "bound-2**53": ((0, 1 << 53), dict(size=5)),
    "bounded-int64": ((-10, 10), dict(size=5, dtype=np.int64)),
}


@pytest.mark.parametrize("form", CALL_FORMS)
def test_generator_integers_is_numpy_integers(form):
    # the replicate generator answers the draw from PCG64.random_raw and
    # passes every other call to numpy; either way it returns what numpy's
    # own Generator returns, and the stream stays in step over two calls
    args, kwargs = CALL_FORMS[form]
    for seed, stream in ((0, 0), (42, 7), ((1 << 64) - 1, 1 << 40)):
        for spec in (RngSpec(seed, stream), RngSpec(seed, stream, _state=_seed_states(seed, stream, 1)[0])):
            generator = spec.generator()
            assert isinstance(generator, np.random.Generator)
            reference = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))
            for _ in range(2):
                got, want = generator.integers(*args, **kwargs), reference.integers(*args, **kwargs)
                assert type(got) is type(want) and got.dtype == want.dtype, (form, seed)
                assert np.shape(got) == np.shape(want) and np.array_equal(got, want), (form, seed)


@pytest.mark.parametrize("n,k", STREAM_CASES + [(1 << 18, 1 << 17)],
                         ids=[f"n{n}-k{k}" for n, k in STREAM_CASES] + ["n262144-half"])
def test_streamed_replicates_match_sorted_reference_path(n, k):
    model = get_model("exp-of-log")
    rng = RngSpec(seed=61, stream_id=n + k)
    rs = run_replicates(model, n, KPolicy.fixed(k), 2, rng)
    nc = norming(model, n, k)
    for i in range(2):
        sample = inverse_transform(model, sorted_uniforms(n, RngSpec(seed=61, stream_id=n + k + i)))
        assert de_haan_resnick(sample, k) == rs.raw_t[i]
        assert _normalized(sample.values, k, nc) == rs.normalized[i]


class _ChunkStub:
    """Stands in for a generator that hands out fixed values in order,
    whatever chunk sizes are asked for; records the sizes."""

    def __init__(self, values):
        self.values, self.sizes = values, []

    def integers(self, low, high, size, dtype, endpoint):
        start = sum(self.sizes)
        self.sizes.append(size)
        return self.values[start:start + size].astype(dtype)


def _pool(n, k):
    """The pool _order_stats allocates for (n, k)."""
    return np.empty(min(n, 2 * (k + 1) + CHUNK), dtype=np.uint64)


def _top_and_kth_pair(n, k, generator):
    """_top_and_kth's (1, 2) output, as its one row."""
    out = np.empty((1, 2), dtype=np.uint64)
    _top_and_kth(n, k, generator, _pool(n, k), out)
    return out[0]


def _tied_draws(n, k):
    """Values whose (k+1)-th largest is tied with everything below it, in
    every chunk: k values of 8, the rest 7, the 8s in the last chunk."""
    values = np.full(n, 7, dtype=np.int64)
    values[n - k:] = 8
    return values


def _late_near_floor(n, k):
    """Distinct evens, then zeros, and last an odd value just above the
    (k+1)-th largest even, which makes it the (k+1)-th largest of all."""
    h = n // 2
    values = np.zeros(n, dtype=np.int64)
    values[:h] = 2 * np.random.default_rng(6).permutation(h)
    values[-1] = 2 * (h - k - 1) + 1
    return values


def _straddle_2_63(n, k):
    """Distinct values on both sides of 2**63, shuffled: a signed pool or
    compare takes those above it for negative."""
    values = np.arange(n, dtype=np.uint64) + np.uint64(2**63 - n // 2)
    return np.random.default_rng(7).permutation(values)


def _shared_shift(n, k):
    """Consecutive values, shuffled: runs of 2**11 distinct values share
    one >> 11 value, the (k+1)-th largest's run reaching below and above it."""
    values = np.arange(n, dtype=np.uint64) + np.uint64(5 << 11)
    return np.random.default_rng(8).permutation(values)


@pytest.mark.parametrize("draws", [
    lambda n, k: np.random.default_rng(5).integers(0, 8, size=n),
    _tied_draws,
    _late_near_floor,
    lambda n, k: np.arange(n, dtype=np.int64),
    lambda n, k: np.arange(n, dtype=np.int64)[::-1].copy(),
    _straddle_2_63,
    _shared_shift,
], ids=["few-values", "tied-floor", "late-near-floor", "ascending", "descending",
        "straddle-2**63", "shared-shift"])
@pytest.mark.parametrize("k", [2, 443, CHUNK + 5])
def test_order_stats_across_chunks(draws, k):
    # ties at the floor, a candidate just above it after the pool has
    # compacted, ascending draws that compact it on every chunk,
    # descending draws that never add to it, raw outputs of 2**63 and more,
    # and distinct raw outputs that shift to one 53-bit draw
    n = 3 * CHUNK + 7
    values = draws(n, k)
    stub = _ChunkStub(values)
    got = _top_and_kth_pair(n, k, stub)
    ordered = np.sort(values)
    assert got.tolist() == [ordered[-1], ordered[-1 - k]]
    assert sum(stub.sizes) == n and max(stub.sizes) <= CHUNK
    # shifting the selected pair equals selecting from the shifted draws
    shifted = np.sort(values >> 11)
    assert (got >> 11).tolist() == [shifted[-1], shifted[-1 - k]]


def test_order_stats_of_random_arrays_match_sort():
    # about 2000 arrays of one chunk, with k spread over 1..n-1: the (k+1)-th
    # largest read after a partition that is off by one is wrong on a few
    draws = np.random.default_rng(2718)
    for _ in range(2000):
        n = int(draws.integers(10, 5001))
        k = int(draws.integers(1, n))
        values = draws.integers(0, 1 << 53, size=n)
        ordered = np.sort(values)
        got = _top_and_kth_pair(n, k, _ChunkStub(values))
        assert [int(v) for v in got] == [ordered[-1], ordered[-1 - k]], (n, k)


def test_block_rows_of_random_arrays_match_sort():
    # about 2000 rows in blocks of 1 to 12, with k spread over 1..n-1: one
    # partition along the rows that is off by one is wrong on a few rows
    draws = np.random.default_rng(3141)
    for _ in range(300):
        n = int(draws.integers(10, 2001))
        k = int(draws.integers(1, n))
        values = draws.integers(0, 1 << 53, size=(int(draws.integers(1, 13)), n))
        out = np.empty((len(values), 2), dtype=np.uint64)
        _select(values.astype(np.uint64), k, out)
        ordered = np.sort(values, axis=1)
        assert out.tolist() == np.stack([ordered[:, -1], ordered[:, -1 - k]], axis=1).tolist(), (n, k)


def _block_cases():
    """(n, m) at the edges of the block: rows = min(_CHUNK // n, _SEED_BLOCK)
    replicates share one block, and above _CHUNK there is none (the chunk
    loop draws one replicate at a time)."""
    for n in (_CHUNK // 2, _CHUNK // 2 + 1, _CHUNK, _CHUNK + 1):
        rows = max(_CHUNK // n, 1)
        for m in sorted({1, rows - 1, rows, rows + 1} - {0}):
            yield n, m
    yield 40, _SEED_BLOCK + 1          # rows = _SEED_BLOCK: one block per seed block
    yield 1000, _SEED_BLOCK + 70       # 65 rows, which do not divide a seed block


@pytest.mark.parametrize("n,m", list(_block_cases()))
@pytest.mark.parametrize("k", ["1", "n-1"])
def test_block_order_stats_match_sorted_reference(n, m, k):
    # each replicate's pair equals the top and (k+1)-th largest of its own
    # lone stream, sorted: across a full block, a partial one, one row, and
    # the chunk loop just above _CHUNK
    k = 1 if k == "1" else n - 1
    rng = RngSpec(seed=n + m, stream_id=3 * k)
    got = _order_stats(n, k, m, rng)
    assert got.shape == (m, 2) and got.dtype == np.uint64
    for i in range(m):
        ordered = np.sort(_draw(RngSpec(seed=rng.seed, stream_id=rng.stream_id + i).generator(), n))
        assert got[i].tolist() == [ordered[-1], ordered[-1 - k]], i


def test_run_replicates_stores_at_most_64_bytes_per_replicate():
    # the order statistics fill one (M, 2) int64 array; a list of M tuples
    # of numpy scalars took about 160 bytes per replicate
    model = get_model("exp-of-log")

    def peak(m):
        tracemalloc.start()
        try:
            run_replicates(model, 4, KPolicy.fixed(2), m, RngSpec(seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(10)
    assert (peak(5500) - peak(500)) / 5000 <= 64


# ---------------------------------------------------------------------------
# Gumbel law and KS


def test_gumbel_cdf_values():
    assert float(gumbel_cdf(0.0, 1.0)) == pytest.approx(math.exp(-1.0), rel=1e-15)
    median_x = -math.log(math.log(2.0))
    assert float(gumbel_cdf(median_x, 1.0)) == pytest.approx(0.5, rel=1e-14)
    assert float(gumbel_cdf(2.0 * median_x, 2.0)) == pytest.approx(0.5, rel=1e-14)


def test_gumbel_cdf_rejects_bad_scale():
    for lam in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            gumbel_cdf(1.0, lam)


def gumbel_quantile(p: float, lam: float) -> float:
    return -lam * math.log(-math.log(p))


def test_ks_distance_step_geometry():
    # exact quantiles at (i - 1/2)/M leave a residual of exactly 0.5/M
    m = 100
    values = [gumbel_quantile((i - 0.5) / m, 1.0) for i in range(1, m + 1)]
    report = ks_distance(values, 1.0)
    assert report.ks == pytest.approx(0.5 / m, abs=1e-12)
    assert report.threshold == 1.36 / math.sqrt(m)
    assert report.passed  # 0.005 < 1.36/10


def test_ks_distance_single_median_value():
    report = ks_distance([gumbel_quantile(0.5, 1.0)], 1.0)
    assert report.ks == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DomainError, match="^need at least one value$"):
        ks_distance([], 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="^KS values must be finite$"):
            ks_distance([bad, 1.0], 1.0)


def test_ks_distance_total_mismatch():
    report = ks_distance(np.full(50, 1e9), 1.0)
    assert report.ks >= 1.0 - 1e-9
    assert not report.passed


def test_ks_threshold_override():
    m = 100
    values = [gumbel_quantile((i - 0.5) / m, 1.0) for i in range(1, m + 1)]
    assert not ks_distance(values, 1.0, threshold=0.001).passed
    default = ks_distance(values, 1.0)
    assert default.threshold == pytest.approx(1.36 / math.sqrt(m), rel=1e-12)


def exact_exponential_cdf(y, k: int):
    """Finite-k law of the normalized statistic for an Exp(1) parent: the
    spacing X_{n,n} - X_{n-k,n} is the maximum of k iid Exp(1) (Renyi) and
    a_n b_n = log k, so P(Z <= y) = (1 - e^{-y} / k)^k for y > -log k, at
    every n."""
    y = np.asarray(y, dtype=float)
    return np.where(y > -math.log(k), (1.0 - np.exp(-y) / k) ** k, 0.0)


def test_exponential_replicates_follow_exact_finite_k_law():
    # seed-free: every seed and cell is consistent with the exact law, and
    # at k = 5 the Gumbel limit (gap about 0.058) is rejected on every seed
    m = 2000
    for seed in (1, 2, 3):
        for n in (1000, 10000):
            for spec in ("sqrt", "fixed:5"):
                rs = run_replicates(get_model("exponential"), n, KPolicy.parse(spec), m,
                                    RngSpec(seed=seed))
                k = rs.constants.k
                pvalue = stats.kstest(rs.normalized, lambda y: exact_exponential_cdf(y, k)).pvalue
                assert pvalue > 1e-3, (seed, n, spec, pvalue)
                if k == 5:
                    assert not ks_distance(rs.normalized, 1.0).passed, (seed, n)


# ---------------------------------------------------------------------------
# the table


def test_table_column_identity():
    rows = reproduce_table(RngSpec(seed=42))
    assert len(rows) == 10
    for row in rows:
        assert abs(row.log_n_t2 - row.half_log_n_t1) <= 1e-12
        assert row.identity_gap == row.log_n_t2 - row.half_log_n_t1


def test_table_prefix_structure():
    rows = reproduce_table(RngSpec(seed=7), n_total=4000)
    assert [row.n for row in rows] == list(range(3991, 4001))
    # the upper gap 1 - u_(n) shrinks as the prefix grows
    gaps = [row.u_gap for row in rows]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert all(g > 0.0 for g in gaps)


def test_table_deterministic():
    a = reproduce_table(RngSpec(seed=11))
    b = reproduce_table(RngSpec(seed=11))
    assert a == b


def test_table_documented_seed_ranges():
    # single-draw bands around the limits: T3 fluctuates about 1 on the
    # Gumbel scale 1/log k, the scaled columns about log 2
    rows = reproduce_table(RngSpec(seed=42))
    final = rows[-1]
    assert 0.65 <= final.t3 <= 1.35
    assert 0.45 <= final.half_log_n_t1 <= 0.95
    assert 0.45 <= final.log_n_t2 <= 0.95


def test_table_rejects_tiny_total():
    with pytest.raises(DomainError):
        reproduce_table(RngSpec(seed=1), n_total=50)


# ---------------------------------------------------------------------------
# consistency across sample sizes (weak law for T_n)


def test_median_abs_t_decreases_for_gumbel_log_models():
    grid = (10**3, 10**4, 10**5, 10**6)
    for name in ("exp-of-log", "normal", "iterlog(1)", "iterlog(2)"):
        model = get_model(name)
        medians = []
        for idx, n in enumerate(grid):
            rs = run_replicates(model, n, KPolicy.sqrt(), 200, RngSpec(seed=17, stream_id=idx * 1000))
            medians.append(float(np.median(np.abs(rs.raw_t))))
        assert all(a > b for a, b in zip(medians, medians[1:])), (name, medians)


# ---------------------------------------------------------------------------
# emission


def test_csv_round_trip():
    rs = run_replicates(get_model("exp-of-log"), 1000, KPolicy.sqrt(), 5, RngSpec(seed=3))
    buf = io.StringIO()
    write_replicates_csv(rs, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "replicate,t_n,normalized"
    assert len(lines) == 1 + rs.raw_t.size
    idx, t, z = lines[1].split(",")
    assert int(idx) == 0
    assert float(t) == rs.raw_t[0]
    assert float(z) == rs.normalized[0]


def test_summary_fields():
    rs = run_replicates(get_model("exp-of-log"), 1000, KPolicy.sqrt(), 50, RngSpec(seed=4))
    report = ks_distance(rs.normalized, rs.constants.lam)
    doc = summarize(rs, report)
    assert doc["schema"] == 1
    assert doc["model"] == "exp-of-log"
    assert doc["reps"] == 50
    assert doc["mean_t"] == pytest.approx(float(rs.raw_t.mean()))
    assert doc["median_t"] == pytest.approx(float(np.median(rs.raw_t)))
    assert 0.0 <= doc["ks"] <= 1.0
    assert isinstance(doc["pass"], bool)
