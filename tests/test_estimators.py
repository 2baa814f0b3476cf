"""Estimator oracles, error contracts and equivariance properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gumbeltail.errors import (
    DomainError,
    FixedOutOfRange,
    KOutOfRange,
    NonPositiveValue,
    TooSmallN,
    ZeroScale,
)
from gumbeltail.estimators import (
    KPolicy,
    SortedSample,
    de_haan_resnick,
    de_haan_resnick_log_scale,
    hill,
    normalized_statistic,
    select_k,
)
from gumbeltail.models import NormingConstants, get_model, norming

# Deterministic log-Pareto grid: values log((n+1)/i), i = 1..n. The top
# spacing at (n=1000, k=31) telescopes to log 32, so T = log 32 / log 31
# and the Hill estimate is log 32 - log(31!)/31 (Stirling-checked below).
GRID_T = 1.0092454329104992
GRID_H = 0.9466319172089102


def log_pareto_grid(n: int) -> SortedSample:
    return SortedSample.from_values(np.log((n + 1) / np.arange(1, n + 1)))


def test_grid_oracle_constants_recompute():
    assert GRID_T == math.log(32.0) / math.log(31.0)
    exact_sum = sum(math.log(32.0 / i) for i in range(1, 32)) / 31.0
    assert math.isclose(GRID_H, exact_sum, rel_tol=0.0, abs_tol=5e-16)
    assert math.isclose(GRID_H, math.log(32.0) - math.lgamma(32.0) / 31.0, abs_tol=5e-16)


# ---------------------------------------------------------------------------
# select_k


def test_select_k_sqrt():
    assert select_k(KPolicy.sqrt(), 4000) == 63


def test_select_k_logpow():
    # floor((log 1e6)^2) = floor(13.8155...^2)
    assert select_k(KPolicy.log_power(2.0), 10**6) == 190


def test_select_k_fixed_out_of_range():
    with pytest.raises(FixedOutOfRange):
        select_k(KPolicy.fixed(10), 5)
    with pytest.raises(FixedOutOfRange):
        select_k(KPolicy.fixed(1), 100)


def test_select_k_too_small_n():
    with pytest.raises(TooSmallN):
        select_k(KPolicy.sqrt(), 3)
    with pytest.raises(TooSmallN):
        select_k(KPolicy.log_power(9.0), 5)
    with pytest.raises(TooSmallN):  # log(n) ** ell overflows a float
        select_k(KPolicy.log_power(1000.0), 10**4)


def test_select_k_clamps_to_two():
    assert select_k(KPolicy.log_power(0.1), 100) == 2


@pytest.mark.parametrize("policy", [KPolicy.sqrt(), KPolicy.log_power(1.0), KPolicy.log_power(2.0)])
def test_k_policy_intermediate_sequence(policy):
    grid = [10**e for e in range(2, 9)]
    ks = [select_k(policy, n) for n in grid]
    ratios = [k / n for k, n in zip(ks, grid)]
    assert all(a < b for a, b in zip(ks, ks[1:]))          # k(n) grows
    assert all(a > b for a, b in zip(ratios, ratios[1:]))  # k(n)/n shrinks
    assert all(0 < k < n for k, n in zip(ks, grid))


def test_k_policy_parse_round_trip():
    for spec in ("sqrt", "logpow:2", "fixed:31"):
        assert KPolicy.parse(spec).spec() == spec
    with pytest.raises(ValueError):
        KPolicy.parse("nope:1")


# ---------------------------------------------------------------------------
# de_haan_resnick


def test_constant_sample_gives_zero():
    s = SortedSample(np.full(50, 7.3))
    assert de_haan_resnick(s, 10).t_n == 0.0


def test_two_point_arithmetic():
    # X_{n,n} = 5, X_{n-k,n} = 3, k = 10 -> 2 / log 10
    values = np.concatenate([np.full(11, 3.0), np.full(9, 4.0), [5.0]])
    res = de_haan_resnick(SortedSample(values), 10)
    assert math.isclose(res.t_n, 0.8685889638065035, rel_tol=0.0, abs_tol=1e-15)
    assert res.k == 10 and res.log_k == math.log(10)


def test_grid_oracle():
    res = de_haan_resnick(log_pareto_grid(1000), 31)
    assert abs(res.t_n - GRID_T) <= 1e-12


def test_k_out_of_range():
    s = SortedSample(np.arange(10.0))
    with pytest.raises(KOutOfRange):
        de_haan_resnick(s, 1)
    with pytest.raises(KOutOfRange):
        de_haan_resnick(s, 10)


# ---------------------------------------------------------------------------
# log scale


def test_log_scale_on_pareto_grid():
    n = 1000
    u = np.arange(1, n + 1) / (n + 1.0)
    z = SortedSample.from_values((1.0 - u) ** -1.0)
    res = de_haan_resnick_log_scale(z, 31)
    assert abs(res.t_n - GRID_T) <= 1e-12


def test_log_scale_all_ones():
    assert de_haan_resnick_log_scale(SortedSample(np.ones(20)), 5).t_n == 0.0


def test_log_scale_rejects_nonpositive():
    with pytest.raises(NonPositiveValue):
        de_haan_resnick_log_scale(SortedSample(np.arange(0.0, 10.0)), 3)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=6, max_size=60),
    st.integers(min_value=2, max_value=5),
)
def test_log_scale_equals_estimator_of_logs(values, k):
    s = SortedSample.from_values(values)
    expected = de_haan_resnick(SortedSample(np.log(s.values)), k)
    got = de_haan_resnick_log_scale(s, k)
    assert got.t_n == expected.t_n  # identical code path on identical floats


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=6, max_size=60),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_translation_invariance(values, k, shift):
    s = SortedSample.from_values(values)
    t0 = de_haan_resnick(s, k).t_n
    t1 = de_haan_resnick(SortedSample(s.values + shift), k).t_n
    assert math.isclose(t0, t1, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=6, max_size=60),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_scale_equivariance(values, k, c):
    s = SortedSample.from_values(values)
    t0 = de_haan_resnick(s, k).t_n
    t1 = de_haan_resnick(SortedSample(s.values * c), k).t_n
    assert math.isclose(t1, c * t0, rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# hill


def test_hill_constant_sample():
    assert hill(SortedSample(np.full(30, 2.5)), 7) == 0.0


def test_hill_grid_oracle():
    assert abs(hill(log_pareto_grid(1000), 31) - GRID_H) <= 1e-12


def test_hill_two_point_tail():
    # top value b over a flat shelf at a, k = 2 -> (b - a) / 2
    values = np.concatenate([np.full(12, 1.0), [4.0]])
    assert hill(SortedSample(values), 2) == pytest.approx(1.5, abs=1e-15)


def test_hill_nonnegative_and_ignores_low_values():
    rng = np.random.default_rng(7)
    base = np.sort(rng.normal(size=200))
    k = 20
    h0 = hill(SortedSample(base), k)
    assert h0 >= 0.0
    # push everything strictly below X_{n-k,n} further down; H is unchanged
    perturbed = base.copy()
    perturbed[: 200 - 1 - k] -= 3.0
    assert hill(SortedSample(perturbed), k) == h0


def test_hill_k_out_of_range():
    with pytest.raises(KOutOfRange):
        hill(SortedSample(np.arange(5.0)), 5)


def test_grid_estimates_near_one_for_large_n():
    # brute-force check across grid sizes with k = floor(sqrt(n))
    for n in (1000, 5000, 20000):
        s = log_pareto_grid(n)
        k = select_k(KPolicy.sqrt(), n)
        assert abs(de_haan_resnick(s, k).t_n - 1.0) < 0.1
        assert abs(hill(s, k) - 1.0) < 0.1


# ---------------------------------------------------------------------------
# normalized statistic


def test_normalized_statistic_centering_cancels():
    nc = NormingConstants(a_n=0.5, b_n=3.0, lam=1.0, n=21, k=4)
    values = np.concatenate([np.linspace(0.0, 1.0, 20), [1.0 + 1.5]])
    # spacing = values[-1] - values[-1-4] = 1.5 + gap contribution
    spacing = values[-1] - values[-1 - 4]
    expected = (spacing - 1.5) / 0.5
    got = normalized_statistic(SortedSample(values), 4, nc)
    assert got == pytest.approx(expected, abs=1e-14)


def test_normalized_statistic_closed_form_example():
    # spacing exactly 1 under the doubly-exponential model at n=1e6, k=1000:
    # a_n = 1/log 1000, a_n b_n = log 2 -> (1 - log 2) * log 1000
    n, k = 10**6, 1000
    a_n = 1.0 / math.log(1000.0)
    b_n = math.log(2.0) / a_n
    nc = NormingConstants(a_n=a_n, b_n=b_n, lam=0.5, n=n, k=k)
    values = np.zeros(n)
    values[-1] = 1.0
    got = normalized_statistic(SortedSample(values), k, nc)
    assert got == pytest.approx(2.11966418335759, abs=1e-12)


def test_normalized_statistic_zero_scale():
    nc = NormingConstants(a_n=0.0, b_n=1.0, lam=None, n=10, k=3)
    with pytest.raises(ZeroScale):
        normalized_statistic(SortedSample(np.arange(10.0)), 3, nc)


def test_normalized_statistic_mismatched_constants():
    nc = NormingConstants(a_n=1.0, b_n=1.0, lam=None, n=11, k=3)
    with pytest.raises(ValueError):
        normalized_statistic(SortedSample(np.arange(10.0)), 3, nc)


# ---------------------------------------------------------------------------
# SortedSample


def test_sorted_sample_validation():
    with pytest.raises(ValueError):
        SortedSample(np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        SortedSample(np.array([1.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            SortedSample(np.array([1.0, bad]))
    s = SortedSample.from_values([3.0, 1.0, 2.0])
    assert list(s.values) == [1.0, 2.0, 3.0]
    assert s.n == 3


@pytest.mark.filterwarnings("error")
def test_normalized_statistic_overflow():
    values = np.array([-1.7e308] * 200 + [1.7e308] * 3)
    nc = norming(get_model("exponential"), 203, 14)
    with pytest.raises(DomainError):
        normalized_statistic(SortedSample(values), 14, nc)
