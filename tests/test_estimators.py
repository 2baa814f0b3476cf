"""Estimator oracles, error contracts and equivariance properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gumbeltail.errors import DomainError
from gumbeltail.estimators import (
    KPolicy,
    SortedSample,
    de_haan_resnick,
    de_haan_resnick_log_scale,
    hill,
    select_k,
)
from gumbeltail.models import get_model, norming

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
    with pytest.raises(DomainError, match="fixed k=10 infeasible for n=5"):
        select_k(KPolicy.fixed(10), 5)
    with pytest.raises(DomainError, match="fixed k=1 infeasible for n=100"):
        select_k(KPolicy.fixed(1), 100)


def test_select_k_too_small_n():
    with pytest.raises(DomainError, match="need n >= 4, got 3"):
        select_k(KPolicy.sqrt(), 3)
    with pytest.raises(DomainError, match=r"policy logpow:9 gives k=\d+ >= n=5"):
        select_k(KPolicy.log_power(9.0), 5)
    with pytest.raises(DomainError, match="beyond float range"):  # log(n) ** ell overflows a float
        select_k(KPolicy.log_power(1000.0), 10**4)


@pytest.mark.parametrize("policy", [KPolicy.sqrt(), KPolicy.log_power(2.0), KPolicy.fixed(5)])
def test_n_above_float_range_is_rejected(policy):
    # the largest finite float is an int below 2**1024; one more is out of range
    top = int(np.finfo(float).max)
    assert select_k(policy, top) >= 2
    with pytest.raises(DomainError, match=r"n=\d+ is beyond the float range"):
        select_k(policy, top + 1)
    with pytest.raises(DomainError, match="beyond the float range"):
        norming(get_model("normal"), 10**400, 5)


@pytest.mark.parametrize("m", [3, 63, 2**26 + 1, 10**8 + 1, 10**20 + 7, 10**153],
                         ids=["3", "63", "2**26+1", "10**8+1", "10**20+7", "10**153"])
def test_select_k_sqrt_is_exact_at_square_boundaries(m):
    # k = floor(sqrt(n)) in integers: a float sqrt rounds m**2 - 1 up to m
    # once n passes 2**52
    assert select_k(KPolicy.sqrt(), m * m - 1) == m - 1
    assert select_k(KPolicy.sqrt(), m * m) == m
    assert select_k(KPolicy.sqrt(), m * m + 2 * m) == m


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
    for spec in ("nope:1", "sqrt:2", "logpow:", "logpow:abc", "fixed:2.5", "fixed:x"):
        with pytest.raises(DomainError, match=f"^cannot parse k-policy spec: '{spec}'$"):
            KPolicy.parse(spec)
    # a spec that is not a str raised AttributeError
    for spec in (None, 5):
        with pytest.raises(DomainError, match=f"^cannot parse k-policy spec: {spec}$"):
            KPolicy.parse(spec)
    # a well-formed number keeps the policy's own rule
    with pytest.raises(DomainError, match="logpow policy requires a finite ell > 0"):
        KPolicy.parse("logpow:-1")
    with pytest.raises(DomainError, match="^fixed policy requires a positive k$"):
        KPolicy.parse("fixed:0")
    with pytest.raises(DomainError, match="^unknown k-policy kind: 'bogus'$"):
        KPolicy("bogus")


@pytest.mark.parametrize("policy", [KPolicy.sqrt()]
                         + [KPolicy.log_power(ell) for ell in (0.5, 1.5, 2, 2.25, 3.0)]
                         + [KPolicy.fixed(k) for k in (1, 2, 31, 1000, np.int64(7))])
def test_k_policy_spec_parses_back_to_itself(policy):
    assert KPolicy.parse(policy.spec()) == policy


@pytest.mark.parametrize("ell,spec", [
    (2.0, "logpow:2"), (2, "logpow:2"), (2.5, "logpow:2.5"), (0.1, "logpow:0.1"),
    (2.0000001, "logpow:2.0000001"), (1 / 3, "logpow:0.3333333333333333"),
    (np.float64(1.2345678), "logpow:1.2345678"), (1e-05, "logpow:1e-05"),
])
def test_logpow_spec_keeps_ell(ell, spec):
    # an ell that six significant digits would change is printed in full:
    # 2.0000001 was echoed as logpow:2, which gives k = 74 at n = 5769, not 75
    policy = KPolicy.log_power(ell)
    assert policy.spec() == spec
    parsed = KPolicy.parse(spec)
    assert parsed == policy and parsed.ell == float(ell)
    assert select_k(parsed, 5769) == select_k(policy, 5769)


@pytest.mark.parametrize("k", [True, False, np.bool_(True)])
def test_fixed_policy_refuses_a_bool(k):
    # True is an int, so it was taken as k = 1 and printed as fixed:True,
    # which parse refuses
    with pytest.raises(DomainError, match=f"^fixed policy requires an integer k, got {k!r}$"):
        KPolicy.fixed(k)


@pytest.mark.parametrize("make,message", [
    (lambda: KPolicy("sqrt", ell=2.0),
     "sqrt policy given a parameter it does not take: "
     "KPolicy(kind='sqrt', ell=2.0, k=None)"),
    (lambda: KPolicy("sqrt", k=5),
     "sqrt policy given a parameter it does not take: "
     "KPolicy(kind='sqrt', ell=None, k=5)"),
    (lambda: KPolicy("fixed", k=5, ell=3.0),
     "fixed policy given a parameter it does not take: "
     "KPolicy(kind='fixed', ell=3.0, k=5)"),
    (lambda: KPolicy("logpow", ell=2.0, k=5),
     "logpow policy given a parameter it does not take: "
     "KPolicy(kind='logpow', ell=2.0, k=5)"),
    (lambda: KPolicy("fixed", k=2.5), "fixed policy requires an integer k, got 2.5"),
    (lambda: KPolicy("fixed", k=5.0), "fixed policy requires an integer k, got 5.0"),
    (lambda: KPolicy("fixed"), "fixed policy requires an integer k, got None"),
    (lambda: KPolicy.fixed(2.9), "fixed policy requires an integer k, got 2.9"),
], ids=["sqrt-ell", "sqrt-k", "fixed-ell", "logpow-k", "fixed-2.5", "fixed-5.0", "fixed-none",
        "fixed-2.9"])
def test_k_policy_refuses_parameters_its_kind_does_not_take(make, message):
    # each was accepted: sqrt with ell printed "sqrt" but was not KPolicy.sqrt(),
    # fixed k = 2.5 printed "fixed:2.5", which parse refuses, and
    # KPolicy.fixed(2.9) was k = 2
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# de_haan_resnick


def test_constant_sample_gives_zero():
    s = SortedSample(np.full(50, 7.3))
    assert de_haan_resnick(s, 10) == 0.0


def test_two_point_arithmetic():
    # X_{n,n} = 5, X_{n-k,n} = 3, k = 10 -> 2 / log 10
    values = np.concatenate([np.full(11, 3.0), np.full(9, 4.0), [5.0]])
    t_n = de_haan_resnick(SortedSample(values), 10)
    assert type(t_n) is float
    assert math.isclose(t_n, 0.8685889638065035, rel_tol=0.0, abs_tol=1e-15)


def test_grid_oracle():
    t_n = de_haan_resnick(log_pareto_grid(1000), 31)
    assert abs(t_n - GRID_T) <= 1e-12


def test_k_out_of_range():
    s = SortedSample(np.arange(10.0))
    with pytest.raises(DomainError, match="need 2 <= k < n, got k=1, n=10"):
        de_haan_resnick(s, 1)
    with pytest.raises(DomainError, match="need 2 <= k < n, got k=10, n=10"):
        de_haan_resnick(s, 10)


@pytest.mark.parametrize("estimator", [de_haan_resnick, de_haan_resnick_log_scale, hill])
def test_estimators_refuse_a_non_integer_k(estimator):
    # k indexes X_{n-k,n}: a float or bool k is a DomainError, not numpy's
    # IndexError or TypeError, and a numpy integer k reads the same pair
    s = SortedSample(np.arange(1.0, 101.0))
    for k in (2.5, 3.0, True):
        with pytest.raises(DomainError, match=f"^k must be an integer, got {k!r}$"):
            estimator(s, k)
    assert estimator(s, np.int64(9)) == estimator(s, np.uint8(9)) == estimator(s, 9)


# ---------------------------------------------------------------------------
# log scale


def test_log_scale_on_pareto_grid():
    n = 1000
    u = np.arange(1, n + 1) / (n + 1.0)
    z = SortedSample.from_values((1.0 - u) ** -1.0)
    t_n = de_haan_resnick_log_scale(z, 31)
    assert abs(t_n - GRID_T) <= 1e-12


def test_log_scale_all_ones():
    assert de_haan_resnick_log_scale(SortedSample(np.ones(20)), 5) == 0.0


def test_log_scale_rejects_nonpositive():
    with pytest.raises(DomainError, match="log-scale estimator requires all values > 0"):
        de_haan_resnick_log_scale(SortedSample(np.arange(0.0, 10.0)), 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=6, max_value=4000), st.integers(min_value=0, max_value=2**32 - 1),
       st.data())
def test_log_scale_equals_estimator_of_logs(n, seed, data):
    # log-uniform values over 12 decades; k up to n - 1, so that the top
    # k + 1 values the log-scale estimator reads span slices of any length
    k = data.draw(st.integers(min_value=2, max_value=n - 1))
    values = np.exp(np.random.default_rng(seed).uniform(math.log(1e-6), math.log(1e6), size=n))
    s = SortedSample.from_values(values)
    expected = de_haan_resnick(SortedSample(np.log(s.values)), k)
    got = de_haan_resnick_log_scale(s, k)
    assert got == expected  # np.log of a slice gives the same floats as of the whole


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=6, max_size=60),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_translation_invariance(values, k, shift):
    s = SortedSample.from_values(values)
    t0 = de_haan_resnick(s, k)
    t1 = de_haan_resnick(SortedSample(s.values + shift), k)
    assert math.isclose(t0, t1, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=6, max_size=60),
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_scale_equivariance(values, k, c):
    s = SortedSample.from_values(values)
    t0 = de_haan_resnick(s, k)
    t1 = de_haan_resnick(SortedSample(s.values * c), k)
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
    # b - a beyond the float range
    wide = SortedSample(np.array([-1.7e308, -1.7e308, 1.7e308, 1.7e308]))
    with pytest.raises(DomainError, match="^H_n overflows a float at k=2$"):
        hill(wide, 2)


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
    with pytest.raises(DomainError, match="need 2 <= k < n, got k=5, n=5"):
        hill(SortedSample(np.arange(5.0)), 5)


def test_grid_estimates_near_one_for_large_n():
    # brute-force check across grid sizes with k = floor(sqrt(n))
    for n in (1000, 5000, 20000):
        s = log_pareto_grid(n)
        k = select_k(KPolicy.sqrt(), n)
        assert abs(de_haan_resnick(s, k) - 1.0) < 0.1
        assert abs(hill(s, k) - 1.0) < 0.1


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

