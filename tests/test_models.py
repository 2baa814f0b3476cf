"""Model catalog oracles: quantiles, auxiliary scales, mean excess,
norming constants, transforms and the slowly-varying-function properties."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from scipy import special

from gumbeltail import models
from gumbeltail.errors import AuxNotVanishing, DomainError
from gumbeltail.estimators import KPolicy
from gumbeltail.models import (
    TailModel,
    _tail_cutoff,
    _iterated_exp,
    _iterated_log,
    get_model,
    iterated_c_n,
    lambda_ratio,
    mean_excess_R,
    model_names,
    norming,
    rho_numeric,
    transform_exp,
    transform_log,
)
from gumbeltail.normal import normal_sf, normal_upper_quantile

# Frozen oracles (derivations in comments; all recomputed independently here
# or in the session that froze them).
Z_999 = 3.090232306167813          # bisection on erfc at p = 0.999
RHO_NORMAL_001 = 0.2969923515892162  # u / phi(Q(1-u)) at u = 0.001
R_NORMAL_3 = 0.2830986549304342      # phi(3)/(1 - Phi(3)) - 3, exact mean excess
A_N_EOL = 0.14476482730108395        # 1 / log(1000)

GUMBEL_MODELS = ("exp-of-log", "normal")


def _phi(x: float) -> float:
    """The standard normal density."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# quantiles


def test_exp_of_log_quantile_unit_point():
    model = get_model("exp-of-log")
    assert float(model.quantile(math.exp(-math.e))) == pytest.approx(1.0, abs=1e-12)


def test_normal_quantile_examples():
    model = get_model("normal")
    assert float(model.quantile(0.5)) == pytest.approx(0.0, abs=1e-15)
    assert abs(float(model.quantile(0.001)) - Z_999) <= 1e-9


@pytest.mark.parametrize("name", ["exp-of-log", "normal", "pareto", "exponential",
                                  "gamma-tail", "mason", "log-normal", "iterlog(1)"])
def test_quantile_non_increasing(name):
    model = get_model(name)
    grid = np.array([1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.6, 0.9])
    values = [float(model.quantile(u)) for u in grid]
    assert all(a >= b for a, b in zip(values, values[1:]))


CATALOG = model_names()


def _built_model(name: str):
    """A catalog model, or "log(<catalog name>)" / "exp(<catalog name>)"
    for its transform."""
    for op, transform in (("log(", transform_log), ("exp(", transform_exp)):
        if name.startswith(op):
            return transform(get_model(name[len(op):-1]))
    return get_model(name)


# without the check, -log(u) is -0.693 at u = 2 and NaN at u = NaN
HAND_BUILT = TailModel(name="hand-built", upper_quantile=lambda u: -np.log(u))

# the lower endpoint is Q(0), the quantile at u = 1, for every model: -inf
# where the support is unbounded below, +0.0 (never -0.0) where it starts at 0
ENDPOINT_AT = {-math.inf: ["exp-of-log", "normal"]
               + [f"log({name})" for name in CATALOG if name != "pareto"],
               0.0: ["log-normal", "exponential", "gamma-tail", "mason", "iterlog(1)",
                     "iterlog(2)", "iterlog(3)", "log(pareto)", "exp(exp-of-log)", "hand-built"],
               1.0: ["pareto"]}


@pytest.mark.parametrize(
    "name", CATALOG + [f"log({name})" for name in CATALOG] + ["exp(exp-of-log)", "hand-built"]
)
def test_catalog_quantile_domain(name):
    # every quantile, of a catalog, transformed, renamed or hand-built model,
    # rejects u outside (0, 1], NaN included, naming the model it was called
    # on; the lower endpoint derived from it is pinned, sign of zero included
    model = HAND_BUILT if name == "hand-built" else _built_model(name)
    for u in (math.nan, 0.0, -0.5, 1.5, 2.0, [0.5, math.nan]):
        with pytest.raises(DomainError, match=rf"^{re.escape(name)} quantile needs 0 < u <= 1$"):
            model.quantile(u)
    (expected,) = [lo for lo, names in ENDPOINT_AT.items() if name in names]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lo = model.lower_endpoint
    assert type(lo) is float and lo == expected
    assert math.copysign(1.0, lo) == math.copysign(1.0, expected)


def test_lower_endpoint_is_derived_not_a_field():
    assert [field.name for field in dataclasses.fields(TailModel)] == [
        "name", "upper_quantile", "survival", "aux_r", "mean_excess_finite"]
    with pytest.raises(TypeError):
        TailModel(name="h", upper_quantile=lambda u: -np.log(u), lower_endpoint=0.0)
    # a renamed model derives its endpoint again, from the same quantile
    assert dataclasses.replace(get_model("pareto"), name="renamed").lower_endpoint == 1.0


# without the rule, r = 1 / u is -2.0 at u = -0.5 and inf at u = 0
HAND_BUILT_AUX = TailModel(name="hand-built", upper_quantile=lambda u: 1.0 / u,
                           aux_r=lambda u: 1.0 / u)


@pytest.mark.parametrize(
    "name", CATALOG + [f"log({name})" for name in CATALOG] + ["exp(exp-of-log)", "hand-built"]
)
def test_aux_needs_u_strictly_inside_the_unit_interval(name):
    # every aux, cataloged or numeric, of a catalog, transformed, renamed or
    # hand-built model, rejects u outside (0, 1), NaN included, naming the
    # model it was called on; before the rule normal gave a complex number
    # at u = 2, exponential 1.0 at NaN, others ZeroDivisionError
    model = HAND_BUILT_AUX if name == "hand-built" else _built_model(name)
    for u in (0.0, 1.0, 2.0, -0.5, math.nan):
        with pytest.raises(DomainError,
                           match=rf"^{re.escape(name)} aux needs 0 < u < 1, got u = {u}$"):
            model.aux(u)


@pytest.mark.parametrize("r,text", [(0.0, "0.0"), (-1.0, "-1.0"), (math.inf, "inf"),
                                    (math.nan, "nan"), (np.float64(-2.0), "-2.0")])
def test_aux_returns_only_a_positive_finite_scale(r, text):
    model = TailModel(name="bad-aux", upper_quantile=lambda u: -np.log(u), aux_r=lambda u: r)
    with pytest.raises(DomainError,
                       match=rf"^bad-aux aux r\(0\.25\) = {text} is not positive and finite$"):
        model.aux(0.25)
    good = TailModel(name="good-aux", upper_quantile=lambda u: -np.log(u),
                     aux_r=lambda u: np.float64(0.5))
    assert type(good.aux(0.25)) is float and good.aux(0.25) == 0.5


@pytest.mark.parametrize("r", [None, "0.5", True, np.True_])
def test_aux_refuses_an_r_that_is_not_real(r):
    # None and "0.5" raised TypeError from the range check; True was taken as 1
    model = TailModel(name="odd-aux", upper_quantile=lambda u: -np.log(u), aux_r=lambda u: r)
    with pytest.raises(DomainError) as info:
        model.aux(0.1)
    assert str(info.value) == f"odd-aux aux r(0.1) must be a real number, got {r!r}"
    ints = TailModel(name="int-aux", upper_quantile=lambda u: -np.log(u), aux_r=lambda u: np.int64(2))
    assert type(ints.aux(0.1)) is float and ints.aux(0.1) == 2.0


WITH_SURVIVAL = [name for name in CATALOG if name != "mason"]

# a hand-built model that states no support: before the endpoint was derived
# from the quantile, sf(-1.0) was e and mean_excess_R(h, -1.0) was 1.0
HAND_BUILT_SF = TailModel("h", lambda u: -np.log(u), survival=lambda x: np.exp(-x))


@pytest.mark.parametrize("name", WITH_SURVIVAL + [f"log({name})" for name in WITH_SURVIVAL] + [
    "exp(exp-of-log)", "exp(normal)", "exp(exponential)", "exp(pareto)", "h",
])
def test_survival_is_one_at_and_below_the_support(name):
    # sf clamps x to [lower_endpoint, inf), so no survival has to know its
    # support: S is exactly 1 at and below the endpoint and NaN stays NaN
    if name in ("exp(exponential)", "exp(pareto)"):
        with pytest.warns(AuxNotVanishing):
            model = _built_model(name)
    else:
        model = HAND_BUILT_SF if name == "h" else _built_model(name)
    lo = model.lower_endpoint
    start = lo if math.isfinite(lo) else -5.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (lo, lo - 1.0):
            assert float(model.sf(x)) == 1.0
        assert np.array_equal(model.sf(np.array([lo, lo - 1.0])), [1.0, 1.0])
        assert math.isnan(float(model.sf(math.nan)))
        grid = start + np.linspace(0.0, 10.0, 41)
        values = np.concatenate([np.ravel(model.sf(grid)), [float(model.sf(x)) for x in grid]])
        assert np.all((values >= 0.0) & (values <= 1.0))


@pytest.mark.parametrize("name", ["exp-of-log", "normal", "pareto", "exponential",
                                  "log-normal", "iterlog(1)"])
def test_cdf_quantile_round_trip(name):
    model = get_model(name)
    for u in (0.9, 0.5, 0.1, 1e-3, 1e-6):
        q = float(model.quantile(u))
        assert float(model.sf(q)) == pytest.approx(u, rel=1e-8)


# ---------------------------------------------------------------------------
# rho


def test_rho_exp_of_log_closed_form():
    model = get_model("exp-of-log")
    assert rho_numeric(model, math.exp(-10.0)) == pytest.approx(0.1, rel=1e-8)


def test_rho_normal_exact_derivative_oracle():
    # oracle rho(u) = u / phi(Q(1-u)) with phi the normal density
    model = get_model("normal")
    got = rho_numeric(model, 0.001)
    assert got == pytest.approx(RHO_NORMAL_001, rel=1e-8)
    assert RHO_NORMAL_001 == pytest.approx(0.001 / _phi(Z_999), rel=1e-12)


def test_rho_log_pareto_is_one():
    # d/du of log(1/u) gives rho identically one
    model = get_model("exponential")
    for u in (1e-8, 1e-4, 0.2):
        assert rho_numeric(model, u) == pytest.approx(1.0, rel=1e-8)


def test_rho_numeric_domain():
    model = get_model("exp-of-log")
    for u in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError, match=r"u must lie strictly inside \(0, 1\)"):
            rho_numeric(model, u)
    flat = TailModel(name="flat", upper_quantile=np.zeros_like)
    with pytest.raises(DomainError, match=r"^rho\(0\.1\) = -0\.0 is not positive for 'flat'$"):
        rho_numeric(flat, 0.1)


def test_rho_step_underflow():
    with pytest.raises(DomainError, match="too small for a stable difference step"):
        rho_numeric(get_model("exp-of-log"), 1e-12)


@pytest.mark.parametrize("name", ["exp-of-log", "exponential", "gamma-tail", "pareto"])
def test_rho_agrees_with_exact_aux(name):
    # wherever the cataloged closed form is exact, the finite difference
    # must reproduce it to 1e-4 relative (it does far better)
    model = get_model(name)
    for u in (1e-8, 1e-5, 1e-2):
        assert rho_numeric(model, u) == pytest.approx(model.aux_r(u), rel=1e-4)


# ---------------------------------------------------------------------------
# mean excess


def test_mean_excess_exponential_memoryless():
    assert mean_excess_R(get_model("exponential"), 5.0) == pytest.approx(1.0, rel=1e-8)


def test_mean_excess_normal():
    got = mean_excess_R(get_model("normal"), 3.0)
    assert got == pytest.approx(R_NORMAL_3, rel=1e-8)
    # closed-form oracle and the 1/t asymptotic head (slow: ~15% off at t=3)
    assert R_NORMAL_3 == pytest.approx(
        _phi(3.0) / float(normal_sf(3.0)) - 3.0, rel=1e-12
    )
    assert abs(3.0 * got - 1.0) < 0.16


def test_mean_excess_exp_of_log():
    # oracle: R(t) = e^s E1(s) with s = e^t
    s = math.exp(2.0)
    oracle = math.exp(s) * float(special.exp1(s))
    assert mean_excess_R(get_model("exp-of-log"), 2.0) == pytest.approx(oracle, rel=1e-8)


def test_mean_excess_requires_cdf():
    with pytest.raises(DomainError, match="model 'mason' has no survival function"):
        mean_excess_R(get_model("mason"), 2.0)


def test_mean_excess_tail_underflow():
    with pytest.raises(DomainError, match="survival underflows at t=40.0"):
        mean_excess_R(get_model("normal"), 40.0)


def test_mean_excess_diverges_for_pareto():
    with pytest.raises(DomainError):
        mean_excess_R(get_model("pareto"), 2.0)


@pytest.mark.parametrize("name,t,message", [
    ("mason", 2.0, "model 'mason' has no survival function"),
    ("pareto", 2.0, "mean excess diverges for model 'pareto'"),
    ("exponential", -1.0, "t=-1.0 outside the support of 'exponential'"),
    ("normal", 40.0, "survival underflows at t=40.0 for 'normal'"),
    ("h", -1.0, "t=-1.0 outside the support of 'h'"),
], ids=["no-survival", "diverges", "outside-support", "underflow", "derived-support"])
def test_mean_excess_refusals(name, t, message):
    with pytest.raises(DomainError) as info:
        mean_excess_R(HAND_BUILT_SF if name == "h" else get_model(name), t)
    assert str(info.value) == message


def test_mean_excess_of_a_survival_that_never_falls():
    # the doubling search for the cut-off gave up past 1e300 and integrated
    # up to there, returning R = 1.34e300
    flat = TailModel(name="flat-tail", upper_quantile=lambda u: -np.log(u),
                     survival=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5))
    with pytest.raises(DomainError) as info:
        mean_excess_R(flat, 1.0)  # t = 0.0 is the derived endpoint, outside the support
    assert str(info.value) == "survival of 'flat-tail' never falls below 5e-19 above t=1.0"


def _tail_cutoff_80_steps(model, t, floor):
    """_tail_cutoff as it was before its bisection stopped early: always 80
    steps, the last ~25 of them on a bracket that no longer shrinks."""
    hi = max(abs(t), 1.0)
    step = max(abs(t), 1.0)
    while float(model.sf(hi)) > floor:
        step *= 2.0
        hi = t + step
        if step > 1e300:
            return hi
    lo = t
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if float(model.sf(mid)) > floor:
            lo = mid
        else:
            hi = mid
    return hi


def _counting_sf(model):
    calls = []

    def survival(x):
        calls.append(x)
        return model.survival(x)

    return TailModel(name=model.name, upper_quantile=model.upper_quantile,
                     survival=survival), calls


# starting points t = Q(1 - u), where mean_excess_R starts its search
CUTOFF_CASES = [(name, u) for name in ("normal", "exponential", "exp-of-log", "log-normal",
                                       "iterlog(1)", "iterlog(2)", "iterlog(3)")
                for u in (0.5, 1e-2, 1e-4, 1e-8, 1e-16, 1e-30)]


def test_tail_cutoff_stops_when_the_bracket_stops_shrinking():
    # the early stop must give the 80-step result bit for bit, with fewer
    # survival calls: the bracket of a double stops shrinking after ~55 steps
    calls_now = calls_80 = 0
    for name, u in CUTOFF_CASES:
        model = get_model(name)
        t = float(model.quantile(u))
        floor = 1e-18 * float(model.sf(t))
        counted_now, now = _counting_sf(model)
        counted_80, old = _counting_sf(model)
        assert _tail_cutoff(counted_now, t, floor) == _tail_cutoff_80_steps(counted_80, t, floor)
        assert len(now) <= len(old) - 20
        calls_now, calls_80 = calls_now + len(now), calls_80 + len(old)
    assert calls_now <= 0.75 * calls_80


# ---------------------------------------------------------------------------
# norming constants


def test_norming_exp_of_log_closed_form():
    nc = norming(get_model("exp-of-log"), 10**6, 1000)
    assert nc.a_n == pytest.approx(A_N_EOL, rel=1e-12)
    assert nc.a_n * nc.b_n == pytest.approx(math.log(2.0), abs=1e-12)
    assert nc.lam == pytest.approx(0.5, abs=1e-12)
    assert nc.b_n == pytest.approx(math.log(2.0) * math.log(1000.0), rel=1e-12)


def test_norming_rejects_k_one():
    with pytest.raises(DomainError, match="need 2 <= k < n, got k=1, n=1000"):
        norming(get_model("exp-of-log"), 1000, 1)


@pytest.mark.parametrize("n,k,name", [("100", 10, "n"), (None, 10, "n"), (True, 10, "n"),
                                      (1000, "10", "k"), (1000, None, "k"), (1000, True, "k"),
                                      (1000, np.bool_(True), "k"), (np.bool_(True), 10, "n")])
def test_norming_refuses_an_n_or_k_that_is_not_a_real_number(n, k, name):
    value = n if name == "n" else k
    message = rf"^{name} must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match=message):
        norming(get_model("normal"), n, k)


def test_norming_takes_real_and_numpy_n_and_k():
    model = get_model("exp-of-log")
    expected = norming(model, 10**6, 1000)
    for n, k in ((1e6, 1000.0), (np.int64(10**6), np.int32(1000)),
                 (np.float64(1e6), np.float32(1000))):
        nc = norming(model, n, k)
        assert (nc.a_n, nc.b_n, nc.lam) == (expected.a_n, expected.b_n, expected.lam)


@pytest.mark.parametrize("name", ["normal", "exp-of-log"])
def test_norming_takes_a_float32_n(name):
    # comparing a float32 n with the largest float cast that float to
    # float32 and warned of an overflow; k/n and 1/n keep float32 precision
    model = get_model(name)
    expected = norming(model, 10**6, 1000)
    for n, k in ((np.float32(1e6), 1000), (np.float32(1e6), np.float32(1000))):
        nc = norming(model, n, k)
        assert nc.a_n == pytest.approx(expected.a_n, rel=1e-7)
        assert nc.b_n == pytest.approx(expected.b_n, rel=1e-7)
        assert nc.lam == pytest.approx(expected.lam, rel=1e-7)


def test_norming_rejects_nonpositive_a_n():
    # a_n = r(k/n), and aux refuses an r that is not positive
    zero_aux = TailModel(name="zero-aux", upper_quantile=lambda u: -np.log(u), aux_r=lambda u: 0.0)
    with pytest.raises(DomainError,
                       match=r"^zero-aux aux r\(0\.031\) = 0\.0 is not positive and finite$"):
        norming(zero_aux, 1000, 31)


def test_an_infinite_aux_leaves_lambda_unknown():
    # r(1/n) of exp(log-normal) overflows to inf at this n (the exp scale is
    # finite, its product with R is not); both returned lambda = inf before
    n = 37671299032
    with pytest.warns(AuxNotVanishing):
        model = transform_exp(get_model("log-normal"))
    nc = norming(model, n, 1000)
    assert nc.lam is None and math.isfinite(nc.a_n) and math.isfinite(nc.b_n)
    with pytest.raises(DomainError, match=r"^exp\(log-normal\) aux r\(2\.65454e-11\) = inf "
                                          r"is not positive and finite$"):
        lambda_ratio(model, KPolicy.sqrt(), n)


def test_norming_normal_asymptotic_scale():
    # catalog aux for the normal tail is (2 log(n/k))^(-1/2)
    nc = norming(get_model("normal"), 10**6, 190)
    assert nc.a_n == pytest.approx((2.0 * math.log(10**6 / 190)) ** -0.5, rel=1e-12)
    assert abs(nc.a_n - 0.241564) <= 1e-3
    # cross-check against the exact derivative: same order, agreeing in the limit
    assert rho_numeric(get_model("normal"), 190 / 10**6) == pytest.approx(nc.a_n, rel=0.15)


def test_norming_real_valued_k():
    # with k = sqrt(n) kept real, a_n b_n collapses to log 2 exactly
    for n in (10**4, 10**6, 10**8):
        nc = norming(get_model("exp-of-log"), n, math.sqrt(n))
        assert abs(nc.a_n * nc.b_n - math.log(2.0)) <= 1e-12


def test_norming_integer_k_deviation_bound():
    # at perfect squares the bound degenerates to zero (k = sqrt(n) exactly),
    # hence the float epsilon; the non-square sizes exercise the flooring
    for n in (10**4, 2 * 10**4, 10**6, 5 * 10**6, 10**8):
        k = math.floor(math.sqrt(n))
        nc = norming(get_model("exp-of-log"), n, k)
        bound = 2.0 * abs(math.log(n / k**2)) / math.log(n)
        assert abs(nc.a_n * nc.b_n - math.log(2.0)) <= bound + 1e-12


@pytest.mark.parametrize("name", ["exp-of-log", "normal", "exponential", "pareto",
                                  "log-normal", "iterlog(1)", "mason"])
def test_norming_b_n_nonnegative(name):
    # norming evaluates each quantile pair in one call; that must equal two
    # scalar calls bit for bit, for b_n and for mason's numeric a_n
    model = get_model(name)
    n, k = 10**4, 100
    nc = norming(model, n, k)
    assert nc.a_n > 0.0
    assert nc.b_n >= 0.0
    assert nc.b_n == (float(model.quantile(1.0 / n)) - float(model.quantile(k / n))) / nc.a_n
    if name == "mason":
        u = k / n
        h = max(u * 1e-5, 1e-12)
        g_plus, g_minus = float(model.quantile(u + h)), float(model.quantile(u - h))
        assert nc.a_n == -u * (g_plus - g_minus) / (2.0 * h)


# ---------------------------------------------------------------------------
# lambda ratio


def test_lambda_ratio_sqrt_exact():
    # k = sqrt(n) exactly at n = 1e4 and 1e6: ratio log(n/k)/log(n) = 1/2
    model = get_model("exp-of-log")
    for n in (10**4, 10**6):
        assert lambda_ratio(model, KPolicy.sqrt(), n) == pytest.approx(0.5, abs=1e-12)


def test_lambda_ratio_logpow_grid_rises_to_one():
    model = get_model("exp-of-log")
    got = lambda_ratio(model, KPolicy.log_power(2.0), 10**6)
    assert got == pytest.approx(math.log(10**6 / 190) / math.log(10**6), abs=1e-12)
    grid = [lambda_ratio(model, KPolicy.log_power(2.0), 10**e) for e in (4, 6, 8, 10, 12)]
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert all(v < 1.0 for v in grid)


def test_lambda_ratio_constant_aux_is_one():
    model = get_model("exponential")
    for n in (10**3, 10**6):
        assert lambda_ratio(model, KPolicy.sqrt(), n) == 1.0


# ---------------------------------------------------------------------------
# transforms


def test_transform_log_pareto_gives_log_pareto():
    log_pareto = transform_log(get_model("pareto"))
    for u in (1e-6, 1e-3, 0.3, 0.9):
        assert float(log_pareto.quantile(u)) == pytest.approx(math.log(1.0 / u), rel=1e-12)


def test_transform_log_normal_with_half_mass():
    # the mass a = P(Z > 0) = 1/2 renormalizes the survival of log Z too
    model = transform_log(get_model("normal"))
    assert float(model.sf(math.log(Z_999))) == pytest.approx(0.002, rel=1e-12)


def test_transform_log_default_mass_from_cdf():
    # P(Z > 0) = 1/2 read off the survival at zero
    model = transform_log(get_model("normal"))
    assert float(model.quantile(0.002)) == pytest.approx(math.log(Z_999), rel=1e-12)


def test_transform_log_rejects_nonpositive_endpoint():
    # support [-2, -1]: no mass above zero to renormalize by
    dead = TailModel(name="negative", upper_quantile=lambda u: -1.0 - u,
                     survival=lambda x: np.clip(-1.0 - np.asarray(x, dtype=float), 0.0, 1.0))
    with pytest.raises(DomainError, match=r"a = P\(X > 0\) must lie in \(0, 1\], got 0.0"):
        transform_log(dead)
    # without a survival the mass above zero cannot be read off a support
    # that starts below zero
    blind = TailModel(name="blind", upper_quantile=lambda u: -np.log(u) - 1.0)
    with pytest.raises(DomainError,
                       match=r"^P\(X > 0\) is unknown for quantile-only model 'blind'$"):
        transform_log(blind)
    # 1/u starts at 1, so all its mass is above zero: a = 1, no survival needed
    above = transform_log(TailModel(name="above", upper_quantile=lambda u: 1.0 / u))
    assert above.lower_endpoint == 0.0
    assert float(above.quantile(0.25)) == math.log(4.0)


def test_transform_exp_inverts_exp_of_log():
    # exp(log log(1/u)) is the standard exponential quantile again
    composed = transform_exp(get_model("exp-of-log"))
    reference = get_model("exponential")
    for u in (1e-8, 1e-4, 0.05, 0.4, 0.9):
        assert float(composed.quantile(u)) == pytest.approx(
            float(reference.quantile(u)), rel=1e-14
        )


def test_transform_exp_warns_when_aux_stays_flat():
    with pytest.warns(AuxNotVanishing):
        transform_exp(get_model("exponential"))


def test_transform_exp_of_flat_aux_has_no_finite_mean_excess():
    # exp of a unit exponential is the unit Pareto, whose mean excess diverges;
    # its log is the log-Pareto again, with a_n = r(k/n) = 1
    with pytest.warns(AuxNotVanishing):
        model = transform_exp(get_model("exponential"))
    assert not model.mean_excess_finite
    with pytest.raises(DomainError, match="mean excess diverges for model 'exp\\(exponential\\)'"):
        mean_excess_R(model, 10.0)
    a_n = norming(transform_log(model), 10**4, 100).a_n
    assert a_n == norming(transform_log(get_model("pareto")), 10**4, 100).a_n
    assert a_n == pytest.approx(1.0, rel=1e-9)


def test_exp_scale_aux_overflow_is_domain_error():
    # Q(1 - 2e-12) of log-normal is 1029.9, past the largest argument of exp
    with pytest.warns(AuxNotVanishing):
        model = transform_exp(get_model("log-normal"))
    with pytest.raises(DomainError, match=r"^exp-scale aux of 'log-normal' overflows: "
                                          r"Q\(1 - 2e-12\) = 1029\.86"):
        norming(model, 10**12, 2)
    with pytest.raises(DomainError, match=r"^exp-scale aux of 'log-normal' overflows: "
                                          r"Q\(1 - 1e-12\) = 1135\.10"):
        lambda_ratio(model, KPolicy.sqrt(), 10**12)


@pytest.mark.parametrize("name", ["overflows", "reaches-inf"])
def test_transform_exp_takes_a_raising_aux_as_not_vanishing(name):
    # an r that overflows, or that aux refuses at a probe point, is no
    # evidence that r vanishes: exp warns and marks the mean excess divergent
    def overflows(u):
        raise OverflowError("math range error")

    def reaches_inf(u):
        return 1.0 if u > 1e-7 else math.inf

    aux = overflows if name == "overflows" else reaches_inf
    steep = TailModel(name=name, upper_quantile=lambda u: -np.log(u), aux_r=aux)
    with pytest.warns(AuxNotVanishing, match=f"auxiliary scale of '{name}' does not vanish"):
        model = transform_exp(steep)
    assert not model.mean_excess_finite


def test_transform_exp_normal_is_log_normal():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # must not warn: normal aux vanishes
        model = transform_exp(get_model("normal"))
    assert float(model.quantile(0.001)) == pytest.approx(math.exp(Z_999), rel=1e-12)
    catalog = get_model("log-normal")
    assert float(catalog.quantile(0.001)) == float(model.quantile(0.001))


def test_transformed_aux_scales():
    # s(u) = R(Q(1-u)) / Q(1-u) for the log transform; for the exponential
    # base with R = 1 this is 1 / log(1/u)
    log_exp = transform_log(get_model("exponential"))
    assert log_exp.aux_r is not None
    assert float(log_exp.aux_r(1e-4)) == pytest.approx(1.0 / math.log(1e4), rel=1e-6)
    # t(u) = exp(Q(1-u)) R(Q(1-u)) for the exp transform of exp-of-log:
    # exp(Q) = log(1/u) and R(Q) = e^s E1(s) at s = log(1/u)
    exp_eol = transform_exp(get_model("exp-of-log"))
    s = math.log(1e4)
    oracle = s * math.exp(s) * float(special.exp1(s))
    assert float(exp_eol.aux_r(1e-4)) == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------------------
# mason


def test_mason_quantile_examples():
    mason = get_model("mason").quantile
    assert mason(0.125) == 3.0          # dyadic point 2^-3
    assert mason(0.375) == 1.5          # 1 + (0.5 - 0.375) * 4
    assert mason(0.75) == 0.5           # 0 + (1 - 0.75) * 2
    assert mason(1.0) == 0.0


def test_mason_quantile_domain():
    mason = get_model("mason").quantile
    for u in (0.0, -0.1, 1.0 + 1e-9, math.nan, [0.5, math.nan]):
        with pytest.raises(DomainError, match=r"mason quantile needs 0 < u <= 1"):
            mason(u)


def test_mason_continuity_at_dyadic_breakpoints():
    mason = get_model("mason").quantile
    for m in range(1, 21):
        h = 2.0 ** -m
        delta = h * 1e-14
        left = mason(h - delta)
        right = mason(h + delta)
        assert abs(left - right) <= 1e-12
        assert mason(h) == float(m)


def test_mason_non_increasing():
    u = np.linspace(1e-6, 1.0, 4001)
    q = get_model("mason").quantile(u)
    assert np.all(np.diff(q) <= 1e-12)


# ---------------------------------------------------------------------------
# iterated-log model


def test_iterated_c_n_depth_one():
    assert iterated_c_n(1, 10**6) == pytest.approx(2.0 * math.log(10**6), rel=1e-14)


def test_iterated_c_n_depth_two():
    # (2 log n) * log((2 log n)^(1/2)) = (2 log n) * log(2 log n)/2
    base = 2.0 * math.log(10**6)
    assert iterated_c_n(2, 10**6) == pytest.approx(base * 0.5 * math.log(base), rel=1e-12)


def test_iterated_c_n_guards():
    with pytest.raises(DomainError):
        iterated_c_n(3, 16)
    with pytest.raises(DomainError):
        iterated_c_n(1, 15)
    with pytest.raises(DomainError, match="must be 1, 2 or 3"):
        iterated_c_n(0, 10**6)
    # n is real-valued, but a NaN or infinite n is refused, not passed on as
    # a NaN or inf factor; an int beyond the float range is still a finite n
    for p in (1, 2, 3):
        for n in (math.nan, math.inf):
            with pytest.raises(DomainError, match=rf"^need 16 <= n < inf, got {n}$"):
                iterated_c_n(p, n)
        assert math.isfinite(iterated_c_n(p, 10**400))
    # an n that is not an int, float or numpy real number is refused by name
    for n in ("100", None, True, np.bool_(True)):
        message = rf"^n must be a real number, got {re.escape(repr(n))}$"
        with pytest.raises(DomainError, match=message):
            iterated_c_n(1, n)
    for n in (np.float64(1e6), np.int64(10**6)):
        assert iterated_c_n(1, n) == iterated_c_n(1, 1e6)


def test_iterated_log_spec_validation():
    # the catalog holds depths 1 to 3 under their exact names; any other
    # depth or spelling is an unknown model
    for name in ("iterlog(0)", "iterlog(4)", "iterlog(x)", "iterlog(02)", "iterlog(p)"):
        with pytest.raises(DomainError, match=rf"^unknown model {re.escape(repr(name))}; "):
            get_model(name)


def test_iterlog_model_endpoints_and_monotonicity():
    model = get_model("iterlog(1)")
    assert float(model.quantile(1.0)) == 0.0
    grid = [float(model.quantile(u)) for u in (1e-8, 1e-4, 0.01, 0.5, 0.99)]
    assert all(a > b for a, b in zip(grid, grid[1:]))
    # tail mass: P(Z > e_0(1)) = 1 - Phi(1)
    assert float(model.sf(float(model.quantile(0.25)))) == pytest.approx(0.25, rel=1e-6)


def test_iterlog_quantile_nonnegative_near_endpoint():
    # the final iterated log may round a sub-ulp below zero; the model pins
    # it to the support endpoint
    for p in (1, 2, 3):
        model = get_model(f"iterlog({p})")
        for v in np.concatenate([1.0 - np.geomspace(1e-16, 1e-6, 25), [1.0]]):
            assert float(model.quantile(float(v))) >= 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_iterlog_quantile_bit_pin(p):
    # the array quantile must equal the scalar math.log chain bit for bit;
    # an np.log chain differs by an ulp on some inputs and fails this
    m = float(normal_sf(_iterated_exp(1.0, p - 1)))
    v = np.geomspace(1e-15, 1.0, 10_002)[1:-1]
    expected = [max(_iterated_log(float(normal_upper_quantile(m * x)), p), 0.0) for x in v]
    assert np.array_equal(get_model(f"iterlog({p})").quantile(v), expected)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_iterlog_survival_bit_pin(p):
    # the survival feeds the log-scale quadrature aux, so it must equal the
    # scalar math.exp chain bit for bit below the cut-off too
    model = get_model(f"iterlog({p})")
    m = float(normal_sf(_iterated_exp(1.0, p - 1)))
    v = np.linspace(0.0, _iterated_log(40.0, p), 2_001)[1:-1]
    expected = [float(normal_sf(_iterated_exp(float(x), p))) / m for x in v]
    assert np.array_equal(model.sf(v), expected)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_iterlog_survival_is_a_probability_everywhere(p):
    model = get_model(f"iterlog({p})")
    assert 0.0 <= float(model.sf(10.0)) <= 1.0
    assert float(model.sf(1e300)) == 0.0
    got = np.asarray(model.sf(np.array([-1.0, 0.0, 0.3, 10.0, 1e300])))
    assert np.all((got >= 0.0) & (got <= 1.0))
    assert got[0] == 1.0 and got[1] == 1.0 and got[4] == 0.0
    # past the cut-off e_p(v) > 40 the normal tail is 0.0
    assert float(model.sf(_iterated_log(40.0, p) * (1.0 + 1e-12))) == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
def test_iterlog_aux_inverts_iterated_c_n(p):
    aux = get_model(f"iterlog({p})").aux_r
    for n in (10**4, 10**6, 10**9):
        assert aux(1.0 / n) * iterated_c_n(p, n) == pytest.approx(1.0, rel=1e-14)


def test_iterlog_aux_names_the_non_positive_factor():
    # 2 log(1/u) < e^2 makes log_2 of the root negative for p = 3
    with pytest.raises(DomainError, match="factor"):
        get_model("iterlog(3)").aux_r(0.1)
    # u = 1, where the root of 2 log(1/u) is 0, is refused by the aux rule;
    # just below it the root is positive and its log the first factor
    with pytest.raises(DomainError, match=r"^iterlog\(2\) aux needs 0 < u < 1, got u = 1\.0$"):
        get_model("iterlog(2)").aux(1.0)
    with pytest.raises(DomainError, match=r"^iterated-log factor log_1\("):
        get_model("iterlog(2)").aux(1.0 - 2.0**-53)


def test_iterated_log_is_only_given_positive_arguments(monkeypatch):
    # _iterated_log has no guard of its own. aux passes the root of
    # 2 log(1/u) > 0 (1/u > 1 for every double u < 1), and each log_h is a
    # factor checked positive before log_{h+1} is taken; the quantile's log
    # chain starts at Q_Z(1 - m u) >= e_{p-1}(1); iterated_c_n at 2 log n
    # with n >= 16; the survival cut-off at 40
    seen = []

    def logging_iterated_log(x, p):
        for _ in range(p):
            seen.append(x)
            x = math.log(x)
        return x

    monkeypatch.setattr(models, "_iterated_log", logging_iterated_log)
    for p in (1, 2, 3):
        model = get_model(f"iterlog({p})")
        model.quantile(np.array([5e-324, 1e-300, 1e-12, 0.1, 0.5, 1.0 - 2.0**-53, 1.0]))
        calls = [lambda u=u: model.aux(u)
                 for u in (5e-324, 1e-300, 1e-12, 1e-4, 0.1, 0.5, 0.9, 1.0 - 2.0**-53)]
        calls += [lambda n=n: iterated_c_n(p, n) for n in (16, 10**6, 10**300)]
        for call in calls:
            try:
                call()
            except DomainError:  # a factor <= 0, caught before its log is taken
                pass
    assert len(seen) > 50 and min(seen) > 0.0


def test_get_model_unknown_name():
    with pytest.raises(DomainError):
        get_model("nosuch")
    assert "pareto" in model_names()


# ---------------------------------------------------------------------------
# slowly-varying / limit properties


@pytest.mark.parametrize("name", GUMBEL_MODELS)
def test_aux_vs_mean_excess_ratio(name):
    # r(u) / R(Q(1-u)) sits within 10% of one deep in the tail and its
    # distance to one shrinks along the grid
    model = get_model(name)
    ratios = []
    for u in (1e-4, 1e-6, 1e-8):
        q = float(model.quantile(u))
        ratios.append(float(model.aux_r(u)) / mean_excess_R(model, q))
    assert 0.9 <= ratios[-1] <= 1.1
    gaps = [abs(r - 1.0) for r in ratios]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("name", ["exp-of-log", "normal", "exponential", "iterlog(1)"])
@pytest.mark.parametrize("lam_s", [2.0, 10.0])
def test_aux_slowly_varying(name, lam_s):
    model = get_model(name)
    gaps = []
    for e in range(3, 11):
        u = 10.0 ** -e
        ratio = float(model.aux_r(lam_s * u)) / float(model.aux_r(u))
        gaps.append(abs(ratio - 1.0))
    assert all(a >= b - 1e-15 for a, b in zip(gaps, gaps[1:]))
    # convergence is logarithmic: ratio gap <~ log(lam_s)/log(1/(lam_s u))
    limit = math.log(lam_s) / (math.log(1e10) - math.log(lam_s))
    assert gaps[-1] <= 1.01 * limit


def test_normal_quantile_asymptotic_head():
    # Q(1-u) / sqrt(2 log(1/u)) climbs toward one as u drops
    gaps = []
    for e in (4, 6, 8, 10):
        u = 10.0 ** -e
        ratio = float(normal_upper_quantile(u)) / math.sqrt(2.0 * math.log(1.0 / u))
        gaps.append(abs(ratio - 1.0))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_normal_rho_asymptotic_head():
    # rho(u) * sqrt(2 log(1/u)) falls toward one as u drops
    model = get_model("normal")
    gaps = []
    for e in (4, 6, 8, 10):
        u = 10.0 ** -e
        ratio = rho_numeric(model, u) * math.sqrt(2.0 * math.log(1.0 / u))
        gaps.append(abs(ratio - 1.0))
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
