"""Model catalog oracles: quantiles, auxiliary scales, mean excess,
norming constants, transforms and the slowly-varying-function properties."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from gumbeltail.errors import AuxNotVanishing, DomainError
from gumbeltail.estimators import KPolicy
from gumbeltail.models import (
    TailModel,
    _tail_cutoff,
    _iterated_exp,
    _iterated_log,
    get_model,
    iterated_c_n,
    iterated_log_model,
    lambda_ratio,
    mason_quantile,
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


CATALOG = [name for name in model_names() if name != "iterlog(p)"] + [
    "iterlog(1)", "iterlog(2)", "iterlog(3)",
]


def _built_model(name: str):
    """A catalog model, or "log(<catalog name>)" / "exp(<catalog name>)"
    for its transform."""
    for op, transform in (("log(", transform_log), ("exp(", transform_exp)):
        if name.startswith(op):
            return transform(get_model(name[len(op):-1]))
    return get_model(name)


@pytest.mark.parametrize(
    "name", CATALOG + [f"log({name})" for name in CATALOG] + ["exp(exp-of-log)"]
)
def test_catalog_quantile_domain(name):
    # every quantile the package builds, transformed ones included, rejects
    # u outside (0, 1], NaN included, and gives its lower endpoint (-inf
    # where the support is unbounded) at u = 1
    model = _built_model(name)
    for u in (math.nan, 0.0, -0.5, 1.5, [0.5, math.nan]):
        with pytest.raises(DomainError, match=r" quantile needs 0 < u <= 1$"):
            model.quantile(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert float(model.quantile(1.0)) == model.lower_endpoint


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
    flat = TailModel(name="flat", quantile=np.zeros_like)
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
], ids=["no-survival", "diverges", "outside-support", "underflow"])
def test_mean_excess_refusals(name, t, message):
    with pytest.raises(DomainError) as info:
        mean_excess_R(get_model(name), t)
    assert str(info.value) == message


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

    return TailModel(name=model.name, quantile=model.quantile, survival=survival,
                     lower_endpoint=model.lower_endpoint), calls


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


def test_norming_rejects_nonpositive_a_n():
    zero_aux = TailModel(name="zero-aux", quantile=lambda u: -np.log(u), aux_r=lambda u: 0.0)
    with pytest.raises(DomainError, match=r"^a_n = 0\.0 must be positive$"):
        norming(zero_aux, 1000, 31)


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
    nc = norming(get_model(name), 10**4, 100)
    assert nc.a_n > 0.0
    assert nc.b_n >= 0.0


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
    dead = TailModel(name="negative", quantile=lambda u: -1.0 - u,
                     survival=lambda x: np.clip(-1.0 - np.asarray(x, dtype=float), 0.0, 1.0))
    with pytest.raises(DomainError, match=r"a = P\(X > 0\) must lie in \(0, 1\], got 0.0"):
        transform_log(dead)
    # without a survival the mass above zero cannot be read off
    blind = TailModel(name="blind", quantile=lambda u: 1.0 / np.asarray(u, dtype=float))
    with pytest.raises(DomainError,
                       match=r"^P\(X > 0\) is unknown for quantile-only model 'blind'$"):
        transform_log(blind)


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
    assert mason_quantile(0.125) == 3.0          # dyadic point 2^-3
    assert mason_quantile(0.375) == 1.5          # 1 + (0.5 - 0.375) * 4
    assert mason_quantile(0.75) == 0.5           # 0 + (1 - 0.75) * 2
    assert mason_quantile(1.0) == 0.0


def test_mason_quantile_domain():
    for u in (0.0, -0.1, 1.0 + 1e-9, math.nan, [0.5, math.nan]):
        with pytest.raises(DomainError, match=r"mason quantile needs 0 < u <= 1"):
            mason_quantile(u)


def test_mason_continuity_at_dyadic_breakpoints():
    for m in range(1, 21):
        h = 2.0 ** -m
        delta = h * 1e-14
        left = mason_quantile(h - delta)
        right = mason_quantile(h + delta)
        assert abs(left - right) <= 1e-12
        assert mason_quantile(h) == float(m)


def test_mason_non_increasing():
    u = np.linspace(1e-6, 1.0, 4001)
    q = mason_quantile(u)
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


def test_iterated_log_spec_validation():
    # one depth rule, 1 <= p <= 3, with one message on both sides
    for p in (0, -1, 4):
        with pytest.raises(DomainError, match="must be 1, 2 or 3"):
            iterated_log_model(p)
        with pytest.raises(DomainError, match="must be 1, 2 or 3"):
            get_model(f"iterlog({p})")
    with pytest.raises(DomainError, match=r"^bad iterated-log depth in 'iterlog\(x\)'$"):
        get_model("iterlog(x)")


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
