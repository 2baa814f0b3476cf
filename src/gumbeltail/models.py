"""Distribution catalog: upper-tail quantiles, auxiliary scale functions,
norming constants and the log/exp transform calculus.

Every model exposes its quantile in upper-tail form, ``quantile(u) =
Q(1 - u)``, non-increasing in u. The auxiliary function r(u) is the slowly
varying scale of the spacing between high quantiles; it is cataloged in
closed form where one exists, and for the normal family that form is an
asymptotic head rather than the exact derivative. Otherwise r is recovered
numerically, preferring the derivative form rho(u) = u Q'(1 - u) and
falling back to the mean excess R(Q(1 - u)) by quadrature. The three
routes agree in the u -> 0 limit.

Only the quadrature route loads scipy.integrate, when it first runs; the
normal-family quantiles and survivals load scipy.special (see normal.py).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import estimators
from .errors import AuxNotVanishing, DomainError
from .estimators import _as_int, _as_real, _as_real_array, _check_k
from .normal import normal_sf, normal_upper_quantile

# Survival values below this fraction of the start point are treated as
# numerically dead mass when truncating tail integrals; keeps R(t) stable
# for doubly-exponential tails.
_TAIL_TRUNCATION = 1e-18
_QUAD_RTOL = 1e-8


def _quantile_arg(u, name: str) -> np.ndarray:
    """u as a float array, every entry in (0, 1], where each model's quantile
    is defined; u = 1 gives the lower endpoint. Raises DomainError otherwise,
    NaN included, and a u that is not real. A 0-d u is compared as a float,
    which is cheaper."""
    arr = np.asarray(_as_real_array(u, "u"))
    if not (0.0 < float(arr) <= 1.0 if arr.ndim == 0 else np.all((arr > 0.0) & (arr <= 1.0))):
        raise DomainError(f"{name} quantile needs 0 < u <= 1")
    return arr


@dataclass(frozen=True)
class TailModel:
    """A named distribution family seen through its upper tail.

    Every model, however it was built, follows the rules of its three tail
    methods, and raises DomainError naming itself where an input breaks one:
    quantile(u) = Q(1 - u) checks that u lies in (0, 1] and passes it to
    upper_quantile as a float array; sf clamps x to the support
    [lower_endpoint, +inf), so survival, 1 - F(x), need only be right on it;
    aux(u), the auxiliary scale r (aux_r when cataloged, else rho_numeric),
    takes a real u strictly inside (0, 1) and returns only a positive finite r.
    survival is optional and needed only where r must come from quadrature.
    """

    name: str
    upper_quantile: Callable[[np.ndarray], np.ndarray | float]
    survival: Callable[[np.ndarray | float], np.ndarray | float] | None = None
    aux_r: Callable[[float], float] | None = None
    mean_excess_finite: bool = True

    @cached_property
    def lower_endpoint(self) -> float:
        """Q(0), where the support starts: upper_quantile at u = 1 as a float,
        -inf when unbounded (+ 0.0 turns -0.0 into 0.0)."""
        return float(self.upper_quantile(np.asarray(1.0))) + 0.0

    def quantile(self, u):
        """Q(1 - u) for u in (0, 1]; raises DomainError, naming this model,
        for any other u, NaN included."""
        return self.upper_quantile(_quantile_arg(u, self.name))

    def sf(self, x):
        """Survival 1 - F(x), clamping x to [lower_endpoint, inf) first (a float
        by max, cheaper than np.maximum): 1 at and below the endpoint, NaN at
        NaN. Raises DomainError for a quantile-only model or an x that is not real."""
        if self.survival is None:
            raise DomainError(f"model {self.name!r} has no survival function")
        lo = self.lower_endpoint
        if isinstance(x, float):
            x = max(x, lo)
        else:
            x = np.maximum(_as_real_array(x, "x"), lo)
        return self.survival(x)

    def aux(self, u: float) -> float:
        """r(u) as a float, for a real 0 < u < 1 (NaN fails) and 0 < r < inf only."""
        if not 0.0 < _as_real(u, "u") < 1.0:
            raise DomainError(f"{self.name} aux needs 0 < u < 1, got u = {u}")
        r = rho_numeric(self, u) if self.aux_r is None else self.aux_r(u)
        if not isinstance(r, float):  # the name is formatted only off the float path
            r = _as_real(r, f"{self.name} aux r({u:g})")
        if not 0.0 < r < math.inf:
            raise DomainError(f"{self.name} aux r({u:g}) = {r} is not positive and finite")
        return float(r)


@dataclass(frozen=True)
class NormingConstants:
    """Scale a_n = r(k/n), center b_n = (Q(1-1/n) - Q(1-k/n)) / a_n and the
    finite-n scale ratio lam = r(1/n) / r(k/n) (None when not computable)."""

    a_n: float
    b_n: float
    lam: float | None
    n: int
    k: float


def rho_numeric(model: TailModel, u: float) -> float:
    """u Q'(1 - u) by central finite difference with relative step 1e-5.

    Agrees with the cataloged aux_r to 1e-4 relative wherever that form is
    exact; against asymptotic-only forms the agreement holds in the limit.
    """
    if not 0.0 < _as_real(u, "u") < 1.0:
        raise DomainError(f"u must lie strictly inside (0, 1), got {u}")
    if u < 1e-11:
        raise DomainError(f"u={u} too small for a stable difference step")
    h = max(u * 1e-5, 1e-12)
    g_plus, g_minus = model.quantile(np.array([u + h, u - h]))
    rho = -u * (float(g_plus) - float(g_minus)) / (2.0 * h)
    if not rho > 0.0:
        raise DomainError(f"rho({u}) = {rho} is not positive for {model.name!r}")
    return rho


def _tail_cutoff(model: TailModel, t: float, floor: float) -> float:
    """Smallest point where the survival drops below floor, by doubling
    then bisection from sf(t) > floor. The bisection keeps sf(lo) > floor
    >= sf(hi), so it stops once no double lies strictly between lo and hi
    (about 55 steps), or after 80."""
    hi = max(abs(t), 1.0)
    step = max(abs(t), 1.0)
    while float(model.sf(hi)) > floor:
        step *= 2.0
        hi = t + step
        if step > 1e300:
            raise DomainError(f"survival of {model.name!r} never falls below {floor:g} above t={t}")
    lo = t
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if float(model.sf(mid)) > floor:
            lo = mid
        else:
            hi = mid
    return hi


def mean_excess_R(model: TailModel, t: float) -> float:
    """Mean excess R(t) = E[X - t | X > t] by adaptive quadrature of the
    survival function on (t, inf), truncated where the survival falls below
    1e-18 of its value at t, all in doubles; DomainError if it never does."""
    t = float(_as_real(t, "t"))
    st = float(model.sf(t))
    if not model.mean_excess_finite:
        raise DomainError(f"mean excess diverges for model {model.name!r}")
    if not model.lower_endpoint < t < math.inf:
        raise DomainError(f"t={t} outside the support of {model.name!r}")
    if st <= 1e-300:
        raise DomainError(f"survival underflows at t={t} for {model.name!r}")
    upper = _tail_cutoff(model, t, _TAIL_TRUNCATION * st)
    from scipy import integrate  # here, not at module level: it is slow to import

    integral, _ = integrate.quad(
        lambda v: float(model.sf(v)), t, upper, epsrel=_QUAD_RTOL, limit=200
    )
    return integral / st


def norming(model: TailModel, n: int, k: float) -> NormingConstants:
    """Norming constants for a model at (n, k); k may be real-valued.

    a_n = r(k/n) with r = model.aux; b_n from the quantile difference; lam
    is the finite-n scale ratio r(1/n) / r(k/n), or None when it cannot be
    evaluated. Raises DomainError unless 0 < a_n < inf and b_n is finite.
    """
    _check_k(k, n)
    uk = k / n
    a_n = model.aux(uk)
    q_top, q_k = model.quantile(np.array([1.0 / n, uk]))
    b_n = (float(q_top) - float(q_k)) / a_n
    if not math.isfinite(b_n):
        raise DomainError(f"b_n = {b_n} is not finite: a quantile of {model.name!r} overflows")
    try:
        lam = model.aux(1.0 / n) / a_n
    except (OverflowError, ValueError):
        lam = None
    return NormingConstants(a_n=a_n, b_n=b_n, lam=lam, n=n, k=k)


def lambda_ratio(model: TailModel, policy, n: int) -> float:
    """Finite-n ratio r(1/n) / r(k/n) with k from the policy; probing a grid
    of n estimates the limit lambda."""
    k = estimators.select_k(policy, n)
    return model.aux(1.0 / n) / model.aux(k / n)


# ---------------------------------------------------------------------------
# transforms


def _transformed(model: TailModel, op: str, quantile, survival, aux,
                 mean_excess_finite: bool = True) -> TailModel:
    """The model op(X) of X ~ model. It keeps survival only when the base
    has one, and aux only when the base can also integrate a finite mean
    excess."""
    has_sf = model.survival is not None
    return TailModel(
        f"{op}({model.name})",
        quantile,
        survival=survival if has_sf else None,
        aux_r=aux if has_sf and model.mean_excess_finite else None,
        mean_excess_finite=mean_excess_finite,
    )


def transform_log(model: TailModel) -> TailModel:
    """Model of log X (positive part), per-tail renormalized by a = P(X > 0).

    a is 1 when the support starts at or above zero and the survival at
    zero otherwise. Quantile becomes u -> log Q(1 - a u); the auxiliary
    scale becomes s(u) = R(Q(1 - u)) / Q(1 - u), evaluated numerically when
    the base model can integrate its tail, dropped otherwise.
    """
    if model.lower_endpoint >= 0.0:
        a = 1.0
    elif model.survival is not None:
        a = float(model.sf(0.0))
    else:
        raise DomainError(f"P(X > 0) is unknown for quantile-only model {model.name!r}")
    if not 0.0 < a <= 1.0:
        raise DomainError(f"a = P(X > 0) must lie in (0, 1], got {a}")

    def quantile(u):
        with np.errstate(divide="ignore"):  # Q = 0 at the endpoint gives log 0 = -inf
            return np.log(model.quantile(a * u))

    def survival(x):
        return np.asarray(model.sf(np.exp(x))) / a

    def aux(u: float) -> float:
        q = float(model.quantile(u))
        if not q > 0.0:
            raise DomainError(
                f"log-scale aux of {model.name!r} needs Q(1 - u) > 0, got Q(1 - {u:g}) = {q}"
            )
        return mean_excess_R(model, q) / q

    return _transformed(model, "log", quantile, survival, aux)


def _aux_vanishes(model: TailModel) -> bool:
    try:
        vals = [model.aux(u) for u in (1e-4, 1e-6, 1e-8)]
    except (OverflowError, ValueError):
        return False  # an r that overflows or breaks the aux rule does not vanish
    return vals[-1] < 0.9 * vals[0]


def transform_exp(model: TailModel) -> TailModel:
    """Model of exp(X); valid when the base auxiliary scale vanishes at the
    tail, warns AuxNotVanishing otherwise, and then marks the result's mean
    excess as divergent.

    Quantile becomes u -> exp(Q(1 - u)); the auxiliary scale becomes
    t(u) = exp(Q(1 - u)) R(Q(1 - u)).
    """
    vanishes = _aux_vanishes(model)
    if not vanishes:
        warnings.warn(
            f"auxiliary scale of {model.name!r} does not vanish at the tail; "
            "exp transform leaves the Gumbel max-domain",
            AuxNotVanishing,
            stacklevel=2,
        )

    def survival(x):
        with np.errstate(divide="ignore"):  # x = 0 is the endpoint, log 0 = -inf
            return model.sf(np.log(x))

    def aux(u: float) -> float:
        q = float(model.quantile(u))
        try:
            scale = math.exp(q)
        except OverflowError:
            raise DomainError(
                f"exp-scale aux of {model.name!r} overflows: Q(1 - {u:g}) = {q}"
            ) from None
        return scale * mean_excess_R(model, q)

    return _transformed(model, "exp", lambda u: np.exp(model.quantile(u)), survival, aux,
                        mean_excess_finite=vanishes)


# ---------------------------------------------------------------------------
# the catalog


def _mason(u: np.ndarray) -> float | np.ndarray:
    """Piecewise-linear quantile F^{-1}(1 - u) of the Mason distribution on
    checked u: equal to m at dyadic u = 2^{-m} and linear in between;
    continuous and non-increasing on (0, 1]."""
    m = np.floor(-np.log2(u))
    out = m + (np.exp2(-m) - u) * np.exp2(m + 1.0)
    return float(out) if u.ndim == 0 else out


def _iterated_log(x: float, p: int) -> float:
    """log applied p times; every caller keeps each argument positive."""
    for _ in range(p):
        x = math.log(x)
    return x


def _iterated_exp(x: float, p: int) -> float:
    for _ in range(p):
        x = math.exp(x)
    return x


def _iterated_scale(base: float, p: int) -> float:
    """base * prod_{h=1}^{p-1} log_h(base^{1/2}); the empty product (p = 1)
    is 1. Raises DomainError when a factor is not positive."""
    out = base
    root = math.sqrt(base)
    for h in range(1, p):
        factor = _iterated_log(root, h)
        if factor <= 0.0:
            raise DomainError(
                f"iterated-log factor log_{h}(({base:g})^(1/2)) = {factor} <= 0"
            )
        out *= factor
    return out


def iterated_c_n(p: int, n: int) -> float:
    """Norming factor (2 log n) * prod_{h=1}^{p-1} log_h((2 log n)^{1/2})."""
    if not 1 <= (p := _as_int(p, "iterated-log depth must be 1, 2 or 3")) <= 3:
        raise DomainError(f"iterated-log depth must be 1, 2 or 3, got {p}")
    if not 16 <= _as_real(n, "n") < math.inf:
        raise DomainError(f"need 16 <= n < inf, got {n}")
    return _iterated_scale(2.0 * math.log(n), p)


def _iterated_log_model(p: int) -> TailModel:
    """Model of log_p sup(e_{p-1}(1), Z) given Z > e_{p-1}(1), for standard
    normal Z; quantile u -> log_p Q_Z(1 - m u) with tail mass
    m = P(Z > e_{p-1}(1)).

    The log and exp chains stay on math per element: np.log and np.exp
    differ by an ulp on some inputs, which the chain would amplify.
    """
    m = float(normal_sf(_iterated_exp(1.0, p - 1)))
    log_chain = np.vectorize(lambda z: _iterated_log(z, p), otypes=[float])
    exp_chain = np.vectorize(lambda v: _iterated_exp(v, p), otypes=[float])
    # e_p(v) > 40 exactly when v > log_p(40), and normal_sf(40) is 0.0
    cut = _iterated_log(40.0, p)

    def quantile(u):
        inner = log_chain(normal_upper_quantile(m * u))
        # support is [0, inf): a sub-ulp negative from the last log is a
        # rounding artifact, flattened to the endpoint
        return np.where(u >= 1.0, 0.0, np.maximum(inner, 0.0))

    def survival(x):
        # at the endpoint x = 0 this is exactly 1: e_p(0) is e_{p-1}(1) bit for bit
        return np.where(x > cut, 0.0, normal_sf(exp_chain(np.minimum(x, cut))) / m)

    def aux(u: float) -> float:
        return 1.0 / _iterated_scale(2.0 * math.log(1.0 / u), p)

    return TailModel(f"iterlog({p})", quantile, survival=survival, aux_r=aux)


def _exp_of_log_model() -> TailModel:
    # exp(X) standard exponential: F(x) = 1 - exp(-e^x) on the whole line.
    def quantile(u):
        with np.errstate(divide="ignore"):  # u = 1 gives log 0 = -inf
            return np.log(np.log(1.0 / u))

    return TailModel(
        "exp-of-log",
        quantile,
        survival=lambda x: np.exp(-np.exp(x)),
        aux_r=lambda u: 1.0 / math.log(1.0 / u),
    )


def _normal_model() -> TailModel:
    # The cataloged aux is the asymptotic head (2 log(1/u))^{-1/2}; the exact
    # derivative u / phi(Q(1-u)) is available through rho_numeric.
    return TailModel(
        "normal",
        normal_upper_quantile,
        survival=normal_sf,
        aux_r=lambda u: (2.0 * math.log(1.0 / u)) ** -0.5,
    )


def _pareto_model() -> TailModel:
    # Unit Pareto, 1 - F(x) = 1/x on x >= 1; infinite mean excess.
    return TailModel(
        "pareto",
        lambda u: 1.0 / u,
        survival=lambda x: 1.0 / x,
        aux_r=lambda u: 1.0 / u,
        mean_excess_finite=False,
    )


def _exponential_model() -> TailModel:
    return TailModel(
        "exponential",
        lambda u: -np.log(u),
        survival=lambda x: np.exp(-x),
        aux_r=lambda u: 1.0,
    )


def _mason_model() -> TailModel:
    return TailModel("mason", _mason)


def _log_normal_model() -> TailModel:
    return replace(transform_exp(_normal_model()), name="log-normal")


_FACTORIES: dict[str, Callable[[], TailModel]] = {
    "exp-of-log": _exp_of_log_model,
    "normal": _normal_model,
    "log-normal": _log_normal_model,
    "pareto": _pareto_model,
    "exponential": _exponential_model,
    "gamma-tail": lambda: replace(_exponential_model(), name="gamma-tail"),
    "mason": _mason_model,
    # depth p <= 3: the tail mass P(Z > e_{p-1}(1)) underflows to 0 from p = 4 (e_3(1) ~ 3.8e6)
    "iterlog(1)": lambda: _iterated_log_model(1),
    "iterlog(2)": lambda: _iterated_log_model(2),
    "iterlog(3)": lambda: _iterated_log_model(3),
}


def model_names() -> list[str]:
    """Every name get_model takes, sorted."""
    return sorted(_FACTORIES)


def get_model(name: str) -> TailModel:
    """A fresh catalog model by its exact name, one of model_names()."""
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise DomainError(
            f"unknown model {name!r}; available: {', '.join(model_names())}"
        ) from None
