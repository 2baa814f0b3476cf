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
from typing import Callable

import numpy as np

from .errors import AuxNotVanishing, DomainError
from .estimators import _check_k
from .normal import normal_sf, normal_upper_quantile

# Survival values below this fraction of the start point are treated as
# numerically dead mass when truncating tail integrals; keeps R(t) stable
# for doubly-exponential tails.
_TAIL_TRUNCATION = 1e-18
_QUAD_RTOL = 1e-8


@dataclass(frozen=True)
class TailModel:
    """A named distribution family seen through its upper tail.

    quantile maps u in (0, 1] to Q(1 - u); survival, 1 - F(x), is optional
    and needed only where r must come from quadrature. The support is
    [lower_endpoint, +inf).

    Every model this module builds, transformed ones included, checks that
    its quantile's u lies in (0, 1] (see _model); a TailModel built by hand
    gets no such check.
    """

    name: str
    quantile: Callable[[np.ndarray | float], np.ndarray | float]
    survival: Callable[[np.ndarray | float], np.ndarray | float] | None = None
    aux_r: Callable[[float], float] | None = None
    lower_endpoint: float = -math.inf
    mean_excess_finite: bool = True

    def sf(self, x):
        """Survival 1 - F(x); raises DomainError for a quantile-only model."""
        if self.survival is None:
            raise DomainError(f"model {self.name!r} has no survival function")
        return self.survival(x)


def _quantile_arg(u, name: str) -> np.ndarray:
    """u as a float array, every entry in (0, 1], where each model's quantile
    is defined; u = 1 gives the lower endpoint. Raises DomainError otherwise,
    NaN included. A 0-d u is compared as a float, which is cheaper."""
    arr = np.asarray(u, dtype=float)
    if not (0.0 < float(arr) <= 1.0 if arr.ndim == 0 else np.all((arr > 0.0) & (arr <= 1.0))):
        raise DomainError(f"{name} quantile needs 0 < u <= 1")
    return arr


def _model(name: str, quantile, **fields) -> TailModel:
    """The TailModel that every model of this module is built as: its
    quantile checks u by _quantile_arg first, then calls quantile on the
    float array."""

    def checked(u):
        return quantile(_quantile_arg(u, name))

    return TailModel(name=name, quantile=checked, **fields)


@dataclass(frozen=True)
class NormingConstants:
    """Scale a_n = r(k/n), center b_n = (Q(1-1/n) - Q(1-k/n)) / a_n and the
    finite-n scale ratio lam = r(1/n) / r(k/n) (None when not computable)."""

    a_n: float
    b_n: float
    lam: float | None
    n: int
    k: float


def _check_u(u: float) -> None:
    if not 0.0 < u < 1.0:
        raise DomainError(f"u must lie strictly inside (0, 1), got {u}")


def rho_numeric(model: TailModel, u: float) -> float:
    """u Q'(1 - u) by central finite difference with relative step 1e-5.

    Agrees with the cataloged aux_r to 1e-4 relative wherever that form is
    exact; against asymptotic-only forms the agreement holds in the limit.
    """
    _check_u(u)
    if u < 1e-11:
        raise DomainError(f"u={u} too small for a stable difference step")
    h = max(u * 1e-5, 1e-12)
    g_plus = float(model.quantile(u + h))
    g_minus = float(model.quantile(u - h))
    rho = -u * (g_plus - g_minus) / (2.0 * h)
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
            return hi
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
    1e-18 of its value at t."""
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


def _aux(model: TailModel) -> Callable[[float], float]:
    """The auxiliary scale r: the cataloged aux_r, else rho_numeric."""
    if model.aux_r is not None:
        return model.aux_r
    return lambda u: rho_numeric(model, u)


def norming(model: TailModel, n: int, k: float) -> NormingConstants:
    """Norming constants for a model at (n, k); k may be real-valued.

    a_n = r(k/n), with r the cataloged aux_r when present, else the numeric
    derivative; b_n from the quantile difference; lam is the finite-n scale
    ratio r(1/n) / r(k/n), or None when it cannot be evaluated. Raises
    DomainError unless a_n > 0 and b_n is finite.
    """
    _check_k(k, n)
    r = _aux(model)
    uk = k / n
    a_n = float(r(uk))
    if not a_n > 0.0:
        raise DomainError(f"a_n = {a_n} must be positive")
    b_n = (float(model.quantile(1.0 / n)) - float(model.quantile(uk))) / a_n
    if not math.isfinite(b_n):
        raise DomainError(f"b_n = {b_n} is not finite: a quantile of {model.name!r} overflows")
    try:
        lam = float(r(1.0 / n)) / a_n
    except (OverflowError, ValueError):
        lam = None
    return NormingConstants(a_n=a_n, b_n=b_n, lam=lam, n=n, k=k)


def lambda_ratio(model: TailModel, policy, n: int) -> float:
    """Finite-n ratio r(1/n) / r(k/n) with k from the policy; probing a grid
    of n estimates the limit lambda."""
    from .estimators import select_k  # per call: bench/tracing.py wraps estimators.select_k

    k = select_k(policy, n)
    r = _aux(model)
    return float(r(1.0 / n)) / float(r(k / n))


# ---------------------------------------------------------------------------
# transforms


def _transformed(model: TailModel, op: str, quantile, survival, aux,
                 lower_endpoint: float, mean_excess_finite: bool = True) -> TailModel:
    """The model op(X) of X ~ model. It keeps survival only when the base
    has one, and aux only when the base can also integrate a finite mean
    excess."""
    has_sf = model.survival is not None
    return _model(
        f"{op}({model.name})",
        quantile,
        survival=survival if has_sf else None,
        aux_r=aux if has_sf and model.mean_excess_finite else None,
        lower_endpoint=lower_endpoint,
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
        return np.asarray(model.sf(np.exp(np.asarray(x, dtype=float)))) / a

    def aux(u: float) -> float:
        q = float(model.quantile(u))
        if not q > 0.0:
            raise DomainError(
                f"log-scale aux of {model.name!r} needs Q(1 - u) > 0, got Q(1 - {u:g}) = {q}"
            )
        return mean_excess_R(model, q) / q

    b = model.lower_endpoint
    return _transformed(model, "log", quantile, survival, aux,
                        lower_endpoint=math.log(b) if b > 0.0 else -math.inf)


def _aux_vanishes(model: TailModel) -> bool:
    r = _aux(model)
    try:
        vals = [float(r(u)) for u in (1e-4, 1e-6, 1e-8)]
    except (OverflowError, ValueError):
        return True
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
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return np.where(x > 0.0, np.asarray(model.sf(np.log(np.maximum(x, 1e-300)))), 1.0)

    def aux(u: float) -> float:
        q = float(model.quantile(u))
        return math.exp(q) * mean_excess_R(model, q)

    return _transformed(model, "exp", lambda u: np.exp(model.quantile(u)), survival, aux,
                        lower_endpoint=math.exp(model.lower_endpoint),
                        mean_excess_finite=vanishes)


# ---------------------------------------------------------------------------
# the catalog


def mason_quantile(u) -> float | np.ndarray:
    """Piecewise-linear quantile F^{-1}(1 - u) of the Mason distribution.

    Equal to m at dyadic u = 2^{-m} and linear in between; continuous and
    non-increasing on (0, 1].
    """
    arr = _quantile_arg(u, "mason")
    m = np.floor(-np.log2(arr))
    hi = np.exp2(-m)
    out = m + (hi - arr) * np.exp2(m + 1.0)
    return float(out) if np.ndim(u) == 0 else out


def _iterated_log(x: float, p: int) -> float:
    for _ in range(p):
        if x <= 0.0:
            raise DomainError(f"iterated log hit a non-positive value: {x}")
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


def _check_depth(p: int) -> None:
    # the tail mass P(Z > e_{p-1}(1)) underflows to zero from p = 4 on
    # (e_3(1) ~ 3.8e6)
    if not 1 <= p <= 3:
        raise DomainError(f"iterated-log depth must be 1, 2 or 3, got {p}")


def iterated_c_n(p: int, n: int) -> float:
    """Norming factor (2 log n) * prod_{h=1}^{p-1} log_h((2 log n)^{1/2})."""
    _check_depth(p)
    if n < 16:
        raise DomainError(f"need n >= 16, got {n}")
    return _iterated_scale(2.0 * math.log(n), p)


def iterated_log_model(p: int) -> TailModel:
    """Model of log_p sup(e_{p-1}(1), Z) given Z > e_{p-1}(1), for standard
    normal Z; quantile u -> log_p Q_Z(1 - m u) with tail mass
    m = P(Z > e_{p-1}(1)), for depth 1 <= p <= 3.

    The log and exp chains stay on math per element: np.log and np.exp
    differ by an ulp on some inputs, which the chain would amplify.
    """
    _check_depth(p)
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
        v = np.asarray(x, dtype=float)
        inner = normal_sf(exp_chain(np.minimum(v, cut))) / m
        return np.where(v <= 0.0, 1.0, np.where(v > cut, 0.0, inner))

    def aux(u: float) -> float:
        return 1.0 / _iterated_scale(2.0 * math.log(1.0 / u), p)

    return _model(f"iterlog({p})", quantile, survival=survival, aux_r=aux, lower_endpoint=0.0)


def _exp_of_log_model() -> TailModel:
    # exp(X) standard exponential: F(x) = 1 - exp(-e^x) on the whole line.
    def quantile(u):
        with np.errstate(divide="ignore"):  # u = 1 gives log 0 = -inf
            return np.log(np.log(1.0 / u))

    return _model(
        "exp-of-log",
        quantile,
        survival=lambda x: np.exp(-np.exp(np.asarray(x, dtype=float))),
        aux_r=lambda u: 1.0 / math.log(1.0 / u),
    )


def _normal_model() -> TailModel:
    # The cataloged aux is the asymptotic head (2 log(1/u))^{-1/2}; the exact
    # derivative u / phi(Q(1-u)) is available through rho_numeric.
    return _model(
        "normal",
        normal_upper_quantile,
        survival=normal_sf,
        aux_r=lambda u: (2.0 * math.log(1.0 / u)) ** -0.5,
    )


def _pareto_model() -> TailModel:
    # Unit Pareto, 1 - F(x) = 1/x on x >= 1; infinite mean excess.
    return _model(
        "pareto",
        lambda u: 1.0 / u,
        survival=lambda x: 1.0 / np.asarray(x, dtype=float),
        aux_r=lambda u: 1.0 / u,
        lower_endpoint=1.0,
        mean_excess_finite=False,
    )


def _exponential_model() -> TailModel:
    return _model(
        "exponential",
        lambda u: -np.log(u),
        survival=lambda x: np.exp(-np.asarray(x, dtype=float)),
        aux_r=lambda u: 1.0,
        lower_endpoint=0.0,
    )


def _mason_model() -> TailModel:
    return _model("mason", mason_quantile, lower_endpoint=0.0)


def _log_normal_model() -> TailModel:
    model = transform_exp(_normal_model())
    return replace(model, name="log-normal")


_FACTORIES: dict[str, Callable[[], TailModel]] = {
    "exp-of-log": _exp_of_log_model,
    "normal": _normal_model,
    "log-normal": _log_normal_model,
    "pareto": _pareto_model,
    "exponential": _exponential_model,
    "gamma-tail": lambda: replace(_exponential_model(), name="gamma-tail"),
    "mason": _mason_model,
}


def model_names() -> list[str]:
    return sorted(_FACTORIES) + ["iterlog(p)"]


def get_model(name: str) -> TailModel:
    """Look up a catalog model by name; "iterlog(p)" takes an integer depth
    p, see iterated_log_model."""
    if name.startswith("iterlog(") and name.endswith(")"):
        try:
            p = int(name[len("iterlog("):-1])
        except ValueError:
            raise DomainError(f"bad iterated-log depth in {name!r}") from None
        return iterated_log_model(p)
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise DomainError(
            f"unknown model {name!r}; available: {', '.join(model_names())}"
        ) from None
