"""Normal-versus-exponential model test built on the scaled max-spacing
estimator.

With T the log-scale estimator at k = k(n), both candidate models center
the same way -- (log(n)/2) T under an exponential parent and log(n) T under
a normal parent each converge to log 2 -- so raw closeness cannot separate
them. What does is the fluctuation scale: the centered statistics are
divided by the candidate's own norming scale and scored by the log-density
of the lambda-scaled Gumbel limit; the better-scoring model wins. The two
scales coincide algebraically, which makes constant data (T = 0) an exact
tie, reported as inconclusive.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DomainError
from .estimators import (KPolicy, SortedSample, _as_int, _as_real, _index_k,
                         de_haan_resnick_log_scale, select_k)

_LN2 = math.log(2.0)
_TIE_TOL = 1e-9

NORMAL = "normal"
EXPONENTIAL = "exponential"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ModelVerdict:
    """Outcome of the two-model test with per-model scores and statistics."""

    chosen: str
    score_normal: float
    score_exponential: float
    statistic_normal: float
    statistic_exponential: float

    def to_dict(self) -> dict:
        return {"schema": 1, **asdict(self)}


def _gumbel_logpdf(x: float, lam: float) -> float:
    z = x / lam
    return -math.log(lam) - z - math.exp(-z)


def _check_n(n: int) -> None:
    if n < 100:
        raise DomainError(f"need n >= 100, got {n}")


def classify(sample: SortedSample, policy: KPolicy) -> ModelVerdict:
    """Decide between a normal and an exponential parent for a positive
    sample; scale-invariant because the log-scale estimator ignores
    multiplicative constants.
    """
    n = sample.n
    _check_n(n)
    if sample.values[0] <= 0.0:
        raise DomainError("model test requires all values > 0")
    k = select_k(policy, n)
    return verdict(de_haan_resnick_log_scale(sample, k), n, k)


def verdict(t: float, n: int, k: int) -> ModelVerdict:
    """The model test on a finite log-scale estimate t = T_n >= 0 at (n, k), with
    integers n >= 100 and 2 <= k < n."""
    n = _as_int(n, "n must be an integer")
    _check_n(n)
    k = _index_k(k, n)
    if not 0.0 <= _as_real(t, "T_n") < math.inf:  # a spacing over log k is never negative
        raise DomainError(f"T_n must be finite and >= 0, got {t}")
    log_n = math.log(n)
    log_nk = math.log(n / k)
    lam = log_nk / log_n
    # Candidate auxiliary scales at u = k/n: 1/log(n/k) for the exponential
    # parent, 1/(2 log(n/k)) for the normal one; mapped through the
    # statistic's own prefactor the two coincide.
    scale = (0.5 * log_n / math.log(k)) / log_nk
    stat_exponential = (0.5 * log_n * t - _LN2) / scale
    stat_normal = (log_n * t - _LN2) / scale

    score_exponential = _gumbel_logpdf(stat_exponential, lam)
    score_normal = _gumbel_logpdf(stat_normal, lam)

    if abs(score_exponential - score_normal) <= _TIE_TOL:
        chosen = INCONCLUSIVE
    elif score_exponential > score_normal:
        chosen = EXPONENTIAL
    else:
        chosen = NORMAL
    return ModelVerdict(
        chosen=chosen,
        score_normal=score_normal,
        score_exponential=score_exponential,
        statistic_normal=stat_normal,
        statistic_exponential=stat_exponential,
    )
