"""Order-statistic tail estimators and intermediate-sequence policies.

Conventions used throughout the package:

* samples are held ascending, so with zero-based indexing the maximum is
  ``values[n - 1]`` and the k-th order statistic from the top,
  X_{n-k,n}, is ``values[n - 1 - k]``;
* all logarithms are natural;
* k is clamped to >= 2 so that log k > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DomainError,
    FixedOutOfRange,
    KOutOfRange,
    NonPositiveValue,
    TooSmallN,
    ZeroScale,
)

if TYPE_CHECKING:
    from .models import NormingConstants


@dataclass(frozen=True)
class SortedSample:
    """An ascending sample of finite real values, the substrate of all
    estimators."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise DomainError("sample must be one-dimensional with n >= 2")
        # the ordering check below is false for NaN, so finiteness comes first
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample values must be finite")
        if np.any(arr[1:] < arr[:-1]):
            raise DomainError("sample values must be non-decreasing")
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_values(cls, raw) -> "SortedSample":
        """Sort arbitrary input values ascending and wrap them."""
        return cls(np.sort(np.asarray(raw, dtype=float)))

    @property
    def n(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class KPolicy:
    """Rule producing the intermediate sequence k(n).

    kind is one of "sqrt" (k = floor(sqrt(n))), "logpow"
    (k = floor(log(n) ** ell)) or "fixed" (constant k).
    """

    kind: str
    ell: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("sqrt", "logpow", "fixed"):
            raise DomainError(f"unknown k-policy kind: {self.kind!r}")
        if self.kind == "logpow" and not (self.ell is not None and 0.0 < self.ell < math.inf):
            raise DomainError(f"logpow policy requires a finite ell > 0, got {self.ell}")
        if self.kind == "fixed" and (self.k is None or self.k < 1):
            raise DomainError("fixed policy requires a positive k")

    @classmethod
    def sqrt(cls) -> "KPolicy":
        return cls("sqrt")

    @classmethod
    def log_power(cls, ell: float) -> "KPolicy":
        return cls("logpow", ell=ell)

    @classmethod
    def fixed(cls, k: int) -> "KPolicy":
        return cls("fixed", k=int(k))

    @classmethod
    def parse(cls, spec: str) -> "KPolicy":
        """Parse "sqrt", "logpow:<ell>" or "fixed:<k>"."""
        head, _, tail = spec.partition(":")
        if head == "sqrt" and not tail:
            return cls.sqrt()
        if head == "logpow" and tail:
            return cls.log_power(float(tail))
        if head == "fixed" and tail:
            return cls.fixed(int(tail))
        raise ValueError(f"cannot parse k-policy spec: {spec!r}")

    def spec(self) -> str:
        if self.kind == "sqrt":
            return "sqrt"
        if self.kind == "logpow":
            return f"logpow:{self.ell:g}"
        return f"fixed:{self.k}"


@dataclass(frozen=True)
class EstimateResult:
    """A max-spacing estimate together with the k it was computed at."""

    t_n: float
    k: int
    log_k: float
    n: int


def select_k(policy: KPolicy, n: int) -> int:
    """Evaluate a k-policy at sample size n.

    The computed k is clamped up to 2 (log k must stay positive) and must
    satisfy k < n. Raises FixedOutOfRange for an infeasible fixed k and
    TooSmallN when n < 4 or the computed k cannot fit below n (including
    log(n) ** ell overflowing a float).
    """
    if n < 4:
        raise TooSmallN(f"need n >= 4, got {n}")
    if policy.kind == "fixed":
        k = int(policy.k)
        if k <= 1 or k >= n:
            raise FixedOutOfRange(f"fixed k={k} infeasible for n={n}")
        return k
    if policy.kind == "sqrt":
        k = math.floor(math.sqrt(n))
    else:
        try:
            k = math.floor(math.log(n) ** policy.ell)
        except OverflowError:
            raise TooSmallN(
                f"policy {policy.spec()} gives k = log(n)**ell beyond float range at n={n}"
            ) from None
    k = max(k, 2)
    if k >= n:
        raise TooSmallN(f"policy {policy.spec()} gives k={k} >= n={n}")
    return k


def _check_k(k: int, n: int) -> None:
    if not 2 <= k < n:
        raise KOutOfRange(f"need 2 <= k < n, got k={k}, n={n}")


def de_haan_resnick(s: SortedSample, k: int) -> EstimateResult:
    """Max-spacing estimator T_n = (X_{n,n} - X_{n-k,n}) / log k."""
    n = s.n
    _check_k(k, n)
    log_k = math.log(k)
    t_n = (float(s.values[n - 1]) - float(s.values[n - 1 - k])) / log_k
    if not math.isfinite(t_n):
        raise DomainError(f"T_n overflows a float at k={k}")
    return EstimateResult(t_n=t_n, k=k, log_k=log_k, n=n)


def de_haan_resnick_log_scale(positive_sample: SortedSample, k: int) -> EstimateResult:
    """T_n applied to the element-wise log of a positive sample.

    Monotonicity of log keeps the order statistics aligned, so this equals
    de_haan_resnick(log(sample), k) exactly.
    """
    if positive_sample.values[0] <= 0.0:
        raise NonPositiveValue("log-scale estimator requires all values > 0")
    return de_haan_resnick(SortedSample(np.log(positive_sample.values)), k)


def hill(s: SortedSample, k: int) -> float:
    """Hill estimator: mean of the top-k exceedances over X_{n-k,n}."""
    n = s.n
    _check_k(k, n)
    base = s.values[n - 1 - k]
    with np.errstate(over="ignore"):
        mean = float(np.mean(s.values[n - k:] - base))
    if not math.isfinite(mean):
        raise DomainError(f"H_n overflows a float at k={k}")
    return mean


def normalized_statistic(s: SortedSample, k: int, nc: "NormingConstants") -> float:
    """Centered and scaled max spacing, (X_{n,n} - X_{n-k,n} - a_n b_n) / a_n.

    Algebraically equal to (log k / a_n) T_n - b_n; under the limit theorem
    this converges in law to a lambda-scaled Gumbel variable.
    """
    n = s.n
    _check_k(k, n)
    if nc.n != n or int(nc.k) != k:
        raise ValueError(
            f"norming constants computed for (n={nc.n}, k={nc.k}), sample has (n={n}, k={k})"
        )
    if nc.a_n <= 0.0:
        raise ZeroScale(f"a_n must be positive, got {nc.a_n}")
    spacing = float(s.values[n - 1]) - float(s.values[n - 1 - k])
    z = (spacing - nc.a_n * nc.b_n) / nc.a_n
    if not math.isfinite(z):
        raise DomainError(f"normalized statistic overflows a float at k={k}")
    return z
