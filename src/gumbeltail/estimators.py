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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


def _as_int(value, message: str) -> int:
    """The package's one integer rule: an int or a numpy integer is returned
    as an int; anything else, a bool too, is DomainError("<message>, got <value!r>")."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise DomainError(f"{message}, got {value!r}")


def _as_real(value, name: str):
    """The package's one rule for a scalar real: a float or a numpy float is
    returned as it is, and anything else must pass _as_int, which refuses a bool."""
    real = isinstance(value, (float, np.floating))
    return value if real else _as_int(value, f"{name} must be a real number")


def _as_real_array(values, name: str) -> np.ndarray | float:
    """The package's one rule for an array of reals: a float or a numpy
    float64 is returned as it is, and anything else as a float array, where
    its numpy dtype is integer or float; a str, None, object or bool is
    DomainError("<name> must be real, got <values!r>")."""
    if isinstance(values, float):
        return values
    arr = np.asarray(values)
    if arr.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real, got {values!r}")
    return arr.astype(float, copy=False)


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
    (k = floor(log(n) ** ell)) or "fixed" (constant k, kept as an int).
    """

    kind: str
    ell: float | None = None
    k: int | None = None

    def __post_init__(self):
        if self.kind not in ("sqrt", "logpow", "fixed"):
            raise DomainError(f"unknown k-policy kind: {self.kind!r}")
        if ((self.ell is not None and self.kind != "logpow")
                or (self.k is not None and self.kind != "fixed")):
            raise DomainError(f"{self.kind} policy given a parameter it does not take: {self!r}")
        if self.kind == "logpow" and not 0.0 < _as_real(self.ell, "ell") < math.inf:
            raise DomainError(f"logpow policy requires a finite ell > 0, got {self.ell}")
        if self.kind == "fixed":
            object.__setattr__(self, "k", _as_int(self.k, "fixed policy requires an integer k"))
            if self.k < 1:
                raise DomainError("fixed policy requires a positive k")

    @classmethod
    def sqrt(cls) -> "KPolicy":
        return cls("sqrt")

    @classmethod
    def log_power(cls, ell: float) -> "KPolicy":
        return cls("logpow", ell=ell)

    @classmethod
    def fixed(cls, k: int) -> "KPolicy":
        return cls("fixed", k=k)

    @classmethod
    def parse(cls, spec: str) -> "KPolicy":
        """Parse "sqrt", "logpow:<ell>" or "fixed:<k>"."""
        if not isinstance(spec, str):
            raise DomainError(f"cannot parse k-policy spec: {spec!r}")
        head, _, tail = spec.partition(":")
        if head == "sqrt" and not tail:
            return cls.sqrt()
        try:
            name, number = {"logpow": ("ell", float), "fixed": ("k", int)}[head]
            value = number(tail)
        except (KeyError, ValueError):  # an unknown kind, or a missing or non-numeric ell or k
            raise DomainError(f"cannot parse k-policy spec: {spec!r}") from None
        return cls(head, **{name: value})

    def spec(self) -> str:
        """The spec that parse reads back to this policy. An ell is printed
        short (2.0 as 2) where that keeps its value, else in full."""
        if self.kind == "sqrt":
            return "sqrt"
        if self.kind == "logpow":
            ell = float(self.ell)
            return f"logpow:{ell:g}" if float(f"{ell:g}") == ell else f"logpow:{ell!r}"
        return f"fixed:{self.k}"


def _check_n_in_float_range(n: int) -> None:
    """An int n above the largest float cannot enter the float arithmetic of
    k/n and 1/n (a float n cannot exceed it). The message keeps n an int:
    formatting it as a float overflows."""
    if isinstance(n, int) and n > sys.float_info.max:
        raise DomainError(f"n={n} is beyond the float range")


def select_k(policy: KPolicy, n: int) -> int:
    """Evaluate a k-policy at sample size n.

    The computed k is clamped up to 2 (log k must stay positive) and must
    satisfy k < n. Raises DomainError for an infeasible fixed k, for n not
    an integer, below 4 or above the float range, and when the computed k
    cannot fit below n (including log(n) ** ell overflowing a float).
    """
    if (n := _as_int(n, "n must be an integer")) < 4:
        raise DomainError(f"need n >= 4, got {n}")
    _check_n_in_float_range(n)
    if policy.kind == "fixed":
        if not 1 < policy.k < n:
            raise DomainError(f"fixed k={policy.k} infeasible for n={n}")
        return policy.k
    if policy.kind == "sqrt":
        k = math.isqrt(n)
    else:
        try:
            k = math.floor(math.log(n) ** policy.ell)
        except OverflowError:
            raise DomainError(
                f"policy {policy.spec()} gives k = log(n)**ell beyond float range at n={n}"
            ) from None
    k = max(k, 2)
    if k >= n:
        raise DomainError(f"policy {policy.spec()} gives k={k} >= n={n}")
    return k


def _check_k(k: float, n: int) -> None:
    _check_n_in_float_range(_as_real(n, "n"))
    if not 2 <= _as_real(k, "k") < n:
        raise DomainError(f"need 2 <= k < n, got k={k}, n={n}")


def _index_k(k: int, n: int) -> int:
    """The estimators read X_{n-k,n} by index, so their k is an integer; a
    numpy integer is returned as an int, so that n - 1 - k cannot wrap."""
    k = _as_int(k, "k must be an integer")
    _check_k(k, n)
    return k


def de_haan_resnick(s: SortedSample, k: int) -> float:
    """Max-spacing estimator T_n = (X_{n,n} - X_{n-k,n}) / log k."""
    n = s.n
    k = _index_k(k, n)
    t_n = (float(s.values[n - 1]) - float(s.values[n - 1 - k])) / math.log(k)
    if not math.isfinite(t_n):
        raise DomainError(f"T_n overflows a float at k={k}")
    return t_n


def de_haan_resnick_log_scale(positive_sample: SortedSample, k: int) -> float:
    """T_n applied to the element-wise log of a positive sample.

    Monotonicity of log keeps the order statistics aligned, so T_n reads
    only the logs of the top k+1 values, and this equals
    de_haan_resnick(log(sample), k) exactly.
    """
    values = positive_sample.values
    if values[0] <= 0.0:
        raise DomainError("log-scale estimator requires all values > 0")
    k = _index_k(k, positive_sample.n)
    return de_haan_resnick(SortedSample(np.log(values[-(k + 1):])), k)


def hill(s: SortedSample, k: int) -> float:
    """Hill estimator: mean of the top-k exceedances over X_{n-k,n}."""
    n = s.n
    k = _index_k(k, n)
    base = s.values[n - 1 - k]
    with np.errstate(over="ignore"):
        mean = float(np.mean(s.values[n - k:] - base))
    if not math.isfinite(mean):
        raise DomainError(f"H_n overflows a float at k={k}")
    return mean
