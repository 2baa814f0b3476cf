"""Standard normal survival and a high-accuracy inverse CDF.

The inverse uses Acklam's rational approximation followed by one Halley
refinement step against the erfc-based CDF, which brings the absolute
error below 1e-13 on (0, 1) wherever exp(z^2/2) is representable.
Refinement is skipped for |z| > 37.5 (p below ~4.6e-308), where
exp(z^2/2) would overflow and the raw approximation is already the best
double-precision answer available. Both of Acklam's branches and the
Halley step run on every entry, and np.where selects the results.

erfc is scipy.special's, imported by the first call that needs it, so that
importing this module (and the command line) does not load scipy.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .estimators import _as_real_array

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)

# Acklam's coefficients (lower/central/upper regions).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)

_P_LOW = 0.02425


def _erfc(x):
    """scipy.special.erfc, imported on the first call, which rebinds this
    name to the ufunc itself: later calls cost nothing extra."""
    global _erfc
    from scipy.special import erfc

    _erfc = erfc
    return erfc(x)


def normal_sf(x):
    """Upper tail 1 - Phi(x) without cancellation."""
    return 0.5 * _erfc(_as_real_array(x, "x") / _SQRT2)


def normal_ppf(p):
    """Inverse standard normal CDF.

    Accepts scalars or arrays with entries in [0, 1]; 0 and 1 map to
    -inf/+inf. Raises DomainError outside [0, 1], on NaN and on a p that is
    not real. Folds onto the lower half by symmetry (1 - p is exact there),
    so both tails get the full accuracy of the lower-tail branch.
    """
    p = _as_real_array(p, "p")
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("p must lie in [0, 1]")
    ph = np.minimum(p, 1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = np.sqrt(-2.0 * np.log(ph))
        tail = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
               ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
        q = ph - 0.5
        r = q * q
        central = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
                  (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
        z = np.where(ph < _P_LOW, tail, central)
        # One Halley step against Phi(z) = normal_sf(-z); kept only where
        # exp(z^2/2) is finite (|z| <= 37.5, p above ~1e-307).
        u = (normal_sf(-z) - ph) * _SQRT2PI * np.exp(0.5 * z * z)
        z = np.where(np.abs(z) <= 37.5, z - u / (1.0 + 0.5 * z * u), z)
    z = np.where(ph == 0.0, -np.inf, z)
    z = np.where(p > 0.5, -z, z)
    return float(z) if z.ndim == 0 else z


def normal_upper_quantile(u):
    """Quantile in upper-tail form: Q(1 - u) = -Q(u), precise for small u."""
    return -normal_ppf(u)
