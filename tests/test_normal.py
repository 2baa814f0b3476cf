"""Inverse normal CDF against an independent bisection oracle, and the bits
of its output on a fixed grid."""

import hashlib
import math

import numpy as np
import pytest
from scipy import special

from gumbeltail.errors import DomainError
from gumbeltail.normal import (
    normal_ppf,
    normal_sf,
    normal_upper_quantile,
)


def bisect_quantile(p: float) -> float:
    """Oracle: bisection on the erfc-based CDF, independent of the rational
    approximation under test. Folded onto the lower half by symmetry, where
    the CDF is relatively accurate (near 1 it is too flat to bisect on)."""
    if p > 0.5:
        return -bisect_quantile(1.0 - p)
    lo, hi = -60.0, 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(-mid / math.sqrt(2.0)) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


GRID = [1e-300, 1e-100, 1e-12, 1e-8, 1e-4, 0.001, 0.02425, 0.1, 0.3, 0.5,
        0.7, 0.9, 0.999, 1.0 - 1e-8, 1.0 - 1e-12]


@pytest.mark.parametrize("p", GRID)
def test_matches_bisection_oracle(p):
    assert abs(normal_ppf(p) - bisect_quantile(p)) <= 1e-9


def test_matches_scipy_ndtri():
    p = np.array(GRID)
    assert np.allclose(normal_ppf(p), special.ndtri(p), rtol=0.0, atol=5e-13)


def test_round_trip():
    for p in GRID:
        assert math.isclose(float(normal_sf(-normal_ppf(p))), p, rel_tol=1e-12)


def test_endpoints_and_domain():
    assert normal_ppf(0.0) == -math.inf
    assert normal_ppf(1.0) == math.inf
    for p in (-0.1, 1.1, math.nan, np.array([0.5, 2.0])):
        with pytest.raises(DomainError, match=r"p must lie in \[0, 1\]"):
            normal_ppf(p)


def test_upper_quantile_symmetry():
    for u in (1e-10, 1e-3, 0.25, 0.5, 0.75, 0.999):
        assert normal_upper_quantile(u) == -normal_ppf(u)


def test_median_is_zero():
    assert abs(normal_ppf(0.5)) < 1e-15


def test_sf_complements_cdf():
    x = np.linspace(-6.0, 6.0, 25)
    assert np.allclose(normal_sf(x) + normal_sf(-x), 1.0, atol=1e-14)



# 0, 1, 0.5, the doubles next to 0 and 1, and 0.02425 (Acklam's branch
# point) and its mirror with their neighbours
EDGES = [0.0, 1.0, 0.5, 2.0**-53, 1.0 - 2.0**-53] + [
    x for c in (0.02425, 0.97575) for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
LOG_GRID = np.logspace(-323, 0, 20001)
PIN_GRID = np.concatenate([LOG_GRID, 1.0 - LOG_GRID, np.linspace(0.0, 1.0, 10001), EDGES])
# sha256 of normal_ppf(PIN_GRID) as little-endian doubles, with numpy 2.4
# and scipy 1.17; seeded normal-family outputs inherit these bits
PIN_SHA256 = "cb10ec2c2fb24ec94ac729a2145760f82ce14c2412160534ae54139819b75406"


def test_output_bits_are_pinned_on_a_fixed_grid():
    out = normal_ppf(PIN_GRID)
    assert out.shape == PIN_GRID.shape
    assert hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest() == PIN_SHA256


def test_scalar_input_gives_a_float_equal_to_the_array_entry():
    out = normal_ppf(np.array(EDGES))
    for p, z in zip(EDGES, out):
        got = normal_ppf(float(p))
        assert type(got) is float
        assert np.float64(got).tobytes() == z.tobytes()
