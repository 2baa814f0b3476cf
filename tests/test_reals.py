"""The package's one real rule: every scalar real argument takes a float, a
numpy float, an int or a numpy integer, and refuses a bool or anything else
with DomainError("<name> must be a real number, got <value!r>") before it is
compared. norming's n and k are held to the same rule in test_models.py."""

import numpy as np
import pytest

from gumbeltail import (DomainError, KPolicy, get_model, iterated_c_n, normal_ppf, normal_sf,
                        select_k, verdict)
from gumbeltail.engine import gumbel_cdf, ks_distance
from gumbeltail.models import mean_excess_R, rho_numeric

NORMAL = get_model("normal")
VALUES = [0.1, 0.2, 0.7]


def _log_power(ell):
    policy = KPolicy.log_power(ell)
    return policy, policy.spec(), select_k(policy, 10**6)


# (entry point, an in-range value exact in float32, the name its refusal gives)
CASES = {
    "aux-u": (NORMAL.aux, 0.5, "u"),
    "rho-numeric-u": (lambda v: rho_numeric(NORMAL, v), 0.5, "u"),
    "mean-excess-t": (lambda v: mean_excess_R(NORMAL, v), 2, "t"),
    "gumbel-cdf-lambda": (lambda v: gumbel_cdf([-1.0, 0.0, 3.0], v).tolist(), 2, "lambda scale"),
    "ks-distance-lambda": (lambda v: ks_distance(VALUES, v), 2, "lambda scale"),
    "ks-distance-threshold": (lambda v: ks_distance(VALUES, 1.0, v), 1, "KS threshold"),
    "verdict-t": (lambda v: verdict(v, 1000, 31), 1, "T_n"),
    "log-power-ell": (_log_power, 2, "ell"),
    "iterated-c-n-n": (lambda v: iterated_c_n(2, v), 1000, "n"),
}


@pytest.mark.parametrize("name", CASES)
def test_real_arguments_refuse_a_str_none_or_bool(name):
    # each bool was taken as 1: verdict(True, 1000, 31) chose "exponential",
    # KPolicy.log_power(True) was logpow:1, gumbel_cdf(0.0, True) was exp(-1);
    # each str or None raised TypeError
    call, _, arg = CASES[name]
    for bad in ("0.5", None, True, np.True_):
        if bad is None and name == "ks-distance-threshold":
            continue  # None means the default threshold
        with pytest.raises(DomainError) as info:
            call(bad)
        assert str(info.value) == f"{arg} must be a real number, got {bad!r}"


@pytest.mark.parametrize("name", CASES)
def test_real_arguments_take_floats_and_integers(name):
    # a float32 is taken (mean_excess_R's doubling step overflowed a
    # float32 and warned); an integral value gives the float's result
    call, good, _ = CASES[name]
    expected = call(float(good))
    call(np.float32(good))
    if float(good).is_integer():
        assert call(int(good)) == expected
        assert call(np.int64(good)) == expected


# The array rule: every array-valued entry point takes a float, an integer,
# or a list or array of them, and refuses a str, None, bool or object input
# with DomainError("<name> must be real, got <value!r>").
# (entry point, an in-range value exact in float32, the name its refusal gives)
ARRAY_CASES = {
    "quantile-u": (NORMAL.quantile, 0.5, "u"),
    "exponential-quantile-u": (get_model("exponential").quantile, 1, "u"),
    "sf-x": (NORMAL.sf, 2, "x"),
    "exponential-sf-x": (get_model("exponential").sf, 2, "x"),
    "normal-sf-x": (normal_sf, 2, "x"),
    "normal-ppf-p": (normal_ppf, 0.25, "p"),
    "gumbel-cdf-x": (lambda v: gumbel_cdf(v, 1.0), 2, "x"),
}


@pytest.mark.parametrize("name", ARRAY_CASES)
def test_array_arguments_refuse_a_str_none_bool_or_object(name):
    # quantile("0.5") was -0.0 and normal_ppf("0.5") 0.0; sf(None),
    # normal_sf(None) and gumbel_cdf(None, 1.0) were nan; a bool array was 1.0
    call, _, arg = ARRAY_CASES[name]
    for bad in ("0.5", None, True, np.True_, np.array([True]), ["0.5"],
                np.array([0.5], dtype=object), [0.5, None]):
        with pytest.raises(DomainError) as info:
            call(bad)
        assert str(info.value) == f"{arg} must be real, got {bad!r}"


@pytest.mark.parametrize("name", ARRAY_CASES)
def test_array_arguments_take_floats_integers_and_arrays(name):
    call, good, _ = ARRAY_CASES[name]
    expected = call(float(good))
    for same in (np.float64(good), np.float32(good), np.array(good)):
        assert call(same) == expected
    for array in ([good, good], np.array([good, good]), np.array([good, good], dtype=np.float32)):
        assert np.array_equal(call(array), [expected, expected])
    if float(good).is_integer():
        for integer in (int(good), np.int64(good), np.uint8(good)):
            assert call(integer) == expected
        assert np.array_equal(call([int(good)] * 2), [expected, expected])
