"""The package's one integer rule: every size, count, index and depth
argument takes an int or a numpy integer, as an int, and refuses a bool or
anything else with a DomainError."""

import json

import numpy as np
import pytest

from gumbeltail import (DomainError, KPolicy, RngSpec, SortedSample, de_haan_resnick,
                        de_haan_resnick_log_scale, get_model, hill, iterated_c_n,
                        run_replicates, select_k, summarize, verdict)
from gumbeltail.engine import reproduce_table, sorted_uniforms

SAMPLE = SortedSample(np.arange(1.0, 101.0))
EXPONENTIAL = get_model("exponential")


def _typed(value):
    return value, type(value)


def _replicates(n, m):
    """A run's raw values, and its summary through json, which refuses a
    numpy integer field."""
    rs = run_replicates(EXPONENTIAL, n, KPolicy.sqrt(), m, RngSpec(1))
    return rs.raw_t.tobytes(), rs.normalized.tobytes(), json.dumps(summarize(rs))


# (entry point, good integer value, the message its refusal starts with);
# each call's result carries the types of the integer fields it returns
CASES = {
    "rng-seed": (lambda v: _typed(RngSpec(v).seed), 7, "seed and stream must be integers"),
    "rng-stream": (lambda v: _typed(RngSpec(1, v).stream_id), 7,
                   "seed and stream must be integers"),
    "k-policy-fixed": (lambda v: _typed(KPolicy.fixed(v).k), 9,
                       "fixed policy requires an integer k"),
    "de-haan-resnick-k": (lambda v: _typed(de_haan_resnick(SAMPLE, v)), 9, "k must be an integer"),
    "hill-k": (lambda v: _typed(hill(SAMPLE, v)), 9, "k must be an integer"),
    "log-scale-k": (lambda v: _typed(de_haan_resnick_log_scale(SAMPLE, v)), 9,
                    "k must be an integer"),
    "select-k-sqrt-n": (lambda v: _typed(select_k(KPolicy.sqrt(), v)), 1000,
                        "n must be an integer"),
    "select-k-logpow-n": (lambda v: _typed(select_k(KPolicy.log_power(2.0), v)), 1000,
                          "n must be an integer"),
    "select-k-fixed-n": (lambda v: _typed(select_k(KPolicy.fixed(9), v)), 1000,
                         "n must be an integer"),
    "run-replicates-n": (lambda v: _replicates(v, 3), 1000, "n must be an integer"),
    "run-replicates-m": (lambda v: _replicates(1000, v), 3, "m must be an integer"),
    "sorted-uniforms-n": (lambda v: sorted_uniforms(v, RngSpec(1)).tobytes(), 1000,
                          "n must be an integer"),
    "reproduce-table-n-total": (lambda v: [(row, type(row.n)) for row in
                                           reproduce_table(RngSpec(1), v)], 200,
                                "n_total must be an integer"),
    "verdict-n": (lambda v: verdict(0.5, v, 31), 1000, "n must be an integer"),
    "verdict-k": (lambda v: verdict(0.5, 1000, v), 31, "k must be an integer"),
    "iterated-c-n-p": (lambda v: _typed(iterated_c_n(v, 10**6)), 2,
                       "iterated-log depth must be 1, 2 or 3"),
}


@pytest.mark.parametrize("name", CASES)
def test_integer_arguments_refuse_a_float_or_bool(name):
    call, good, message = CASES[name]
    for bad in (2.5, float(good), True, np.bool_(True), str(good), None):
        with pytest.raises(DomainError) as info:
            call(bad)
        assert str(info.value) == f"{message}, got {bad!r}"


@pytest.mark.parametrize("name", CASES)
def test_integer_arguments_take_numpy_integers_as_ints(name):
    call, good, _ = CASES[name]
    expected = call(good)
    assert call(np.int64(good)) == expected
    assert call(np.uint16(good)) == expected


def test_numpy_sizes_and_counts_give_a_json_summary():
    # a numpy n leaked into NormingConstants.n and broke json.dumps
    doc = json.dumps(summarize(run_replicates(EXPONENTIAL, np.int64(1000), KPolicy.sqrt(),
                                              np.int64(3), RngSpec(1))))
    assert doc == _replicates(1000, 3)[2]
