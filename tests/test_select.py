"""Normal-versus-exponential test: deterministic grids, ties, invariance
and simulated power."""

import math

import numpy as np
import pytest

from gumbeltail.engine import RngSpec, sorted_uniforms
from gumbeltail.errors import DomainError
from gumbeltail.estimators import KPolicy, SortedSample, de_haan_resnick_log_scale, select_k
from gumbeltail.select import EXPONENTIAL, INCONCLUSIVE, NORMAL, classify, verdict


def exponential_grid(n: int) -> SortedSample:
    u = np.arange(1, n + 1) / (n + 1.0)
    return SortedSample(-np.log(1.0 - u))


def sqrt_2e_grid(n: int) -> SortedSample:
    u = np.arange(1, n + 1) / (n + 1.0)
    return SortedSample(np.sqrt(-2.0 * np.log(1.0 - u)))


def test_exponential_grid_classified():
    verdict = classify(exponential_grid(4000), KPolicy.sqrt())
    assert verdict.chosen == EXPONENTIAL
    assert verdict.score_exponential > verdict.score_normal


def test_sqrt_2e_grid_classified():
    verdict = classify(sqrt_2e_grid(4000), KPolicy.sqrt())
    assert verdict.chosen == NORMAL
    assert verdict.score_normal > verdict.score_exponential


def test_constant_sample_is_inconclusive():
    verdict = classify(SortedSample(np.full(500, 3.7)), KPolicy.sqrt())
    assert verdict.chosen == INCONCLUSIVE
    assert verdict.statistic_normal == verdict.statistic_exponential


def test_scale_invariance():
    base = exponential_grid(2000)
    v0 = classify(base, KPolicy.sqrt())
    for c in (1e-6, 0.5, 3.0, 1e6):
        v1 = classify(SortedSample(base.values * c), KPolicy.sqrt())
        assert v1.chosen == v0.chosen
        assert v1.statistic_exponential == pytest.approx(v0.statistic_exponential, abs=1e-9)
        assert v1.statistic_normal == pytest.approx(v0.statistic_normal, abs=1e-9)


def test_small_sample_rejected():
    with pytest.raises(DomainError, match="need n >= 100, got 99"):
        classify(exponential_grid(99), KPolicy.sqrt())


def test_nonpositive_rejected():
    values = np.sort(np.concatenate([[-1.0], np.arange(1.0, 200.0)]))
    with pytest.raises(DomainError, match="model test requires all values > 0"):
        classify(SortedSample(values), KPolicy.sqrt())


@pytest.mark.parametrize("sample", [
    exponential_grid(4000), sqrt_2e_grid(4000), exponential_grid(100),
    sqrt_2e_grid(777), SortedSample(np.full(500, 3.7)),
], ids=["exp-4000", "half-normal-4000", "exp-100", "half-normal-777", "constant"])
@pytest.mark.parametrize("spec", ["sqrt", "logpow:2", "fixed:20"])
def test_verdict_matches_classify(sample, spec):
    policy = KPolicy.parse(spec)
    k = select_k(policy, sample.n)
    t = de_haan_resnick_log_scale(sample, k)
    assert verdict(t, sample.n, k) == classify(sample, policy)


def test_verdict_small_n_rejected():
    with pytest.raises(DomainError, match="need n >= 100, got 99"):
        verdict(0.1, 99, 9)
    # k = 1 would divide by log k = 0, and k = n by log(n/k) = 0
    for k in (1, 1000):
        with pytest.raises(DomainError, match=rf"^need 2 <= k < n, got k={k}, n=1000$"):
            verdict(0.5, 1000, k)
    # a spacing over log k is never negative: -1.0 gave "exponential" and
    # -100.0 an OverflowError from the Gumbel log-density
    for t in (math.nan, math.inf, -math.inf, -1.0, -100.0):
        with pytest.raises(DomainError) as info:
            verdict(t, 1000, 31)
        assert str(info.value) == f"T_n must be finite and >= 0, got {t}"


def test_verdict_serialization():
    doc = classify(exponential_grid(500), KPolicy.sqrt()).to_dict()
    assert doc["schema"] == 1
    assert doc["chosen"] == EXPONENTIAL
    assert set(doc) >= {"score_normal", "score_exponential",
                        "statistic_normal", "statistic_exponential"}


def test_power_smoke():
    # a short replicate study; the full fixed-seed power regression lives in
    # the acceptance suite
    n, m = 4000, 50
    hits_exp = hits_norm = 0
    for r in range(m):
        u = sorted_uniforms(n, RngSpec(seed=2718, stream_id=r))
        y = SortedSample(-np.log(1.0 - u))
        x = SortedSample(np.sqrt(2.0) * np.sqrt(-np.log(1.0 - u)))
        if classify(y, KPolicy.sqrt()).chosen == EXPONENTIAL:
            hits_exp += 1
        if classify(x, KPolicy.sqrt()).chosen == NORMAL:
            hits_norm += 1
    assert hits_exp / m >= 0.8
    assert hits_norm / m >= 0.8
