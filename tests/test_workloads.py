import math

import numpy as np
import pytest
from scipy import stats

from hidict.workloads import (
    WorkloadSpec,
    adversarial_rank,
    assigned_frequencies,
    inverse_power_frequencies,
    sample_queries,
    zipf_frequencies,
)


def test_zipf_exact_small_fractions():
    f = zipf_frequencies(3, 1.0)
    # 1, 1/2, 1/3 normalized by 11/6
    assert f == pytest.approx([6 / 11, 3 / 11, 2 / 11])


def test_zipf_head_mass_alpha2():
    # f_1 = 1 / sum(1/i^2) for n = 2000; direct-summation oracle
    n = 2000
    f = zipf_frequencies(n, 2.0)
    z = sum(1.0 / i**2 for i in range(1, n + 1))
    assert f[0] == pytest.approx(1.0 / z)
    assert f[0] == pytest.approx(0.6081, abs=0.001)


def test_zipf_sums_to_one_and_is_decreasing():
    for alpha in (1.0, 1.5, 3.0):
        f = zipf_frequencies(500, alpha)
        assert f.sum() == pytest.approx(1.0)
        assert (np.diff(f) < 0).all()


def test_inverse_power_exact_small_fractions():
    f = inverse_power_frequencies(3, 2.0)
    # 1/2, 1/4, 1/8 normalized by 7/8
    assert f == pytest.approx([4 / 7, 2 / 7, 1 / 7])
    g = inverse_power_frequencies(2, 10.0)
    assert g == pytest.approx([10 / 11, 1 / 11])


def test_inverse_power_tail_ratio():
    # f_n / f_1 = alpha**-(n-1); survives underflow at alpha=1.01, n=2000
    f = inverse_power_frequencies(2000, 1.01)
    assert f[-1] / f[0] == pytest.approx(1.01 ** -1999)
    assert f.sum() == pytest.approx(1.0)


def test_distribution_domain_errors():
    with pytest.raises(ValueError):
        zipf_frequencies(0, 2.0)
    with pytest.raises(ValueError):
        zipf_frequencies(5, 0.5)
    with pytest.raises(ValueError):
        inverse_power_frequencies(5, 1.0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        inverse_power_frequencies(0, 1.5)
    with pytest.raises(ValueError):
        WorkloadSpec("bogus", 5, 2.0, 0.0).base_frequencies()


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_laws_reject_a_non_finite_alpha(alpha):
    # nan fails every comparison, so it would pass a plain bound check
    with pytest.raises(ValueError, match="finite"):
        zipf_frequencies(5, alpha)
    with pytest.raises(ValueError, match="finite"):
        inverse_power_frequencies(5, alpha)


def test_adversarial_rank_identity_at_zero_noise():
    for i in range(1, 21):
        assert adversarial_rank(i, 20, 0.0) == i


def test_adversarial_rank_reversal_at_full_noise():
    n = 20
    for i in range(1, n + 1):
        assert adversarial_rank(i, n, 1.0) == n - i + 1
        # full reversal is an involution
        assert adversarial_rank(adversarial_rank(i, n, 1.0), n, 1.0) == i


def test_adversarial_rank_examples():
    assert adversarial_rank(1, 2000, 0.9) == 1800  # 0.1 + 0.9*2000
    assert adversarial_rank(2000, 2000, 0.9) == 201  # 200 + 0.9, rounded up
    assert adversarial_rank(1, 1, 0.5) == 1


def test_adversarial_rank_domain_errors():
    with pytest.raises(ValueError):
        adversarial_rank(0, 10, 0.5)
    with pytest.raises(ValueError):
        adversarial_rank(11, 10, 0.5)
    with pytest.raises(ValueError):
        adversarial_rank(1, 10, 1.5)


def _scalar_rank(i, n, delta):
    # the noisy rank rule, one key at a time in Python floats
    return min(n, max(1, math.floor(i * (1.0 - delta) + delta * (n - i + 1) + 0.5)))


@pytest.mark.parametrize("n", [1, 2, 7, 999, 1000, 2000])
@pytest.mark.parametrize("delta", [0.0, 0.3, 0.5, 0.9, 1.0, 1 / 3])
def test_assigned_frequencies_follow_the_scalar_rule(n, delta):
    # the vectorized ranks pick, key by key, the base frequency the scalar
    # rule picks, to the byte
    spec = WorkloadSpec("zipfian", n, 1.5, delta)
    idx = [_scalar_rank(i, n, delta) - 1 for i in range(1, n + 1)]
    assert [adversarial_rank(i, n, delta) for i in range(1, n + 1)] == [j + 1 for j in idx]
    expect = spec.base_frequencies()[idx]
    if expect.sum() > 1.0 + 1e-6:
        expect = expect / expect.sum()
    assert assigned_frequencies(spec).tobytes() == expect.tobytes()


def test_assigned_frequencies_reject_a_bad_delta():
    with pytest.raises(ValueError, match="delta must be in"):
        assigned_frequencies(WorkloadSpec("zipfian", 5, 1.0, 1.5))


def test_assigned_frequencies_reversal():
    spec = WorkloadSpec("zipfian", 3, 1.0, 1.0)
    f = assigned_frequencies(spec)
    assert f == pytest.approx([2 / 11, 3 / 11, 6 / 11])


def test_assigned_frequencies_sum_bounded():
    for delta in (0.0, 0.3, 0.9, 1.0):
        spec = WorkloadSpec("inverse_power", 500, 1.01, delta)
        assert assigned_frequencies(spec).sum() <= 1.0 + 1e-6


def test_sample_queries_deterministic():
    f = zipf_frequencies(50, 2.0)
    a = sample_queries(f, 1000, seed=9)
    b = sample_queries(f, 1000, seed=9)
    assert (a == b).all()
    assert (sample_queries(f, 1000, seed=10) != a).any()


def test_sample_queries_point_mass():
    f = np.array([0.0, 1.0, 0.0])
    assert (sample_queries(f, 100, seed=0) == 2).all()


def test_sample_queries_head_frequency_within_3_sigma():
    f = zipf_frequencies(100, 2.0)
    count = 50_000
    q = sample_queries(f, count, seed=4)
    p = float(f[0])
    sigma = (count * p * (1 - p)) ** 0.5
    assert abs((q == 1).sum() - count * p) <= 3 * sigma


def test_sample_queries_chi_square():
    f = zipf_frequencies(20, 1.0)
    count = 100_000
    q = sample_queries(f, count, seed=5)
    observed = np.bincount(q, minlength=21)[1:]
    _, p = stats.chisquare(observed, count * f)
    assert p > 0.001


def test_sample_queries_validates_distribution():
    with pytest.raises(ValueError):
        sample_queries(np.array([0.5, 0.4]), 10, 0)
    with pytest.raises(ValueError):
        sample_queries(np.array([-0.5, 1.5]), 10, 0)


@pytest.mark.parametrize("f", [[float("nan")] * 3, [0.5, 0.5, float("nan")],
                               [float("inf"), 0.5, 0.5]])
def test_sample_queries_refuses_non_finite_frequencies(f):
    with pytest.raises(ValueError):
        sample_queries(np.array(f), 10, 0)
