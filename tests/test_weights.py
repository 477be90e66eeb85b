import numpy as np
import pytest

from longtail_kd.mathutils import Rng
from longtail_kd.weights import effective_number_weights, normalize_weights


class TestEffectiveNumberWeights:
    def test_count_one_gives_exactly_one(self):
        for beta in (0.1, 0.5, 0.9, 0.9999, 1 - 1e-12):
            w = effective_number_weights([1], beta)
            assert w[0] == 1.0

    def test_large_count_near_one_beta(self):
        # frozen oracle: 60-digit evaluation of (1-b)/(1-b^n) at the exact
        # double b = 0.9999, n = 10000 -> 1.5819306726109765e-4
        w = effective_number_weights([10_000], 0.9999)
        assert abs(w[0] - 1.5819306726109765e-4) < 1e-18

    def test_two_class_example(self):
        # frozen oracle: exact rational evaluation at the double 0.9
        w = effective_number_weights([1000, 10], 0.9)
        assert abs(w[0] - 0.1) < 1e-12
        assert abs(w[1] - 0.15353399327876294) < 1e-15

    def test_monotone_nonincreasing_in_count(self):
        rng = Rng(21)
        for _ in range(100):
            counts = np.sort((1 + rng.uniform(8) * 10_000).astype(np.int64))[::-1]
            beta = 0.5 + 0.4999 * rng.uniform()
            w = effective_number_weights(counts, beta)
            assert np.all(np.diff(w) >= 0)  # counts nonincreasing -> weights nondecreasing

    def test_strictly_increasing_for_strictly_decreasing_counts(self):
        w = effective_number_weights([5000, 2000, 500, 100, 20, 5, 1], 0.9999)
        assert np.all(np.diff(w) > 0)
        assert w[-1] == 1.0

    def test_small_beta_limit_all_near_one(self):
        # at 1e-300 and 2**-54, 1 - beta rounds to 1.0, which once took
        # log1p(-1) with numpy's divide warning
        for beta in (1e-9, 1e-300, 2**-54):
            w = effective_number_weights([1, 10, 1000, 10_000_000], beta)
            assert np.abs(w - 1.0).max() < 1e-6

    def test_large_count_limit_approaches_one_minus_beta(self):
        w = effective_number_weights([10_000_000], 0.99)
        assert abs(w[0] - (1.0 - 0.99)) < 1e-9

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 1.5])
    def test_beta_outside_open_interval_rejected(self, beta):
        with pytest.raises(ValueError):
            effective_number_weights([10, 5], beta)

    def test_zero_or_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            effective_number_weights([10, 0], 0.9)
        with pytest.raises(ValueError):
            effective_number_weights([-3], 0.9)


class TestNormalizeWeights:
    def test_mean_one_fixes_uniform(self):
        np.testing.assert_allclose(normalize_weights([1.0, 1.0, 1.0]), [1, 1, 1])

    def test_mean_one_scales_to_class_count(self):
        np.testing.assert_allclose(normalize_weights([2.0, 4.0]), [2 / 3, 4 / 3])

    def test_mean_one_preserves_ratios_and_order(self):
        rng = Rng(22)
        for _ in range(50):
            w = np.exp(2.0 * rng.normal(6))
            scaled = normalize_weights(w)
            assert abs(scaled.sum() - 6.0) < 1e-12
            np.testing.assert_allclose(scaled[None, :] / scaled[:, None], w[None, :] / w[:, None], rtol=1e-12)
            assert np.argmax(scaled) == np.argmax(w) and np.argmin(scaled) == np.argmin(w)

    def test_nonpositive_weights_rejected(self):
        with pytest.raises(ValueError):
            normalize_weights([1.0, 0.0])

    def test_empty_weight_vector_rejected(self):
        with pytest.raises(ValueError, match=r"^weights must be a non-empty vector of finite positive reals, one per class"):
            normalize_weights([])
