import math

import numpy as np
import pytest

from longtail_kd.losses import BKDConfig, KDConfig
from longtail_kd.mathutils import Rng, check_temperature, derive_seed, softmax_with_temperature
from longtail_kd.pipeline import temperature_sweep


class TestSoftmaxWithTemperature:
    def test_symmetric_logits_give_uniform(self):
        np.testing.assert_allclose(softmax_with_temperature([0.0, 0.0], 1.0), [0.5, 0.5])

    def test_log2_logit(self):
        p = softmax_with_temperature([math.log(2.0), 0.0], 1.0)
        np.testing.assert_allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_high_temperature_limit_is_uniform(self):
        p = softmax_with_temperature([5.0, -3.0, 1.0], 1e6)
        assert np.abs(p - 1.0 / 3.0).max() < 1e-5

    def test_sums_to_one_and_entries_in_unit_interval(self):
        rng = Rng(7)
        for _ in range(200):
            c = 2 + int(rng.uniform() * 9)
            z = 50.0 * rng.normal(c)
            T = math.exp(2.0 * rng.normal())
            p = softmax_with_temperature(z, T)
            assert abs(p.sum() - 1.0) <= 1e-9
            assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_shift_invariance(self):
        rng = Rng(8)
        for _ in range(100):
            z = 10.0 * rng.normal(6)
            shift = 100.0 * rng.normal()
            for T in (0.5, 1.0, 2.0, 4.0):
                a = softmax_with_temperature(z, T)
                b = softmax_with_temperature(z + shift, T)
                assert np.abs(a - b).max() < 1e-12

    def test_entropy_nondecreasing_in_temperature(self):
        def entropy(p):
            mask = p > 0
            return float(-(p[mask] * np.log(p[mask])).sum())

        rng = Rng(9)
        for _ in range(50):
            z = 3.0 * rng.normal(5)
            ents = [entropy(softmax_with_temperature(z, T)) for T in (0.5, 1.0, 2.0, 4.0)]
            assert all(e2 >= e1 - 1e-12 for e1, e2 in zip(ents, ents[1:]))

    def test_huge_logits_do_not_overflow(self):
        p = softmax_with_temperature([1e300, 0.0, -1e300], 1.0)
        np.testing.assert_allclose(p, [1.0, 0.0, 0.0])

    def test_huge_logits_below_unit_temperature_do_not_overflow(self):
        # the max-shift must come before the division by T
        np.testing.assert_array_equal(softmax_with_temperature([1e308, -1e308], 0.5), [1.0, 0.0])

    @pytest.mark.parametrize("bad_t", [0.0, -1.0, math.nan, math.inf])
    def test_bad_temperature_rejected(self, bad_t):
        with pytest.raises(ValueError):
            softmax_with_temperature([0.0, 1.0], bad_t)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError):
            softmax_with_temperature([0.0, math.inf], 1.0)
        with pytest.raises(ValueError):
            softmax_with_temperature([math.nan, 0.0], 1.0)


class TestTemperatureRule:
    @pytest.mark.parametrize("bad_t", [0, -1.0, math.nan, math.inf, -math.inf, "2"])
    def test_every_consumer_refuses_with_the_one_rule(self, bad_t):
        consumers = [
            lambda: KDConfig(temperature=bad_t),
            lambda: BKDConfig(temperature=bad_t),
            lambda: softmax_with_temperature([0.0, 1.0], bad_t),
            # refused before it looks at the data, the teacher or the config
            lambda: temperature_sweep(None, None, None, None, [2.0, bad_t]),
        ]
        for consumer in consumers:
            with pytest.raises(ValueError, match="temperature must be a positive finite real"):
                consumer()

    @pytest.mark.parametrize("t", [1, 0.5, np.float64(3.0), 1e-300])
    def test_positive_finite_reals_pass_as_floats(self, t):
        assert check_temperature(t) == float(t)
        assert type(check_temperature(t)) is float


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = Rng(42)
        b = Rng(42)
        np.testing.assert_array_equal(a.uniform(10_000), b.uniform(10_000))

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(0).uniform(100), Rng(1).uniform(100))

    def test_blocked_draws_match_single_draws(self):
        block = Rng(5).uniform(64)
        single = np.array([Rng.from_state((5, i)).uniform() for i in range(64)])
        np.testing.assert_array_equal(block, single)

    def test_state_roundtrip_continues_stream(self):
        a = Rng(17)
        a.normal(31)  # consume an odd count
        resumed = Rng.from_state(a.state)
        b = Rng(17)
        b.normal(31)
        np.testing.assert_array_equal(resumed.normal(20), b.normal(20))

    def test_uniform_range_and_moments(self):
        u = Rng(3).uniform(200_000)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 2e-3

    @pytest.mark.parametrize("size", [None, 0, (0, 5), 1, 7, (5, 3), (33, 20), (2000, 64)])
    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
    def test_normal_is_the_box_muller_formula_bit_for_bit(self, seed, size):
        # the formula as written before the draw ran in place, from an odd
        # stream position; the stream ends where the formula leaves it
        rng, ref = Rng(seed), Rng(seed)
        rng.normal(3)
        ref.normal(3)
        n = ref._count_of(size)
        pairs = (n + 1) // 2
        raw = ref._raw(2 * pairs)
        u1 = ((raw[:pairs] >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0 ** -53)
        u2 = (raw[pairs:] >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        expected = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        drawn = rng.normal(size)
        if size is None:
            assert type(drawn) is float and np.float64(drawn).tobytes() == expected[0].tobytes()
        else:
            assert drawn.shape == expected.reshape(size).shape and drawn.dtype == np.float64
            assert drawn.tobytes() == expected.tobytes()
        assert rng.state == ref.state

    def test_normal_moments(self):
        x = Rng(4).normal(200_000)
        assert abs(x.mean()) < 8e-3
        assert abs(x.std() - 1.0) < 8e-3

    def test_permutation_is_a_permutation(self):
        p = Rng(11).permutation(257)
        np.testing.assert_array_equal(np.sort(p), np.arange(257))

    @pytest.mark.parametrize("seed", [0, 9, 2**64 - 5])
    def test_draws_across_two_to_the_64_follow_the_wrapped_stream(self, seed):
        # draw i is the SplitMix64 finalizer of seed + i * GOLDEN modulo 2^64,
        # so draw 2^64 + i is draw i; the first such draw once raised
        # OverflowError
        mask = 2**64 - 1

        def splitmix(i):
            z = (seed + i * 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        rng = Rng.from_state((seed, 2**64 - 3))
        assert rng._raw(6).tolist() == [splitmix(i) for i in range(2**64 - 2, 2**64 + 4)]
        assert rng.state == (seed, 3)
        np.testing.assert_array_equal(Rng.from_state((seed, 2**64 - 1)).uniform(4)[1:], Rng(seed).uniform(3))

    @pytest.mark.parametrize("seed", [0, 9, 7919, 2**64 - 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 17, 1242, 15973])
    def test_permutation_is_the_stable_order_of_its_keys(self, seed, n):
        # the keys never tie, so the default sort gives what a stable one gives
        rng = Rng.from_state((seed, 3))
        keys = Rng.from_state(rng.state)._raw(n)
        assert np.unique(keys).size == n
        np.testing.assert_array_equal(rng.permutation(n), np.argsort(keys, kind="stable"))

    def test_derive_seed_is_stable(self):
        # pinned values guard against accidental constant or mask changes
        assert [derive_seed(s, k) for s in (0, 1, 7919) for k in (0, 1)] == [
            16294208416658607535, 7960286522194355700,
            10451216379200822465, 13757245211066428519,
            4858657790420402514, 15316099832671317032,
        ]
        assert derive_seed(2**63, 4) == 903114586442990803
        assert derive_seed(2**64 - 5, 2) == 16279276485729455169
        assert derive_seed(-5, 1) == 10284945619046896904

    @pytest.mark.parametrize("seed, streams", [(0, 5), (1, 5), (7919, 5), (2**63, 5), (2**64 - 5, 5), (-5, 2)])
    def test_derive_seed_is_a_draw_of_the_seeds_stream(self, seed, streams):
        # stream k's seed is the (k + 1)-th raw draw of Rng(seed); the sums
        # wrap modulo 2^64 without a RuntimeWarning
        draws = Rng(seed)._raw(streams)
        assert [derive_seed(seed, k) for k in range(streams)] == [int(d) for d in draws]
        assert all(type(derive_seed(seed, k)) is int for k in range(streams))

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValueError):
            Rng(1.5)
