from fractions import Fraction

import numpy as np
import pytest

from cfgbal.distributions import (
    DiscreteDistribution,
    ValidationError,
    point_mass,
    scaled_bernoulli,
)
from cfgbal.instances import Configuration

from conftest import tiny_rng


def d(*pairs):
    return DiscreteDistribution(pairs)


class TestMean:
    def test_two_point_average(self):
        assert d((0, 0.5), (3, 0.5)).mean() == 1.5

    def test_point_mass(self):
        assert point_mass(7).mean() == 7

    def test_weighted_sum(self):
        # 1*0.25 + 2*0.25 + 4*0.5 = 2.75
        assert d((1, 0.25), (2, 0.25), (4, 0.5)).mean() == 2.75


class TestTruncation:
    def test_all_mass_exceptional_or_zero(self):
        assert d((0, 0.5), (3, 0.5)).truncated_mean(2) == 0

    def test_nothing_exceptional(self):
        dist = d((0, 0.5), (3, 0.5))
        assert dist.truncated_mean(4) == 1.5
        assert dist.exceptional_mean(4) == 0

    def test_boundary_value_is_exceptional(self):
        assert d((2, 1)).truncated_mean(2) == 0
        assert d((2, 1)).exceptional_mean(2) == 2

    def test_complement(self):
        assert d((0, 0.5), (3, 0.5)).exceptional_mean(2) == 1.5

    def test_identity_exact(self):
        dist = d((0, Fraction(1, 4)), (1, Fraction(1, 4)), (3, Fraction(1, 2)))
        for tau in (Fraction(1, 2), 1, 2, 3, 5):
            assert dist.truncated_mean(tau) + dist.exceptional_mean(tau) == dist.mean()

    def test_truncated_below_tau(self):
        rng = tiny_rng(5)
        for _ in range(50):
            vals = sorted(set(float(v) for v in rng.uniform(0, 10, size=3)))
            probs = rng.dirichlet([1.0] * len(vals))
            dist = DiscreteDistribution(
                [(v, p) for v, p in zip(vals, probs / probs.sum())]
            )
            tau = float(rng.uniform(0.1, 12))
            assert dist.truncated_mean(tau) < tau

    def test_scale_commutes_with_truncation(self):
        dist = d((0, Fraction(1, 2)), (2, Fraction(1, 4)), (3, Fraction(1, 4)))
        for f in (Fraction(1, 2), 2, 3):
            for tau in (1, 2, Fraction(5, 2)):
                assert dist.scale(f).truncated_mean(tau) == f * dist.truncated_mean(
                    Fraction(tau) / f
                )


class TestScale:
    def test_point(self):
        assert point_mass(1).scale(2) == point_mass(2)

    def test_linear(self):
        assert d((0, 0.5), (2, 0.5)).scale(0.5) == d((0, 0.5), (1, 0.5))

    def test_identity(self):
        dist = d((1, 0.5), (3, 0.5))
        assert dist.scale(1) == dist

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            point_mass(1).scale(0)


class TestValidation:
    def test_empty(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution([])

    def test_negative_value(self):
        with pytest.raises(ValidationError):
            d((-1, 1.0))

    def test_bad_prob_sum(self):
        with pytest.raises(ValidationError):
            d((0, 0.5), (1, 0.4))

    def test_duplicate_values(self):
        with pytest.raises(ValidationError):
            d((1, 0.5), (1, 0.5))

    @pytest.mark.parametrize(
        "pairs, values",
        [
            # distinct values with one float value sort exactly, float first
            (((Fraction(1, 3), 0.5), (1 / 3, 0.5)), [1 / 3, Fraction(1, 3)]),
            (((10**20 + 1, Fraction(1, 2)), (10**20, Fraction(1, 2))), [10**20, 10**20 + 1]),
            # a value without a finite float value sorts too
            (((10**400, Fraction(1, 2)), (1, Fraction(1, 2))), [1, 10**400]),
        ],
    )
    def test_unsorted_support_sorts_by_exact_value(self, pairs, values):
        assert [v for v, _ in d(*pairs).support] == values

    def test_exact_sum_enforced(self):
        with pytest.raises(ValidationError):
            d((0, Fraction(1, 2)), (1, Fraction(1, 3)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value(self, value):
        with pytest.raises(ValidationError, match="non-finite"):
            d((value, 1.0))


class TestSampling:
    def test_point_mass_always(self):
        rng = tiny_rng(0)
        assert all(point_mass(5).sample(rng) == 5 for _ in range(20))

    def test_empirical_mean(self):
        dist = d((0, 0.5), (1, 0.5))
        rng = tiny_rng(42)
        xs = [dist.sample(rng) for _ in range(100_000)]
        assert abs(np.mean(xs) - 0.5) < 0.01

    def test_same_seed_same_sequence(self):
        dist = scaled_bernoulli(3, Fraction(1, 3))
        rng1, rng2 = tiny_rng(9), tiny_rng(9)
        seq1 = [dist.sample(rng1) for _ in range(50)]
        seq2 = [dist.sample(rng2) for _ in range(50)]
        assert seq1 == seq2


class TestExactMode:
    def test_exact_keeps_ints(self):
        law = d((0, Fraction(1, 2)), (2, Fraction(1, 2)))
        assert law.exact() is law
        copy = d((0, Fraction(1, 2)), (2.0, Fraction(1, 2))).exact()
        assert [type(x) for pair in copy.support for x in pair] == [Fraction] * 4

    def test_exact_conversion_roundtrip(self):
        dist = d((0.5, 0.25), (1.5, 0.75))
        ex = dist.exact()
        assert ex.exact() is ex
        assert ex.mean() == Fraction(0.5) * Fraction(0.25) + Fraction(1.5) * Fraction(0.75)


class TestScaledTails:
    def test_boundary_value_is_exceptional(self):
        law = d((1, Fraction(1, 2)), (3, Fraction(1, 2)))
        # scaled supports {1/3, 1} and {2, 6}: the top point sits on tau
        assert law.truncated_mean(1, Fraction(1, 3)) == Fraction(1, 6)
        assert law.exceptional_mean(1, Fraction(1, 3)) == Fraction(1, 2)
        assert (law.truncated_mean(6, 2), law.exceptional_mean(6, 2)) == (1, 3)

    def test_fraction_tau_compared_exactly(self):
        # x = 1.0 * (1/3 in floats) lies just below Fraction(1, 3) but equals
        # float(Fraction(1, 3)): exact comparison makes it truncated
        third = 1.0 / 3.0
        law = DiscreteDistribution([(1.0, Fraction(1))])
        tau = Fraction(1, 3)
        assert (law.truncated_mean(tau, third), law.exceptional_mean(tau, third)) == (third, 0)
        tau = float(tau)
        assert (law.truncated_mean(tau, third), law.exceptional_mean(tau, third)) == (0, third)

    def test_rejects_nonpositive_factor_and_tau(self):
        for tail in (point_mass(1).truncated_mean, point_mass(1).exceptional_mean):
            with pytest.raises(ValidationError):
                tail(1, 0)
            with pytest.raises(ValidationError):
                tail(0, 1)

    def test_underflowing_scale_still_prices(self):
        # the scaled copy merges 0.0 and 5e-324 * 0.5 == 0.0 into a
        # duplicate support value; the kernel needs no copy
        law = DiscreteDistribution([(0.0, 0.5), (5e-324, 0.5)])
        with pytest.raises(ValidationError):
            law.scale(0.5)
        _, [(_, value)] = Configuration([0.5], law).tails(1.0)
        assert value == 0.0 and isinstance(value, float)
