"""Differential test of the tail kernel against a scaled copy of the law."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfgbal.distributions import DiscreteDistribution, ValidationError


# values and factors span subnormals to large magnitudes, so scaled support
# points can collide (scale then rejects the copy) or round to the boundary
_floats = st.floats(min_value=0.0, max_value=1e12, allow_nan=False, allow_subnormal=True)
_fractions = st.fractions(min_value=0, max_value=1000, max_denominator=64)
_values = st.one_of(_floats, _fractions, st.integers(min_value=0, max_value=1000))
_factors = st.one_of(
    st.floats(min_value=5e-324, max_value=1e6, allow_nan=False, allow_subnormal=True),
    st.fractions(min_value=0, max_value=100, max_denominator=64).filter(lambda f: f > 0),
    st.integers(min_value=1, max_value=50),
)


@st.composite
def laws(draw):
    """Float, exact and mixed laws: each value and each probability picks
    its own type."""
    values = draw(st.lists(_values, min_size=1, max_size=5))
    weights = draw(st.lists(st.integers(1, 8), min_size=len(values), max_size=len(values)))
    total = sum(weights)
    exact = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    pairs = [
        (v, Fraction(w, total) if ex else w / total)
        for v, w, ex in zip(values, weights, exact)
    ]
    try:
        return DiscreteDistribution(pairs)
    except ValidationError:
        assume(False)


@st.composite
def law_factor_tau(draw):
    """A law, a factor, and a threshold that is often a scaled support point
    (the boundary rule) and otherwise an arbitrary float or Fraction."""
    law = draw(laws())
    factor = draw(_factors)
    scaled = [v * factor for v, _ in law.support]
    tau = draw(st.one_of(
        st.sampled_from(scaled),
        st.floats(min_value=1e-300, max_value=1e13, allow_nan=False),
        st.fractions(min_value=0, max_value=2000, max_denominator=64),
    ))
    assume(tau > 0)
    return law, factor, tau


class TestScaledTails:
    @settings(max_examples=400, deadline=None)
    @given(law_factor_tau())
    def test_matches_scaled_copy(self, case):
        law, factor, tau = case
        scaled = law.scale(factor)
        # a copy that merged points sums their probabilities before scaling
        assume(len(scaled.support) == len(law.support))
        want = (scaled.truncated_mean(tau), scaled.exceptional_mean(tau))
        # the same sums spelled out on the copy, independent of the kernel
        direct = (
            sum(v * p for v, p in scaled.support if v < tau),
            sum(v * p for v, p in scaled.support if v >= tau),
        )
        got = (law.truncated_mean(tau, factor), law.exceptional_mean(tau, factor))
        assert got == want == direct
        assert [type(x) for x in got] == [type(x) for x in want] == [type(x) for x in direct]
