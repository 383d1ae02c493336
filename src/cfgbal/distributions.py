"""Finite discrete distributions for nonnegative scalar loads.

Two arithmetic backends coexist: exact rationals (int / Fraction) for the
brute-force oracle and tiny fixtures, and 64-bit floats for everything else.
A distribution whose values and probabilities are all rational supports
bit-exact expectations; mixed or float data falls back to float arithmetic.

Truncation convention: a value exactly equal to the threshold tau counts as
exceptional (X^T = X*1{X < tau}, X^E = X*1{X >= tau}).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational

PROB_SUM_TOL = 1e-12


class ValidationError(ValueError):
    """A distribution or instance violates a structural invariant."""


EXACT_TYPES = frozenset((int, Fraction))


def as_exact(x):
    """Convert a number to Fraction. Floats convert exactly (they are dyadic)."""
    if isinstance(x, Rational):
        return Fraction(x)
    return Fraction(float(x))


def is_finite(x):
    """False for NaN and infinities. Ints and Fractions are finite without a
    float conversion, which would overflow for huge ones."""
    if type(x) is float:  # before isinstance(x, Fraction), an ABC check
        return math.isfinite(x)
    return isinstance(x, (int, Fraction)) or math.isfinite(x)


def all_rational(xs):
    """True when every x in xs is a Rational (an int or a Fraction, say),
    with no Python call per number when xs holds only ints and Fractions,
    or holds a float."""
    kinds = set(map(type, xs))
    return kinds <= EXACT_TYPES or (
        float not in kinds and all(isinstance(x, Rational) for x in xs)
    )


def check_tau(tau):
    if tau <= 0:
        raise ValidationError(f"truncation threshold must be positive, got {tau}")
    return tau


def check_factor(factor):
    if factor <= 0:
        raise ValidationError(f"scale factor must be positive, got {factor}")
    return factor


class DiscreteDistribution:
    """Finite-support nonnegative random variable.

    The support is a tuple of (value, prob) pairs, sorted ascending by value
    with distinct values. Probabilities lie in (0, 1] and sum to one (exactly
    in rational mode, within PROB_SUM_TOL otherwise).
    """

    __slots__ = ("support",)

    def __init__(self, support):
        pairs = [(v, p) for v, p in support]
        if not pairs:
            raise ValidationError("distribution support is empty")
        values, probs = zip(*pairs)
        increasing = all(map(operator.lt, values, values[1:]))
        if not increasing:
            pairs.sort(key=operator.itemgetter(0))  # exact: distinct values may share a float
            values, probs = zip(*pairs)
            increasing = all(map(operator.lt, values, values[1:]))
        total = sum(probs)
        # a float among the probabilities makes their sum a float
        rational = type(total) is not float and all_rational(values + probs)
        # whole-list checks: 0 <= v_1 < ... < v_k < inf, every p in (0, 1]
        # and sum(p) = 1 (exactly, which then bounds each p by 1); when one
        # fails, the loops below name the first offender
        if not (increasing and values[0] >= 0 and min(probs) > 0 and (
            total == 1 if rational
            else values[-1] < math.inf and max(probs) <= 1 and abs(total - 1.0) <= PROB_SUM_TOL
        )):
            for v, p in pairs:
                if not is_finite(v):
                    raise ValidationError(f"non-finite support value {v}")
                if v < 0:
                    raise ValidationError(f"negative support value {v}")
                if not (0 < p <= 1):
                    raise ValidationError(f"probability {p} outside (0, 1]")
            for v1, v2 in zip(values, values[1:]):
                if v1 == v2:
                    raise ValidationError(f"duplicate support value {v1}")
            if (total != 1) if rational else (abs(total - 1.0) > PROB_SUM_TOL):
                raise ValidationError(f"probabilities sum to {total}, expected 1")
        self.support = tuple(pairs)

    def exact(self):
        """This distribution with all values and probabilities exact (ints
        or Fractions): itself when they already are (it is immutable), else
        a copy in Fractions."""
        if {type(x) for pair in self.support for x in pair} <= EXACT_TYPES:
            return self
        return DiscreteDistribution(
            [(as_exact(v), as_exact(p)) for v, p in self.support]
        )

    def mean(self):
        return sum(v * p for v, p in self.support)

    def truncated_mean(self, tau, factor=1):
        """E[aX * 1{aX < tau}] for a = factor > 0; mass at tau itself is
        exceptional.

        With exceptional_mean, the tail kernel every layer prices with: one
        scan of the support, no scaled copy. Each term is (v * a) * p,
        summed by sum() in support order, so the result equals, in value and
        type, the truncated mean of the copy self.scale(a) whenever that copy
        keeps every support point (scale merges points that coincide once
        scaled, e.g. by underflow to 0.0, and the kernel does not).
        """
        check_factor(factor)
        check_tau(tau)
        terms = []
        for v, p in self.support:
            x = v * factor
            if x < tau:
                terms.append(x * p)
        return sum(terms)

    def exceptional_mean(self, tau, factor=1):
        """E[aX * 1{aX >= tau}] for a = factor > 0, term for term as
        truncated_mean."""
        check_factor(factor)
        check_tau(tau)
        terms = []
        for v, p in self.support:
            x = v * factor
            if x >= tau:
                terms.append(x * p)
        return sum(terms)

    def scale(self, factor):
        """Distribution of factor * X for factor > 0; values that coincide
        once scaled merge into the first one, adding their probabilities
        (a float sum past 1 by rounding is 1.0)."""
        check_factor(factor)
        merged = {}
        for v, p in self.support:
            x = v * factor
            merged[x] = min(merged[x] + p, 1.0) if x in merged else p
        return DiscreteDistribution(merged.items())

    def sample(self, rng):
        """Draw one realization using the caller-owned numpy Generator."""
        u = rng.random()
        acc = 0.0
        for v, p in self.support:
            acc += float(p)
            if u < acc:
                return v
        return self.support[-1][0]

    def __eq__(self, other):
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.support == other.support

    def __hash__(self):
        return hash(self.support)

    def __repr__(self):
        pairs = ", ".join(f"({v}, {p})" for v, p in self.support)
        return f"DiscreteDistribution([{pairs}])"


def point_mass(v):
    return DiscreteDistribution([(v, Fraction(1))])


def scaled_bernoulli(value, prob):
    """Distribution value * Ber(prob), i.e. {(0, 1-prob), (value, prob)}."""
    one = Fraction(1)
    if prob == 1:
        return point_mass(value)
    return DiscreteDistribution([(0 * value, one - prob), (value, prob)])
