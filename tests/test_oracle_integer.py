"""The integer oracle walkers against the Fraction references of
tests/conftest.py, and the load grid at the oracle's public boundary."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cfgbal.distributions import DiscreteDistribution, ValidationError
from cfgbal.instances import Configuration, ConfigInstance, Request, gen_adaptivity_gap_instance
from cfgbal.oracle import (
    AdaptiveOracle,
    RestartPolicy,
    StateSpaceExceeded,
    evaluate_policy,
    non_adaptive_policy,
    outcome_table,
    to_config_instance,
)
from cfgbal.simulate import simulate_adaptive_config

from conftest import (
    ReferenceOracle,
    reference_evaluate_policy,
    reference_outcome_table,
    reference_restart_value,
)

# mixed denominators: thirds, sevenths and dyadic floats (0.1 is 3602879701896397 / 2**55)
VALUES = (0, Fraction(1, 3), Fraction(2, 7), 0.1, 0.75, 1, Fraction(3, 2), 2)
MULTS = (0, Fraction(1, 3), Fraction(1, 2), 0.75, 1, 2)
PROBS = {
    1: [(1,)],
    2: [(Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 7), Fraction(5, 7)), (0.25, 0.75)],
    3: [(Fraction(1, 3), Fraction(2, 7), Fraction(8, 21)), (0.375, 0.5, 0.125)],
}


# exact products that reduce: (2/3) * (3/4) = 1/2, (4/3) * (3/2) = 2, (8/3) * (9/8) = 3
REDUCING_VALUES = (0, Fraction(3, 4), Fraction(3, 2), Fraction(9, 8), Fraction(1, 3), 1, 3)
REDUCING_MULTS = (0, Fraction(2, 3), Fraction(4, 3), Fraction(8, 3), Fraction(1, 2), 1, 2)


@st.composite
def laws(draw, values=VALUES):
    size = draw(st.integers(1, 3))
    values = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size, unique=True))
    probs = draw(st.sampled_from(PROBS[size]))
    return DiscreteDistribution(list(zip(values, probs)))


@st.composite
def instances(draw, values=VALUES, mults=MULTS):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    requests = []
    for j in range(n):
        q = draw(st.integers(1, 2))
        configs = [
            Configuration(draw(st.lists(st.sampled_from(mults), min_size=m, max_size=m)), draw(laws(values)))
            for _ in range(q)
        ]
        requests.append(Request(j, configs))
    return ConfigInstance(m, requests)


@settings(max_examples=80, deadline=None)
@given(st.one_of(instances(), instances(REDUCING_VALUES, REDUCING_MULTS)))
def test_outcome_table_is_the_reference_times_d_and_p(inst):
    """The int table is the Fraction table scaled by D and P, with D and P
    the lcm of the reduced denominators of every a * v and every p."""
    inst = to_config_instance(inst)
    table, den, pden = outcome_table(inst)
    ref = reference_outcome_table(inst)
    points = [point for rows in ref.values() for _, _, outcomes in rows for point in outcomes]
    assert den == math.lcm(1, *(x.denominator for _, _, _, increments in points for _, x in increments))
    assert pden == math.lcm(1, *(p.denominator for _, p, _, _ in points))
    assert table.keys() == ref.keys()
    for j, rows in ref.items():
        want = tuple(
            (
                emax * den * pden,
                tuple((v, p * pden, peak * den, tuple((i, x * den) for i, x in incs)) for v, p, peak, incs in outs),
            )
            for emax, _, outs in rows
        )
        assert table[j] == want
        ints = [x for emax, outs in table[j] for _, p, peak, incs in outs for x in (emax, p, peak, *dict(incs).values())]
        assert all(type(x) is int for x in ints)


@settings(max_examples=60, deadline=None)
@given(st.one_of(instances(), instances(REDUCING_VALUES, REDUCING_MULTS)), st.data())
def test_integer_walkers_match_fraction_references(inst, data):
    oracle = AdaptiveOracle(inst)
    ref = ReferenceOracle(inst)
    opt = oracle.value()
    assert type(opt) is Fraction and opt == ref.value()
    assert len(oracle._value) == len(ref._value)
    assert oracle.tree_text() == ref.tree_text()

    # the value and choice at a state off the optimal tree, from grid loads
    sub = frozenset(data.draw(st.sets(st.sampled_from(sorted(oracle.all_ids)))))
    grid = data.draw(st.lists(st.integers(0, 3 * oracle.den), min_size=inst.m, max_size=inst.m))
    loads = tuple(Fraction(k, oracle.den) for k in grid)
    assert oracle.value(sub, loads) == ref.value(sub, loads)
    assert oracle.choice(sub, loads) == ref.choice(sub, loads)

    tau = data.draw(st.sampled_from([opt or 1, Fraction(1, 3), 0.75, 2]))
    fixed = non_adaptive_policy({r.id: len(r.configs) - 1 for r in inst.requests})
    for policy in (oracle.policy(), fixed):
        got = evaluate_policy(inst, policy, tau)
        assert tuple(got) == reference_evaluate_policy(inst, policy, tau)
    tau = 2 * opt if opt else Fraction(1)
    assert tuple(RestartPolicy(inst, tau).value()) == reference_restart_value(inst, tau)


@settings(max_examples=25, deadline=None)
@given(instances())
def test_max_states_counts_memo_states(inst):
    ref = ReferenceOracle(inst)
    opt = ref.value()
    states = len(ref._value)
    assert AdaptiveOracle(inst, max_states=states).value() == opt
    with pytest.raises(StateSpaceExceeded):
        AdaptiveOracle(inst, max_states=states - 1).value()


class TestGapFamily:
    def test_m6_value_and_states(self):
        oracle = AdaptiveOracle(gen_adaptivity_gap_instance(6, 2))
        assert oracle.value() == Fraction(17, 12)
        assert len(oracle._value) == 13_464

    @pytest.mark.parametrize("tau", [2, 3, 4])
    def test_m3_float_loads_snap_to_the_exact_tree(self, tau):
        inst = gen_adaptivity_gap_instance(3, tau)
        oracle = AdaptiveOracle(inst)
        ref = ReferenceOracle(inst)
        oracle.value()
        states = len(oracle._value)
        queries = []

        def policy(remaining, loads):
            queries.append((remaining, loads))
            return oracle.choice(remaining, loads)

        simulate_adaptive_config(oracle.inst, policy, 200, tau, tau=float(tau))
        assert len(oracle._value) == states
        off_grid = 0
        for remaining, loads in queries:
            exact = tuple(Fraction(x).limit_denominator(1000) for x in loads)
            off_grid += exact != tuple(map(Fraction, loads))
            assert oracle.choice(remaining, loads) == ref.choice(remaining, exact)
        assert off_grid > 0  # float sums of 1/3 left the grid and snapped back

    def test_loads_off_the_grid_raise(self):
        oracle = AdaptiveOracle(gen_adaptivity_gap_instance(3, 2))
        ids = oracle.all_ids
        assert oracle.den == 3
        assert oracle.value(ids, (1 / 3, 0, 0)) == oracle.value(ids, (Fraction(1, 3), 0, 0))
        bad_loads = [(0.5, 0, 0), (Fraction(1, 2), 0, 0), (1 / 3 + 1e-6, 0, 0), (float("nan"), 0, 0), (0, 0)]
        for loads in bad_loads:
            with pytest.raises(ValidationError):
                oracle.value(ids, loads)
            with pytest.raises(ValidationError):
                oracle.choice(ids, loads)
