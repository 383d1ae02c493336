"""LP_C through the tail table against conftest's reference_build_lpc (the
per-step build that priced every configuration through
Configuration.tails): the same rows, dict order included, the same
var_map, verdicts, weights and threshold search, on seeded unrelated,
related-reduced and exact tiny instances at float, int and Fraction taus
and on degenerate instances; build_lpc's entries against the table's
entries of the kept configurations, zeros included, which is what the
warm-started session writes them by; and the table's looked-up values
against the tail kernel itself."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgbal.distributions import DiscreteDistribution, point_mass
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    RelatedInstance,
    Request,
    UnrelatedInstance,
    related_to_unrelated,
    smooth_machines,
    unrelated_to_config,
)
from cfgbal.lp import NumericalFailure, build_lpc, min_feasible_tau, solve_lpc, threshold_search

from conftest import perfbench_gen, reference_build_lpc, reference_solve_lpc, tiny_suite

gen = perfbench_gen()

EXACT_TAUS = (Fraction(1, 2), 1, Fraction(7, 3), 4)
FACTORS = (0.05, 0.3, 0.6, 0.9, 0.999, 1.0, 1.001, 1.5, 2.5)


def suite(name):
    seeds = (1, 1009)
    if name == "unrelated":
        return [unrelated_to_config(gen.unrelated_instance(s, k, 10, 4)) for s in seeds for k in range(2)]
    if name == "related":
        relateds = [smooth_machines(gen.related_instance(s, k, 12, 6))[1] for s in seeds for k in range(2)]
        return [unrelated_to_config(related_to_unrelated(r)) for r in relateds]
    if name == "dense":
        return [gen.dense_config_instance(s, 0, 8, 5) for s in seeds]
    tiny = tiny_suite("config", 12, seed=9100)
    tiny += [unrelated_to_config(u) for u in tiny_suite("unrelated", 6, seed=9200)]
    tiny += [unrelated_to_config(related_to_unrelated(r)) for r in tiny_suite("related", 6, seed=9300)]
    return tiny


def rows_of(program):
    return [(list(coeffs.items()), sense, rhs, name) for coeffs, sense, rhs, name in program.rows]


def assert_build_matches_reference(inst, tau):
    program, var_map = build_lpc(inst, tau)
    want, want_map = reference_build_lpc(inst, tau)
    assert var_map == want_map
    assert program.n_vars == want.n_vars == len(var_map)
    assert rows_of(program) == rows_of(want)


def assert_entries_are_the_table_entries(inst, tau):
    """build_lpc's entries are exactly the table's entries of its kept
    configurations, in table order, zeros included (what the session
    writes them by), each value the tail kernel's; .rows lists no zero
    coefficient. Returns the number of zero entries."""
    program, var_map = build_lpc(inst, tau)
    table = inst.tail_table()
    column = {choice: k for k, choice in enumerate(var_map)}
    truncated = [float(law.truncated_mean(tau, a)) for law, a in table.pairs]
    exceptional = [float(law.exceptional_mean(tau, a)) for law, a in table.pairs]
    values = truncated + exceptional + [1.0]
    want = [
        (r, column[table.choices[k]], values[v])
        for k, r, v in zip(table.entry_config.tolist(), table.entry_row.tolist(), table.entry_value.tolist())
        if table.choices[k] in column
    ]
    got = list(zip(program.row.tolist(), program.col.tolist(), program.val.tolist()))
    assert [(r, k) for r, k, _ in got] == [(r, k) for r, k, _ in want]
    assert bits([v for _, _, v in got]) == bits([v for _, _, v in want])
    assert all(v != 0 for coeffs, _, _, _ in program.rows for v in coeffs.values())
    return sum(v == 0 for _, _, v in got)


def assert_matches_reference(inst, tau):
    assert_build_matches_reference(inst, tau)
    assert outcome(solve_lpc, inst, tau) == outcome(reference_solve_lpc, inst, tau)


def outcome(solve, inst, tau):
    """repr of solve's result, or of the NumericalFailure it raised."""
    try:
        return repr(solve(inst, tau))
    except NumericalFailure as exc:
        return repr(exc)


def reference_search(inst):
    hi = sum(float(min(c.expected_max() for c in req.configs)) for req in inst.requests)
    return threshold_search(lambda t: reference_solve_lpc(inst, t), float(hi))


@pytest.mark.parametrize("name", ["unrelated", "related", "dense", "tiny"])
def test_build_and_solve_match_reference(name):
    zeros = 0
    for inst in suite(name):
        tau, sol = min_feasible_tau(inst)
        assert repr((tau, sol)) == repr(reference_search(inst))
        taus = [f * tau for f in FACTORS] if tau else []
        for t in taus + list(EXACT_TAUS):
            assert_matches_reference(inst, t)
            zeros += assert_entries_are_the_table_entries(inst, t)
    assert zeros  # the suite has zero coefficients for build_lpc to keep


COIN = DiscreteDistribution([(0, Fraction(1, 2)), (2, Fraction(1, 2))])
# its mean scaled by 1 rounds to another float than scaled by 1.0
THIRDS = DiscreteDistribution([(Fraction(1, 3), Fraction(1, 2)), (Fraction(7, 3), Fraction(1, 2))])


def config_instance(m, *requests):
    """ConfigInstance(m, ...) from (request id, [(multipliers, law)]) pairs."""
    return ConfigInstance(m, [Request(j, [Configuration(a, law) for a, law in cfgs]) for j, cfgs in requests])


@pytest.mark.parametrize(
    "inst",
    [
        ConfigInstance(2, []),
        config_instance(2, (0, [([0, 0], COIN), ([1, 0], COIN)])),
        config_instance(1, (4, [([1.0], COIN)]), (2, [([Fraction(1, 2)], COIN)])),
        config_instance(1, (7, [([1], point_mass(2))]), (3, [([1], point_mass(5))])),
        config_instance(2, (0, [([1, 1.0], THIRDS), ([0.5, 2], point_mass(0))])),
    ],
    ids=["no-requests", "zero-largest-multiplier", "zero-value", "all-pruned", "mixed-multipliers"],
)
def test_degenerate_instances_match_reference(inst):
    for tau in (0.5, 1.0, 2.0, 2.5, 3, Fraction(1, 3), 4.0, 6):
        assert_matches_reference(inst, tau)
    assert repr(min_feasible_tau(inst)) == repr(reference_search(inst))


def test_table_is_built_once_per_instance():
    inst = suite("unrelated")[0]
    table = inst.tail_table()
    min_feasible_tau(inst)
    assert inst.tail_table() is table
    # an unrelated configuration's one multiplier is also its largest
    assert len(table.pairs) == sum(len(r.configs) for r in inst.requests)


# ---------------------------------------------------------------------------
# the table against the kernel

U = 5e-324  # the smallest subnormal float
EXACT_VALUES = [0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(7, 3), 3, 10]
FLOAT_VALUES = [0.0, 3 * U, 4 * U, 0.1, 1 / 3, 0.5, 1.0, 2.5, 1e300]
MULTIPLIER = st.sampled_from([1, 1.0, Fraction(1, 3), Fraction(3, 2), 3, 0.25, 2.5, 1e-300, 0])


@st.composite
def laws(draw):
    """Up to 8 points: exact values and probabilities, float ones, or a mix
    of floats with ints and Fractions in both, whose terms the table's
    running sums must add as the kernel's sum() does."""
    kind = draw(st.sampled_from(["exact", "float", "mixed"]))
    pool = {"exact": EXACT_VALUES, "float": FLOAT_VALUES, "mixed": EXACT_VALUES + FLOAT_VALUES}[kind]
    # unique by value: 1 and 1.0 would be one support point
    values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=8, unique=True))
    k = len(values)
    if kind == "mixed":
        probs = draw(st.lists(st.sampled_from([Fraction(1, k), 1.0 / k]), min_size=k, max_size=k))
    else:
        probs = [Fraction(1, k) if kind == "exact" else 1.0 / k] * k
    return DiscreteDistribution(list(zip(values, probs)))


def probe_taus(table):
    third = float(Fraction(1, 3))
    taus = {Fraction(1, 3), third, math.nextafter(third, 0), math.nextafter(third, 1)}
    taus |= {1, 1.0, Fraction(7, 3), 0.5, 2.5, 1e308, U}
    for points in table.breakpoints:
        for x in points:
            taus.add(x)
            if 0 < float(x) < math.inf:
                taus |= {math.nextafter(float(x), 0), math.nextafter(float(x), math.inf)}
    return [t for t in taus if t > 0]


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(laws(), st.lists(MULTIPLIER, min_size=2, max_size=2)), min_size=1, max_size=3))
@example([(DiscreteDistribution([(3 * U, 0.5), (4 * U, 0.5)]), [0.25, 1])])
@example([(THIRDS, [1.0, 1]), (DiscreteDistribution([(Fraction(1, 3), 0.5), (1, 0.5)]), [1, 1.0])])
def test_table_values_are_the_kernel_values(configs):
    inst = ConfigInstance(2, [Request(0, [Configuration(mults, law) for law, mults in configs])])
    table = inst.tail_table()
    assert bits(table.emax) == bits([float(c.expected_max()) for c in inst.requests[0].configs])
    for points in table.breakpoints:
        assert all(x and x <= y for x, y in zip(points, points[1:] + [math.inf]))
    for tau in probe_taus(table):
        truncated, exceptional = table.tails_at(tau)
        assert bits(truncated) == bits([float(law.truncated_mean(tau, a)) for law, a in table.pairs]), tau
        assert bits(exceptional) == bits([float(law.exceptional_mean(tau, a)) for law, a in table.pairs]), tau
        assert_build_matches_reference(inst, tau)


def test_underflow_gives_equal_breakpoints():
    law = DiscreteDistribution([(3 * U, 0.5), (4 * U, 0.5)])
    inst = ConfigInstance(1, [Request(0, [Configuration([0.25], law)])])
    assert inst.tail_table().breakpoints == [[U, U]]


# ---------------------------------------------------------------------------
# the related reduction's shared laws

# repeated speeds, and speeds of one value in two types: 1 and 1.0 give the
# factors Fraction(1) and 1.0, which scale a rational law into other types
SPEEDS = st.sampled_from([1, 1.0, Fraction(1, 2), 0.5, Fraction(2, 3), Fraction(1, 4), 0.25])


def factor(s):
    return 1 / Fraction(s) if isinstance(s, (int, Fraction)) else 1.0 / s


def typed(law):
    return [(type(v), v, type(p), p) for v, p in law.support]


@settings(max_examples=40, deadline=None)
@given(st.lists(SPEEDS, min_size=1, max_size=6), st.lists(laws(), min_size=1, max_size=3))
# values that coincide once scaled: 1/3 and its float under the factor 1.0,
# and two subnormals that halve onto one
@example([1.0, 1.0], [DiscreteDistribution([(Fraction(1, 3), Fraction(1, 2)), (1 / 3, Fraction(1, 2))])])
@example([2], [DiscreteDistribution([(0.0, Fraction(1, 3)), (1.5e-323, Fraction(1, 3)), (2e-323, Fraction(1, 3))])])
def test_related_reduction_shares_a_law_per_factor(speeds, jobs):
    """Two machines share a job's scaled law exactly when their factors
    1 / s match in type and value; each law is the job's law scaled by its
    own factor, and LP_C over the shared reduction is LP_C over one that
    scales every (job, machine) pair apart, at every breakpoint."""
    rows = [[law.scale(factor(s)) for s in speeds] for law in jobs]
    r = RelatedInstance(speeds, jobs)
    u = related_to_unrelated(r)
    keys = [(type(factor(s)), factor(s)) for s in speeds]
    for row, want in zip(u.jobs, rows):
        for i, k in itertools.product(range(r.m), repeat=2):
            assert (row[i] is row[k]) == (keys[i] == keys[k])
        assert [typed(x) for x in row] == [typed(x) for x in want]
    shared = unrelated_to_config(u)
    apart = unrelated_to_config(UnrelatedInstance(r.m, rows))
    for tau in probe_taus(shared.tail_table()):
        program, var_map = build_lpc(shared, tau)
        want, want_map = build_lpc(apart, tau)
        assert var_map == want_map and rows_of(program) == rows_of(want)
        assert program.row.tolist() == want.row.tolist() and program.col.tolist() == want.col.tolist()
        assert bits(program.val) == bits(want.val), tau
