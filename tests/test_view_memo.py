"""RoutingViewMemo against fresh RoutingRequestViews: at every tau where a
view's split changes (each scaled support value v * (1.0 / c) and each
admissibility threshold float(mean) / c) and one ulp either side, the
memo's view has the fresh view's admissible edges, truncated and
exceptional bits and seed path, or raises a new NoFeasiblePath with its
message; and a threshold search over the memo returns what one over fresh
views does."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal.distributions import DiscreteDistribution
from cfgbal.instances import NoFeasiblePath, RoutingInstance, RoutingRequestView, RoutingViewMemo
from cfgbal.lp import (
    NoFeasibleTau,
    NumericalFailure,
    min_feasible_tau_routing,
    solve_lpp_column_generation,
    threshold_search,
)

CAPACITIES = [1, 2, 3, Fraction(1, 2), Fraction(2, 3), Fraction(3, 2)]
VALUES = [0, 1, 2, 3, Fraction(1, 3), Fraction(5, 2)]


@st.composite
def laws(draw):
    """An exact law over 1-3 of VALUES with p/q probabilities, or its float
    copy."""
    values = sorted(draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3, unique=True)))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(values), max_size=len(values)))
    probs = [Fraction(w, sum(weights)) for w in weights]
    if draw(st.booleans()):
        return DiscreteDistribution(list(zip(values, probs)))
    return DiscreteDistribution([(float(v), float(p)) for v, p in zip(values, probs)])


@st.composite
def routing_instances(draw):
    """A path 0 -> 1 -> ... -> V-1 plus 0-4 more edges (parallel ones
    allowed), p/q capacities, and 1-3 requests from a lower to a higher
    vertex, so each has a path."""
    vertices = draw(st.integers(2, 4))
    arcs = [(u, u + 1) for u in range(vertices - 1)]
    arcs += draw(st.lists(
        st.tuples(st.integers(0, vertices - 1), st.integers(0, vertices - 1)).filter(lambda a: a[0] != a[1]),
        max_size=4,
    ))
    edges = [(u, v, draw(st.sampled_from(CAPACITIES))) for u, v in arcs]
    ends = st.tuples(st.integers(0, vertices - 2), st.integers(1, vertices - 1)).filter(lambda e: e[0] < e[1])
    requests = [(s, t, draw(laws())) for s, t in draw(st.lists(ends, min_size=1, max_size=3))]
    return RoutingInstance(vertices, edges, requests)


def split_taus(r):
    """Every positive tau at which some request's split changes, and one
    ulp either side."""
    taus = set()
    for _, _, law in r.requests:
        for c in set(r.capacities):
            taus.update(v * (1.0 / c) for v, _ in law.support)
            taus.add(float(law.mean()) / c)
    around = {math.nextafter(x, d) for x in taus for d in (-math.inf, math.inf)}
    return sorted(t for t in taus | around if t > 0)


def view_bits(view):
    """What a view tells column generation, in bits: its admissible edges,
    truncated weights, exceptional part per admissible capacity (a one-edge
    path has that bottleneck) and seed path."""
    return (
        view.edge_ids,
        {e: x.hex() for e, x in view.truncated.items()},
        {e: view.exceptional((e,)).hex() for e in view.edge_ids},
        view.seed_path(),
    )


def fresh_or_message(r, j, tau):
    try:
        return view_bits(RoutingRequestView(r, j, tau))
    except NoFeasiblePath as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(routing_instances(), st.randoms(use_true_random=False))
def test_memo_views_match_fresh_views(r, random):
    memo = RoutingViewMemo(r)
    taus = split_taus(r)
    # each tau twice, in a drawn order, so views are met from either side
    # of their split and again after it
    for tau in random.sample(taus * 2, 2 * len(taus)):
        for j in range(r.n):
            expected = fresh_or_message(r, j, tau)
            try:
                got = view_bits(memo.view(j, tau))
            except NoFeasiblePath as exc:
                got = str(exc)
                # a new exception each time, never a cached object
                try:
                    memo.view(j, tau)
                except NoFeasiblePath as again:
                    assert again is not exc
            assert got == expected, (j, tau)


def search_result(r):
    try:
        return repr(min_feasible_tau_routing(r))
    except (NoFeasibleTau, NumericalFailure) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=50, deadline=None)
@given(routing_instances())
def test_search_over_memo_matches_fresh_views(r):
    result = search_result(r)
    assert search_result(r) == result
    assert search_result(RoutingInstance(r.vertices, r.edges, r.requests)) == result
    hi = sum(r.min_expected_cost(j) for j in range(r.n))
    try:
        fresh = repr(threshold_search(lambda t: solve_lpp_column_generation(r, t), hi))
    except (NoFeasibleTau, NumericalFailure) as exc:
        fresh = f"{type(exc).__name__}: {exc}"
    assert fresh == result
