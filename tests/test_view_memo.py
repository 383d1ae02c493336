"""RoutingViewMemo against fresh RoutingRequestViews: at every tau where a
view's split changes (each scaled support value v * (1.0 / c) and each
admissibility threshold float(mean) / c) and one ulp either side, the
memo's view has the fresh view's admissible edges, truncated and
exceptional bits and seed path, a missing one included; routing_to_config
raises a new NoFeasiblePath for the first request whose admissible edges
hold no path; best_path answers as the edge-order guessing it replaced, and
walks once when the admissible edges hold no path; and a threshold search
over an instance's memo returns what one over fresh views does."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal import instances
from cfgbal.distributions import DiscreteDistribution
from cfgbal.graphs import lex_shortest_path, path_key
from cfgbal.instances import (
    NoFeasiblePath,
    RoutingInstance,
    RoutingRequestView,
    RoutingViewMemo,
    routing_to_config,
)
from cfgbal.lp import (
    NoFeasibleTau,
    NumericalFailure,
    min_feasible_tau_routing,
    solve_lpp_column_generation,
    threshold_search,
)

from conftest import reference_simple_paths

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


@settings(max_examples=100, deadline=None)
@given(routing_instances(), st.randoms(use_true_random=False))
def test_memo_views_match_fresh_views(r, random):
    memo = RoutingViewMemo(r)
    taus = split_taus(r)
    # each tau twice, in a drawn order, so views are met from either side
    # of their split and again after it
    for tau in random.sample(taus * 2, 2 * len(taus)):
        for j in range(r.n):
            expected = view_bits(RoutingRequestView(r, j, tau))
            assert view_bits(memo.view(j, tau)) == expected, (j, tau)


@settings(max_examples=100, deadline=None)
@given(routing_instances())
def test_routing_to_config_raises_at_the_first_disconnected_request(r):
    memo = r.view_memo()
    for tau in split_taus(r):
        paths = []
        for j in range(r.n):
            # neither a fresh view nor the memo raises, connected or not
            view = RoutingRequestView(r, j, tau)
            assert memo.view(j, tau).edge_ids == view.edge_ids
            paths.append(reference_simple_paths(r.vertices, r.edges, view.edge_ids, view.source, view.sink))
        first = next((j for j, found in enumerate(paths) if not found), None)
        if first is None:
            views = routing_to_config(r, tau)
            assert all(view.seed_path() in found for view, found in zip(views, paths, strict=True))
            continue
        source, sink, _ = r.requests[first]
        raised = []
        for _ in range(2):
            try:
                routing_to_config(r, tau)
            except NoFeasiblePath as exc:
                raised.append(exc)
        assert [str(exc) for exc in raised] == [f"request {first}: admissible edges disconnect {source} -> {sink}"] * 2
        assert raised[0] is not raised[1]


def test_a_disconnected_view_walks_once(monkeypatch):
    # capacity 1/2 makes the last edge inadmissible at tau 1, and three
    # admissible capacities make three guesses for best_path
    r = RoutingInstance(
        3, [(0, 1, 3), (0, 1, 2), (0, 1, 1), (1, 2, Fraction(1, 2))], [(0, 2, DiscreteDistribution([(1, 1)]))]
    )
    walks = []
    walk = instances.lex_shortest_path

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(instances, "lex_shortest_path", counted)
    view = RoutingRequestView(r, 0, 1.0)
    assert view.edge_ids == (0, 1, 2) and walks == []
    assert [view.seed_path() for _ in range(3)] == [None] * 3
    assert len(walks) == 1
    for _ in range(2):
        with pytest.raises(NoFeasiblePath):
            routing_to_config(r, 1.0)
    assert len(walks) == 2  # the memo's view walked once, for both calls
    assert view.best_path(view.truncated, len) is None
    assert len(walks) == 3  # its first guess holds every admissible edge


def edge_order_best_path(view, weights, score):
    """best_path's earlier form: one guess per distinct admissible capacity
    in edge order, every guess walked, the first candidate winning ties."""
    r, best = view.instance, None
    caps = r.capacities
    for cap in dict.fromkeys(caps[e] for e in view.edge_ids):
        sub = tuple(e for e in view.edge_ids if caps[e] >= cap)
        path = lex_shortest_path(r.graph, sub, weights, view.source, view.sink)
        if path is not None:
            key = (score(path), path_key(r.edges, path))
            if best is None or key < best[0]:
                best = (key, path, key[0])
    return None if best is None else best[1:]


@settings(max_examples=100, deadline=None)
@given(routing_instances(), st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=7, max_size=7))
def test_best_path_matches_edge_order_guessing(r, drawn):
    for tau in split_taus(r):
        for j in range(r.n):
            view = RoutingRequestView(r, j, tau)
            weights = {e: drawn[e] for e in view.edge_ids}

            def score(path):
                return sum(weights[e] for e in path) + view.exceptional(path)

            assert view.best_path(weights, score) == edge_order_best_path(view, weights, score), (j, tau)


def search_result(r):
    try:
        return repr(min_feasible_tau_routing(r))
    except (NoFeasibleTau, NumericalFailure) as exc:
        return f"{type(exc).__name__}: {exc}"


def fresh_copy(r):
    """r as a new RoutingInstance, whose view memo starts empty."""
    return RoutingInstance(r.vertices, r.edges, r.requests)


@settings(max_examples=50, deadline=None)
@given(routing_instances())
def test_search_over_memo_matches_fresh_views(r):
    result = search_result(r)
    assert search_result(r) == result
    assert search_result(fresh_copy(r)) == result
    hi = sum(r.min_expected_cost(j) for j in range(r.n))
    try:
        # every step on views of its own
        fresh = repr(threshold_search(lambda t: solve_lpp_column_generation(fresh_copy(r), t), hi))
    except (NoFeasibleTau, NumericalFailure) as exc:
        fresh = f"{type(exc).__name__}: {exc}"
    assert fresh == result
