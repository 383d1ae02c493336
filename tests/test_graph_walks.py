"""Hypothesis differential test of the walks of cfgbal.graphs (reachability,
lex-shortest and widest paths) against the recursive reference walks in
tests/conftest.py."""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal.graphs import Digraph, lex_shortest_path, reachable, widest_path_value

from conftest import reference_lex_shortest_path, reference_simple_paths


@st.composite
def digraphs(draw):
    """Small digraphs with self-loops, parallel edges and, through the many
    zero weights, zero-weight cycles."""
    nv = draw(st.integers(1, 6))
    vertex = st.integers(0, nv - 1)
    capacity = st.sampled_from([1, 2, Fraction(1, 2), 0.75])
    edges = draw(st.lists(st.tuples(vertex, vertex, capacity), max_size=14))
    weights = {e: draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])) for e in range(len(edges))}
    ids = draw(st.permutations(range(len(edges))))
    ids = ids[: draw(st.integers(0, len(ids)))]
    return nv, edges, ids, weights, draw(vertex), draw(vertex)


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_walks_match_recursive_reference(graph):
    nv, edges, ids, weights, source, sink = graph
    g = Digraph(edges)
    paths = reference_simple_paths(nv, edges, ids, source, sink)
    assert reachable(g, ids, source, sink) == bool(paths)
    best = lex_shortest_path(g, ids, weights, source, sink)
    assert best == reference_lex_shortest_path(nv, edges, ids, weights, source, sink)
    # the reference shares dijkstra_to_sink; check the weight against the paths
    if paths:
        assert sum(weights[e] for e in best) == min(sum(weights[e] for e in p) for p in paths)
    else:
        assert best is None
    widths = [
        min((float(edges[e][2]) for e in path), default=math.inf)
        for path in reference_simple_paths(nv, edges, range(len(edges)), source, sink)
    ]
    assert widest_path_value(g, source, sink) == max(widths, default=None)
