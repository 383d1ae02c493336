"""Hypothesis differential test of the explicit-stack path walks against
the recursive reference walks in tests/conftest.py."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal.graphs import lex_shortest_path, simple_paths

from conftest import reference_lex_shortest_path, reference_simple_paths


@st.composite
def digraphs(draw):
    """Small digraphs with self-loops, parallel edges and, through the many
    zero weights, zero-weight cycles."""
    nv = draw(st.integers(1, 6))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.just(1)), max_size=14))
    weights = {e: draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.0])) for e in range(len(edges))}
    ids = draw(st.permutations(range(len(edges))))
    return nv, edges, ids, weights, draw(vertex), draw(vertex)


@settings(max_examples=200, deadline=None)
@given(digraphs())
def test_walks_match_recursive_reference(graph):
    nv, edges, ids, weights, source, sink = graph
    assert list(simple_paths(nv, edges, ids, source, sink)) == reference_simple_paths(
        nv, edges, ids, source, sink
    )
    assert lex_shortest_path(nv, edges, ids, weights, source, sink) == reference_lex_shortest_path(
        nv, edges, ids, weights, source, sink
    )
