"""Directed-graph walks: Dijkstra, lex-shortest paths, widest paths.

Edges are (tail, head, capacity) triples addressed by index, so parallel
edges are legal. Paths are tuples of edge indices; the canonical order on
paths is lexicographic on the interleaved (vertex, edge-index) sequence,
which breaks ties deterministically even between parallel edges.

One Digraph holds the adjacency of an instance's edges, built once. A walk
over a subset of the edges takes the usable edge ids and skips the rest.
"""

from __future__ import annotations

import heapq

REL_TOL = 1e-12


class Digraph:
    """Adjacency of an edge list: out[u] holds the (head, e) pairs leaving u
    in canonical (head, e) order, into[v] the (tail, e) pairs entering v in
    edge order."""

    __slots__ = ("edges", "out", "into")

    def __init__(self, edges):
        self.edges = edges
        self.out = {}
        self.into = {}
        for e, (tail, head, _) in enumerate(edges):
            self.out.setdefault(tail, []).append((head, e))
            self.into.setdefault(head, []).append((tail, e))
        for lst in self.out.values():
            lst.sort()


def path_key(edges, path):
    """Canonical sort key: interleaved vertex and edge-index sequence."""
    if not path:
        return ()
    key = [edges[path[0]][0]]
    for e in path:
        key.append(e)
        key.append(edges[e][1])
    return tuple(key)


def reachable(g, edge_ids, source, sink):
    """Whether the edges edge_ids hold a directed source-sink path."""
    allowed = set(edge_ids)
    seen = {source}
    stack = [source]
    while stack:
        u = stack.pop()
        if u == sink:
            return True
        for v, e in g.out.get(u, ()):
            if e in allowed and v not in seen:
                seen.add(v)
                stack.append(v)
    return False


def dijkstra_to_sink(g, edge_ids, weights, sink):
    """Shortest-distance-to-sink for every vertex over edge_ids under
    nonnegative edge weights (weights keyed by edge index)."""
    allowed = set(edge_ids)
    dist = {sink: 0.0}
    heap = [(0.0, sink)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u, e in g.into.get(v, ()):
            if e not in allowed:
                continue
            nd = d + weights[e]
            if nd < dist.get(u, float("inf")):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def lex_shortest_path(g, edge_ids, weights, source, sink):
    """Minimum-weight simple source-sink path over edge_ids, canonically
    smallest among minimizers; None if the sink is unreachable.

    Works from exact distances-to-sink and walks tight edges depth first in
    canonical order, with an explicit stack (so path length is not bounded
    by the recursion limit), backtracking if a zero-weight cycle blocks the
    walk.
    """
    allowed = set(edge_ids)
    dist = dijkstra_to_sink(g, allowed, weights, sink)
    if source not in dist:
        return None
    if source == sink:
        return ()
    adj = g.out
    path = []
    visited = {source}
    stack = [(source, iter(adj.get(source, ())))]
    while stack:
        u, out = stack[-1]
        step = next(out, None)
        if step is None:
            stack.pop()
            if path:
                path.pop()
                visited.remove(u)
            continue
        v, e = step
        if v in visited or e not in allowed or v not in dist:
            continue
        target = dist[u]
        if abs(weights[e] + dist[v] - target) > REL_TOL * max(1.0, abs(target)):
            continue  # not tight
        if v == sink:
            return (*path, e)
        visited.add(v)
        path.append(e)
        stack.append((v, iter(adj.get(v, ()))))
    return None


def widest_path_value(g, source, sink):
    """Maximum over source-sink paths of the minimum capacity along the path
    (bottleneck shortest path); None if unreachable."""
    edges = g.edges
    best = {source: float("inf")}
    heap = [(-float("inf"), source)]
    done = set()
    while heap:
        negw, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == sink:
            return best[u]
        for v, e in g.out.get(u, ()):
            w = min(best[u], float(edges[e][2]))
            if w > best.get(v, 0.0):
                best[v] = w
                heapq.heappush(heap, (-w, v))
    return best.get(sink)
