"""Directed-graph helpers: Dijkstra, path enumeration, widest paths.

Edges are (tail, head, capacity) triples addressed by index, so parallel
edges are legal. Paths are tuples of edge indices; the canonical order on
paths is lexicographic on the interleaved (vertex, edge-index) sequence,
which breaks ties deterministically even between parallel edges.
"""

from __future__ import annotations

import heapq

REL_TOL = 1e-12


def path_key(edges, path):
    """Canonical sort key: interleaved vertex and edge-index sequence."""
    if not path:
        return ()
    key = [edges[path[0]][0]]
    for e in path:
        key.append(e)
        key.append(edges[e][1])
    return tuple(key)


def simple_paths(n_vertices, edges, edge_ids, source, sink):
    """Yield all simple source-sink paths (edge-index tuples) in canonical
    order. Exponential in general; callers keep graphs small."""
    return _dfs_paths(_out_edges(edges, edge_ids), source, sink)


def _out_edges(edges, edge_ids):
    """{tail: [(head, edge index)]} in canonical (head, edge index) order."""
    adj = {}
    for e in edge_ids:
        tail, head, _ = edges[e]
        adj.setdefault(tail, []).append((head, e))
    for lst in adj.values():
        lst.sort(key=lambda he: (he[0], he[1]))
    return adj


def _dfs_paths(adj, source, sink, usable=None):
    """Yield the simple source-sink paths over the edges (u, v, e) with
    usable(u, v, e) true, in canonical order: a depth-first search with an
    explicit stack, so path length is not bounded by the recursion limit."""
    if source == sink:
        yield ()
        return
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
        if v in visited or (usable is not None and not usable(u, v, e)):
            continue
        if v == sink:
            yield (*path, e)
            continue
        visited.add(v)
        path.append(e)
        stack.append((v, iter(adj.get(v, ()))))


def dijkstra_to_sink(n_vertices, edges, edge_ids, weights, sink):
    """Shortest-distance-to-sink for every vertex under nonnegative edge
    weights (weights keyed by edge index)."""
    radj = {}
    for e in edge_ids:
        tail, head, _ = edges[e]
        radj.setdefault(head, []).append((tail, e))
    dist = {sink: 0.0}
    heap = [(0.0, sink)]
    done = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        for u, e in radj.get(v, ()):
            nd = d + weights[e]
            if nd < dist.get(u, float("inf")):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist


def lex_shortest_path(n_vertices, edges, edge_ids, weights, source, sink):
    """Minimum-weight simple source-sink path, canonically smallest among
    minimizers; None if the sink is unreachable.

    Works from exact distances-to-sink and walks tight edges depth first in
    canonical order, backtracking if a zero-weight cycle blocks the walk.
    """
    dist = dijkstra_to_sink(n_vertices, edges, edge_ids, weights, sink)
    if source not in dist:
        return None

    def tight(u, v, e):
        if v not in dist:
            return False
        target = dist[u]
        tol = REL_TOL * max(1.0, abs(target))
        return abs(weights[e] + dist[v] - target) <= tol

    return next(_dfs_paths(_out_edges(edges, edge_ids), source, sink, tight), None)


def widest_path_value(n_vertices, edges, edge_ids, source, sink):
    """Maximum over source-sink paths of the minimum capacity along the path
    (bottleneck shortest path); None if unreachable."""
    adj = {}
    for e in edge_ids:
        tail, head, cap = edges[e]
        adj.setdefault(tail, []).append((head, float(cap)))
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
        for v, cap in adj.get(u, ()):
            w = min(best[u], cap)
            if w > best.get(v, 0.0):
                best[v] = w
                heapq.heappush(heap, (-w, v))
    return best.get(sink)
