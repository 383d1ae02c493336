"""Shared fixtures and independent brute-force oracles.

The brute-force computations here deliberately avoid the library's oracle
and LP machinery so the tests cross-check two genuinely different routes to
the same quantity.
"""

from fractions import Fraction

import numpy as np
import pytest

from cfgbal.distributions import DiscreteDistribution
from cfgbal.graphs import path_key
from cfgbal.instances import random_tiny_instance
from cfgbal.lp import LinearProgram, solve_feasibility, Infeasible
from cfgbal.instances import routing_to_config, NoFeasiblePath
from cfgbal.simulate import request_stream


def tiny_rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def tiny_suite(kind, count, seed=12345, **bounds):
    """Deterministic list of random tiny instances."""
    out = []
    for k in range(count):
        rng = tiny_rng(seed + k)
        out.append(random_tiny_instance(kind, rng, **bounds))
    return out


def brute_force_unrelated_opt(u):
    """Optimal adaptive expected makespan for an unrelated instance by
    direct recursion on (remaining jobs, machine loads); no reduction to
    configuration balancing involved."""
    n, m = u.n, u.m
    memo = {}

    def go(remaining, loads):
        if not remaining:
            return max(loads)
        key = (remaining, loads)
        if key in memo:
            return memo[key]
        best = None
        for j in sorted(remaining):
            rest = remaining - {j}
            for i in range(m):
                law = u.jobs[j][i]
                q = Fraction(0)
                for v, p in law.support:
                    new = list(loads)
                    new[i] += Fraction(v)
                    q += Fraction(p) * go(rest, tuple(new))
                if best is None or q < best:
                    best = q
        memo[key] = best
        return best

    return go(frozenset(range(n)), tuple(Fraction(0) for _ in range(m)))


def full_path_lp(r, tau):
    """Path LP over ALL enumerated simple paths (the exhaustive-route check
    for column generation). Returns a FractionalSolution-like dict or
    Infeasible."""
    try:
        views = routing_to_config(r, tau)
    except NoFeasiblePath as exc:
        return Infeasible(str(exc))
    columns = []
    for j, view in enumerate(views):
        for path in view.paths():
            columns.append((j, path))
    names = [f"y_{j}_{'_'.join(map(str, path))}" for j, path in columns]
    lp = LinearProgram(names)
    for j in range(r.n):
        lp.add_row(
            {k: 1.0 for k, (jj, _) in enumerate(columns) if jj == j},
            "=",
            1.0,
            f"req_{j}",
        )
    t = float(tau)
    for e in range(r.m):
        coeffs = {}
        for k, (j, path) in enumerate(columns):
            if e in path:
                law = r.requests[j][2]
                cap = float(r.edges[e][2])
                coeffs[k] = float(law.scale(1.0 / cap).truncated_mean(tau))
        lp.add_row(coeffs, "<=", t, f"trunc_{e}")
    coeffs = {}
    for k, (j, path) in enumerate(columns):
        law = r.requests[j][2]
        c_min = min(float(r.edges[e][2]) for e in path)
        coeffs[k] = float(law.scale(1.0 / c_min).exceptional_mean(tau))
    lp.add_row(coeffs, "<=", t, "exc")
    x = solve_feasibility(lp)
    if isinstance(x, Infeasible):
        return x
    return {(j, path): x[k] for k, (j, path) in enumerate(columns)}


def brute_force_min_dphi(r, state, j):
    """Enumerate all admissible paths of request j and compute the potential
    increase from scratch; returns (best path, best value) under the
    canonical tie rule."""
    tau = state.tau
    source, sink, law = r.requests[j]
    mean = float(law.mean())
    edge_ids = tuple(
        e for e, (_, _, cap) in enumerate(r.edges) if mean / float(cap) <= tau
    )
    from cfgbal.graphs import simple_paths

    best = None
    for path in simple_paths(r.vertices, r.edges, edge_ids, source, sink):
        c_min = min(float(r.edges[e][2]) for e in path)
        exc = float(law.scale(1.0 / c_min).exceptional_mean(tau))
        d = 1.5 ** ((state.loads[0] + exc) / tau) - 1.5 ** (state.loads[0] / tau)
        d += sum(
            1.5
            ** (
                (
                    state.loads[e + 1]
                    + float(law.scale(1.0 / float(r.edges[e][2])).truncated_mean(tau))
                )
                / tau
            )
            - 1.5 ** (state.loads[e + 1] / tau)
            for e in path
        )
        key = (d, path_key(r.edges, path))
        if best is None or key < best[0]:
            best = (key, path, d)
    if best is None:
        return None, None
    return best[1], best[2]


def random_dag_routing(seed, max_edges=12):
    """Random routing DAG with at most max_edges edges; vertex 0 is every
    source, the last vertex every sink, and a spine guarantees a path."""
    rng = tiny_rng(seed + 777000)
    nv = int(rng.integers(3, 6))
    caps = (Fraction(1, 2), 1, 2, 4)
    edges = []
    for u in range(nv - 1):
        edges.append((u, u + 1, caps[int(rng.integers(0, len(caps)))]))
    extras = int(rng.integers(0, max_edges - len(edges) + 1))
    for _ in range(extras):
        u = int(rng.integers(0, nv - 1))
        v = int(rng.integers(u + 1, nv))
        edges.append((u, v, caps[int(rng.integers(0, len(caps)))]))
        if len(edges) >= max_edges:
            break
    n_req = int(rng.integers(1, 3))
    values = (Fraction(1, 2), 1, 2)
    requests = []
    for _ in range(n_req):
        v = values[int(rng.integers(0, len(values)))]
        if rng.integers(0, 2):
            law = DiscreteDistribution([(0, Fraction(1, 2)), (v, Fraction(1, 2))])
        else:
            law = DiscreteDistribution([(v, Fraction(1))])
        requests.append((0, nv - 1, law))
    from cfgbal.instances import RoutingInstance

    return RoutingInstance(nv, edges, requests)


def _exact_configs(inst):
    """{request id: [(multipliers, support)]} of a configuration instance,
    every number as a Fraction."""
    return {
        r.id: [
            (
                tuple(Fraction(a) for a in c.multipliers),
                [(Fraction(v), Fraction(p)) for v, p in c.law.support],
            )
            for c in r.configs
        ]
        for r in inst.requests
    }


def brute_force_config_opt(inst):
    """Optimal adaptive expected makespan of a configuration instance by
    direct recursion on (remaining requests, loads), with its decision rule
    decide(remaining, loads) -> (request, config), ties to the lowest pair.
    Returns (value, decide)."""
    configs = _exact_configs(inst)
    memo = {}

    def go(remaining, loads):
        if not remaining:
            return max(loads), None
        key = (remaining, loads)
        if key in memo:
            return memo[key]
        best = None
        for j in sorted(remaining):
            rest = remaining - {j}
            for c, (mults, support) in enumerate(configs[j]):
                q = Fraction(0)
                for v, p in support:
                    new = tuple(L + a * v for L, a in zip(loads, mults))
                    q += p * go(rest, new)[0]
                if best is None or q < best[0]:
                    best = (q, (j, c))
        memo[key] = best
        return best

    zero = tuple(Fraction(0) for _ in range(inst.m))
    return go(frozenset(configs), zero)[0], lambda remaining, loads: go(remaining, loads)[1]


def brute_force_config_policy(inst, decide, tau, restart=False):
    """(E[makespan], E[total exceptional load at tau]) of a decision rule
    on a configuration instance, enumerating every realization path.

    With restart=True the rule follows the restart transform: it sees loads
    reset to zero after a realization with a_max * v >= tau, and a chosen
    configuration with E[max] > tau resets them and asks again."""
    configs = _exact_configs(inst)
    zero = tuple(Fraction(0) for _ in range(inst.m))

    def go(remaining, seen, loads):
        if not remaining:
            return max(loads), Fraction(0)
        j, c = decide(remaining, seen)
        mults, support = configs[j][c]
        a_max = max(mults)
        if restart and a_max * sum(v * p for v, p in support) > tau:
            assert seen != zero, "restart stuck at fresh loads"
            return go(remaining, zero, loads)
        mk = exc = Fraction(0)
        for v, p in support:
            new = tuple(L + a * v for L, a in zip(loads, mults))
            peak = a_max * v
            if restart:
                new_seen = zero if peak >= tau else tuple(L + a * v for L, a in zip(seen, mults))
            else:
                new_seen = new
            sub_mk, sub_exc = go(remaining - {j}, new_seen, new)
            mk += p * sub_mk
            exc += p * ((peak if peak >= tau else 0) + sub_exc)
        return mk, exc

    return go(frozenset(configs), zero, zero)
