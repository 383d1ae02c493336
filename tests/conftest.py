"""Shared fixtures and independent brute-force oracles.

The brute-force computations here deliberately avoid the library's oracle
and LP machinery so the tests cross-check two genuinely different routes to
the same quantity.
"""

import json
import math
from fractions import Fraction
from numbers import Rational

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array

from cfgbal.distributions import PROB_SUM_TOL, DiscreteDistribution, ValidationError, check_tau
from cfgbal.graphs import path_key
from cfgbal.instance_io import ParseError
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    RelatedInstance,
    Request,
    RoutingInstance,
    UnrelatedInstance,
    random_tiny_instance,
)
import cfgbal.lp
from cfgbal.lp import FEAS_TOL, LinearProgram, Infeasible, solve
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


def program_from_rows(n_vars, t, trunc_rows, exc_row, req_rows):
    """The LinearProgram with these per-row dicts {column: coefficient} in
    cfgbal.lp's layout: the truncated rows, the exceptional row, then the
    request rows."""
    rows = [*trunc_rows, exc_row, *req_rows]
    entries = [(r, k, v) for r, coeffs in enumerate(rows) for k, v in coeffs.items()]
    row, col, val = zip(*entries) if entries else ((), (), ())
    return LinearProgram(n_vars, len(trunc_rows), len(req_rows), t, row, col, val)


def solve_program(lp):
    """x >= 0 on lp's columns, or Infeasible, from cfgbal.lp.solve."""
    res = solve(lp)
    if res.fun > FEAS_TOL:
        return Infeasible(f"phase-1 violation {res.fun:.3e}")
    return np.clip(res.x[: lp.n_vars], 0.0, None)


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
        for path in reference_simple_paths(r.vertices, r.edges, view.edge_ids, view.source, view.sink):
            columns.append((j, path))
    req_rows = [{k: 1.0 for k, (jj, _) in enumerate(columns) if jj == j} for j in range(r.n)]
    t = float(tau)
    trunc_rows = []
    for e in range(r.m):
        coeffs = {}
        for k, (j, path) in enumerate(columns):
            if e in path:
                law = r.requests[j][2]
                cap = float(r.edges[e][2])
                coeffs[k] = float(law.scale(1.0 / cap).truncated_mean(tau))
        trunc_rows.append(coeffs)
    exc_row = {}
    for k, (j, path) in enumerate(columns):
        law = r.requests[j][2]
        c_min = min(float(r.edges[e][2]) for e in path)
        exc_row[k] = float(law.scale(1.0 / c_min).exceptional_mean(tau))
    x = solve_program(program_from_rows(len(columns), t, trunc_rows, exc_row, req_rows))
    if isinstance(x, Infeasible):
        return x
    return {(j, path): x[k] for k, (j, path) in enumerate(columns)}


def reference_build_lpc(inst, tau):
    """LP_C at tau as cfgbal.lp.build_lpc built it before the tail table:
    every configuration priced through Configuration.tails at tau, one dict
    per row. Returns (LinearProgram, var_map)."""
    check_tau(tau)
    t = float(tau)
    var_map = []
    req_rows = [{} for _ in inst.requests]
    trunc_rows = [{} for _ in range(inst.m)]
    exc_row = {}
    for j, req in enumerate(inst.requests):
        for c, config in enumerate(req.configs):
            if float(config.expected_max()) > t:
                continue
            k = len(var_map)
            var_map.append((j, c))
            req_rows[j][k] = 1.0
            exceptional, truncated = config.tails(tau)
            for i, v in truncated:
                v = float(v)
                if v:
                    trunc_rows[i][k] = v
            v = float(exceptional)
            if v:
                exc_row[k] = v
    return program_from_rows(len(var_map), t, trunc_rows, exc_row, req_rows), var_map


def reference_solve_lpc(inst, tau):
    """cfgbal.lp.solve_lpc over reference_build_lpc."""
    lp, var_map = reference_build_lpc(inst, tau)
    present = {j for j, _ in var_map}
    for j in range(inst.n):
        if j not in present:
            return Infeasible(f"request {inst.requests[j].id}: all configurations pruned at tau={tau}")
    x = solve_program(lp)
    if isinstance(x, Infeasible):
        return x
    weights = {j: [] for j in range(inst.n)}
    for k, (j, c) in enumerate(var_map):
        weights[j].append((c, float(x[k])))
    return weights


def reference_min_feasible_tau(inst):
    """cfgbal.lp.min_feasible_tau as it searched before the warm-started
    session: a fresh solve_lpc at every step. It looks solve_lpc up in
    cfgbal.lp at each call, so a test can wrap it there."""
    table = inst.tail_table()
    hi = sum(np.minimum.reduceat(table.emax, table.request_start).tolist())
    return cfgbal.lp.threshold_search(lambda t: cfgbal.lp.solve_lpc(inst, t), float(hi))


def reference_phase1(a_eq, b_eq, a_ub, b_ub):
    """The dense phase 1 through scipy's linprog: minimize the total
    violation of A_eq x = b_eq, A_ub x <= b_ub over x >= 0. Artificial
    columns follow the structural ones: one per equality row (signed like
    its right-hand side), then one per <= row with a negative right-hand
    side. Returns linprog's result with the CSC matrix and the costs it
    hands HiGHS."""
    n = a_eq.shape[1]
    n_eq, n_ub = len(b_eq), len(b_ub)
    neg = np.flatnonzero(b_ub < 0)
    n_art = n_eq + len(neg)
    full_eq = np.zeros((n_eq, n + n_art))
    full_eq[:, :n] = a_eq
    full_eq[np.arange(n_eq), n + np.arange(n_eq)] = np.where(b_eq >= 0, 1.0, -1.0)
    full_ub = np.zeros((n_ub, n + n_art))
    full_ub[:, :n] = a_ub
    full_ub[neg, n + n_eq + np.arange(len(neg))] = -1.0
    cost = np.concatenate([np.zeros(n), np.ones(n_art)])
    res = linprog(
        cost,
        A_ub=full_ub if n_ub else None,
        b_ub=b_ub if n_ub else None,
        A_eq=full_eq if n_eq else None,
        b_eq=b_eq if n_eq else None,
        bounds=(0, None),
        method="highs",
    )
    return res, csc_array(np.vstack((full_ub, full_eq))), cost


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
    best = None
    for path in reference_simple_paths(r.vertices, r.edges, edge_ids, source, sink):
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


# ---------------------------------------------------------------------------
# Fraction reference walkers: the exact oracle walkers of cfgbal.oracle as
# they ran on Fraction loads and values, kept as the reference the integer
# walkers must match exactly


def reference_outcome_table(inst):
    """{request id: one (expected_max, a_max, outcomes) per configuration}
    of an exact configuration instance; outcomes holds one (v, p, a_max * v,
    increments) per support point, increments listing (i, a_i * v) for
    every a_i != 0, all Fractions."""
    table = {}
    for r in inst.requests:
        rows = []
        for config in r.configs:
            a_max = config.max_multiplier
            nonzero = [(i, a) for i, a in enumerate(config.multipliers) if a != 0]
            outcomes = tuple(
                (v, p, a_max * v, tuple((i, a * v) for i, a in nonzero)) for v, p in config.law.support
            )
            rows.append((config.expected_max(), a_max, outcomes))
        table[r.id] = tuple(rows)
    return table


def reference_add_load(loads, increments):
    new = list(loads)
    for i, x in increments:
        new[i] = new[i] + x
    return tuple(new)


class ReferenceOracle:
    """AdaptiveOracle in Fractions: memoized value iteration over
    (remaining ids, Fraction loads), ties to the lowest (request, config)."""

    def __init__(self, inst, max_states=2_000_000):
        from cfgbal.oracle import StateSpaceExceeded, to_config_instance

        self.exceeded = StateSpaceExceeded
        self.inst = to_config_instance(inst)
        self.max_states = max_states
        self.table = reference_outcome_table(self.inst)
        self._value = {}
        self._choice = {}
        self.zero_loads = tuple(Fraction(0) for _ in range(self.inst.m))
        self.all_ids = frozenset(r.id for r in self.inst.requests)

    def value(self, remaining=None, loads=None):
        remaining = self.all_ids if remaining is None else remaining
        loads = self.zero_loads if loads is None else loads
        key = (remaining, loads)
        cached = self._value.get(key)
        if cached is not None:
            return cached
        best = best_choice = None
        if not remaining:
            best = max(loads) if loads else Fraction(0)
        for j in sorted(remaining):
            rest = remaining - {j}
            for c, (_, _, outcomes) in enumerate(self.table[j]):
                q = Fraction(0)
                for _, p, _, increments in outcomes:
                    q += p * self.value(rest, reference_add_load(loads, increments))
                if best is None or q < best:
                    best, best_choice = q, (j, c)
        self._value[key] = best
        self._choice[key] = best_choice
        if len(self._value) > self.max_states:
            raise self.exceeded(len(self._value), self.max_states)
        return best

    def choice(self, remaining, loads):
        self.value(remaining, loads)
        return self._choice[(remaining, loads)]

    def tree_text(self):
        lines = []

        def render(remaining, loads, depth):
            pad = "  " * depth
            state = f"remaining={sorted(remaining)} loads=({', '.join(map(str, loads))})"
            if not remaining:
                lines.append(f"{pad}{{state: {state}, value: {max(loads) if loads else 0}}}")
                return
            j, c = self.choice(remaining, loads)
            lines.append(f"{pad}{{state: {state}, decision: request {j} -> config {c}}}")
            for v, _, _, increments in self.table[j][c][2]:
                lines.append(f"{pad}  realized {v}:")
                render(remaining - {j}, reference_add_load(loads, increments), depth + 2)

        render(self.all_ids, self.zero_loads, 0)
        return "\n".join(lines)


def reference_policy_value(table, loads, tau, decide, after=None, state=None):
    """(E[makespan], E[exceptional load at tau]) of a state policy
    decide(remaining, loads, state) -> (request, config, state) on a
    reference outcome table, walked on Fraction loads."""
    memo = {}

    def walk(remaining, loads, state):
        if not remaining:
            return (max(loads) if loads else Fraction(0)), Fraction(0)
        key = (remaining, loads, state)
        if key not in memo:
            j, c, state = decide(remaining, loads, state)
            mk = exc = Fraction(0)
            for k, (_, p, peak, increments) in enumerate(table[j][c][2]):
                sub_state = after(state, j, c, k) if after else None
                sub_mk, sub_exc = walk(remaining - {j}, reference_add_load(loads, increments), sub_state)
                mk += p * sub_mk
                exc += p * ((peak if peak >= tau else Fraction(0)) + sub_exc)
            memo[key] = (mk, exc)
        return memo[key]

    return walk(frozenset(table), loads, state)


def reference_evaluate_policy(inst, policy, tau):
    """evaluate_policy in Fractions, as a (makespan, exceptional) pair."""
    from cfgbal.oracle import to_config_instance

    inst = to_config_instance(inst)
    zero = tuple(Fraction(0) for _ in range(inst.m))
    return reference_policy_value(
        reference_outcome_table(inst), zero, Fraction(tau), lambda r, loads, _: (*policy(r, loads), None)
    )


def reference_restart_value(inst, tau):
    """RestartPolicy(inst, tau).value() in Fractions, as a (makespan,
    exceptional) pair: OPT follows a ReferenceOracle on Fraction loads."""
    oracle = ReferenceOracle(inst)
    tau = Fraction(tau)
    zero = oracle.zero_loads

    def decide(remaining, loads, opt_loads):
        j, c = oracle.choice(remaining, opt_loads)
        while oracle.table[j][c][0] > tau:
            assert opt_loads != zero, "restart stuck at fresh loads"
            opt_loads = zero
            j, c = oracle.choice(remaining, opt_loads)
        return j, c, opt_loads

    def after(opt_loads, j, c, k):
        _, _, peak, increments = oracle.table[j][c][2][k]
        return zero if peak >= tau else reference_add_load(opt_loads, increments)

    return reference_policy_value(oracle.table, zero, tau, decide, after, zero)


# ---------------------------------------------------------------------------
# per-trial reference simulators: the one-trial-at-a-time loops the batched
# simulator in cfgbal.simulate replaced, kept as the reference it must match
# bit for bit wherever request ids equal positions


def reference_choice_law_and_effect(inst, j, choice):
    """law, per-resource multiplier vector, and max multiplier of a chosen
    configuration, indexing requests by position."""
    from cfgbal.instances import ConfigInstance, RelatedInstance, RoutingInstance, UnrelatedInstance

    if isinstance(inst, ConfigInstance):
        config = inst.requests[j].configs[choice]
        mult = [float(a) for a in config.multipliers]
        return config.law, mult, max(mult)
    if isinstance(inst, UnrelatedInstance):
        mult = [0.0] * inst.m
        mult[choice] = 1.0
        return inst.jobs[j][choice], mult, 1.0
    if isinstance(inst, RelatedInstance):
        mult = [0.0] * inst.m
        mult[choice] = 1.0 / float(inst.speeds[choice])
        return inst.jobs[j], mult, mult[choice]
    if isinstance(inst, RoutingInstance):
        law = inst.requests[j][2]
        mult = [0.0] * inst.m
        for e in choice:
            mult[e] = 1.0 / float(inst.edges[e][2])
        return law, mult, max(mult) if choice else 0.0
    raise TypeError(f"cannot simulate on {type(inst).__name__}")


def reference_simulate_policy(inst, run, trials, seed, tau=None):
    """SimulationReport of run(inst, realize) called once per trial."""
    from cfgbal.simulate import SimulationReport, law_quantiles, uniform_table

    uniforms = uniform_table(seed, range(inst.n), trials)
    quantile_cache = {}

    def realized(trial, j, law):
        key = (j, law)
        col = quantile_cache.get(key)
        if col is None:
            col = law_quantiles(law, uniforms[:, j])
            quantile_cache[key] = col
        return col[trial]

    makespans = np.empty(trials)
    loads_acc = np.zeros(inst.m)
    exc_acc = np.zeros(trials)
    for t in range(trials):

        def realize(j, law, _t=t):
            return realized(_t, j, law)

        trace = run(inst, realize)
        loads = np.zeros(inst.m)
        exc_total = 0.0
        for j, choice, value in trace:
            _, mult, a_max = reference_choice_law_and_effect(inst, j, choice)
            for i, a in enumerate(mult):
                if a:
                    loads[i] += a * float(value)
            if tau is not None and a_max > 0:
                peak = a_max * float(value)
                if peak >= float(tau):
                    exc_total += peak
        makespans[t] = loads.max() if inst.m else 0.0
        loads_acc += loads
        exc_acc[t] = exc_total
    return SimulationReport(
        trials,
        seed,
        float(makespans.mean()),
        float(makespans.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        [float(v) for v in loads_acc / trials],
        float(exc_acc.mean()) if tau is not None else 0.0,
    )


def reference_simulate_adaptive_config(inst, policy_fn, trials, seed, tau=None):
    """Trial-wise simulation of policy_fn(remaining ids, float loads)."""
    from cfgbal.simulate import SimulationReport, law_quantiles, uniform_table

    uniforms = uniform_table(seed, range(inst.n), trials)
    by_id = {r.id: r for r in inst.requests}
    makespans = np.empty(trials)
    exc_acc = np.zeros(trials)
    loads_acc = np.zeros(inst.m)
    for t in range(trials):
        remaining = frozenset(by_id)
        loads = tuple(0.0 for _ in range(inst.m))
        exc_total = 0.0
        while remaining:
            j, c = policy_fn(remaining, loads)
            config = by_id[j].configs[c]
            v = float(law_quantiles(config.law, uniforms[t : t + 1, j])[0])
            loads = tuple(
                L + float(a) * v for L, a in zip(loads, config.multipliers)
            )
            peak = float(config.max_multiplier) * v
            if tau is not None and peak >= float(tau):
                exc_total += peak
            remaining = remaining - {j}
        makespans[t] = max(loads)
        exc_acc[t] = exc_total
        loads_acc += np.array(loads)
    return SimulationReport(
        trials,
        seed,
        float(makespans.mean()),
        float(makespans.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        [float(v) for v in loads_acc / trials],
        float(exc_acc.mean()),
    )


def reference_group_list_run(policy, inst, realize):
    """One trace of a GroupListSchedulePolicy, job by job."""
    trunc = [0.0] * inst.m
    trace = []
    for j in range(inst.n):
        ids = policy.group_machines[policy.group_of_job[j]]
        machine = min(ids, key=lambda i: (trunc[i], i))
        value = float(realize(j, inst.jobs[j]))
        scaled = value / float(inst.speeds[machine])
        if scaled < policy.tau:
            trunc[machine] += scaled
        trace.append((j, machine, value))
    return trace


def reference_restart_run(policy, inst, realize):
    """One trace of a RestartPolicy, with OPT's loads built from the
    realized values read back as Fractions."""
    oracle = policy.oracle
    remaining = set(oracle.all_ids)
    opt_loads = oracle.zero_loads
    trace = []
    while remaining:
        j, c = oracle.choice(frozenset(remaining), opt_loads)
        config = oracle.by_id[j].configs[c]
        if config.expected_max() > policy.tau:
            if opt_loads == oracle.zero_loads:
                raise AssertionError("stuck restart: tau too small")
            opt_loads = oracle.zero_loads
            continue
        v = Fraction(realize(j, config.law))
        trace.append((j, c, v))
        remaining.discard(j)
        if config.max_multiplier * v >= policy.tau:
            opt_loads = oracle.zero_loads
        else:
            opt_loads = tuple(L + a * v for L, a in zip(opt_loads, config.multipliers))
    return trace


# ---------------------------------------------------------------------------
# recursive reference walks of cfgbal.graphs


def _reference_adjacency(edges, edge_ids):
    adj = {}
    for e in edge_ids:
        tail, head, _ = edges[e]
        adj.setdefault(tail, []).append((head, e))
    for lst in adj.values():
        lst.sort(key=lambda he: (he[0], he[1]))
    return adj


def reference_simple_paths(n_vertices, edges, edge_ids, source, sink):
    """All simple source-sink paths in canonical order, recursively."""
    adj = _reference_adjacency(edges, edge_ids)
    path = []
    visited = {source}

    def walk(u):
        if u == sink:
            yield tuple(path)
            return
        for v, e in adj.get(u, ()):
            if v in visited:
                continue
            visited.add(v)
            path.append(e)
            yield from walk(v)
            path.pop()
            visited.remove(v)

    return list(walk(source))


def reference_lex_shortest_path(n_vertices, edges, edge_ids, weights, source, sink):
    """Canonically smallest minimum-weight path by a recursive walk of the
    tight edges with backtracking."""
    from cfgbal.graphs import REL_TOL, Digraph, dijkstra_to_sink

    dist = dijkstra_to_sink(Digraph(edges), edge_ids, weights, sink)
    if source not in dist:
        return None
    adj = _reference_adjacency(edges, edge_ids)

    def tight(u, v, e):
        if v not in dist:
            return False
        target = dist[u]
        tol = REL_TOL * max(1.0, abs(target))
        return abs(weights[e] + dist[v] - target) <= tol

    path = []
    visited = {source}

    def walk(u):
        if u == sink:
            return True
        for v, e in adj.get(u, ()):
            if v in visited or not tight(u, v, e):
                continue
            visited.add(v)
            path.append(e)
            if walk(v):
                return True
            path.pop()
            visited.remove(v)
        return False

    if not walk(source):
        return None
    return tuple(path)


# ---------------------------------------------------------------------------
# reference instance decoder: the per-number decoder of instance_io before
# the type-dispatched one, verbatim, on top of the per-pair validation of
# DiscreteDistribution.__init__ and Configuration.__init__ it relied on


def _reference_is_finite(x):
    return isinstance(x, (int, Fraction)) or math.isfinite(x)


def reference_distribution(support):
    """The per-pair checks of the former DiscreteDistribution.__init__, in
    their order; the law itself is the library's, of the sorted pairs."""
    pairs = sorted(((v, p) for v, p in support), key=lambda vp: float(vp[0]))
    if not pairs:
        raise ValidationError("distribution support is empty")
    for v, p in pairs:
        if not _reference_is_finite(v):
            raise ValidationError(f"non-finite support value {v}")
        if v < 0:
            raise ValidationError(f"negative support value {v}")
        if not (0 < p <= 1):
            raise ValidationError(f"probability {p} outside (0, 1]")
    for (v1, _), (v2, _) in zip(pairs, pairs[1:]):
        if v1 == v2:
            raise ValidationError(f"duplicate support value {v1}")
    total = sum(p for _, p in pairs)
    if all(isinstance(v, Rational) and isinstance(p, Rational) for v, p in pairs):
        if total != 1:
            raise ValidationError(f"probabilities sum to {total}, expected 1")
    elif abs(total - 1.0) > PROB_SUM_TOL:
        raise ValidationError(f"probabilities sum to {total}, expected 1")
    return DiscreteDistribution(pairs)


def reference_configuration(multipliers, law):
    """The per-multiplier checks of the former Configuration.__init__."""
    mults = tuple(multipliers)
    if not mults:
        raise ValidationError("configuration needs at least one resource")
    for a in mults:
        if not _reference_is_finite(a):
            raise ValidationError(f"non-finite multiplier {a}")
        if a < 0:
            raise ValidationError(f"negative multiplier {a}")
    return Configuration(mults, law)


def _reference_decode_num(x, where):
    if isinstance(x, bool):
        raise ParseError(f"{where}: expected a number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ParseError(f"{where}: non-finite number {x!r}")
        return x
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational {x!r}: {exc}") from None
    raise ParseError(f"{where}: expected a number, got {type(x).__name__}")


def _reference_decode_law(pairs, where):
    if not isinstance(pairs, list):
        raise ParseError(f"{where}: law must be a list of [value, prob] pairs")
    out = []
    for k, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ParseError(f"{where}[{k}]: expected [value, prob]")
        out.append(
            (
                _reference_decode_num(pair[0], f"{where}[{k}].value"),
                _reference_decode_num(pair[1], f"{where}[{k}].prob"),
            )
        )
    return reference_distribution(out)


def reference_instance_from_dict(doc):
    if not isinstance(doc, dict):
        raise ParseError("top level must be an object")
    kind = doc.get("kind")
    try:
        if kind == "config":
            requests = []
            for rd in _reference_field(doc, "requests", list):
                configs = [
                    reference_configuration(
                        [
                            _reference_decode_num(a, "multipliers")
                            for a in _reference_field(cd, "multipliers", list)
                        ],
                        _reference_decode_law(_reference_field(cd, "law", list), "law"),
                    )
                    for cd in _reference_field(rd, "configs", list)
                ]
                requests.append(Request(_reference_field(rd, "id", int), configs))
            return ConfigInstance(_reference_field(doc, "m", int), requests)
        if kind == "unrelated":
            jobs = []
            for j, row in enumerate(_reference_field(doc, "jobs", list)):
                if not isinstance(row, list):
                    raise ParseError(f"jobs[{j}]: expected a list of per-machine laws")
                jobs.append([_reference_decode_law(law, f"jobs[{j}][{i}]") for i, law in enumerate(row)])
            return UnrelatedInstance(_reference_field(doc, "m", int), jobs)
        if kind == "related":
            speeds = [_reference_decode_num(s, "speeds") for s in _reference_field(doc, "speeds", list)]
            jobs = [
                _reference_decode_law(law, f"jobs[{j}]")
                for j, law in enumerate(_reference_field(doc, "jobs", list))
            ]
            return RelatedInstance(speeds, jobs)
        if kind == "routing":
            edges = [
                (
                    _reference_int_at(e, 0, f"edges[{k}]"),
                    _reference_int_at(e, 1, f"edges[{k}]"),
                    _reference_decode_num(e[2], f"edges[{k}].capacity"),
                )
                for k, e in enumerate(_reference_field(doc, "edges", list))
            ]
            requests = [
                (
                    _reference_int_at(r, 0, f"requests[{k}]"),
                    _reference_int_at(r, 1, f"requests[{k}]"),
                    _reference_decode_law(r[2], f"requests[{k}].law"),
                )
                for k, r in enumerate(_reference_field(doc, "requests", list))
            ]
            return RoutingInstance(_reference_field(doc, "vertices", int), edges, requests)
    except (IndexError, KeyError) as exc:
        raise ParseError(f"malformed instance document: {exc}") from None
    raise ParseError(f"unknown instance kind {kind!r}")


def _reference_field(doc, name, typ):
    if not isinstance(doc, dict):
        raise ParseError(f"expected an object with field {name!r}, got {type(doc).__name__}")
    if name not in doc:
        raise ParseError(f"missing field {name!r}")
    value = doc[name]
    if not isinstance(value, typ) or isinstance(value, bool):
        raise ParseError(f"field {name!r}: expected {typ.__name__}")
    return value


def _reference_int_at(seq, idx, where):
    if not isinstance(seq, list) or len(seq) <= idx:
        raise ParseError(f"{where}: expected a list with >= {idx + 1} entries")
    v = seq[idx]
    if not isinstance(v, int) or isinstance(v, bool):
        raise ParseError(f"{where}[{idx}]: expected an integer")
    return v


def reference_loads_instance(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    return reference_instance_from_dict(doc)


def decoded_numbers(inst):
    """Every number of an instance in document order, as (type name, repr):
    repr tells -0.0 from 0.0 and a Fraction from an equal float or int, and
    the support order is part of the sequence."""
    def laws(law):
        return [x for pair in law.support for x in pair]

    if isinstance(inst, ConfigInstance):
        xs = [inst.m]
        for r in inst.requests:
            xs.append(r.id)
            for c in r.configs:
                xs += list(c.multipliers) + laws(c.law)
    elif isinstance(inst, UnrelatedInstance):
        xs = [inst.m] + [x for row in inst.jobs for law in row for x in laws(law)]
    elif isinstance(inst, RelatedInstance):
        xs = list(inst.speeds) + [x for law in inst.jobs for x in laws(law)]
    else:
        xs = [inst.vertices] + [x for edge in inst.edges for x in edge]
        xs += [x for s, t, law in inst.requests for x in (s, t, *laws(law))]
    return [(type(x).__name__, repr(x)) for x in xs]
