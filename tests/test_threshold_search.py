"""The one LP threshold pipeline: the search returns the solution it found
feasible at the threshold it returns, the offline drivers round that
solution without solving again, and LP_C and the path LP agree where they
describe the same problem."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal import lp, offline
from cfgbal.distributions import DiscreteDistribution
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    Request,
    RoutingInstance,
    RoutingRequestView,
    unrelated_to_config,
)
from cfgbal.lp import (
    EPS,
    FEAS_TOL,
    Infeasible,
    NumericalFailure,
    build_lpc,
    min_feasible_tau,
    min_feasible_tau_routing,
    threshold_search,
)

from conftest import random_dag_routing, tiny_rng, tiny_suite


def count_calls(monkeypatch, name):
    """Wrap the LP solve `name` wherever a cfgbal module binds it; returns
    the list of thresholds it was called at."""
    calls = []
    original = getattr(lp, name)

    def counted(inst, tau, *args, **kwargs):
        calls.append(tau)
        return original(inst, tau, *args, **kwargs)

    for module in (lp, offline):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def dags(count):
    return [random_dag_routing(seed) for seed in range(count)]


class TestNoResolve:
    def test_config_driver_solves_only_in_search(self, monkeypatch):
        calls = count_calls(monkeypatch, "solve_lpc")
        for inst in tiny_suite("config", 6, seed=701):
            del calls[:]
            tau, _ = min_feasible_tau(inst)
            searched = len(calls)
            del calls[:]
            report = offline.offline_config_balancing(inst, tiny_rng(0))
            assert report.tau == tau
            assert len(calls) == searched

    def test_routing_driver_solves_only_in_search(self, monkeypatch):
        calls = count_calls(monkeypatch, "solve_lpp_column_generation")
        for r in dags(6):
            del calls[:]
            tau, _ = min_feasible_tau_routing(r)
            searched = len(calls)
            del calls[:]
            report = offline.offline_routing(r, tiny_rng(0))
            assert report.tau == tau
            assert len(calls) == searched


class TestSearchSolution:
    def test_lpc_solution_feasible_at_tau(self):
        unrelated = [unrelated_to_config(u) for u in tiny_suite("unrelated", 6, seed=703)]
        for inst in tiny_suite("config", 10, seed=702) + unrelated:
            tau, sol = min_feasible_tau(inst)
            if tau == 0:
                assert sol is None
                continue
            program, var_map = build_lpc(inst, tau)
            x = np.zeros(len(var_map))
            for k, (j, c) in enumerate(var_map):
                x[k] = dict(sol[j])[c]
            for j in range(inst.n):
                assert sum(w for _, w in sol[j]) == pytest.approx(1.0, abs=1e-8)
            for coeffs, sense, rhs, name in program.rows:
                if sense == "<=":
                    assert sum(v * x[k] for k, v in coeffs.items()) <= tau + FEAS_TOL, name

    def test_path_solution_feasible_at_tau(self):
        for r in dags(8):
            tau, sol = min_feasible_tau_routing(r)
            loads = [0.0] * r.m
            exc = 0.0
            for j, entries in sol.items():
                assert sum(w for _, w in sol[j]) == pytest.approx(1.0, abs=1e-8)
                view = RoutingRequestView(r, j, tau)
                for path, w in entries:
                    exc += w * view.exceptional(path)
                    for e in path:
                        loads[e] += w * view.truncated[e]
            assert max(loads) <= tau + FEAS_TOL
            assert exc <= tau + FEAS_TOL


def parallel_edges(seed):
    """A routing instance whose paths are single parallel edges 0 -> 1, and
    the ConfigInstance with one configuration per edge (multiplier 1 / cap
    on that edge's resource)."""
    rng = tiny_rng(seed + 704000)
    pool = (Fraction(1, 2), 1, 2, 4)
    caps = [pool[int(rng.integers(0, 4))] for _ in range(int(rng.integers(1, 5)))]
    laws = []
    for _ in range(int(rng.integers(1, 5))):
        values = sorted({int(v) for v in rng.integers(1, 9, size=int(rng.integers(1, 4)))})
        laws.append(DiscreteDistribution([(v, Fraction(1, len(values))) for v in values]))
    routing = RoutingInstance(2, [(0, 1, cap) for cap in caps], [(0, 1, law) for law in laws])
    m = len(caps)
    multipliers = [[1.0 / cap if i == e else 0 for i in range(m)] for e, cap in enumerate(caps)]
    requests = [
        Request(j, [Configuration(a, law) for a in multipliers]) for j, law in enumerate(laws)
    ]
    return routing, ConfigInstance(m, requests)


@pytest.mark.parametrize("seed", range(12))
def test_path_lp_matches_lpc_on_parallel_edges(seed):
    routing, config = parallel_edges(seed)
    tau_path, _ = min_feasible_tau_routing(routing)
    tau_config, _ = min_feasible_tau(config)
    assert tau_path == pytest.approx(tau_config, rel=2 * EPS)


def checked_search(hi, rng):
    """threshold_search(solve, hi) over a synthetic solve, feasible at hi
    and drawn by rng below it, which checks that every midpoint lies
    strictly inside the bracket (lo, hi) the search holds and that the
    search ends within 2,000 steps. Returns the search's result, or the
    NumericalFailure it raised, which names the upper end it refused."""
    bracket = [0.0, hi]
    steps = []

    def solve(tau):
        steps.append(tau)
        assert len(steps) < 2000
        if len(steps) == 1:
            assert tau == hi
            return {0: [(0, 1.0)]}
        lo, top = bracket
        assert lo < tau < top
        feasible = rng.random() < 0.5
        bracket[feasible] = tau
        return {0: [(0, 1.0)]} if feasible else Infeasible("drawn")

    try:
        return threshold_search(solve, hi)
    except NumericalFailure as exc:
        assert EPS * bracket[1] == 0.0 and f"tau={bracket[1]!r} is too small" in str(exc)
        return exc


def test_search_over_the_smallest_subnormal_bounds():
    # from the smallest subnormal through past the first bound whose
    # EPS * hi is nonzero, one float step at a time
    rng = random.Random(0)
    hi, refused = 5e-324, 0
    for _ in range(3000):
        result = checked_search(hi, rng)
        if isinstance(result, NumericalFailure):
            refused += 1
        else:
            assert 0.0 < result[0] <= hi
        if EPS * hi == 0.0:
            assert isinstance(result, NumericalFailure)
        hi = math.nextafter(hi, math.inf)
    assert 0 < refused < 3000


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2**53), st.integers(0, 2**32))
def test_search_over_any_subnormal_bound(ulps, seed):
    # hi is the ulps-th float above 0.0: every subnormal, and the normal
    # floats just past them
    hi = ulps * 5e-324
    result = checked_search(hi, random.Random(seed))
    if EPS * hi == 0.0:
        assert isinstance(result, NumericalFailure)
