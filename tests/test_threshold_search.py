"""The one LP threshold pipeline: the search returns the solution it found
feasible at the threshold it returns, the offline drivers round that
solution without solving again, and LP_C and the path LP agree where they
describe the same problem."""

from fractions import Fraction

import numpy as np
import pytest

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
from cfgbal.lp import EPS, FEAS_TOL, build_lpc, min_feasible_tau, min_feasible_tau_routing

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
