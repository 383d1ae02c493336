import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal.distributions import DiscreteDistribution, point_mass
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    Request,
    RoutingInstance,
    unrelated_to_config,
)
from cfgbal.lp import (
    Infeasible,
    LinearProgram,
    NoFeasibleTau,
    NumericalFailure,
    build_lpc,
    min_feasible_tau,
    solve_feasibility,
    solve_lpc,
    solve_lpp_column_generation,
    threshold_search,
)
from cfgbal.oracle import optimal_adaptive, to_config_instance
from cfgbal.instances import gen_adaptivity_gap_instance, random_tiny_instance, routing_to_config
from cfgbal.online import PotentialState, online_route_step

from conftest import full_path_lp, random_dag_routing, tiny_rng, tiny_suite


def triangle(demand=None):
    law = demand or point_mass(1)
    return RoutingInstance(
        3, [(0, 1, 1), (1, 2, 1), (0, 2, Fraction(1, 2))], [(0, 2, law)]
    )


def one_request(law, tau_feasible):
    return ConfigInstance(1, [Request(0, [Configuration([1], law)])])


class TestSolveFeasibility:
    def test_empty_constraints(self):
        lp = LinearProgram(1)
        x = solve_feasibility(lp)
        assert not isinstance(x, Infeasible)

    def test_contradictory(self):
        lp = LinearProgram(1)
        lp.add_row({0: 1.0}, "=", 1.0, "one")
        lp.add_row({0: 1.0}, "<=", 0.5, "cap")
        assert isinstance(solve_feasibility(lp), Infeasible)

    @pytest.mark.parametrize(
        "coeffs, sense",
        [({2: 1.0}, "<="), ({-1: 1.0}, "="), ({0: 1.0, 5: 1.0}, "<="), ({0: 1.0}, ">=")],
    )
    def test_add_row_refuses_unknown_variable_or_sense(self, coeffs, sense):
        lp = LinearProgram(2)
        with pytest.raises(ValueError):
            lp.add_row(coeffs, sense, 1.0, "bad")
        assert lp.rows == []


class TestLPC:
    def test_single_request_feasible_boundary(self):
        law = DiscreteDistribution([(1, Fraction(1, 2)), (2, Fraction(1, 2))])
        inst = one_request(law, 1.5)
        assert not isinstance(solve_lpc(inst, 2.0), Infeasible)
        assert not isinstance(solve_lpc(inst, 1.5), Infeasible)
        assert isinstance(solve_lpc(inst, 1.4), Infeasible)

    def test_pruning_is_exact_zero(self):
        law_big = point_mass(10)
        law_ok = point_mass(1)
        inst = ConfigInstance(
            1,
            [Request(0, [Configuration([1], law_big), Configuration([1], law_ok)])],
        )
        sol = solve_lpc(inst, 2.0)
        weights = dict(sol[0])
        assert 0 not in weights  # pruned column never appears
        assert weights[1] == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_below_tau_no_exceptional(self):
        inst = one_request(point_mass(1), 1)
        lp, var_map = build_lpc(inst, 2.0)
        exc_row = [r for r in lp.rows if r[3] == "exc"][0]
        assert exc_row[0] == {}

    def test_weights_sum_to_one(self):
        for inst in tiny_suite("config", 10, seed=601):
            tau, _ = min_feasible_tau(inst)
            if tau == 0:
                continue
            sol = solve_lpc(inst, tau)
            if isinstance(sol, Infeasible):
                continue
            for j in range(inst.n):
                assert sum(w for _, w in sol[j]) == pytest.approx(1.0, abs=1e-8)


def lpc_rows_by_coordinate(inst, tau):
    """LP_C's var_map and rows the direct way: every (resource,
    configuration) pair priced through a scaled copy of the law."""
    t = float(tau)
    var_map = [
        (j, c)
        for j, req in enumerate(inst.requests)
        for c, cfg in enumerate(req.configs)
        if float(cfg.expected_max()) <= t
    ]
    configs = [inst.requests[j].configs[c] for j, c in var_map]
    rows = [
        ({k: 1.0 for k, (jj, _) in enumerate(var_map) if jj == j}, "=", 1.0, f"req_{j}")
        for j in range(inst.n)
    ]
    for i in range(inst.m):
        coeffs = {}
        for k, cfg in enumerate(configs):
            a = cfg.multipliers[i]
            v = float(cfg.law.scale(a).truncated_mean(tau)) if a else 0.0
            if v:
                coeffs[k] = v
        rows.append((coeffs, "<=", t, f"trunc_{i}"))
    coeffs = {}
    for k, cfg in enumerate(configs):
        a = cfg.max_multiplier
        v = float(cfg.law.scale(a).exceptional_mean(tau)) if a else 0.0
        if v:
            coeffs[k] = v
    rows.append((coeffs, "<=", t, "exc"))
    return var_map, rows


def float_config_suite(count, seed):
    """Float instances with shared, repeated and zero multipliers."""
    rng = tiny_rng(seed)
    out = []
    for _ in range(count):
        m = int(rng.integers(1, 5))
        requests = []
        for j in range(int(rng.integers(1, 5))):
            configs = []
            for _ in range(int(rng.integers(1, 4))):
                mults = [float(rng.choice([0.0, 0.5, 1.0, rng.uniform(0.1, 2.0)])) for _ in range(m)]
                values = sorted(set(float(v) for v in rng.uniform(0, 3, size=3)))
                probs = rng.dirichlet([1.0] * len(values))
                law = DiscreteDistribution(list(zip(values, probs / probs.sum())))
                configs.append(Configuration(mults, law))
            requests.append(Request(j, configs))
        out.append(ConfigInstance(m, requests))
    return out


class TestLPCRows:
    @pytest.mark.parametrize("kind", ["config", "unrelated", "float"])
    def test_rows_match_per_coordinate_pricing(self, kind):
        if kind == "float":
            suite = float_config_suite(25, seed=4242)
        else:
            suite = tiny_suite(kind, 25, seed=4242)
        for inst in suite:
            if kind == "unrelated":
                inst = unrelated_to_config(inst)
            for tau in (Fraction(1, 2), 1, 1.5, 2, Fraction(7, 3), 4):
                lp, var_map = build_lpc(inst, tau)
                want_map, want_rows = lpc_rows_by_coordinate(inst, tau)
                assert var_map == want_map
                assert [(list(c.items()), s, r, n) for c, s, r, n in lp.rows] == [
                    (list(c.items()), s, r, n) for c, s, r, n in want_rows
                ]


class TestMinFeasibleTau:
    def test_single_request_boundary(self):
        law = DiscreteDistribution([(1, Fraction(1, 2)), (2, Fraction(1, 2))])
        tau, _ = min_feasible_tau(one_request(law, 1.5))
        assert tau == pytest.approx(1.5, rel=1e-3)

    def test_deterministic_closed_form(self):
        # two requests with single deterministic configs on two resources:
        # tau* = max(max entry, per-resource sums)
        d1 = Configuration([1, 0], point_mass(2))
        d2 = Configuration([1, 0], point_mass(1))
        inst = ConfigInstance(2, [Request(0, [d1]), Request(1, [d2])])
        assert min_feasible_tau(inst)[0] == pytest.approx(3.0, rel=1e-3)

    def test_infeasible_hi_raises(self):
        inst = one_request(point_mass(10), 10)
        with pytest.raises(NoFeasibleTau):
            threshold_search(lambda t: solve_lpc(inst, t), 1.0)

    def test_feasibility_is_not_monotone(self):
        # past tau = 1, request 0's value 1 leaves the exceptional row for
        # the truncated row, which then carries 1/2 + 9/10
        coin = DiscreteDistribution([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
        inst = ConfigInstance(
            1,
            [
                Request(0, [Configuration([1], coin)]),
                Request(1, [Configuration([1], point_mass(Fraction(9, 10)))]),
            ],
        )
        assert not isinstance(solve_lpc(inst, 0.95), Infeasible)
        assert isinstance(solve_lpc(inst, 1.2), Infeasible)
        assert not isinstance(solve_lpc(inst, 1.4), Infeasible)
        assert min_feasible_tau(inst)[0] == pytest.approx(1.4, rel=1e-3)

    def test_coefficient_past_the_solver_limit_midway_is_refused(self):
        # the only coefficient at or above 1e15, request 0's exceptional
        # 1.2e15, appears at the search's second midpoint, not at its upper
        # bound 1.7e15, so a warm-started step meets it first
        law = DiscreteDistribution([(0, 0.4), (1.5e15, 0.4), (3e15, 0.2)])
        inst = ConfigInstance(
            1,
            [
                Request(0, [Configuration([1], law)]),
                Request(1, [Configuration([1], point_mass(5e14))]),
            ],
        )
        assert not isinstance(solve_lpc(inst, 1.7e15), Infeasible)
        message = "phase-1 coefficient of magnitude 1.2e+15 is at or above the solver's limit 1e+15"
        with pytest.raises(NumericalFailure, match=re.escape(message)):
            min_feasible_tau(inst)

    def test_monotone_feasibility(self):
        for inst in tiny_suite("config", 8, seed=602):
            tau, _ = min_feasible_tau(inst)
            if tau == 0:
                continue
            assert not isinstance(solve_lpc(inst, tau * 2), Infeasible)
            assert not isinstance(solve_lpc(inst, tau * 10), Infeasible)

    def test_feasible_at_twice_optimal_value(self):
        inst = to_config_instance(gen_adaptivity_gap_instance(4, 2))
        value = Fraction(11, 8)
        assert not isinstance(solve_lpc(inst, float(2 * value)), Infeasible)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(["config", "unrelated", "related"]),
    st.integers(0, 10**6),
    st.sampled_from([1, Fraction(1001, 1000), Fraction(3, 2), 2, 10]),
)
def test_lpc_feasible_from_twice_optimum(kind, seed, factor):
    # what backs lp-check's certificate: infeasible at t means E[OPT] > t / 2
    inst = to_config_instance(random_tiny_instance(kind, tiny_rng(seed)))
    opt, _ = optimal_adaptive(inst)
    assert not isinstance(solve_lpc(inst, float(2 * opt * factor)), Infeasible)


class TestColumnGeneration:
    def test_single_path_per_request(self):
        r = RoutingInstance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2, point_mass(1))])
        sol = solve_lpp_column_generation(r, 5.0)
        assert not isinstance(sol, Infeasible)
        assert sol[0] == [((0, 1), pytest.approx(1.0))]

    def test_triangle_both_columns_feasible(self):
        sol = solve_lpp_column_generation(triangle(), 3.0)
        assert not isinstance(sol, Infeasible)
        assert sum(w for _, w in sol[0]) == pytest.approx(1.0, abs=1e-9)

    def test_triangle_infeasible_small_tau(self):
        assert isinstance(solve_lpp_column_generation(triangle(), 0.9), Infeasible)

    def test_matches_full_enumeration_on_random_dags(self):
        # spot version of acceptance criterion 5a
        for seed in range(25):
            r = random_dag_routing(seed)
            base = sum(float(law.mean()) for _, _, law in r.requests)
            for tau in (0.6 * base + 0.1, 1.5 * base + 0.5):
                cg = solve_lpp_column_generation(r, tau)
                full = full_path_lp(r, tau)
                assert isinstance(cg, Infeasible) == isinstance(full, Infeasible), (
                    seed,
                    tau,
                )
                if not isinstance(cg, Infeasible):
                    _assert_lpp_solution_valid(r, tau, cg)

    def test_routing_feasible_at_twice_optimum(self):
        # feasibility at 2 E[OPT] where the unique-path optimum is explicit
        r = RoutingInstance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2, point_mass(2))])
        assert not isinstance(solve_lpp_column_generation(r, 4.0), Infeasible)

    def test_pricing_round_needed(self):
        # both requests seed on the cheap direct edge, overloading it; the
        # two-hop column must be priced in before the LP becomes feasible
        r = RoutingInstance(
            3,
            [(0, 2, 1), (0, 1, 1), (1, 2, 1)],
            [
                (0, 2, point_mass(Fraction(1, 2))),
                (0, 2, point_mass(Fraction(1, 2))),
            ],
        )
        tau = 0.6
        sol = solve_lpp_column_generation(r, tau)
        assert not isinstance(sol, Infeasible)
        _assert_lpp_solution_valid(r, tau, sol)
        used_paths = {p for j, entries in sol.items() for p, w in entries if w > 1e-6}
        assert (1, 2) in used_paths  # the priced-in two-hop path carries weight


class TestOneAdmissibilityRule:
    def test_float_boundary_admits_edge_everywhere(self):
        # E[X]/c = 1/3 equals the float tau but exceeds it exactly; every
        # layer must apply the same (float) rule and admit the edge
        r = RoutingInstance(2, [(0, 1, 3)], [(0, 1, point_mass(1))])
        tau = 1 / 3
        assert routing_to_config(r, tau)[0].edge_ids == (0,)
        path, _, _ = online_route_step(r, PotentialState.fresh(1, tau / 2), 0)
        assert path == (0,)
        assert not isinstance(solve_lpp_column_generation(r, tau), Infeasible)


def _assert_lpp_solution_valid(r, tau, sol):
    loads = [0.0] * r.m
    exc = 0.0
    for j, entries in sol.items():
        total = sum(w for _, w in entries)
        assert total == pytest.approx(1.0, abs=1e-7)
        for path, w in entries:
            law = r.requests[j][2]
            c_min = min(float(r.edges[e][2]) for e in path)
            exc += w * float(law.scale(1.0 / c_min).exceptional_mean(tau))
            for e in path:
                cap = float(r.edges[e][2])
                loads[e] += w * float(law.scale(1.0 / cap).truncated_mean(tau))
    for L in loads:
        assert L <= float(tau) + 1e-7
    assert exc <= float(tau) + 1e-7
