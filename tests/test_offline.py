from fractions import Fraction

import numpy as np
import pytest

from cfgbal.distributions import DiscreteDistribution, point_mass
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    RelatedInstance,
    Request,
    RoutingInstance,
    gen_adaptivity_gap_instance,
)
from cfgbal.offline import (
    GroupListSchedulePolicy,
    assignment_loads,
    offline_config_balancing,
    offline_related,
    offline_routing,
    randomized_round,
)
from cfgbal.oracle import optimal_adaptive, to_config_instance

from conftest import tiny_rng, tiny_suite


def triangle(demand=None):
    law = demand or point_mass(1)
    return RoutingInstance(
        3, [(0, 1, 1), (1, 2, 1), (0, 2, Fraction(1, 2))], [(0, 2, law)]
    )


class TestRandomizedRound:
    def test_degenerate_weight(self):
        sol = {0: [(0, 0.0), (1, 1.0)]}
        rng = tiny_rng(0)
        assert all(randomized_round(sol, rng)[0] == 1 for _ in range(10))

    def test_split_frequencies(self):
        sol = {0: [(0, 0.5), (1, 0.5)]}
        rng = tiny_rng(17)
        picks = [randomized_round(sol, rng)[0] for _ in range(100_000)]
        share = sum(picks) / len(picks)
        assert abs(share - 0.5) < 0.01

    def test_expected_load_linearity(self):
        # averaging rounded loads reproduces the fractional row value
        law = point_mass(1)
        inst = ConfigInstance(
            2,
            [
                Request(
                    0,
                    [Configuration([1, 0], law), Configuration([0, 1], law)],
                )
            ],
        )
        sol = {0: [(0, 0.25), (1, 0.75)]}
        rng = tiny_rng(3)
        acc = np.zeros(2)
        trials = 40_000
        for _ in range(trials):
            a = randomized_round(sol, rng)
            loads, _ = assignment_loads(inst, a, 10)
            acc += loads
        assert acc[0] / trials == pytest.approx(0.25, abs=0.01)
        assert acc[1] / trials == pytest.approx(0.75, abs=0.01)


class TestOfflineConfig:
    def test_single_deterministic_job(self):
        inst = ConfigInstance(1, [Request(0, [Configuration([1], point_mass(2))])])
        report = offline_config_balancing(inst, tiny_rng(0))
        assert report.lp_status == "feasible"
        assert report.assignment == {0: 0}
        assert report.tau == pytest.approx(2.0, rel=1e-3)

    def test_gap_instance_feasible_at_twice_opt(self):
        inst = to_config_instance(gen_adaptivity_gap_instance(4, 2))
        report = offline_config_balancing(inst, tiny_rng(1))
        # binary search lands at or below 2 E[OPT] = 2.75
        assert report.lp_status == "feasible"
        assert report.tau <= 2.75 * 1.001

    def test_report_loads_recomputable(self):
        for inst in tiny_suite("config", 10, seed=801):
            report = offline_config_balancing(inst, tiny_rng(5))
            if report.lp_status != "feasible" or report.tau == 0:
                continue
            loads, exc = assignment_loads(inst, report.assignment, report.tau)
            assert loads == pytest.approx(report.truncated_loads, abs=1e-9)
            assert exc == pytest.approx(report.exceptional_total, abs=1e-9)

    def test_certificate_direction(self):
        # whenever the driver certifies E[OPT] > tau/2 the oracle agrees
        for inst in tiny_suite("config", 15, seed=802, n_max=3, q_max=2, support_max=2):
            opt, _ = optimal_adaptive(inst)
            if opt == 0:
                continue
            report = offline_config_balancing(inst, tiny_rng(6))
            assert Fraction(report.opt_lower_bound).limit_denominator(10**9) <= opt

    def test_rounding_averages_match_lp_rows(self):
        # averaged over rounding randomness the per-resource truncated loads
        # and the exceptional total stay at (<=) the LP row bound tau*
        from cfgbal.lp import solve_lpc

        rng = tiny_rng(11)
        for inst in tiny_suite("config", 6, seed=804):
            tau = None
            report = offline_config_balancing(inst, tiny_rng(12))
            if report.lp_status != "feasible" or report.tau == 0:
                continue
            sol = solve_lpc(inst, report.tau)
            rounds = 3000
            acc = np.zeros(inst.m)
            acc_exc = 0.0
            for _ in range(rounds):
                a = randomized_round(sol, rng)
                loads, exc = assignment_loads(inst, a, report.tau)
                acc += loads
                acc_exc += exc
            slack = 0.05 * report.tau + 1e-6
            assert all(v / rounds <= report.tau + slack for v in acc)
            assert acc_exc / rounds <= report.tau + slack

    def test_realized_exceptional_below_reported_bound(self):
        from cfgbal.simulate import NonAdaptiveAssignment, simulate_policy

        for k, inst in enumerate(tiny_suite("config", 8, seed=805)):
            report = offline_config_balancing(inst, tiny_rng(13))
            if report.lp_status != "feasible" or report.tau == 0:
                continue
            sim = simulate_policy(
                inst,
                NonAdaptiveAssignment(report.assignment),
                20_000,
                seed=500 + k,
                tau=report.tau,
            )
            # the mean realized exceptional load converges to the reported
            # expected total of the fixed assignment
            assert sim.mean_exceptional <= report.exceptional_total + 4 * max(
                sim.stderr, 0.02
            )


class TestOfflineRouting:
    def test_single_path_deterministic(self):
        r = RoutingInstance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2, point_mass(1))])
        report = offline_routing(r, tiny_rng(0))
        assert report.assignment[0] == (0, 1)
        assert report.lp_status == "feasible"

    def test_triangle_avoids_small_capacity(self):
        report = offline_routing(triangle(), tiny_rng(0))
        assert report.tau == pytest.approx(1.0, rel=1e-3)
        assert report.assignment[0] == (0, 1)

    def test_rounded_paths_respect_pruning(self):
        report = offline_routing(triangle(), tiny_rng(2))
        r = triangle()
        for j, path in report.assignment.items():
            law = r.requests[j][2]
            for e in path:
                cap = float(r.edges[e][2])
                assert float(law.mean()) / cap <= report.tau + 1e-9


class TestOfflineRelated:
    def test_least_loaded_rule(self):
        from cfgbal.instances import SmoothedGroups

        inst = RelatedInstance([1, 1], [point_mass(1)] * 3)
        policy = GroupListSchedulePolicy(
            inst, [(0, 1)], {0: 0, 1: 0, 2: 0}, tau=10.0
        )
        realized = {0: 1.0, 1: 0.5, 2: 0.25}
        trace = policy.run(inst, lambda j, law: realized[j])
        # job 0 -> machine 0, job 1 -> machine 1 (0 loaded), job 2 -> machine 1
        assert [m for _, m, _ in trace] == [0, 1, 1]

    def test_single_machine_fixed(self):
        inst = RelatedInstance([1], [point_mass(2), point_mass(1)])
        policy, report = offline_related(inst, tiny_rng(0))
        trace = policy.run(policy.instance, lambda j, law: float(law.mean()))
        assert all(m == 0 for _, m, _ in trace)

    def test_group_truncated_load_averaging_bound(self):
        # per trace: max truncated load in a group <= group average + max
        # single truncated job <= average + tau
        rng = tiny_rng(42)
        for inst in tiny_suite("related", 20, seed=803):
            policy, report = offline_related(inst, tiny_rng(9))
            if policy is None or report.tau == 0:
                continue
            smoothed = policy.instance
            for _ in range(20):
                realized = [law.sample(rng) for law in smoothed.jobs]
                trace = policy.run(smoothed, lambda j, law: realized[j])
                tau = policy.tau
                for g, ids in enumerate(policy.group_machines):
                    per_machine = {i: 0.0 for i in ids}
                    singles = [0.0]
                    for j, machine, value in trace:
                        if policy.group_of_job[j] != g:
                            continue
                        scaled = float(value) / float(smoothed.speeds[machine])
                        if scaled < tau:
                            per_machine[machine] += scaled
                            singles.append(scaled)
                    avg = sum(per_machine.values()) / len(ids)
                    assert max(per_machine.values()) <= avg + max(singles) + 1e-9
                    assert max(per_machine.values()) <= avg + tau + 1e-9

    def test_group_assignment_consistency(self):
        inst = gen_adaptivity_gap_instance(4, 2)
        policy, report = offline_related(inst, tiny_rng(4))
        assert policy is not None
        for j, g in policy.group_of_job.items():
            assert 0 <= g < len(policy.group_machines)
