from fractions import Fraction

import pytest

from cfgbal.distributions import DiscreteDistribution, point_mass
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    RelatedInstance,
    Request,
    UnrelatedInstance,
    gen_adaptivity_gap_instance,
    gen_clairvoyance_adversary_instance,
    unrelated_to_config,
)
from cfgbal.oracle import (
    AdaptiveOracle,
    IncompletePolicy,
    PolicyValue,
    RestartPolicy,
    StateSpaceExceeded,
    always_fast,
    clairvoyance_adversary,
    evaluate_policy,
    non_adaptive_policy,
    optimal_adaptive,
    restart_policy,
)
from cfgbal.simulate import simulate_policy

from conftest import (
    brute_force_config_opt,
    brute_force_config_policy,
    brute_force_unrelated_opt,
    tiny_suite,
)


def single_config(law, mult=(1,)):
    return ConfigInstance(len(mult), [Request(0, [Configuration(mult, law)])])


def hand_policy(remaining, loads):
    """Adaptivity-gap hand policy: stochastic job first on the fast machine;
    on 0 everything goes to the fast machine, otherwise one deterministic
    job per slow machine."""
    if 0 in remaining:
        return 0, 0
    j = min(remaining)
    if loads[0] >= 2:
        return j, j
    return j, 0


class TestOptimalAdaptive:
    def test_adaptivity_gap_instance_value(self):
        value, _ = optimal_adaptive(gen_adaptivity_gap_instance(4, 2))
        assert value == Fraction(11, 8)

    def test_single_deterministic(self):
        value, _ = optimal_adaptive(single_config(point_mass(3)))
        assert value == 3

    def test_two_jobs_two_machines(self):
        u = UnrelatedInstance(2, [(point_mass(1), point_mass(1))] * 2)
        value, _ = optimal_adaptive(u)
        assert value == 1

    def test_matches_independent_unrelated_brute_force(self):
        for u in tiny_suite("unrelated", 25, seed=401):
            value, _ = optimal_adaptive(u)
            assert value == brute_force_unrelated_opt(u)

    def test_reduction_preserves_value(self):
        for u in tiny_suite("unrelated", 25, seed=402):
            direct, _ = optimal_adaptive(u)
            reduced, _ = optimal_adaptive(unrelated_to_config(u))
            assert direct == reduced

    def test_monotone_under_request_removal(self):
        for inst in tiny_suite("config", 15, seed=403, n_max=3):
            oracle = AdaptiveOracle(inst)
            full = oracle.value()
            ids = sorted(oracle.all_ids)
            for drop in ids:
                sub = frozenset(i for i in ids if i != drop)
                assert oracle.value(sub, oracle.zero_loads) <= full

    def test_state_space_guard(self):
        inst = gen_adaptivity_gap_instance(4, 2)
        with pytest.raises(StateSpaceExceeded):
            optimal_adaptive(inst, max_states=10)

    def test_tree_text_golden(self):
        law = DiscreteDistribution([(0, Fraction(1, 2)), (2, Fraction(1, 2))])
        inst = ConfigInstance(1, [Request(0, [Configuration([1], law)])])
        oracle = AdaptiveOracle(inst)
        oracle.value()
        assert oracle.tree_text() == (
            "{state: remaining=[0] loads=(0), decision: request 0 -> config 0}\n"
            "  realized 0:\n"
            "    {state: remaining=[] loads=(0), value: 0}\n"
            "  realized 2:\n"
            "    {state: remaining=[] loads=(2), value: 2}"
        )


class TestEvaluatePolicy:
    def test_hand_policy_numbers(self):
        inst = gen_adaptivity_gap_instance(4, 2)
        pv = evaluate_policy(inst, hand_policy, 2)
        assert pv.makespan == Fraction(11, 8)
        assert pv.exceptional == 4  # equals m

    def test_self_consistency_with_oracle(self):
        for inst in tiny_suite("config", 20, seed=404):
            value, oracle = optimal_adaptive(inst)
            pv = evaluate_policy(inst, oracle.policy(), Fraction(10 ** 6))
            assert pv.makespan == value

    def test_empty_instance(self):
        inst = ConfigInstance(1, [])
        pv = evaluate_policy(inst, lambda r, l: None, 1)
        assert pv.makespan == 0 and pv.exceptional == 0

    def test_incomplete_policy(self):
        inst = single_config(point_mass(1))
        with pytest.raises(IncompletePolicy):
            evaluate_policy(inst, lambda r, l: None, 1)

    def test_non_adaptive_assignment(self):
        u = UnrelatedInstance(2, [(point_mass(1), point_mass(5))])
        pv = evaluate_policy(u, non_adaptive_policy({0: 1}), 10)
        assert pv.makespan == 5


class TestWalkersMatchBruteForce:
    """The oracle, policy evaluation and restart walkers share one outcome
    table; each must agree exactly with a recursion written without it."""

    def test_config_suite(self):
        checked = 0
        for inst in tiny_suite("config", 30, seed=406):
            opt, decide = brute_force_config_opt(inst)
            oracle = AdaptiveOracle(inst)
            assert oracle.value() == opt
            if opt == 0:
                continue
            fixed = non_adaptive_policy({r.id: len(r.configs) - 1 for r in inst.requests})
            got = [
                evaluate_policy(inst, oracle.policy(), opt),
                evaluate_policy(inst, fixed, opt),
                restart_policy(inst, 2 * opt)[1],
            ]
            want = [
                brute_force_config_policy(inst, decide, opt),
                brute_force_config_policy(inst, fixed, opt),
                brute_force_config_policy(inst, decide, 2 * opt, restart=True),
            ]
            assert got == [PolicyValue(*pair) for pair in want]
            assert all(isinstance(x, Fraction) for pv in got for x in pv)
            assert got[0].makespan == opt
            checked += 1
        assert checked >= 20


class TestRestartPolicy:
    def test_single_exceptional_job(self):
        law = DiscreteDistribution([(0, Fraction(1, 2)), (10, Fraction(1, 2))])
        policy, value = restart_policy(single_config(law), 10)
        assert value.makespan == 5
        assert value.exceptional == 5

    def test_no_restart_when_below_threshold(self):
        # all realizations < tau: S(J) == OPT(J)
        law = DiscreteDistribution([(1, Fraction(1, 2)), (2, Fraction(1, 2))])
        inst = single_config(law)
        opt, _ = optimal_adaptive(inst)
        policy, value = restart_policy(inst, 100)
        assert value.makespan == opt
        assert value.exceptional == 0

    def test_gap_instance_at_twice_opt(self):
        inst = gen_adaptivity_gap_instance(4, 2)
        policy, value = restart_policy(inst, Fraction(11, 4))
        assert value.makespan == Fraction(11, 8)  # restart never fires
        assert value.exceptional == 0

    def test_restart_bounds_on_suite(self):
        for inst in tiny_suite("config", 40, seed=405, n_max=3, q_max=2, support_max=2):
            opt, _ = optimal_adaptive(inst)
            if opt == 0:
                continue
            tau = 2 * opt
            policy, value = restart_policy(inst, tau)
            assert value.makespan <= 2 * opt
            assert value.exceptional <= 2 * opt
            for j, c in policy.committed_configs:
                cfg = policy.inst.requests[j].configs[c]
                assert cfg.expected_max() <= tau

    def test_simulation_reaches_only_states_of_the_exact_tree(self):
        for inst in tiny_suite("config", 40, seed=405):
            opt, _ = optimal_adaptive(inst)
            if opt == 0:
                continue
            policy = RestartPolicy(inst, 2 * opt)
            policy.value()
            committed = set(policy.committed_configs)
            simulate_policy(policy.inst, policy, 200, 0)
            assert policy.committed_configs == committed


class TestClairvoyanceAdversary:
    @pytest.mark.parametrize("m", [4, 9, 16])
    def test_always_fast_makespan(self, m):
        import math

        sizes, assignment, makespan = clairvoyance_adversary(m, always_fast)
        assert makespan == 1 + Fraction(m - 1, math.isqrt(m))
        assert all(i == 0 for i in assignment)

    def test_first_slow_goes_big(self):
        sizes, assignment, makespan = clairvoyance_adversary(4, lambda L, s: 1)
        assert sizes[0] == 1  # the slow placement was made big
        assert makespan >= 2

    def test_degenerate_single_machine(self):
        sizes, assignment, makespan = clairvoyance_adversary(1, always_fast)
        assert makespan == 1

    def test_realized_pool(self):
        sizes, _, _ = clairvoyance_adversary(9, always_fast)
        assert sorted(sizes) == [Fraction(1, 3)] * 8 + [1]

    @pytest.mark.parametrize("m", [4, 9])
    def test_clairvoyant_optimum_of_realized_sequence(self, m):
        # big on fast, one small per slow: makespan exactly 1
        inst = gen_clairvoyance_adversary_instance(m)
        sizes, _, _ = clairvoyance_adversary(m, always_fast)
        realized = RelatedInstance(inst.speeds, [point_mass(v) for v in sizes])
        value, _ = optimal_adaptive(realized) if m <= 4 else (None, None)
        if m <= 4:
            assert value == 1
        else:
            # too many states for the exact oracle; check the explicit schedule
            loads = [Fraction(0)] * m
            big = max(range(m), key=lambda j: sizes[j])
            loads[0] = sizes[big] / inst.speeds[0]
            slow = 1
            for j in range(m):
                if j == big:
                    continue
                loads[slow] += sizes[j] / inst.speeds[slow]
                slow += 1
            assert max(loads) == 1
