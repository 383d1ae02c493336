import math
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgbal.distributions import DiscreteDistribution, ValidationError, point_mass
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    RelatedInstance,
    Request,
    RoutingInstance,
    UnrelatedInstance,
    gen_adaptivity_gap_instance,
)
from cfgbal.offline import GroupListSchedulePolicy, offline_related
from cfgbal.oracle import (
    RestartPolicy,
    evaluate_policy,
    non_adaptive_policy,
    optimal_adaptive,
    restart_policy,
)
from cfgbal.simulate import (
    NonAdaptiveAssignment,
    Trials,
    estimate_expected_max,
    expmax_regime,
    simulate_adaptive_config,
    simulate_policy,
    support_indices,
    uniform_table,
)

from conftest import (
    reference_choice_law_and_effect,
    reference_group_list_run,
    reference_restart_run,
    reference_simulate_adaptive_config,
    reference_simulate_policy,
    tiny_rng,
    tiny_suite,
)


class TestStreams:
    def test_same_seed_identical_table(self):
        a = uniform_table(3, range(4), 100)
        b = uniform_table(3, range(4), 100)
        assert np.array_equal(a, b)

    def test_requests_independent_of_trial_count(self):
        # stream per (seed, request): the first 50 trials agree regardless of
        # how many trials are drawn
        a = uniform_table(3, range(2), 50)
        b = uniform_table(3, range(2), 200)
        assert np.array_equal(a, b[:50])


@st.composite
def cdf_laws(draw):
    """A law of 1 to 8 points with exact (Fraction) or float probabilities."""
    weights = draw(st.lists(st.integers(1, 1000), min_size=1, max_size=8))
    total = sum(weights)
    exact = draw(st.booleans())
    probs = [Fraction(w, total) if exact else w / total for w in weights]
    return DiscreteDistribution(list(zip(range(len(probs)), probs)))


# a probability below one ulp of its running sum: two running sums are equal
TINY = DiscreteDistribution([(0, 0.5), (1, 1e-17), (2, 0.5)])
# running sums 0.7, 0.8999999999999999, 0.9999999999999999: the last is below 1
SHORT = DiscreteDistribution([(0, 0.7), (1, 0.2), (2, 0.1)])


def running_sums(law):
    return list(accumulate(float(p) for _, p in law.support))


def reference_indices(law, uniforms):
    """Per u, the count of the law's first k - 1 running sums at most u."""
    sums = running_sums(law)[:-1]
    return [sum(c <= u for c in sums) for u in uniforms]


class TestInverseCdf:
    """support_indices against a pure-Python reference of its rule: the
    index is the count of the first k - 1 running sums of the float
    probabilities that are at most u."""

    def test_edge_laws(self):
        assert running_sums(TINY)[0] == running_sums(TINY)[1]
        assert running_sums(SHORT)[-1] < 1

    @settings(max_examples=200, deadline=None)
    @given(cdf_laws())
    @example(TINY)
    @example(SHORT)
    def test_matches_reference(self, law):
        probes = {0.0, math.nextafter(1.0, 0.0)}
        for c in running_sums(law):
            probes |= {c, math.nextafter(c, 0.0), math.nextafter(c, 1.0)}
        u = sorted(x for x in probes if 0.0 <= x < 1.0)
        got = support_indices(law, np.array(u))
        assert got.dtype == np.intp
        assert got.tolist() == reference_indices(law, u)
        # adaptive walks read the same rule through Trials.index
        sim = Trials(ConfigInstance(1, [Request(3, [Configuration([1], law)])]), 64, seed=len(law.support))
        assert sim.index(3, law).tolist() == reference_indices(law, sim.uniform(3).tolist())


class TestSimulatePolicy:
    def test_deterministic_instance_zero_stderr(self):
        inst = ConfigInstance(1, [Request(0, [Configuration([1], point_mass(2))])])
        rep = simulate_policy(inst, NonAdaptiveAssignment({0: 0}), 100, seed=0)
        assert rep.mean_makespan == 2.0
        assert rep.stderr == 0.0

    def test_same_seed_identical_report(self):
        inst = ConfigInstance(
            1,
            [
                Request(
                    0,
                    [Configuration([1], DiscreteDistribution([(0, 0.5), (2, 0.5)]))],
                )
            ],
        )
        a = simulate_policy(inst, NonAdaptiveAssignment({0: 0}), 5000, seed=9, tau=1.0)
        b = simulate_policy(inst, NonAdaptiveAssignment({0: 0}), 5000, seed=9, tau=1.0)
        assert a.as_dict() == b.as_dict()

    def test_converges_to_exact_value(self):
        hits = 0
        total = 0
        for k, inst in enumerate(tiny_suite("config", 12, seed=901)):
            assignment = {j: 0 for j in range(inst.n)}
            exact = evaluate_policy(inst, non_adaptive_policy(assignment), Fraction(1))
            rep = simulate_policy(
                inst, NonAdaptiveAssignment(assignment), 20_000, seed=100 + k
            )
            total += 1
            tol = 4 * max(rep.stderr, 1e-12) + 1e-9
            if abs(rep.mean_makespan - float(exact.makespan)) <= tol:
                hits += 1
        assert hits >= total - 1  # 4-sigma misses are rare

    def test_exceptional_load_tracked(self):
        law = DiscreteDistribution([(0, Fraction(1, 2)), (4, Fraction(1, 2))])
        inst = ConfigInstance(1, [Request(0, [Configuration([1], law)])])
        rep = simulate_policy(inst, NonAdaptiveAssignment({0: 0}), 50_000, seed=5, tau=2.0)
        assert rep.mean_exceptional == pytest.approx(2.0, abs=0.1)

    def test_routing_loads(self):
        r = RoutingInstance(
            3, [(0, 1, 2), (1, 2, Fraction(1, 2))], [(0, 2, point_mass(1))]
        )
        rep = simulate_policy(r, NonAdaptiveAssignment({0: (0, 1)}), 10, seed=0)
        assert rep.mean_makespan == pytest.approx(2.0)  # 1 / 0.5
        assert rep.resource_means == pytest.approx([0.5, 2.0])

    def test_adaptive_related_policy(self):
        # adaptive group policy through the generic trial loop
        from cfgbal.offline import GroupListSchedulePolicy

        inst = RelatedInstance([1, 1], [point_mass(1)] * 4)
        policy = GroupListSchedulePolicy(inst, [(0, 1)], {j: 0 for j in range(4)}, 10.0)
        rep = simulate_policy(inst, policy, 50, seed=1)
        assert rep.mean_makespan == 2.0  # 4 unit jobs spread over 2 machines

    def test_adaptive_config_simulation_matches_oracle(self):
        inst = gen_adaptivity_gap_instance(4, 2)
        value, oracle = optimal_adaptive(inst)
        rep = simulate_adaptive_config(
            oracle.inst, oracle.policy(), 40_000, seed=11, tau=2.0
        )
        assert rep.mean_makespan == pytest.approx(float(value), abs=4 * rep.stderr + 0.02)
        assert rep.mean_exceptional == pytest.approx(4.0, abs=0.15)


def seeded_related(seed, n, m):
    """Related instance with speeds from {1/2, 1, 2, 3, 5} and two- or
    three-point job laws."""
    rng = tiny_rng(seed)
    pool = (Fraction(1, 2), 1, 2, 3, 5)
    speeds = [pool[int(rng.integers(0, len(pool)))] for _ in range(m)]
    jobs = []
    for _ in range(n):
        k = int(rng.integers(2, 4))
        values = sorted({float(v) for v in rng.uniform(0.1, 4.0, size=k)})
        probs = rng.dirichlet(np.ones(len(values)))
        jobs.append(DiscreteDistribution(list(zip(values, probs / probs.sum()))))
    return RelatedInstance(speeds, jobs)


def binary_exact(inst):
    """Every support value is a binary float, so a float realization read
    back as a Fraction is the exact support value."""
    return all(
        Fraction(float(v)) == v for r in inst.requests for c in r.configs for v, _ in c.law.support
    )


def relisted(inst, order):
    """The same configuration instance with its requests listed in order."""
    return ConfigInstance(inst.m, [inst.requests[k] for k in order])


class TestCommitEach:
    """Trials.commit_each against the per-option effects of conftest's
    reference_choice_law_and_effect, committed trial by trial."""

    # 1.0 / float(5/9) is 1.7999999999999998, float(9/5) is 1.8
    SPEEDS = (1, 1.0, Fraction(5, 9), 0.3, 2, Fraction(5, 2))

    @staticmethod
    def reference(sim, j, choices, x):
        for t, (c, v) in enumerate(zip(choices.tolist(), x.tolist())):
            _, mult, a_max = reference_choice_law_and_effect(sim.inst, j, c)
            sim.loads[t, c] += mult[c] * v
            if sim.tau is not None and a_max * v >= sim.tau:
                sim.exc[t] += a_max * v

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from(SPEEDS), min_size=1, max_size=5),
        st.sampled_from(["related", "unrelated"]),
        st.sampled_from([None, 0.5, 2.0]),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_per_option_effects(self, speeds, kind, tau, jobs, seed):
        law = DiscreteDistribution([(0.25, Fraction(1, 2)), (Fraction(7, 3), Fraction(1, 2))])
        m = len(speeds)
        if kind == "related":
            inst = RelatedInstance(speeds, [law] * jobs)
        else:
            inst = UnrelatedInstance(m, [[law.scale(s) for s in speeds]] * jobs)
        got, want = Trials(inst, 40, seed, tau), Trials(inst, 40, seed, tau)
        rng = np.random.default_rng(seed)
        for j in range(jobs):
            choices = rng.integers(0, m, size=40)
            x = rng.uniform(0.0, 3.0, size=40)
            got.commit_each(j, choices, x)
            self.reference(want, j, choices, x)
        assert got.loads.tobytes() == want.loads.tobytes()
        assert got.exc.tobytes() == want.exc.tobytes()

    @pytest.mark.parametrize(
        "j, choices, message",
        [
            (0, [1, 5, -2, 3, 0], "policy chose machine -2; request 0 has 3"),
            (1, [4, 3, 0], "policy chose machine 3; request 1 has 3"),
            (7, [0, 0, 0], "policy chose request 7; the instance has no such request"),
        ],
    )
    def test_names_the_smallest_invalid_machine(self, j, choices, message):
        sim = Trials(RelatedInstance([1, 2, 2], [point_mass(1)] * 2), len(choices), 0)
        with pytest.raises(ValidationError) as err:
            sim.commit_each(j, np.array(choices), np.ones(len(choices)))
        assert str(err.value) == message
        assert not sim.loads.any()


class TestRequestIds:
    def test_request_id_not_a_position(self):
        inst = ConfigInstance(1, [Request(7, [Configuration([1], point_mass(1))])])
        rep = simulate_policy(inst, NonAdaptiveAssignment({7: 0}), 10, 0)
        exact = evaluate_policy(inst, non_adaptive_policy({7: 0}), 10)
        assert rep.mean_makespan == exact.makespan == 1

    def test_unknown_and_duplicate_ids(self):
        inst = ConfigInstance(1, [Request(7, [Configuration([1], point_mass(1))])])
        with pytest.raises(ValidationError, match="request 0"):
            simulate_policy(inst, NonAdaptiveAssignment({0: 0}), 10, 0)
        with pytest.raises(ValidationError, match="not unique"):
            twice = ConfigInstance(1, list(inst.requests) * 2)
            simulate_policy(twice, NonAdaptiveAssignment({7: 0}), 10, 0)

    def test_partial_assignment_names_smallest_omitted_id(self):
        law = DiscreteDistribution([(1, Fraction(1, 2)), (3, Fraction(1, 2))])
        inst = ConfigInstance(1, [Request(j, [Configuration([1], law)]) for j in (9, 4, 17, 2)])
        with pytest.raises(ValidationError, match=r"no choice to request 2$"):
            simulate_policy(inst, NonAdaptiveAssignment({9: 0, 17: 0}), 10, 0)

    def test_streams_follow_ids(self):
        assert np.array_equal(uniform_table(3, [2, 0], 50), uniform_table(3, range(3), 50)[:, [2, 0]])

    def test_permuted_listing_simulates_the_same(self):
        for k, inst in enumerate(tiny_suite("config", 12, seed=611)):
            if inst.n < 2:
                continue
            order = list(range(inst.n))[::-1]
            other = relisted(inst, order)
            choices = NonAdaptiveAssignment({r.id: len(r.configs) - 1 for r in inst.requests})
            a = simulate_policy(inst, choices, 500, k, tau=1.0)
            b = simulate_policy(other, choices, 500, k, tau=1.0)
            assert a.as_dict() == b.as_dict()
            _, oracle = optimal_adaptive(inst)
            a = simulate_adaptive_config(oracle.inst, oracle.policy(), 500, k, tau=1.0)
            b = simulate_adaptive_config(relisted(oracle.inst, order), oracle.policy(), 500, k, tau=1.0)
            assert a.as_dict() == b.as_dict()

    def test_relabelled_ids_match_exact_values(self):
        # ids 5, 3, 9 listed out of order: the simulated means converge to
        # the exact values of the same policies
        law = DiscreteDistribution([(1, Fraction(1, 2)), (3, Fraction(1, 2))])
        configs = [Configuration([1, 0], law), Configuration([0, 1], law)]
        inst = ConfigInstance(2, [Request(j, configs) for j in (5, 3, 9)])
        fixed = {5: 0, 3: 1, 9: 0}
        exact = evaluate_policy(inst, non_adaptive_policy(fixed), 2)
        rep = simulate_policy(inst, NonAdaptiveAssignment(fixed), 20_000, 4, tau=2.0)
        assert rep.mean_makespan == pytest.approx(float(exact.makespan), abs=4 * rep.stderr)
        assert rep.mean_exceptional == pytest.approx(float(exact.exceptional), abs=0.1)
        value, oracle = optimal_adaptive(inst)
        rep = simulate_adaptive_config(oracle.inst, oracle.policy(), 20_000, 4)
        assert rep.mean_makespan == pytest.approx(float(value), abs=4 * rep.stderr)


class TestRestartSimulation:
    def instance(self):
        law = DiscreteDistribution([(Fraction(1, 3), Fraction(1, 2)), (Fraction(2, 3), Fraction(1, 2))])
        configs = [Configuration([1, 0], law), Configuration([0, 1], law)]
        return ConfigInstance(2, [Request(j, configs) for j in range(3)])

    def test_simulation_stays_on_the_exact_grid(self):
        policy = RestartPolicy(self.instance(), 2)
        value = policy.value()
        states = len(policy.oracle._value)
        assert states == 62
        rep = simulate_policy(policy.inst, policy, 200, 0)
        assert len(policy.oracle._value) == states
        assert abs(rep.mean_makespan - float(value.makespan)) <= 4 * rep.stderr

    def test_realization_at_tau_restarts(self):
        # request 0 realizing exactly tau = 2 resets OPT's loads, so OPT
        # places request 1 as on an empty instance: config 0, on top of it
        coin = DiscreteDistribution([(0, Fraction(1, 2)), (2, Fraction(1, 2))])
        one = point_mass(1)
        inst = ConfigInstance(
            2,
            [
                Request(0, [Configuration([1, 0], coin)]),
                Request(1, [Configuration([1, 0], one), Configuration([0, 1], one)]),
            ],
        )
        policy, value = restart_policy(inst, 2)
        assert value.makespan == 2 and value.exceptional == 1
        rep = simulate_policy(policy.inst, policy, 1000, 3, tau=2.0)
        assert rep.resource_means == [pytest.approx(2.0, abs=0.1), 0.0]
        assert rep.mean_exceptional == pytest.approx(1.0, abs=0.1)


class TestBatchedMatchesReference:
    """The batched simulator reproduces the per-trial reference loops of
    tests/conftest.py bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_group_list_schedule(self, seed):
        inst = seeded_related(seed, 30, 9)
        policy, report = offline_related(inst, tiny_rng(seed))
        assert policy is not None
        smoothed = policy.instance

        def run(inst, realize):
            return reference_group_list_run(policy, inst, realize)

        for tau in (None, report.tau):
            got = simulate_policy(smoothed, policy, 300, seed, tau=tau)
            want = reference_simulate_policy(smoothed, run, 300, seed, tau=tau)
            assert got.as_dict() == want.as_dict()

    def test_one_resource_sums_trials_in_order(self):
        # numpy's pairwise sum over one column rounds differently from the
        # reference's trial-by-trial sum
        inst = RelatedInstance([1], seeded_related(4, 10, 1).jobs)
        policy = GroupListSchedulePolicy(inst, [(0,)], {j: 0 for j in range(inst.n)}, 3.0)

        def run(inst, realize):
            return reference_group_list_run(policy, inst, realize)

        got = simulate_policy(inst, policy, 5000, 4)
        assert got.as_dict() == reference_simulate_policy(inst, run, 5000, 4).as_dict()

    def test_group_list_run_is_one_trial(self):
        rng = tiny_rng(5)
        policy, _ = offline_related(seeded_related(5, 20, 6), tiny_rng(5))
        smoothed = policy.instance
        for _ in range(20):
            sizes = [law.sample(rng) for law in smoothed.jobs]
            got = policy.run(smoothed, lambda j, law: sizes[j])
            assert got == reference_group_list_run(policy, smoothed, lambda j, law: sizes[j])

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("tau", [2, 3, 4])
    def test_oracle_policy_on_gap_instances(self, m, tau):
        _, oracle = optimal_adaptive(gen_adaptivity_gap_instance(m, tau))
        for t in (None, float(tau)):
            got = simulate_adaptive_config(oracle.inst, oracle.policy(), 800, m + tau, tau=t)
            want = reference_simulate_adaptive_config(oracle.inst, oracle.policy(), 800, m + tau, tau=t)
            assert got.as_dict() == want.as_dict()

    def test_restart_policy_on_tiny_suite(self):
        checked = 0
        for k, inst in enumerate(tiny_suite("config", 30, seed=4242)):
            opt, _ = optimal_adaptive(inst)
            if opt == 0:
                continue
            policy, _ = restart_policy(inst, 2 * opt)
            if not binary_exact(policy.inst):
                continue

            def run(inst, realize, policy=policy):
                return reference_restart_run(policy, inst, realize)

            tau = float(2 * opt)
            got = simulate_policy(policy.inst, policy, 200, k, tau=tau)
            want = reference_simulate_policy(policy.inst, run, 200, k, tau=tau)
            assert got.as_dict() == want.as_dict()
            checked += 1
        assert checked >= 20


class TestEstimateExpectedMax:
    def test_point_mass_exact(self):
        est, err = estimate_expected_max([[(point_mass(3), 1)]], 100, seed=0)
        assert est == 3.0 and err == 0.0

    def test_all_sums_deterministic(self):
        per_sum = [[(point_mass(1), 4)] for _ in range(5)]
        est, _ = estimate_expected_max(per_sum, 50, seed=1)
        assert est == 4.0

    def test_weighted_variant(self):
        per_sum = [[(point_mass(1), 6)], [(point_mass(1), 2)]]
        est, _ = estimate_expected_max(per_sum, 20, seed=2, weights=[3, 2])
        assert est == 2.0  # max(6/3, 2/2)

    def test_regime_shapes(self):
        spec, w = expmax_regime("sqrtlog", 8)
        assert len(spec) == 8 and w is None
        spec, w = expmax_regime("geo", 8)
        assert len(w) == 8
        assert all(2 * a >= 3 * b for a, b in zip(w, w[1:]))

    def test_binomial_regime_mean(self):
        # E[S_i] = tau for the sqrtlog regime
        spec, _ = expmax_regime("sqrtlog", 16)
        law, count = spec[0][0]
        assert float(law.mean()) * count == pytest.approx(1.0)
