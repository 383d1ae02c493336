import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal.distributions import DiscreteDistribution, point_mass
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    RelatedInstance,
    Request,
    RoutingInstance,
    RoutingRequestView,
    SmoothedGroups,
    gen_clairvoyance_adversary_instance,
)
from cfgbal import online
from cfgbal.online import (
    ConfigBalancer,
    PotentialState,
    RelatedBalancer,
    SqrtListScheduler,
    argmin_step,
    delta_phi,
    guess_and_double,
    nonclairvoyant_sqrt_list,
    online_route_step,
    online_step,
    potential,
    related_group_proxies,
    request_proxies,
    run_online_config,
    run_online_related,
    run_online_routing,
)
from cfgbal.oracle import optimal_adaptive

from conftest import brute_force_min_dphi, random_dag_routing, tiny_rng, tiny_suite


def triangle(demand=None):
    law = demand or point_mass(1)
    return RoutingInstance(
        3, [(0, 1, 1), (1, 2, 1), (0, 2, Fraction(1, 2))], [(0, 2, law)]
    )


class TestPotential:
    def test_zero_loads(self):
        assert potential([0.0] * 5, 2.0) == 5  # m + 1 for m = 4

    def test_all_at_tau(self):
        assert potential([2.0] * 4, 2.0) == pytest.approx(1.5 * 4)

    def test_direct_evaluation(self):
        assert potential([0.0, 1.0], 2.0) == pytest.approx(1 + 1.5 ** 0.5)

    def test_ell_value(self):
        st = PotentialState.fresh(1, 1.0)
        assert st.ell == pytest.approx(math.log(4) / math.log(1.5))
        assert st.ell == pytest.approx(3.4190, abs=1e-4)


class TestOnlineStep:
    def test_argmin_example(self):
        st = PotentialState.fresh(2, 1.0)  # tau = 2
        idx, dphi, new, increments = argmin_step(st, [[(0, 0.0), (1, 1.0)], [(0, 0.0), (2, 0.5)]])
        assert idx == 1
        assert dphi == pytest.approx(1.5 ** 0.25 - 1)
        assert new.loads == [0.0, 0.0, 0.5]
        assert increments == [(0, 0.0), (2, 0.5)]

    def test_single_config_commits(self):
        law = point_mass(1)
        req = Request(0, [Configuration([1], law)])
        st = PotentialState.fresh(1, 1.0)
        idx, dphi, new, increments = online_step(st, req)
        assert idx == 0 and new.loads[1] == 1.0
        assert increments == [(0, 0.0), (1, 1.0)]

    def test_fail_on_cap_breach(self):
        st = PotentialState.fresh(1, 1.0)  # ell*tau ~ 6.84
        big = Request(0, [Configuration([1], point_mass(1.9))])
        # each step adds E[X^T]=1.9; after 3 commits the 4th breaches 6.84
        for _ in range(3):
            result = online_step(st, big)
            assert result is not None
            st = result[2]
        assert online_step(st, big) is None

    def test_immediate_fail_at_zero_loads(self):
        # m=1, tau=2: cap is ell*tau ~ 6.84; an exceptional proxy of 100 on
        # the virtual resource breaches it on the very first request
        st = PotentialState.fresh(1, 1.0)
        big_exc = Request(0, [Configuration([1], point_mass(100.0))])
        assert online_step(st, big_exc) is None

    def test_monotone_loads(self):
        st = PotentialState.fresh(2, 1.0)
        for inst in tiny_suite("config", 5, seed=701, m_max=2):
            for req in inst.requests:
                res = online_step(st, req)
                if res is None:
                    break
                assert all(b >= a for a, b in zip(st.loads, res[2].loads))
                st = res[2]

    def test_argmin_scale_invariance(self):
        st1 = PotentialState.fresh(2, 1.0)
        st2 = PotentialState.fresh(2, 3.0)  # tau scaled by 3
        proxies = [[(0, 0.1), (1, 0.7)], [(0, 0.0), (1, 0.3), (2, 0.4)], [(0, 0.2), (2, 0.5)]]
        scaled = [[(i, 3 * x) for i, x in p] for p in proxies]
        assert argmin_step(st1, proxies)[0] == argmin_step(st2, scaled)[0]

    def test_commit_exactly_at_cap_is_admitted(self):
        st = PotentialState.fresh(1, 1.0)
        cap = st.ell * st.tau
        result = argmin_step(st, [[(1, cap)]])
        assert result is not None and result[2].loads == [0.0, cap]
        assert argmin_step(st, [[(1, math.nextafter(cap, math.inf))]]) is None
        assert argmin_step(st, [[(0, math.nextafter(cap, math.inf))]]) is None

    def test_boundary_proxy_is_exceptional(self):
        # s=1, tau=2, law {(2,1)}: proxy x0 = 2, truncated part 0
        cfg = Configuration([1], point_mass(2))
        assert request_proxies(Request(0, [cfg]), 2) == [[(0, 2.0), (1, 0.0)]]

    def test_argmin_prefers_a_finite_candidate_to_an_overflow(self):
        # 1.5 ** (1e5 / 2) overflows a float; the entry is far past ell * tau
        st = PotentialState.fresh(1, 1.0)
        assert delta_phi(st.loads, st.tau, [(0, 1e5)]) == math.inf
        idx, dphi, new, _ = argmin_step(st, [[(0, 1e5)], [(0, 0.0), (1, 1.0)]])
        assert idx == 1 and dphi == pytest.approx(1.5 ** 0.5 - 1)
        assert new.loads == [0.0, 1.0]

    def test_only_overflowing_candidates_fail(self):
        st = PotentialState.fresh(1, 1.0)
        assert argmin_step(st, [[(0, 1e5)], [(1, 1e5)]]) is None


# zeros and repeats of equal values in both types: 1 and 1.0 scale a
# Fraction law into different types
_multipliers = st.sampled_from([0, 0.0, 1, 1.0, Fraction(1, 3), 0.5, 2, Fraction(3, 2)])


@st.composite
def request_at_tau(draw):
    """A float or Fraction law, a request of one to three configurations
    over m <= 5 resources, and a tau at a scaled support point, between two
    of them, or anywhere."""
    exact = draw(st.booleans())
    values = draw(st.lists(st.integers(0, 12), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
    total = sum(weights)
    law = DiscreteDistribution([
        (Fraction(v, 4), Fraction(w, total)) if exact else (v / 4, w / total)
        for v, w in zip(values, weights)
    ])
    m = draw(st.integers(1, 5))
    configs = draw(st.lists(
        st.lists(_multipliers, min_size=m, max_size=m), min_size=1, max_size=3
    ))
    points = sorted({v * a for v, _ in law.support for mults in configs for a in mults} - {0})
    between = [(p + q) / 2 for p, q in zip(points, points[1:])]
    tau = draw(st.one_of(
        *(st.sampled_from(xs) for xs in (points, between) if xs),
        st.fractions(min_value=Fraction(1, 8), max_value=40, max_denominator=8),
        st.floats(min_value=0.01, max_value=40.0),
    ))
    return Request(0, [Configuration(mults, law) for mults in configs]), tau


class TestRequestProxies:
    @settings(max_examples=300, deadline=None)
    @given(request_at_tau())
    def test_entries_are_the_kernel_values(self, case):
        request, tau = case
        proxies = request_proxies(request, tau)
        assert len(proxies) == len(request.configs)
        for config, proxy in zip(request.configs, proxies):
            law, mults = config.law, config.multipliers
            top = max(mults)
            want = [(0, float(law.exceptional_mean(tau, top)) if top else 0.0)]
            want += [(i + 1, float(law.truncated_mean(tau, a))) for i, a in enumerate(mults) if a]
            assert all(type(x) is float for _, x in proxy)
            assert [(i, x.hex()) for i, x in proxy] == [(i, x.hex()) for i, x in want]


class TestPotentialBoundAtOptimum:
    def test_no_fail_and_potential_bound_at_opt(self):
        for inst in tiny_suite("config", 30, seed=702, n_max=3, q_max=2, support_max=2):
            opt, _ = optimal_adaptive(inst)
            if opt == 0:
                continue
            lam = float(opt)
            st = PotentialState.fresh(inst.m, lam)
            failed = False
            for req in inst.requests:
                res = online_step(st, req)
                if res is None:
                    failed = True
                    break
                st = res[2]
            assert not failed
            assert st.phi() <= 2 * (inst.m + 1) + 1e-9


class TestGuessAndDouble:
    def test_no_fail_means_identical_output(self):
        inst = ConfigInstance(
            1, [Request(j, [Configuration([1], point_mass(1))]) for j in range(3)]
        )
        # the first request's cost guesses lambda = 1, whose cap 6.84 holds all three
        run = guess_and_double([(r.id, r) for r in inst.requests], ConfigBalancer(1))
        assert run.phases == 1
        assert [rec.choice for rec in run.records] == [0, 0, 0]

    def test_engineered_single_reset(self):
        # the first unit job guesses lambda = 1: cap is ell*tau =
        # log_{3/2}(4)*2 ~ 6.84; nine unit jobs overflow once, doubling to
        # lam = 2 whose cap 13.7 absorbs the rest
        reqs = [(j, Request(j, [Configuration([1], point_mass(1))])) for j in range(9)]
        run = guess_and_double(reqs, ConfigBalancer(1))
        assert run.phases == 2
        assert run.final_lambda == 2.0
        phases = [rec.phase for rec in run.records]
        assert phases == sorted(phases)
        assert len(run.records) == 9  # every request committed exactly once

    def test_all_zero_stream_falls_back_to_one(self):
        zeros = [(j, Request(j, [Configuration([1], point_mass(0))])) for j in range(3)]
        run = guess_and_double(zeros, ConfigBalancer(1))
        assert run.final_lambda == 1.0 and run.phases == 1
        assert [rec.lam for rec in run.records] == [1.0, 1.0, 1.0]
        assert run.state.tau == 2.0

    def test_replay_deterministic(self):
        for inst in tiny_suite("config", 5, seed=703):
            r1 = run_online_config(inst)
            r2 = run_online_config(inst)
            assert [(a.request, a.choice, a.lam) for a in r1.records] == [
                (b.request, b.choice, b.lam) for b in r2.records
            ]

    def test_zero_first_request_guess(self):
        zero = Request(0, [Configuration([1], point_mass(0))])
        one = Request(1, [Configuration([1], point_mass(1))])
        run = guess_and_double([(0, zero), (1, one)], ConfigBalancer(1))
        assert run.final_lambda > 0
        assert len(run.records) == 2


class TestOnlineRelated:
    def test_two_group_example(self):
        groups = SmoothedGroups([(1, 3, (0, 1, 2)), (2, 2, (3, 4))])
        st = PotentialState.fresh(2, 1.0)  # tau = 2
        proxies = related_group_proxies(groups, point_mass(1), 2.0)
        assert proxies[0] == [(0, 0.0), (1, pytest.approx(1 / 3))]
        assert proxies[1] == [(0, 0.0), (2, 0.25)]
        balancer = RelatedBalancer(RelatedInstance([1, 1, 1, 2, 2], [point_mass(1)]), cycle_support)
        assert balancer.groups.groups == groups.groups
        machine, dphi, _, increments = balancer.step(st, point_mass(1))
        assert increments == proxies[1]  # group 2
        assert machine == 3  # least loaded in group 2, lowest id
        assert dphi == pytest.approx(1.5 ** 0.125 - 1)

    def test_single_group_forced(self):
        st = PotentialState.fresh(1, 5.0)
        balancer = RelatedBalancer(RelatedInstance([1, 1], [point_mass(1)]), cycle_support)
        assert balancer.groups.groups == ((1, 2, (0, 1)),)
        balancer.history = [(0, 1.0), (1, 0.5)]  # truncated loads {0: 1.0, 1: 0.5}
        machine, _, _, increments = balancer.step(st, point_mass(1))
        assert increments == related_group_proxies(balancer.groups, point_mass(1), st.tau)[0]
        assert machine == 1


def multi_phase_related():
    """120 jobs on 6 related machines that take three guess-and-double
    phases; a quarter of each job's mass sits far above the others, so some
    realized sizes reach tau and stay out of the truncated loads."""
    rng = tiny_rng(7)
    speeds = [float(rng.integers(1, 9)) / 8 for _ in range(6)]
    jobs = [
        DiscreteDistribution(
            [(float(rng.integers(1, 9)) / 4, 0.75), (float(rng.integers(9, 65)), 0.25)]
        )
        for _ in range(120)
    ]
    return RelatedInstance(speeds, jobs)


def cycle_support(j, law):
    return law.support[j % len(law.support)][0]


# repeated speeds make groups of several machines, and equal sizes and
# zeros make their loads tie; sizes of 40 reach tau
SPEEDS = (1, 1.0, Fraction(1, 2), 0.5, 0.25, 2, 0.75)
JOBS = (
    point_mass(0),
    point_mass(Fraction(1, 2)),
    point_mass(1),
    DiscreteDistribution([(0, Fraction(1, 2)), (1, Fraction(1, 2))]),
    DiscreteDistribution([(Fraction(1, 2), Fraction(3, 4)), (40, Fraction(1, 4))]),
    DiscreteDistribution([(0.25, 0.5), (3.0, 0.5)]),
)


def run_checked(inst, realize):
    """run_online_related with every step checked against a rescan of the
    history: after the step the loads in the group heaps equal the rescan at
    its tau, every machine of the group in its group's heap, and the chosen
    machine is the least (rescan load, id) of its group before the step.
    Returns (run, balancer, whether each step admitted)."""
    step = RelatedBalancer.step
    outcomes = []

    def checked_step(self, state, job):
        before = self.truncated_loads(state.tau)
        result = step(self, state, job)
        assert self.loads_tau == state.tau
        rescan = self.truncated_loads(state.tau)
        for heap, (_, _, ids) in zip(self.heaps, self.groups, strict=True):
            assert sorted(i for _, i in heap) == sorted(ids)
            assert {i: load for load, i in heap} == {i: rescan.get(i, 0.0) for i in ids}
        if result is not None:
            machine = result[0]
            [ids] = [ids for _, _, ids in self.groups if machine in ids]
            assert machine == min(ids, key=lambda i: (before.get(i, 0.0), i))
        outcomes.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RelatedBalancer, "step", checked_step)
        run, inner = run_online_related(inst, realize)
    return run, inner, outcomes


class TestRelatedBalancer:
    def test_one_proxy_pass_per_attempted_step(self, monkeypatch):
        calls = {"proxies": 0, "steps": 0}
        proxies, step = online.related_group_proxies, RelatedBalancer.step

        def counted_proxies(*args):
            calls["proxies"] += 1
            return proxies(*args)

        def counted_step(self, *args):
            calls["steps"] += 1
            return step(self, *args)

        monkeypatch.setattr(online, "related_group_proxies", counted_proxies)
        monkeypatch.setattr(RelatedBalancer, "step", counted_step)
        inst = multi_phase_related()
        run, _ = run_online_related(inst, cycle_support)
        assert run.phases == 3
        assert calls["proxies"] == calls["steps"] == inst.n + run.phases - 1

    def test_kept_loads_equal_a_rescan_after_every_step(self):
        run, inner, outcomes = run_checked(multi_phase_related(), cycle_support)
        assert run.phases == 3 and not all(outcomes)
        tau = run.state.tau
        assert any(scaled >= tau for _, scaled in inner.history)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.sampled_from(SPEEDS), min_size=1, max_size=12),
        st.lists(st.sampled_from(JOBS), min_size=1, max_size=40),
    )
    def test_choice_is_a_rescan_argmin_with_repeated_speeds(self, speeds, jobs):
        run_checked(RelatedInstance(speeds, jobs), cycle_support)


class TestOnlineRouting:
    def test_triangle_two_hop_choice(self):
        st = PotentialState.fresh(3, 1.5)  # tau = 3
        path, dphi, new, increments = online_route_step(triangle(), st, 0)
        assert path == (0, 1)
        assert dphi == pytest.approx(2 * (1.5 ** (1 / 3) - 1))
        assert new.loads[1] == new.loads[2] == pytest.approx(1.0)
        assert increments == [(0, 0.0), (1, 1.0), (2, 1.0)]

    def test_single_admissible_path(self):
        r = RoutingInstance(3, [(0, 1, 1), (1, 2, 1)], [(0, 2, point_mass(1))])
        st = PotentialState.fresh(2, 2.0)
        path, _, _, _ = online_route_step(r, st, 0)
        assert path == (0, 1)

    def test_matches_brute_force_on_random_dags(self):
        import numpy as np

        rng = np.random.Generator(np.random.Philox(key=808))
        for seed in range(30):
            r = random_dag_routing(seed)
            lam = max(float(law.mean()) for _, _, law in r.requests) + 0.25
            st = PotentialState.fresh(r.m, lam)
            # drift the loads so ties and orderings vary
            st.loads = [float(v) for v in rng.uniform(0, lam, size=r.m + 1)]
            for j in range(r.n):
                res = online_route_step(r, st, j)
                expect_path, expect_val = brute_force_min_dphi(r, st, j)
                if res is None:
                    continue
                path, dphi, st, _ = res
                assert path == expect_path, (seed, j)
                assert dphi == pytest.approx(expect_val, abs=1e-12)

    def test_commit_exactly_at_cap_is_admitted(self):
        # one unit edge; point mass 1 is truncated (1 < tau = 2) and adds 1.0
        r = RoutingInstance(2, [(0, 1, 1)], [(0, 1, point_mass(1))])
        st = PotentialState.fresh(1, 1.0)
        cap = st.ell * st.tau
        assert (cap - 1.0) + 1.0 == cap
        st.loads = [0.0, cap - 1.0]
        path, _, new, _ = online_route_step(r, st, 0)
        assert path == (0,) and new.loads == [0.0, cap]
        st.loads = [0.0, math.nextafter(cap - 1.0, math.inf)]
        assert online_route_step(r, st, 0) is None

    def test_fail_on_disconnect(self):
        st = PotentialState.fresh(3, 0.25)  # tau = 0.5 disconnects
        assert online_route_step(triangle(), st, 0) is None

    def test_full_run(self):
        run = run_online_routing(triangle())
        assert len(run.records) == 1
        assert run.records[0].choice == (0, 1)


def seeded_grid(seed, side=4, n=40):
    """A side x side bidirectional grid with capacities drawn from {1, 2, 4}
    and n requests between random vertex pairs, each with a two-point float
    law."""
    rng = tiny_rng(seed)
    edges = []
    for v in range(side * side):
        row, col = divmod(v, side)
        for w, ok in ((v + 1, col + 1 < side), (v + side, row + 1 < side)):
            if ok:
                for a, b in ((v, w), (w, v)):
                    edges.append((a, b, (1, 2, 4)[int(rng.integers(0, 3))]))
    requests = []
    for _ in range(n):
        s, t = (int(x) for x in rng.choice(side * side, size=2, replace=False))
        hi = round(float(rng.uniform(0.5, 2.0)), 3)
        requests.append((s, t, DiscreteDistribution([(hi / 4, 0.75), (hi, 0.25)])))
    return RoutingInstance(side * side, edges, requests)


def replay_last_phase(run):
    """The load vector from adding the last phase's recorded increments to
    zeros, in record order."""
    loads = [0.0] * len(run.state.loads)
    for rec in run.records:
        if rec.phase == run.phases - 1:
            for i, x in rec.proxy:
                loads[i] += x
    return loads


class TestRecordsAreAdmitted:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_routing_records_are_the_view_increments(self, seed):
        r = seeded_grid(seed)
        run = run_online_routing(r)
        for rec in run.records:
            view = RoutingRequestView(r, rec.request, 2 * rec.lam)
            want = {0: view.exceptional(rec.choice)}
            want.update((e + 1, view.truncated[e]) for e in rec.choice)
            got = dict(rec.proxy)
            assert list(got) == list(want)
            assert [x.hex() for x in got.values()] == [x.hex() for x in want.values()]

    def test_config_increments_replay_the_loads(self):
        unit = [Request(j, [Configuration([1], point_mass(1))]) for j in range(9)]
        for inst in [ConfigInstance(1, unit)] + tiny_suite("config", 10, seed=704):
            run = run_online_config(inst)
            assert replay_last_phase(run) == run.state.loads

    def test_related_increments_replay_the_loads(self):
        run, _ = run_online_related(multi_phase_related(), cycle_support)
        assert run.phases == 3
        assert replay_last_phase(run) == run.state.loads

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_routing_increments_replay_the_loads(self, seed):
        run = run_online_routing(seeded_grid(seed))
        assert replay_last_phase(run) == run.state.loads


class TestSqrtBaseline:
    def test_fast_set_m4(self):
        inst = gen_clairvoyance_adversary_instance(4)
        sched = SqrtListScheduler(inst.speeds)
        assert sched.fast == [0, 1, 2, 3]

    def test_single_machine(self):
        sched = SqrtListScheduler([1])
        sched.observe(sched.choose(), 2)
        sched.observe(sched.choose(), 3)
        assert sched.makespan() == 5

    def test_idle_slow_machines(self):
        # speeds 1 and 1/4 with m=2: threshold 1/sqrt(2) ~ 0.707 excludes 1/4
        sched = SqrtListScheduler([1, 0.25])
        assert sched.fast == [0]

    @pytest.mark.parametrize("m", [4, 9, 16])
    def test_adversary_bound(self, m):
        from cfgbal.oracle import clairvoyance_adversary

        def sqrt_rule(loads, speeds):
            thr = max(speeds) / math.isqrt(len(speeds))
            fast = [i for i, s in enumerate(speeds) if s >= thr]
            return min(fast, key=lambda i: (loads[i], i))

        sizes, placed, makespan = clairvoyance_adversary(m, sqrt_rule)
        assert makespan <= 4 * math.isqrt(m)  # clairvoyant OPT is 1

        # replaying the revealed sizes through the scheduler reproduces the
        # same choices and makespan
        inst = gen_clairvoyance_adversary_instance(m)
        trace, sched = nonclairvoyant_sqrt_list(inst, lambda j, i: sizes[j])
        assert [i for _, i, _ in trace] == placed
        assert sched.makespan() == makespan
