from fractions import Fraction

import pytest

from cfgbal.distributions import DiscreteDistribution, ValidationError, point_mass
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    NoFeasiblePath,
    RelatedInstance,
    Request,
    RoutingInstance,
    SmoothedGroups,
    UnrelatedInstance,
    gen_adaptivity_gap_instance,
    gen_clairvoyance_adversary_instance,
    random_tiny_instance,
    related_to_unrelated,
    routing_to_config,
    smooth_machines,
    unrelated_to_config,
)
from cfgbal.instance_io import (
    ParseError,
    dumps_instance,
    loads_instance,
    read_instance,
    write_instance,
)

from conftest import reference_simple_paths, tiny_rng, tiny_suite


def paths(view):
    """The simple source-sink paths over a view's admissible edges, in
    canonical order."""
    r = view.instance
    return reference_simple_paths(r.vertices, r.edges, view.edge_ids, view.source, view.sink)


def triangle(demand=None):
    law = demand or point_mass(1)
    return RoutingInstance(
        3, [(0, 1, 1), (1, 2, 1), (0, 2, Fraction(1, 2))], [(0, 2, law)]
    )


class TestReductions:
    def test_single_machine(self):
        u = UnrelatedInstance(1, [(point_mass(1),)])
        c = unrelated_to_config(u)
        assert c.n == 1 and len(c.requests[0].configs) == 1
        assert c.requests[0].configs[0].multipliers == (1,)

    def test_indicator_multipliers(self):
        d1 = point_mass(1)
        d2 = point_mass(2)
        c = unrelated_to_config(UnrelatedInstance(2, [(d1, d2)]))
        cfgs = c.requests[0].configs
        assert cfgs[0].multipliers == (1, 0) and cfgs[0].law == d1
        assert cfgs[1].multipliers == (0, 1) and cfgs[1].law == d2

    def test_chosen_config_loads_one_machine(self):
        c = unrelated_to_config(UnrelatedInstance(3, [(point_mass(1),) * 3]))
        for i, cfg in enumerate(c.requests[0].configs):
            assert [a for a in cfg.multipliers] == [1 if k == i else 0 for k in range(3)]

    def test_related_identity_speed(self):
        r = RelatedInstance([1], [point_mass(2)])
        u = related_to_unrelated(r)
        assert u.jobs[0][0] == point_mass(2)

    def test_related_slow_machine(self):
        r = RelatedInstance([1, Fraction(1, 8)], [point_mass(1)])
        u = related_to_unrelated(r)
        assert u.jobs[0][0] == point_mass(1)
        assert u.jobs[0][1] == point_mass(8)

    def test_related_scaling(self):
        r = RelatedInstance([2], [DiscreteDistribution([(0, 0.5), (4, 0.5)])])
        u = related_to_unrelated(r)
        assert u.jobs[0][0] == DiscreteDistribution([(0, 0.5), (2, 0.5)])


class TestRoutingView:
    def test_restricted_edges(self):
        views = routing_to_config(triangle(), Fraction(3, 2))
        # cap-1/2 edge has E[X_e] = 2 > 3/2
        assert views[0].edge_ids == (0, 1)
        assert paths(views[0]) == [(0, 1)]

    def test_all_admissible(self):
        views = routing_to_config(triangle(), 3)
        assert views[0].edge_ids == (0, 1, 2)
        assert paths(views[0]) == [(0, 1), (2,)]

    def test_source_equals_sink_rejected(self):
        with pytest.raises(ValidationError):
            RoutingInstance(2, [(0, 1, 1)], [(0, 0, point_mass(1))])

    def test_disconnecting_tau(self):
        with pytest.raises(NoFeasiblePath):
            routing_to_config(triangle(), Fraction(1, 2))

    def test_enumeration_matches_dfs(self):
        # diamond with parallel edge: all simple paths by hand
        r = RoutingInstance(
            4,
            [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (0, 3, 2), (1, 2, 1)],
            [(0, 3, point_mass(1))],
        )
        views = routing_to_config(r, 10)
        # canonical order is lexicographic on the vertex sequence
        assert paths(views[0]) == [
            (0, 5, 3),    # 0-1-2-3
            (0, 2),       # 0-1-3
            (1, 3),       # 0-2-3
            (4,),         # 0-3 direct
        ]

    def test_enumeration_matches_independent_dfs(self):
        from conftest import random_dag_routing

        def dfs_paths(r, edge_ids, s, t):
            found = []

            def go(u, used, path):
                if u == t:
                    found.append(tuple(path))
                    return
                for e in edge_ids:
                    tail, head, _ = r.edges[e]
                    if tail == u and head not in used:
                        go(head, used | {head}, path + [e])

            go(s, {s}, [])
            return sorted(found)

        for seed in range(15):
            r = random_dag_routing(seed)
            views = routing_to_config(r, 100)
            for view in views:
                expect = dfs_paths(r, view.edge_ids, view.source, view.sink)
                assert sorted(paths(view)) == expect


class TestSmoothing:
    def test_hand_trace_mixed(self):
        sm, surv = smooth_machines(RelatedInstance([1, 1, 0.6, 0.001], [point_mass(1)]))
        assert [(s, c) for s, c, _ in sm] == [(1.0, 2)]
        assert surv.speeds == (1.0, 1.0)

    def test_single_machine_unchanged(self):
        sm, surv = smooth_machines(RelatedInstance([1], [point_mass(1)]))
        assert [(s, c) for s, c, _ in sm] == [(1, 1)]
        assert surv.speeds == (Fraction(1),)

    def test_hand_trace_small_slow_group(self):
        sm, surv = smooth_machines(
            RelatedInstance([1, 1, 1, Fraction(1, 2)], [point_mass(1)])
        )
        assert [(s, c) for s, c, _ in sm] == [(1, 3)]
        assert len(surv.speeds) == 3

    def test_structural_properties_random(self):
        # criterion-6 style structural check, smaller count here
        rng = tiny_rng(2024)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            speeds = [Fraction(int(rng.integers(1, 64)), int(rng.integers(1, 64))) for _ in range(m)]
            sm, surv = smooth_machines(RelatedInstance(speeds, [point_mass(1)]))
            sp = [s for s, _, _ in sm]
            counts = [c for _, c, _ in sm]
            # (i) strictly increasing dyadic multiples of the fastest speed
            assert all(a < b for a, b in zip(sp, sp[1:]))
            top = max(speeds)
            for s in sp:
                ratio = Fraction(s) / Fraction(top)
                assert ratio.numerator == 1 and (
                    ratio.denominator & (ratio.denominator - 1)
                ) == 0
            # (ii) geometric group sizes
            assert all(2 * a >= 3 * b for a, b in zip(counts, counts[1:]))
            # fastest machine survives
            assert max(surv.speeds) == max(sp)
            assert len(sm.groups[-1][2]) == counts[-1]

    def test_renumbered_ids_index_the_surviving_instance(self):
        rng = tiny_rng(2025)
        for k in range(200):
            m = int(rng.integers(1, 17))
            if k % 2:
                speeds = [Fraction(int(rng.integers(1, 64)), int(rng.integers(1, 64))) for _ in range(m)]
            else:
                speeds = [round(float(rng.uniform(0.05, 1.0)), 3) for _ in range(m)]
            sm, surv = smooth_machines(RelatedInstance(speeds, [point_mass(1)]))
            # reference re-keying: rank of each kept id among all kept ids
            original_ids = sorted(i for _, _, ids in sm for i in ids)
            machine_index = {i: pos for pos, i in enumerate(original_ids)}
            want = [(s, c, tuple(sorted(machine_index[i] for i in ids))) for s, c, ids in sm]
            got = sm.renumbered()
            assert list(got) == want
            positions = sorted(i for _, _, ids in got for i in ids)
            assert positions == list(range(surv.m))
            for speed, _, ids in got:
                assert all(surv.speeds[i] == speed for i in ids)

    def test_groups_validation(self):
        with pytest.raises(ValidationError):
            SmoothedGroups([(1, 1, (0,)), (2, 1, (1,))])  # 1 < 1.5*1


class TestGenerators:
    def test_gap_instance_m4(self):
        inst = gen_adaptivity_gap_instance(4, 2)
        assert inst.speeds == (1, Fraction(1, 8), Fraction(1, 8), Fraction(1, 8))
        assert inst.jobs[0] == DiscreteDistribution(
            [(0, Fraction(1, 2)), (2, Fraction(1, 2))]
        )
        assert inst.jobs[1] == point_mass(Fraction(1, 4))

    def test_gap_instance_m2(self):
        inst = gen_adaptivity_gap_instance(2, 2)
        assert inst.speeds == (1, Fraction(1, 4))
        assert inst.jobs[1] == point_mass(Fraction(1, 2))

    def test_adversary_instance(self):
        inst = gen_clairvoyance_adversary_instance(4)
        assert inst.speeds == (1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
        assert sorted(law.support[0][0] for law in inst.jobs) == [
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(1, 2),
            1,
        ]

    def test_adversary_degenerate(self):
        inst = gen_clairvoyance_adversary_instance(1)
        assert inst.speeds == (1,) and inst.n == 1

    def test_tiny_deterministic(self):
        a = random_tiny_instance("config", tiny_rng(0))
        b = random_tiny_instance("config", tiny_rng(0))
        assert a == b

    def test_tiny_bounds(self):
        for inst in tiny_suite("config", 30, seed=7):
            assert inst.n <= 4 and inst.m <= 3
            for r in inst.requests:
                assert len(r.configs) <= 3
                for c in r.configs:
                    assert len(c.law.support) <= 3

    def test_tiny_exact_probabilities(self):
        for inst in tiny_suite("config", 20, seed=99):
            for r in inst.requests:
                for c in r.configs:
                    assert sum(p for _, p in c.law.support) == 1

    def test_tiny_single(self):
        inst = random_tiny_instance("config", tiny_rng(3), n_max=1, m_max=1)
        assert inst.n == 1 and inst.m == 1

    def test_tiny_rejects_oversize(self):
        with pytest.raises(ValidationError):
            random_tiny_instance("config", tiny_rng(0), n_max=9)


class TestInstanceIO:
    @pytest.mark.parametrize("kind", ["config", "unrelated", "related"])
    def test_roundtrip_tiny(self, kind, tmp_path):
        for k, inst in enumerate(tiny_suite(kind, 10, seed=31)):
            path = tmp_path / f"{kind}_{k}.json"
            write_instance(inst, path)
            assert read_instance(path) == inst

    def test_roundtrip_routing(self, tmp_path):
        inst = triangle(DiscreteDistribution([(0, Fraction(1, 4)), (2, Fraction(3, 4))]))
        path = tmp_path / "r.json"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_rational_strings(self):
        text = dumps_instance(gen_adaptivity_gap_instance(2, 2))
        assert '"1/4"' in text
        assert loads_instance(text) == gen_adaptivity_gap_instance(2, 2)

    def test_bad_probability_sum(self):
        text = '{"kind": "related", "speeds": [1], "jobs": [[[0, 0.5], [1, 0.4]]]}'
        with pytest.raises(ValidationError):
            loads_instance(text)

    def test_unreachable_sink(self):
        text = (
            '{"kind": "routing", "vertices": 3, "edges": [[0, 1, 1]],'
            ' "requests": [[0, 2, [[1, 1]]]]}'
        )
        with pytest.raises(NoFeasiblePath):
            loads_instance(text)

    def test_parse_error_position(self):
        with pytest.raises(ParseError, match="line"):
            loads_instance("{not json")

    def test_unknown_kind(self):
        with pytest.raises(ParseError, match="kind"):
            loads_instance('{"kind": "mystery"}')

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_rejected(self, number):
        text = '{"kind": "related", "speeds": [1], "jobs": [[[%s, 1]]]}' % number
        with pytest.raises(ParseError, match="non-finite"):
            loads_instance(text)

    @pytest.mark.parametrize("a", [float("nan"), float("inf")])
    def test_non_finite_multiplier(self, a):
        with pytest.raises(ValidationError, match="non-finite"):
            Configuration([a], point_mass(1))

    def test_decimal_probabilities(self):
        text = '{"kind": "related", "speeds": [1.0], "jobs": [[[0, 0.5], [1, 0.5]]]}'
        inst = loads_instance(text)
        assert inst.jobs[0].mean() == 0.5


class TestConfigurationMath:
    def test_exact_keeps_int_data(self):
        for inst in tiny_suite("config", 5, seed=5):
            assert inst.exact() is inst
        cfg = Configuration([1.0, 0], point_mass(1))
        assert [type(a) for a in cfg.exact().multipliers] == [Fraction, Fraction]

    def test_expected_max_uses_top_multiplier(self):
        law = DiscreteDistribution([(0, Fraction(1, 2)), (2, Fraction(1, 2))])
        cfg = Configuration([Fraction(1, 2), 2], law)
        assert cfg.expected_max() == 2 * 1  # 2 * E[X]
        # exceptional at tau=3: only max coordinate 2*2=4 crosses
        assert cfg.tails(3)[0] == Fraction(1, 2) * 4

    def test_per_resource_truncation(self):
        law = point_mass(2)
        cfg = Configuration([1, 2], law)
        # loads are (2, 4); at tau=3 the first is truncated, second exceptional
        assert cfg.tails(3) == (4, [(0, 2), (1, 0)])

    def test_zero_multiplier(self):
        cfg = Configuration([0, 1], point_mass(1))
        assert cfg.tails(5) == (0, [(1, 1)])  # resource 0 is left out
        assert cfg.expected_max() == 1
