"""Differential tests of the batched simulator against the per-trial
reference loops in tests/conftest.py, on random instances."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal.distributions import DiscreteDistribution
from cfgbal.instances import RelatedInstance, random_tiny_instance
from cfgbal.offline import GroupListSchedulePolicy
from cfgbal.oracle import optimal_adaptive
from cfgbal.simulate import simulate_adaptive_config, simulate_policy

from conftest import (
    reference_group_list_run,
    reference_simulate_adaptive_config,
    reference_simulate_policy,
    tiny_rng,
)

# small integer sizes and speeds make equal truncated loads (ties) common
_speeds = st.sampled_from([Fraction(1, 2), 1, 2, 4])


@st.composite
def laws(draw):
    values = draw(st.lists(st.integers(0, 6), min_size=1, max_size=3, unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values)))
    total = sum(weights)
    return DiscreteDistribution([(v, Fraction(w, total)) for v, w in zip(sorted(values), weights)])


@st.composite
def group_policies(draw):
    """A related instance and a group list-scheduling policy over a random
    partition of its machines into groups."""
    m = draw(st.integers(1, 5))
    speeds = draw(st.lists(_speeds, min_size=m, max_size=m))
    jobs = draw(st.lists(laws(), min_size=1, max_size=10))
    inst = RelatedInstance(speeds, jobs)
    labels = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    groups = [[i for i in range(m) if labels[i] == g] for g in sorted(set(labels))]
    shuffled = [draw(st.permutations(ids)) for ids in groups]
    group_of_job = {j: draw(st.integers(0, len(groups) - 1)) for j in range(len(jobs))}
    tau = draw(st.sampled_from([0.5, 1.0, 2.5, 6.0, 100.0]))
    return inst, GroupListSchedulePolicy(inst, shuffled, group_of_job, tau)


@settings(max_examples=40, deadline=None)
@given(group_policies(), st.integers(0, 2**32), st.sampled_from([None, 1.0, 3.0]))
def test_group_list_schedule_matches_reference(case, seed, tau):
    inst, policy = case

    def run(inst, realize):
        return reference_group_list_run(policy, inst, realize)

    got = simulate_policy(inst, policy, 64, seed, tau=tau)
    want = reference_simulate_policy(inst, run, 64, seed, tau=tau)
    assert got.as_dict() == want.as_dict()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 2**32), st.sampled_from([None, 1.0, 2.0]))
def test_oracle_policy_matches_reference(instance_seed, seed, tau):
    inst = random_tiny_instance("config", tiny_rng(instance_seed), n_max=3)
    _, oracle = optimal_adaptive(inst)
    got = simulate_adaptive_config(oracle.inst, oracle.policy(), 64, seed, tau=tau)
    want = reference_simulate_adaptive_config(oracle.inst, oracle.policy(), 64, seed, tau=tau)
    assert got.as_dict() == want.as_dict()
