"""Characterization of the simulator (Feathers, *Working Effectively with
Legacy Code*): the exact CSV reports of seeded instances built here, pinned
as strings. They were captured before the inverse-CDF rule became
comparisons and the uniform table became one contiguous row per request, so
any change to which support index a trial realizes, or to the order loads
accumulate in, changes a byte here.

The laws hold 1 to 10 support points, with eighths as Fractions, Dirichlet
floats and float tenths (whose running sum ends below 1)."""

import json
from fractions import Fraction

import numpy as np

from cfgbal.cli import main, simulation_csv
from cfgbal.distributions import DiscreteDistribution
from cfgbal.instance_io import write_instance
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    RelatedInstance,
    Request,
    RoutingInstance,
    UnrelatedInstance,
)
from cfgbal.offline import GroupListSchedulePolicy
from cfgbal.oracle import optimal_adaptive
from cfgbal.simulate import simulate_adaptive_config, simulate_policy

TENTHS = DiscreteDistribution([(k / 4, 0.1) for k in range(10)])


def seeded_law(rng, k, kind):
    """A k-point law on multiples of 1/8 below 5: probabilities in eighths
    (kind "eighths", k <= 8) or Dirichlet floats (kind "float")."""
    values = sorted(int(v) for v in rng.choice(40, size=k, replace=False))
    if kind == "eighths":
        cuts = sorted(int(c) for c in rng.choice(np.arange(1, 8), size=k - 1, replace=False))
        probs = [Fraction(b - a, 8) for a, b in zip([0, *cuts], [*cuts, 8])]
        return DiscreteDistribution([(Fraction(v, 8), p) for v, p in zip(values, probs)])
    probs = rng.dirichlet(np.ones(k))
    return DiscreteDistribution([(v / 8, float(p)) for v, p in zip(values, probs / probs.sum())])


def some_law(rng):
    k = int(rng.integers(1, 9))
    return seeded_law(rng, k, "eighths" if rng.random() < 0.5 else "float")


def unrelated_instance():
    rng = np.random.default_rng(21)
    jobs = [[some_law(rng) for _ in range(3)] for _ in range(7)]
    jobs.append([TENTHS, seeded_law(rng, 8, "eighths"), seeded_law(rng, 8, "float")])
    return UnrelatedInstance(3, jobs), {str(j): j % 3 for j in range(8)}


def config_instance():
    """Request ids 9, 4, 17, 2, 11, 6, listed in that order."""
    rng = np.random.default_rng(22)
    mults = [0, Fraction(1, 2), 1, 2, 0.75]
    requests = []
    for j in (9, 4, 17, 2, 11, 6):
        configs = []
        for _ in range(int(rng.integers(1, 4))):
            a = [mults[int(i)] for i in rng.integers(0, len(mults), size=3)]
            configs.append(Configuration(a, TENTHS if j == 17 else some_law(rng)))
        requests.append(Request(j, configs))
    inst = ConfigInstance(3, requests)
    return inst, {str(r.id): len(r.configs) - 1 for r in inst.requests}


def routing_instance():
    """Parallel edges and p/q capacities on four vertices."""
    rng = np.random.default_rng(23)
    edges = [(0, 1, 1), (0, 1, Fraction(1, 2)), (0, 2, 2), (1, 3, 1), (2, 3, 1), (1, 2, 1), (2, 3, Fraction(3, 2))]
    requests = [(0, 3, some_law(rng)), (1, 3, seeded_law(rng, 8, "float")), (0, 2, TENTHS), (0, 3, some_law(rng))]
    paths = {"0": [0, 3], "1": [5, 6], "2": [1, 5], "3": [2, 4]}
    return RoutingInstance(4, edges, requests), paths


def run_simulate(tmp_path, inst, choices, *args):
    src, policy, out = tmp_path / "inst.json", tmp_path / "policy.json", tmp_path / "report.csv"
    write_instance(inst, src)
    policy.write_text(json.dumps({"choices": choices}))
    argv = ["simulate", "--in", str(src), "--policy-file", str(policy), "--report", str(out), *args]
    assert main(argv) == 0
    return out.read_text()


def group_list_csv():
    rng = np.random.default_rng(24)
    inst = RelatedInstance([1, Fraction(1, 2), 2, 3], [some_law(rng) for _ in range(9)] + [TENTHS])
    policy = GroupListSchedulePolicy(inst, [(0, 1), (2, 3)], {j: j % 2 for j in range(10)}, 3.0)
    return "\n".join(simulation_csv(simulate_policy(inst, policy, 3000, 8, tau=3.0))) + "\n"


def oracle_csv():
    rng = np.random.default_rng(25)
    requests = []
    for j in (5, 1, 8):
        configs = [Configuration([1, 0], seeded_law(rng, int(rng.integers(2, 5)), "eighths"))]
        configs.append(Configuration([Fraction(1, 2), Fraction(1, 2)], seeded_law(rng, 3, "eighths")))
        requests.append(Request(j, configs))
    _, oracle = optimal_adaptive(ConfigInstance(2, requests))
    report = simulate_adaptive_config(oracle.inst, oracle.policy(), 3000, 9, tau=1.5)
    return "\n".join(simulation_csv(report)) + "\n"


EXPECTED = {
    "unrelated-tau": (
        "trials,seed,mean_makespan,stderr,mean_exceptional,load_0,load_1,load_2\n"
        "3000,5,8.298666666666668,0.022740632566632443,13.048625,7.972416666666667,6.772916666666666,4.333958333333333\n"
    ),
    "config-ids": (
        "trials,seed,mean_makespan,stderr,mean_exceptional,load_0,load_1,load_2\n"
        "3000,6,12.694208333333334,0.07176684346423426,0.0,9.543052083333333,12.683041666666666,6.246291666666667\n"
    ),
    "routing-paths": (
        "trials,seed,mean_makespan,stderr,mean_exceptional,load_0,load_1,load_2,load_3,load_4,load_5,load_6\n"
        "3000,7,4.302708333333333,0.01422698273979296,10.391375,3.375,2.2386666666666666,1.1465,3.375,2.293,3.9564583333333334,1.8914166666666836\n"
    ),
    "group-list": (
        "trials,seed,mean_makespan,stderr,mean_exceptional,load_0,load_1,load_2,load_3\n"
        "3000,8,19.211333333333332,0.13365355223809233,20.287333333333333,6.043458333333334,16.640416666666667,2.6456458333333335,2.059180555555563\n"
    ),
    "oracle-walk": (
        "trials,seed,mean_makespan,stderr,mean_exceptional,load_0,load_1\n"
        "3000,9,2.0136458333333334,0.01337200313819761,0.20025,2.0136458333333334,1.0740625\n"
    ),
}


def test_unrelated_with_tau(tmp_path):
    inst, choices = unrelated_instance()
    got = run_simulate(tmp_path, inst, choices, "--trials", "3000", "--seed", "5", "--tau", "5/2")
    assert got == EXPECTED["unrelated-tau"]


def test_config_ids_not_positions(tmp_path):
    inst, choices = config_instance()
    assert run_simulate(tmp_path, inst, choices, "--trials", "3000", "--seed", "6") == EXPECTED["config-ids"]


def test_routing_paths(tmp_path):
    inst, paths = routing_instance()
    got = run_simulate(tmp_path, inst, paths, "--trials", "3000", "--seed", "7", "--tau", "2")
    assert got == EXPECTED["routing-paths"]


def test_group_list_schedule():
    assert group_list_csv() == EXPECTED["group-list"]


def test_oracle_policy_walk():
    assert oracle_csv() == EXPECTED["oracle-walk"]
