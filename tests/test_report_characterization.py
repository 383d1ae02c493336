"""Characterization of the online and oracle reports (Feathers, *Working
Effectively with Legacy Code*): the exact report text of seeded instances
built here, pinned as strings, or as the SHA-256 of the text for reports
of more than a screenful. They were captured before related machines
shared one scaled law per speed, list scheduling kept a heap per group and
the oracle's outcome table was built in ints, so any change to which
machine a job lands on, to a proxy's floats or to an exact value changes
a byte here. The routing reports were captured before each routing
instance kept one view memo and before a view stopped testing
reachability by a walk of its own.

The related instances have a multi-phase stream whose realized sizes
reach tau, and a group of nine equal-speed machines where list-scheduling
ties occur; the oracle instance's products a * v reduce, as
(2/3) * (3/4) = 1/2 does. The routing grid's online run fails at two
guesses because a request's admissible edges disconnect its source from
its sink, and lp-check is asked at a tau where they do."""

import hashlib
import json
from fractions import Fraction

import numpy as np

from cfgbal.cli import main
from cfgbal.distributions import DiscreteDistribution, point_mass
from cfgbal.instance_io import write_instance
from cfgbal.instances import Configuration, ConfigInstance, RelatedInstance, Request, RoutingInstance
from cfgbal.oracle import AdaptiveOracle

from conftest import reference_simple_paths
from test_online import multi_phase_related


def tied_related():
    """Nine machines of speed 1 and one of speed 2 (groups of 9 and 1), 40
    jobs of half-unit sizes, zeros and sizes far above the others."""
    rng = np.random.default_rng(31)
    half = Fraction(1, 2)
    shapes = [
        point_mass(half),
        point_mass(1),
        DiscreteDistribution([(0, half), (1, half)]),
        DiscreteDistribution([(half, Fraction(3, 4)), (40, Fraction(1, 4))]),
    ]
    jobs = [shapes[int(k)] for k in rng.integers(0, len(shapes), size=40)]
    return RelatedInstance([1.0] * 9 + [2.0], jobs)


def config_stream(exact):
    """Ten requests of one to three configurations on three resources, in
    floats or in p/q numbers."""
    rng = np.random.default_rng(32 + exact)
    mults = [0, Fraction(1, 2), 1, Fraction(3, 4)] if exact else [0.0, 0.5, 1.0, 0.75]
    requests = []
    for j in range(10):
        configs = []
        for _ in range(int(rng.integers(1, 4))):
            a = [mults[int(i)] for i in rng.integers(1 if j == 0 else 0, len(mults), size=3)]
            values = sorted(int(v) for v in rng.choice(24, size=3, replace=False))
            if exact:
                law = [(Fraction(v, 4), Fraction(w, 8)) for v, w in zip(values, (1, 3, 4))]
            else:
                probs = rng.dirichlet(np.ones(3))
                law = [(v / 4, float(p)) for v, p in zip(values, probs / probs.sum())]
            configs.append(Configuration(a, DiscreteDistribution(law)))
        requests.append(Request(j, configs))
    return ConfigInstance(3, requests)


def reducing_config():
    """Three requests whose products a * v reduce: multipliers 2/3, 4/3
    and 2 against values 3/4, 3/2 and 3, probabilities 1/3 and 2/3."""
    third = Fraction(1, 3)
    law = DiscreteDistribution([(Fraction(3, 4), third), (Fraction(3, 2), 2 * third)])
    law2 = DiscreteDistribution([(Fraction(3, 2), 2 * third), (3, third)])
    two, four = Fraction(2, 3), Fraction(4, 3)
    return ConfigInstance(
        2,
        [
            Request(0, [Configuration([two, four], law), Configuration([2, 0], law2)]),
            Request(1, [Configuration([four, 0], law), Configuration([0, 2], law2)]),
            Request(2, [Configuration([two, two], law2), Configuration([0, 2], law)]),
        ],
    )


def seeded_grid(seed, side, n):
    """A side x side grid, both directions of each link with capacities
    cycling through 1, 2, 1/2 and 4, and n requests between distinct
    random vertices with two-point p/q laws."""
    rng = np.random.default_rng(seed)
    caps = (1, 2, Fraction(1, 2), 4)
    edges = []
    for v in range(side * side):
        r, c = divmod(v, side)
        for w in ((v + 1) if c + 1 < side else None, (v + side) if r + 1 < side else None):
            if w is not None:
                edges += [(v, w, caps[len(edges) % 4]), (w, v, caps[(len(edges) + 1) % 4])]
    requests = []
    for _ in range(n):
        s, t = (int(x) for x in rng.choice(side * side, size=2, replace=False))
        low, high = sorted(int(x) for x in rng.choice(12, size=2, replace=False))
        p = Fraction(int(rng.integers(1, 4)), 4)
        requests.append((s, t, DiscreteDistribution([(Fraction(low, 4), p), (Fraction(high, 4), 1 - p)])))
    return RoutingInstance(side * side, edges, requests)


def disconnected(r, j, tau):
    """Whether request j's admissible edges at tau hold no source-sink
    path, by the reference enumeration."""
    source, sink, law = r.requests[j]
    ids = [e for e in range(r.m) if float(law.mean()) / r.capacities[e] <= tau]
    return not reference_simple_paths(r.vertices, r.edges, ids, source, sink)


def report(tmp_path, inst, *argv):
    src, out = tmp_path / "inst.json", tmp_path / "report.txt"
    write_instance(inst, src)
    assert main([*argv, "--in", str(src), "--report", str(out)]) == 0
    return out.read_text()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


EXPECTED = {
    "related-multi-phase": "61f44ede1f818f6e2dda2bc76c53a8e06f7cd3b01aca604ae6e26b6571517a8f",
    "related-ties": "451fe2523eefd1e083cbcb66023f1c14006403b9c93dd3c9d569551100a050b3",
    "config-floats": (
        "# online report\n"
        "algorithm: config\n"
        "seed: 0\n"
        "final_lambda: 1.6159499642868114\n"
        "phases: 3\n"
        "request_0: phase=0 lambda=0.40398749107170284 choice=2 proxy=(0.40398749107170284, 0.0, 0.0, 0.0) dphi=0.22474487139158894\n"
        "request_1: phase=0 lambda=0.40398749107170284 choice=0 proxy=(3.4477754691101565, 0.18058481108748664, 0.135438608315615, 0.18058481108748664) dphi=5.944992036871364\n"
        "request_2: phase=1 lambda=0.8079749821434057 choice=0 proxy=(3.6662775703701094, 0.7715496645000576, 0.06217276512983272, 0.0) dphi=1.73841872394542\n"
        "request_3: phase=1 lambda=0.8079749821434057 choice=0 proxy=(2.1475376746527908, 0.0, 0.2896364432455554, 0.0) dphi=1.8681369653989035\n"
        "request_4: phase=1 lambda=0.8079749821434057 choice=0 proxy=(0.39598025032589945, 0.8242227239075529, 0.8242227239075529, 0.8242227239075529) dphi=1.2087723332300098\n"
        "request_5: phase=1 lambda=0.8079749821434057 choice=0 proxy=(0.6036224173187548, 0.7398794814873928, 0.7398794814873928, 0.7398794814873928) dphi=1.606078264261497\n"
        "request_6: phase=2 lambda=1.6159499642868114 choice=1 proxy=(0.5482364109194995, 0.0, 0.0, 1.4923221485763078) dphi=0.2770963703597771\n"
        "request_7: phase=2 lambda=1.6159499642868114 choice=0 proxy=(0.45919419662249683, 0.18470695381558092, 0.32195057521903886, 0.32195057521903886) dphi=0.17788885024600987\n"
        "request_8: phase=2 lambda=1.6159499642868114 choice=0 proxy=(1.9336680318338568, 0.0, 0.6858666721538875, 0.6858666721538875) dphi=0.5179237966353207\n"
        "request_9: phase=2 lambda=1.6159499642868114 choice=1 proxy=(0.0, 0.0, 2.0636607154178574, 2.751547620557143) dphi=0.899500237043668\n"
    ),
    "config-rationals": (
        "# online report\n"
        "algorithm: config\n"
        "seed: 0\n"
        "final_lambda: 2.5\n"
        "phases: 1\n"
        "request_0: phase=0 lambda=2.5 choice=2 proxy=(0.0, 1.25, 1.875, 2.5) dphi=0.4956445565528087\n"
        "request_1: phase=0 lambda=2.5 choice=0 proxy=(0.0, 3.234375, 2.15625, 0.0) dphi=0.5543445876081206\n"
        "request_2: phase=0 lambda=2.5 choice=0 proxy=(0.0, 0.0, 0.0, 2.8125) dphi=0.31375322330805977\n"
        "request_3: phase=0 lambda=2.5 choice=0 proxy=(0.0, 0.0, 0.0, 2.546875) dphi=0.3529457318313829\n"
        "request_4: phase=0 lambda=2.5 choice=0 proxy=(0.0, 3.875, 2.90625, 3.875) dphi=1.5980109937566227\n"
        "request_5: phase=0 lambda=2.5 choice=2 proxy=(2.875, 1.921875, 0.96875, 0.96875) dphi=0.9498593104139326\n"
        "request_6: phase=0 lambda=2.5 choice=1 proxy=(0.0, 2.390625, 0.0, 0.0) dphi=0.4924467546399547\n"
        "request_7: phase=0 lambda=2.5 choice=2 proxy=(0.0, 2.2734375, 0.0, 3.03125) dphi=1.3463649222367198\n"
        "request_8: phase=0 lambda=2.5 choice=0 proxy=(0.0, 0.0, 1.140625, 0.0) dphi=0.1839970628094425\n"
        "request_9: phase=0 lambda=2.5 choice=1 proxy=(4.5, 0.34375, 2.421875, 0.34375) dphi=1.2042231415054925\n"
    ),
    "oracle": [
        "# oracle opt\nexpected_makespan: 203/54\nexceptional_at_tau: 98/27\ntau: 2\n",
        "# oracle restart\ntau: 2\nexpected_makespan: 23/6\nexpected_exceptional: 10/3\n",
        "# oracle eval\ntau: 3/2\nexpected_makespan: 17/3\nexpected_exceptional: 47/6\n",
    ],
    "routing-online": "a6c05e9ac2ef461adb6e30dbd8381bb196d3214b2216de0bf4179e8d3e87c625",
    "routing-offline": "de82f4c782a03c0e2e52eb49d589fcd6bdf59755fd756e59fb7969602941f30d",
    "routing-lp-check": (
        "LP_P infeasible at tau=0.5: request 1: admissible edges disconnect 0 -> 3\n"
        "certificate: E[OPT] > 0.25\n"
    ),
    "oracle-tree": "2b626a5096c4bfde2448a8db19968afa861e1b6ef58d6bc5c1fabbcdc180a2f7",
}


def test_related_multi_phase(tmp_path):
    text = report(tmp_path, multi_phase_related(), "online", "--algo", "related", "--seed", "4")
    assert digest(text) == EXPECTED["related-multi-phase"]


def test_related_ties(tmp_path):
    text = report(tmp_path, tied_related(), "online", "--algo", "related", "--seed", "2")
    assert digest(text) == EXPECTED["related-ties"]


def test_config_floats(tmp_path):
    assert report(tmp_path, config_stream(False), "online", "--algo", "config") == EXPECTED["config-floats"]


def test_config_rationals(tmp_path):
    assert report(tmp_path, config_stream(True), "online", "--algo", "config") == EXPECTED["config-rationals"]


def test_oracle_reports(tmp_path):
    inst = reducing_config()
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"choices": {"0": 1, "1": 0, "2": 1}}))
    got = [
        report(tmp_path, inst, "oracle", "--what", "opt", "--tau", "2"),
        report(tmp_path, inst, "oracle", "--what", "restart", "--tau", "2"),
        report(tmp_path, inst, "oracle", "--what", "eval", "--tau", "3/2", "--policy-file", str(policy)),
    ]
    assert got == EXPECTED["oracle"]


def test_oracle_tree():
    assert digest(AdaptiveOracle(reducing_config()).tree_text()) == EXPECTED["oracle-tree"]


def test_routing_online(tmp_path):
    r = seeded_grid(7, 4, 16)
    text = report(tmp_path, r, "online", "--algo", "routing")
    assert "phases: 3\n" in text
    # every phase ends at a request whose admissible edges disconnect it
    fields = [line.split()[1:3] for line in text.splitlines() if line.startswith("request_")]
    phases = [int(phase.removeprefix("phase=")) for phase, _ in fields]
    lams = [float(lam.removeprefix("lambda=")) for _, lam in fields]
    for k in range(1, r.n):
        for q in range(phases[k] - phases[k - 1]):
            assert disconnected(r, k, 2 * lams[k - 1] * 2**q)
    assert digest(text) == EXPECTED["routing-online"]


def test_routing_offline(tmp_path):
    text = report(tmp_path, seeded_grid(3, 3, 4), "offline", "--algo", "routing", "--seed", "5")
    assert digest(text) == EXPECTED["routing-offline"]


def test_routing_lp_check_disconnected(tmp_path, capsys):
    r = seeded_grid(7, 4, 16)
    src = tmp_path / "inst.json"
    write_instance(r, src)
    assert disconnected(r, 1, 0.5) and not disconnected(r, 0, 0.5)
    assert main(["lp-check", "--in", str(src), "--tau", "1/2"]) == 2
    assert capsys.readouterr().out == EXPECTED["routing-lp-check"]
