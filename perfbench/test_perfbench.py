"""Tests of the benchmark itself: seeded generation and the output checks.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cfgbal import cli, instance_io, instances, lp  # noqa: E402


# ---------------------------------------------------------------------------
# seeded generation


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_files(name, tmp_path):
    digests = []
    for run in ("a", "b"):
        wl = workloads.WORKLOADS[name](7, str(tmp_path / run))
        (tmp_path / run).mkdir()
        files = wl.setup()
        assert files
        digests.append(workloads.file_digest(files))
    assert digests[0] == digests[1]


def test_other_seed_gives_other_instances():
    assert instance_io.dumps_instance(gen.unrelated_instance(1, 0, 5, 3)) != (
        instance_io.dumps_instance(gen.unrelated_instance(2, 0, 5, 3))
    )
    assert gen.grid_instance(1, 0, 4, 3).requests != gen.grid_instance(2, 0, 4, 3).requests


def test_online_grid_shares_the_offline_graph():
    small, big = gen.grid_instance(3, 1, 5, 12), gen.grid_instance(3, 1, 5, 150)
    assert small.edges == big.edges and small.requests == big.requests[:12]


# ---------------------------------------------------------------------------
# planted wrong results


@pytest.fixture(scope="module")
def offline_run(tmp_path_factory):
    """A small offline config run and its simulation, through the CLI."""
    d = tmp_path_factory.mktemp("offline")
    inst = gen.unrelated_instance(5, 0, 12, 3)
    instance_io.write_instance(inst, d / "u.json")
    assert cli.main(["offline", "--in", str(d / "u.json"), "--algo", "config",
                     "--seed", "5", "--report", str(d / "r.txt")]) == 0
    text = (d / "r.txt").read_text()
    rep = checks.parse_offline(text)
    (d / "p.json").write_text(json.dumps({"choices": {str(j): c for j, c in rep["choices"].items()}}))
    assert cli.main(["simulate", "--in", str(d / "u.json"), "--policy-file", str(d / "p.json"),
                     "--trials", "4000", "--seed", "5", "--report", str(d / "s.csv")]) == 0
    return inst, text, rep, (d / "s.csv").read_text()


def replace_line(text, key, value):
    lines = [f"{key}: {value}" if line.startswith(f"{key}: ") else line for line in text.splitlines()]
    return "\n".join(lines) + "\n"


def test_offline_checks_accept_the_real_output(offline_run):
    inst, text, rep, csv = offline_run
    checks.check_offline_unrelated(inst, instances.unrelated_to_config(inst), text)
    checks.check_simulation_unrelated(inst, rep["choices"], rep["opt_lower_bound"], csv)


def test_flipped_choice_is_rejected(offline_run):
    inst, text, rep, _ = offline_run
    flipped = (rep["choices"][0] + 1) % inst.m
    bad = replace_line(text, "choice_0", flipped)
    with pytest.raises(checks.CheckFailed, match="truncated_load"):
        checks.check_offline_unrelated(inst, instances.unrelated_to_config(inst), bad)


def test_doubled_lower_bound_is_rejected(offline_run):
    inst, text, rep, _ = offline_run
    bad = replace_line(text, "opt_lower_bound", repr(2 * rep["opt_lower_bound"]))
    with pytest.raises(checks.CheckFailed, match="not certified"):
        checks.check_offline_unrelated(inst, instances.unrelated_to_config(inst), bad)


def test_shifted_load_column_is_rejected(offline_run):
    inst, _, rep, csv = offline_run
    header, row = csv.strip().splitlines()
    cells = row.split(",")
    loads = cells[5:]
    bad = header + "\n" + ",".join(cells[:5] + loads[1:] + loads[:1]) + "\n"
    with pytest.raises(checks.CheckFailed, match="standard errors"):
        checks.check_simulation_unrelated(inst, rep["choices"], rep["opt_lower_bound"], bad)


def test_off_by_one_oracle_value_is_rejected(tmp_path):
    inst = gen.tiny_suite(3, 1)[0]
    instance_io.write_instance(inst, tmp_path / "t.json")
    assert cli.main(["oracle", "--in", str(tmp_path / "t.json"), "--what", "opt",
                     "--report", str(tmp_path / "o.txt")]) == 0
    text = (tmp_path / "o.txt").read_text()
    value = checks.check_oracle_opt(inst, text)
    bad = replace_line(text, "expected_makespan", value + 1)
    with pytest.raises(checks.CheckFailed, match="brute force"):
        checks.check_oracle_opt(inst, bad)


def test_brute_force_matches_the_gap_instance_value():
    # E[OPT] = 11/8 on the m=4, tau=2 adaptivity-gap instance
    from cfgbal import gen_adaptivity_gap_instance

    assert checks.brute_force_opt(gen_adaptivity_gap_instance(4, 2)) == Fraction(11, 8)


@pytest.fixture(scope="module")
def online_run(tmp_path_factory):
    d = tmp_path_factory.mktemp("online")
    inst = gen.grid_instance(2, 0, 4, 30)
    instance_io.write_instance(inst, d / "g.json")
    assert cli.main(["online", "--in", str(d / "g.json"), "--algo", "routing",
                     "--report", str(d / "o.txt")]) == 0
    return inst, (d / "o.txt").read_text()


def check_routing_online(inst, text):
    checks.check_online(text, inst.n, inst.m, lambda j, path, tau: checks.check_path(inst, j, path, tau))


def test_online_checks_accept_the_real_output(online_run):
    check_routing_online(*online_run)


def test_dropped_online_request_is_rejected(online_run):
    inst, text = online_run
    bad = "\n".join(line for line in text.splitlines() if not line.startswith("request_3: ")) + "\n"
    with pytest.raises(checks.CheckFailed, match="exactly once"):
        check_routing_online(inst, bad)


def test_broken_path_is_rejected(online_run):
    inst, text = online_run
    _, _, records = checks.parse_online(text)
    path = records[0][3]
    with pytest.raises(checks.CheckFailed):
        checks.check_path(inst, records[0][0], path[:-1] if len(path) > 1 else path + path, 1e9)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_restores_every_name_and_accounts_for_op_time(tmp_path):
    before = {(id(o), a): getattr(o, a) for o, a, _, _ in spans.Tracer()._patches()}
    tracer = spans.Tracer()
    inst = gen.unrelated_instance(4, 0, 10, 3)
    instance_io.write_instance(inst, tmp_path / "u.json")
    argv = ["offline", "--in", str(tmp_path / "u.json"), "--algo", "config", "--report", str(tmp_path / "r.txt")]
    tracer.install()
    try:
        assert tracer.root("offline", lambda: cli.main(argv)) == 0
    finally:
        tracer.uninstall()
    after = {(id(o), a): getattr(o, a) for o, a, _, _ in tracer._patches()}
    assert after == before
    assert lp.build_lpc is before[(id(lp), "build_lpc")]
    metrics = tracer.layer_metrics()
    assert metrics["lp.search_steps"] > 1 and metrics["lp.rows"] == inst.m + inst.n + 1
    assert metrics["distributions.tail_calls"] > 0 and metrics["instance_io.read_s"] > 0
    total_self = sum(tracer.self_times().values())
    assert total_self == pytest.approx(tracer.root_time(), rel=1e-9)


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = set(spans.Tracer().layer_metrics()) | {
        "trace.wall_s", "trace.overhead_s", "trace.self_share", "process.threads"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
