import json
import re
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest

from cfgbal.cli import main
from cfgbal.instance_io import dumps_instance, read_instance
from cfgbal.distributions import point_mass
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    Request,
    RoutingInstance,
    UnrelatedInstance,
    gen_adaptivity_gap_instance,
)


def run_cli(*argv):
    return main(list(argv))


class TestGenerateAndInspect:
    def test_gen_gap_roundtrip(self, tmp_path):
        out = tmp_path / "gap.json"
        assert run_cli("gen", "--kind", "gap", "--m", "4", "--tau", "2", "--out", str(out)) == 0
        assert read_instance(out) == gen_adaptivity_gap_instance(4, 2)

    def test_gen_random_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("gen", "--kind", "config", "--seed", "5", "--out", str(a))
        run_cli("gen", "--kind", "config", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_smooth(self, tmp_path):
        src = tmp_path / "rel.json"
        out = tmp_path / "smoothed.json"
        run_cli("gen", "--kind", "gap", "--m", "4", "--tau", "2", "--out", str(src))
        assert run_cli("smooth", "--in", str(src), "--out", str(out)) == 0
        smoothed = read_instance(out)
        assert smoothed.kind == "related"


class TestOracleCommands:
    def test_opt_report(self, tmp_path, capsys):
        src = tmp_path / "gap.json"
        run_cli("gen", "--kind", "gap", "--m", "4", "--tau", "2", "--out", str(src))
        assert run_cli("oracle", "--in", str(src), "--what", "opt", "--tau", "2") == 0
        out = capsys.readouterr().out
        assert "expected_makespan: 11/8" in out
        assert "exceptional_at_tau: 4" in out

    def test_restart_report(self, tmp_path, capsys):
        src = tmp_path / "gap.json"
        run_cli("gen", "--kind", "gap", "--m", "4", "--tau", "2", "--out", str(src))
        assert run_cli("oracle", "--in", str(src), "--what", "restart", "--tau", "11/4") == 0
        out = capsys.readouterr().out
        assert "expected_makespan: 11/8" in out
        assert "expected_exceptional: 0" in out


class TestVerdictsAndErrors:
    def test_lp_check_without_requests_is_feasible(self, tmp_path, capsys):
        src = tmp_path / "empty.json"
        src.write_text('{"kind": "config", "m": 1, "requests": []}')
        assert run_cli("lp-check", "--in", str(src), "--tau", "2") == 0
        assert capsys.readouterr().out == "LP_C feasible at tau=2.0\n"

    def test_lp_check_names_pruned_request_by_id(self, tmp_path, capsys):
        src = tmp_path / "ids.json"
        src.write_text(
            '{"kind": "config", "m": 1, "requests": ['
            '{"id": 7, "configs": [{"multipliers": [1], "law": [[2, 1]]}]}, '
            '{"id": 3, "configs": [{"multipliers": [1], "law": [[5, 1]]}]}]}'
        )
        assert run_cli("lp-check", "--in", str(src), "--tau", "3") == 2
        assert capsys.readouterr().out == (
            "LP_C infeasible at tau=3.0: request 3: all configurations pruned at tau=3.0\n"
            "certificate: E[OPT] > 1.5\n"
        )


class TestReports:
    def test_offline_report_deterministic(self, tmp_path):
        src = tmp_path / "inst.json"
        run_cli("gen", "--kind", "config", "--seed", "3", "--out", str(src))
        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        code1 = run_cli("offline", "--in", str(src), "--algo", "config", "--seed", "7", "--report", str(r1))
        code2 = run_cli("offline", "--in", str(src), "--algo", "config", "--seed", "7", "--report", str(r2))
        assert code1 == code2
        assert r1.read_bytes() == r2.read_bytes()

    @pytest.mark.parametrize("value", [2, 0], ids=["feasible", "trivial"])
    def test_offline_choices_simulate_as_a_policy_file(self, tmp_path, capsys, value):
        # request ids that are not positions: the report keys choices by id
        src = tmp_path / "ids.json"
        config = '{"multipliers": [1], "law": [[%d, 1]]}' % value
        src.write_text(
            '{"kind": "config", "m": 1, "requests": [{"id": 7, "configs": [%s, %s]}, '
            '{"id": 3, "configs": [%s]}]}' % (config, config, config)
        )
        rep = tmp_path / "offline.txt"
        assert run_cli("offline", "--in", str(src), "--algo", "config", "--report", str(rep)) == 0
        choices = {
            key[len("choice_"):]: int(choice)
            for key, choice in (line.split(": ") for line in rep.read_text().splitlines()[1:])
            if key.startswith("choice_")
        }
        assert sorted(choices) == ["3", "7"]
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"choices": choices}))
        assert run_cli(
            "simulate", "--in", str(src), "--policy-file", str(policy), "--trials", "10",
            "--report", str(tmp_path / "sim.csv"),
        ) == 0
        assert capsys.readouterr().err == ""

    def test_online_report(self, tmp_path):
        src = tmp_path / "inst.json"
        run_cli("gen", "--kind", "config", "--seed", "4", "--out", str(src))
        rep = tmp_path / "online.txt"
        assert run_cli("online", "--in", str(src), "--algo", "config", "--report", str(rep)) == 0
        assert rep.read_text().startswith("# online report")

    def test_online_routing_records_print_the_admitted_increments(self, tmp_path):
        # the loads of edge 3 add up to 1.1 and 1.5, so a loads difference
        # would print 0.10000000000000009 and 0.3999999999999999
        src = tmp_path / "routes.json"
        src.write_text(json.dumps({
            "kind": "routing", "vertices": 3,
            "edges": [[0, 1, 1], [0, 1, 2], [1, 2, 1], [0, 2, 1]],
            "requests": [
                [0, 2, [[1.0, 1.0]]], [0, 2, [[0.1, 1.0]]], [0, 2, [[0.2, 0.5], [0.6, 0.5]]],
                [0, 1, [[0.7, 1.0]]], [0, 2, [[0.3, 1.0]]],
            ],
        }))
        rep = tmp_path / "online.txt"
        assert run_cli("online", "--in", str(src), "--algo", "routing", "--report", str(rep)) == 0
        records = [line for line in rep.read_text().splitlines() if line.startswith("request_")]
        assert records == [
            "request_0: phase=0 lambda=1.0 choice=(3,) proxy={0: 0.0, 4: 1.0} dphi=0.22474487139158894",
            "request_1: phase=0 lambda=1.0 choice=(3,) proxy={0: 0.0, 4: 0.1} dphi=0.025082963147479154",
            "request_2: phase=0 lambda=1.0 choice=(3,) proxy={0: 0.0, 4: 0.4} dphi=0.10557517087569912",
            "request_3: phase=0 lambda=1.0 choice=(1,) proxy={0: 0.0, 2: 0.35} dphi=0.07353441221907286",
            "request_4: phase=0 lambda=1.0 choice=(3,) proxy={0: 0.0, 4: 0.3} dphi=0.08499374577355989",
        ]

    @pytest.mark.parametrize("algo", ["config", "related"])
    def test_cost_jump_doubles_instead_of_overflowing(self, tmp_path, capsys, algo):
        # at the first guess lambda = 1 the second job's potential term
        # 1.5 ** (100000 / 2) overflows a float; the stream doubles past it
        src = tmp_path / "jump.json"
        src.write_text(json.dumps({"kind": "related", "speeds": [1], "jobs": [[[1, 1]], [[100000, 1]]]}))
        rep = tmp_path / "online.txt"
        assert run_cli("online", "--in", str(src), "--algo", algo, "--report", str(rep)) == 0
        assert capsys.readouterr().err == ""
        lines = rep.read_text().splitlines()
        assert "final_lambda: 16384.0" in lines and "phases: 15" in lines
        assert lines[-1] == (
            "request_1: phase=14 lambda=16384.0 choice=0 proxy=(100000.0, 0.0) dphi=2.446576127207461"
        )

    def test_simulate_csv(self, tmp_path):
        src = tmp_path / "inst.json"
        run_cli("gen", "--kind", "gap", "--m", "2", "--tau", "2", "--out", str(src))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"choices": {"0": 0, "1": 0}}))
        rep = tmp_path / "sim.csv"
        assert run_cli(
            "simulate", "--in", str(src), "--policy-file", str(policy),
            "--trials", "500", "--seed", "1", "--tau", "2", "--report", str(rep),
        ) == 0
        header = rep.read_text().splitlines()[0]
        assert header.startswith("trials,seed,mean_makespan,stderr,mean_exceptional")

    def test_expmax_runs(self, tmp_path):
        rep = tmp_path / "expmax.txt"
        assert run_cli(
            "expmax", "--m", "8", "--trials", "2000", "--seed", "0",
            "--regime", "sqrtlog", "--report", str(rep),
        ) == 0
        assert "estimate:" in rep.read_text()

    @pytest.mark.parametrize("regime", ["sqrtlog", "logm", "geo"])
    def test_expmax_single_sum(self, capsys, regime):
        assert run_cli("expmax", "--regime", regime, "--m", "1", "--trials", "10") == 0
        captured = capsys.readouterr()
        assert captured.err == "" and "m: 1\n" in captured.out
        if regime != "geo":
            # the summand tau * Ber(1/m) is a point mass at tau at m = 1
            assert "estimate: 1.0\n" in captured.out

    def test_batch_of_seeded_instances(self, tmp_path):
        # batch usage: one report per seeded tiny instance, reproducible
        def batch(tag):
            rows = []
            for seed in range(30):
                inst = tmp_path / f"{tag}_{seed}.json"
                rep = tmp_path / f"{tag}_{seed}.txt"
                assert run_cli("gen", "--kind", "config", "--seed", str(seed), "--out", str(inst)) == 0
                assert run_cli(
                    "offline", "--in", str(inst), "--algo", "config",
                    "--seed", str(seed), "--report", str(rep),
                ) == 0
                rows.append(rep.read_text())
            return rows

        first = batch("a")
        second = batch("b")
        assert len(first) == 30
        assert first == second




class TestRepeatedMain:
    def test_reports_identical_and_no_argument_leaks(self, tmp_path, capsys):
        src = tmp_path / "gap.json"
        run_cli("gen", "--kind", "gap", "--m", "4", "--tau", "2", "--out", str(src))
        argvs = [
            ("oracle", "--in", str(src), "--what", "opt", "--tau", "2"),
            ("oracle", "--in", str(src), "--what", "opt"),
            ("offline", "--in", str(src), "--algo", "related", "--seed", "3"),
            ("online", "--in", str(src), "--algo", "related"),
        ]
        capsys.readouterr()
        first = []
        for argv in argvs:
            assert run_cli(*argv) == 0
            first.append(capsys.readouterr().out)
        assert "tau:" in first[0]
        assert "tau:" not in first[1]
        for argv, want in zip(argvs, first):
            assert run_cli("offline", "--in", str(src), "--algo", "mystery") == 1
            capsys.readouterr()
            assert run_cli(*argv) == 0
            assert capsys.readouterr().out == want


class TestBeyondFloats:
    """An exact number without a finite float value is an input error; a
    configuration whose largest load overflows a float is one for the float
    layers, while the exact oracle still answers."""

    def test_oracle_answers_overflowing_load_exactly(self, tmp_path, capsys):
        src = tmp_path / "load.json"
        src.write_text(OVERFLOWING_LOAD)
        assert run_cli("oracle", "--in", str(src), "--what", "opt") == 0
        want = Fraction(1e308) ** 2
        assert capsys.readouterr().out == f"# oracle opt\nexpected_makespan: {want}\n"


# ---------------------------------------------------------------------------
# The CLI's input contract, one row per run: invalid input exits 1 with one
# error line, never with a traceback or a silent nan.


class Row(NamedTuple):
    """One CLI run. argv is split on whitespace; {in}, {policy}, {out} and
    {dir} in it and in message name the instance file (text, unless None),
    the policy file (policy, unless None), a path no file is at yet and a
    directory. message is a part of the error line on exit 1, of stdout on
    any other exit."""

    text: str | None
    argv: str
    code: int
    message: str = ""
    policy: str | None = None


# an error line is main's "error: ..." or argparse's "cfgbal <command>: error: ..."
ERROR_LINE = re.compile(r"(cfgbal( [\w-]+)?: )?error: ")
NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def check_row(row, tmp_path, capsys):
    """Run row through main in-process. The exit code is row.code, and main
    raises nothing. On exit 1, stdout is empty, stderr is the one error line
    (first, or last after argparse's usage) and the usage, so no traceback,
    and no --out or --report file is written; on any other exit stderr is
    empty. stdout and every report written hold no nan token."""
    paths = {"in": tmp_path / "in.json", "policy": tmp_path / "policy.json", "out": tmp_path / "out", "dir": tmp_path}

    def fill(text):
        for name, path in paths.items():
            text = text.replace("{%s}" % name, str(path))
        return text

    if row.text is not None:
        paths["in"].write_text(row.text)
    if row.policy is not None:
        paths["policy"].write_text(row.policy)
    argv = [fill(arg) for arg in row.argv.split()]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == row.code, err
    written = [Path(argv[k + 1]) for k, arg in enumerate(argv[:-1]) if arg in ("--out", "--report")]
    written = [path for path in written if path.is_file()]
    if code == 1:
        assert out == "" and not written
        lines = err.splitlines()
        errors = [line for line in lines if ERROR_LINE.match(line)]
        assert len(errors) == 1 and errors[0] in (lines[0], lines[-1]), err
        assert fill(row.message) in errors[0]
        usage = [line for line in lines if line != errors[0]]
        assert usage and usage[0].startswith("usage: cfgbal"), err
        assert all(line.startswith(" ") for line in usage[1:]), err
    else:
        assert err == "" and fill(row.message) in out
    for text in [out] + [path.read_text() for path in written]:
        assert not NAN.search(text)


NAN_LAW = '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [{"multipliers": [1], "law": [[NaN, 1]]}]}]}'
INF_MULT = '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [{"multipliers": [Infinity], "law": [[1, 1]]}]}]}'
HUGE_LAW = (
    '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [{"multipliers": [1], '
    '"law": [[%d, "1/2"], [1, "1/2"]]}]}]}' % 10**400
)
OVERFLOWING_LOAD = (
    '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [{"multipliers": [1e308], '
    '"law": [[1e308, 1.0]]}]}]}'
)
OVERFLOWING_ROUTE = (
    '{"kind": "routing", "vertices": 2, "edges": [[0, 1, 1e-300]], "requests": [[0, 1, [[1e300, 1.0]]]]}'
)
OVERFLOWING_SPEED = '{"kind": "related", "speeds": [1e-300, 1.0], "jobs": [[[1e300, 0.5], [1.0, 0.5]]]}'
# 1e308 / 0.577 is finite, but smoothing rounds 0.577 down to 0.5, and the
# first guess lambda = 1e308 doubles to tau = inf
OVERFLOWING_THRESHOLD = (
    '{"kind": "related", "speeds": [1.0, 0.5773502691896258, 0.5773502691896258], '
    '"jobs": [[[1e+308, 1]], [[0.5773502691896258, 1]], [[0.5773502691896258, 1]]]}'
)
# an exact speed or capacity whose float is 0.0
ZERO_FLOAT = "1/" + str(10**330)
TINY_BOUND = '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [{"multipliers": [1], "law": [[1e-323, 1.0]]}]}]}'
TINY_MEAN = (
    '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [{"multipliers": [1], '
    '"law": [[0.0, 0.5], [1e-323, 0.5]]}]}]}'
)
TINY_ROUTE = '{"kind": "routing", "vertices": 2, "edges": [[0, 1, 1]], "requests": [[0, 1, [[0.0, 0.5], [1e-323, 0.5]]]]}'
# LP coefficients past the solver's 1e15 limit: a related value, one met only
# midway through the threshold search, and a routing weight in the master
LARGE = '{"kind": "related", "speeds": [1.0], "jobs": [[[1e16, 0.5], [1.0, 0.5]]]}'
MIDWAY = (
    '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [{"multipliers": [1], '
    '"law": [[0, 0.4], [1.5e15, 0.4], [3e15, 0.2]]}]}, {"id": 1, "configs": [{"multipliers": [1], "law": [[5e14, 1.0]]}]}]}'
)
ROUTE_LARGE = '{"kind": "routing", "vertices": 2, "edges": [[0, 1, 1e-10]], "requests": [[0, 1, [[1e6, 1.0]]]]}'
# parallel edges and p/q capacities
ROUTES = json.dumps({
    "kind": "routing", "vertices": 4,
    "edges": [[0, 1, 1], [0, 1, "1/2"], [0, 2, 2], [1, 3, 1], [2, 3, 1], [1, 2, 1], [2, 3, "3/2"]],
    "requests": [[0, 3, [[1, "1/2"], [2, "1/2"]]], [1, 3, [[0, "1/2"], [3, "1/2"]]], [0, 2, [[1, "1/3"], [2, "2/3"]]]],
})
# both requests seed on the direct edge 0 -> 2 and overload it, so the
# one-column master goes to HiGHS, whose duals price in 0 -> 1 -> 2
PRICING = (
    '{"kind": "routing", "vertices": 3, "edges": [[0, 2, 1], [0, 1, 1], [1, 2, 1]], '
    '"requests": [[0, 2, [["1/2", 1]]], [0, 2, [["1/2", 1]]]]}'
)
EIGHT = json.dumps({
    "kind": "config", "m": 2,
    "requests": [{"id": 5, "configs": [{"multipliers": [1, "1/2"], "law": [[k, "1/8"] for k in range(8)]}]}],
})
# 1/3 and its float are one value once scaled by the factor 1.0
MEET = '{"kind": "related", "speeds": [1.0, 1.0], "jobs": [[["1/3", "1/2"], [0.3333333333333333, "1/2"]]]}'
GAP2 = dumps_instance(gen_adaptivity_gap_instance(2, 2))
GAP4 = dumps_instance(gen_adaptivity_gap_instance(4, 2))
ONE = dumps_instance(ConfigInstance(1, [Request(0, [Configuration([1], point_mass(1))])]))
TWO = dumps_instance(UnrelatedInstance(1, [[point_mass(1)], [point_mass(2)]]))
TRIVIAL = dumps_instance(ConfigInstance(1, [Request(0, [Configuration([1], point_mass(0))])]))
ROUTE_ONE = dumps_instance(RoutingInstance(2, [(0, 1, 1)], [(0, 1, point_mass(1))]))
ROUTE_ZERO = dumps_instance(RoutingInstance(2, [(0, 1, 1)], [(0, 1, point_mass(0))]))
# a 2x2 grid: vertices 0 1 / 2 3, both directions, request 0 -> 3
GRID = dumps_instance(RoutingInstance(
    4, [(0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 0, 1), (1, 3, 1), (3, 1, 1), (2, 3, 1), (3, 2, 1)], [(0, 3, point_mass(1))]
))
TWICE = (
    '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [{"multipliers": [1], "law": [[1, 1]]}]}, '
    '{"id": 0, "configs": [{"multipliers": [1], "law": [[2, 1]]}]}]}'
)
ONE_CONFIG = '{"multipliers": [1], "law": [[1, 1]]}'


def choices(mapping):
    return json.dumps({"choices": mapping})


def each_argv(test, text, code, message, argvs):
    """The rows of test[argv0], test[argv1], ...: text under each argv with
    --in {in}, as pytest names a test parametrized over argv."""
    return {f"{test}[argv{k}]": Row(text, f"{argv} --in {{in}}", code, message) for k, argv in enumerate(argvs)}


ROUTING_LOAD = "error: request 0 edge 0: largest load 1e+300 / 1e-300 is not a finite float"
RELATED_LOAD = "error: job 0 machine 0: largest load 1e+300 / 1e-300 is not a finite float"
THRESHOLD_LOAD = "error: job 0 machine 1: largest load 1e+308 / 0.5 is not a finite float"
THRESHOLD_LAMBDA = "error: threshold 2 * lambda for the guess lambda = 1e+308 is not"
WRONG_KIND = "error: expected a config, unrelated or related instance, got routing"
SIMULATE = "simulate --in {in} --policy-file {policy} --trials 10"
EVAL = "oracle --in {in} --what eval --tau 2 --policy-file {policy}"
EMPTY_CONFIG = '{"kind": "config", "m": 1, "requests": []}'
EMPTY_RELATED = '{"kind": "related", "speeds": [1], "jobs": []}'

# The contract's rows. Each key is its row's test id, class::test or
# class::test[parameters]: install_contract makes one test per key, so a row
# keeps its id when rows are added, moved or regrouped.
CONTRACT = {
    **{
        f"TestNonFiniteInput::test_exits_1_with_one_error_line[argv{k}-{name}]": Row(text, f"{argv} --in {{in}}", 1, "non-finite")
        for k, argv in enumerate(["online --algo config", "offline --algo config", "oracle --what opt"])
        for name, text in [("nan-law", NAN_LAW), ("inf-multiplier", INF_MULT)]
    },
    "TestVerdictsAndErrors::test_lp_check_feasible": Row(
        GAP4, "lp-check --in {in} --tau 11/4", 0, "LP_C feasible at tau=2.75"),
    "TestVerdictsAndErrors::test_lp_check_infeasible_exit_2": Row(
        GAP4, "lp-check --in {in} --tau 1/100", 2, "LP_C infeasible"),
    "TestVerdictsAndErrors::test_unknown_algorithm_exits_1": Row(
        GAP4, "offline --in {in} --algo mystery", 1, "invalid choice: 'mystery'"),
    "TestVerdictsAndErrors::test_missing_file_exits_1": Row(
        None, "oracle --in {in} --what opt", 1, "No such file or directory: '{in}'"),
    **each_argv(
        "TestVerdictsAndErrors::test_routing_file_for_config_command_exits_1", ROUTE_ONE, 1, WRONG_KIND,
        ["offline --algo config", "online --algo config", "oracle --what opt"],
    ),
    "TestVerdictsAndErrors::test_trivial_config_exits_0": Row(
        TRIVIAL, "offline --in {in} --algo config", 0, "lp_status: trivial"),
    # 1/3 and its float are one value once scaled by the factor 1.0
    **each_argv(
        "TestVerdictsAndErrors::test_related_law_whose_values_meet_once_scaled", MEET, 0, "",
        ["offline --algo related", "online --algo config", "lp-check --tau 1", "oracle --what opt"],
    ),
    f"TestVerdictsAndErrors::test_empty_online_stream_exits_1[config-{EMPTY_CONFIG}]": Row(
        EMPTY_CONFIG, "online --in {in} --algo config", 1, "error: empty request stream"),
    f"TestVerdictsAndErrors::test_empty_online_stream_exits_1[related-{EMPTY_RELATED}]": Row(
        EMPTY_RELATED, "online --in {in} --algo related", 1, "error: empty request stream"),
    "TestVerdictsAndErrors::test_zero_demand_routing_exits_1": Row(
        ROUTE_ZERO, "offline --in {in} --algo routing", 1, "error: degenerate routing instance with zero demand"),
    "TestVerdictsAndErrors::test_parallel_edges_and_pq_capacities[offline]": Row(
        ROUTES, "offline --algo routing --seed 3 --in {in}", 0),
    "TestVerdictsAndErrors::test_parallel_edges_and_pq_capacities[online]": Row(
        ROUTES, "online --algo routing --in {in}", 0),
    "TestVerdictsAndErrors::test_parallel_edges_and_pq_capacities[lp-check-4]": Row(
        ROUTES, "lp-check --tau 4 --in {in}", 0),
    "TestVerdictsAndErrors::test_parallel_edges_and_pq_capacities[lp-check-1/100]": Row(
        ROUTES, "lp-check --tau 1/100 --in {in}", 2, "request 0: admissible edges disconnect 0 -> 3"),
    "TestVerdictsAndErrors::test_priced_round[offline]": Row(PRICING, "offline --algo routing --in {in}", 0),
    "TestVerdictsAndErrors::test_priced_round[lp-check]": Row(
        PRICING, "lp-check --tau 0.6 --in {in}", 0, "LP_P feasible"),
    "TestVerdictsAndErrors::test_simulate_eight_point_law": Row(
        EIGHT, "simulate --in {in} --policy-file {policy} --trials 1000 --tau 4", 0, "", choices({"5": 0})),
    **each_argv(
        "TestBeyondFloats::test_huge_exact_value", HUGE_LAW, 1, f"error: law[0].value: {10**400} has no finite float value",
        ["online --algo config", "offline --algo config", "oracle --what opt", "lp-check --tau 2"],
    ),
    "TestBeyondFloats::test_integer_past_the_digit_limit": Row(
        HUGE_LAW.replace(str(10**400), "7" * 5000), "oracle --what opt --in {in}", 1, "error: number out of range"),
    **each_argv(
        "TestBeyondFloats::test_overflowing_load", OVERFLOWING_LOAD, 1, "request 0 configuration 0: largest load 1e+308 * 1e+308",
        ["online --algo config", "offline --algo config", "lp-check --tau 2"],
    ),
    "TestBeyondFloats::test_overflowing_load[simulate]": Row(
        OVERFLOWING_LOAD, SIMULATE, 1, "request 0 configuration 0: largest load 1e+308 * 1e+308", choices({"0": 0})),
    **each_argv(
        "TestBeyondFloats::test_overflowing_routing_load", OVERFLOWING_ROUTE, 1, ROUTING_LOAD,
        ["offline --algo routing", "online --algo routing", "lp-check --tau 2"],
    ),
    "TestBeyondFloats::test_overflowing_routing_load[simulate]": Row(
        OVERFLOWING_ROUTE, SIMULATE, 1, ROUTING_LOAD, choices({"0": [0]})),
    **each_argv(
        "TestBeyondFloats::test_overflowing_related_load", OVERFLOWING_SPEED, 1, RELATED_LOAD,
        ["offline --algo related", "offline --algo config", "online --algo config", "online --algo related",
         "online --algo sqrt-baseline", "lp-check --tau 2"],
    ),
    "TestBeyondFloats::test_overflowing_related_load[simulate]": Row(
        OVERFLOWING_SPEED, SIMULATE, 1, RELATED_LOAD, choices({"0": 1})),
    **{
        f"TestBeyondFloats::test_overflowing_online_threshold[argv{k}-{message}]": Row(
            OVERFLOWING_THRESHOLD, f"{argv} --in {{in}}", 1, message)
        for k, (argv, message) in enumerate([
            ("online --algo related", THRESHOLD_LOAD),
            ("offline --algo related", THRESHOLD_LOAD),
            ("online --algo config", THRESHOLD_LAMBDA),
        ])
    },
    # before the bound was refused, the search never narrowed [0, 1e-323]
    "TestBeyondFloats::test_tiny_search_bound[bound-1e-323]": Row(
        TINY_BOUND, "offline --algo config --in {in}", 1, "tau=1e-323 is too small"),
    # and here its first midpoint underflowed to a threshold of 0.0
    "TestBeyondFloats::test_tiny_search_bound[config-mean-5e-324]": Row(
        TINY_MEAN, "offline --algo config --in {in}", 1, "tau=5e-324 is too small"),
    "TestBeyondFloats::test_tiny_search_bound[routing-mean-5e-324]": Row(
        TINY_ROUTE, "offline --algo routing --in {in}", 1, "tau=5e-324 is too small"),
    "TestBeyondFloats::test_simulate_zero_float[speed]": Row(
        json.dumps({"kind": "related", "speeds": [ZERO_FLOAT], "jobs": [[[1, 1.0]]]}),
        SIMULATE, 1, f"error: job 0 machine 0: largest load 1 / {ZERO_FLOAT} is not a finite float", choices({"0": 0})),
    "TestBeyondFloats::test_simulate_zero_float[capacity]": Row(
        json.dumps({"kind": "routing", "vertices": 2, "edges": [[0, 1, ZERO_FLOAT]], "requests": [[0, 1, [[1, 1.0]]]]}),
        SIMULATE, 1, f"error: request 0 edge 0: largest load 1 / {ZERO_FLOAT} is not a finite float", choices({"0": [0]})),
    "TestBeyondFloats::test_solver_limit[large-offline]": Row(
        LARGE, "offline --algo related --in {in}", 1, "limit 1e+15"),
    # reached through the master's one-column path, which skips HiGHS
    "TestBeyondFloats::test_solver_limit[large-lp-check]": Row(
        LARGE, "lp-check --tau 1e17 --in {in}", 1, "limit 1e+15"),
    "TestBeyondFloats::test_solver_limit[midway-offline]": Row(
        MIDWAY, "offline --algo config --in {in}", 1, "limit 1e+15"),
    "TestBeyondFloats::test_solver_limit[route-offline]": Row(
        ROUTE_LARGE, "offline --algo routing --in {in}", 1, "limit 1e+15"),
    "TestBeyondFloats::test_solver_limit[route-lp-check]": Row(
        ROUTE_LARGE, "lp-check --tau 1e17 --in {in}", 1, "limit 1e+15"),
    "TestArgumentErrors::test_bad_tau[argv0]": Row(GAP2, "oracle --what opt --tau abc --in {in}", 1, "'abc'"),
    "TestArgumentErrors::test_bad_tau[argv1]": Row(GAP2, "oracle --what restart --tau 1/0 --in {in}", 1, "'1/0'"),
    "TestArgumentErrors::test_bad_tau[argv2]": Row(GAP2, "lp-check --tau 1e400 --in {in}", 1, "'1e400'"),
    "TestArgumentErrors::test_simulate_bad_tau": Row(GAP2, SIMULATE + " --tau x", 1, "'x'", choices({"0": 0, "1": 0})),
    "TestArgumentErrors::test_restart_tau_below_first_decision": Row(
        ONE, "oracle --in {in} --what restart --tau 0.1", 1, "is below E[max] of OPT's first decision"),
    "TestArgumentErrors::test_simulate_missing_choice[choices0]": Row(
        GAP2, SIMULATE, 1, "error: policy chose machine 7; request 1 has 2", choices({"0": 0, "1": 7})),
    "TestArgumentErrors::test_simulate_missing_choice[choices1]": Row(
        GAP2, SIMULATE, 1, "error: policy chose request 5; the instance has no such request", choices({"0": 0, "5": 0})),
    "TestArgumentErrors::test_simulate_missing_choice[choices2]": Row(
        GAP2, SIMULATE, 1, "{policy}: choices['0'] must map an integer id to an int or a list of ints, got '0'",
        choices({"0": "0", "1": 0})),
    # a policy that omits a request fails in simulate as in oracle eval,
    # naming the omitted request, instead of simulating the rest
    "TestArgumentErrors::test_simulate_partial_policy": Row(TWO, SIMULATE, 1, "request 1", choices({"0": 0})),
    "TestArgumentErrors::test_oracle_eval_partial_policy": Row(
        TWO, EVAL, 1, "error: no decision at remaining=[1]", choices({"0": 0})),
    "TestArgumentErrors::test_simulate_partial_policy_on_the_readme_gap": Row(
        GAP4, SIMULATE, 1, "request 3", choices({"0": 0, "1": 1, "2": 2})),
    "TestArgumentErrors::test_oracle_eval_missing_choice": Row(
        GAP2, EVAL, 1, "error: policy chose missing config 7 of request 1", choices({"0": 0, "1": 7})),
    **{
        f"TestArgumentErrors::test_oracle_non_positive_tau[{tau}]": Row(
            GAP2, f"oracle --in {{in}} --what opt --tau {tau}", 1, f"error: truncation threshold must be positive, got {tau}")
        for tau in ["0", "-1"]
    },
    **{
        f"TestInputErrors::test_bad_policy_file[{command}-{name}]": Row(GAP2, argv, 1, "{policy}: " + message, policy)
        for command, argv in [("simulate", SIMULATE), ("oracle-eval", EVAL)]
        for name, policy, message in [
            ("truncated-json", '{"choices": {"0": 0', "invalid JSON"),
            ("no-choices", '{"x": 1}', "expected an object field 'choices'"),
            ("non-integer-key", '{"choices": {"a": 0}}', "choices['a']"),
        ]
    },
    "TestInputErrors::test_simulate_zero_trials": Row(
        GAP2, "simulate --in {in} --policy-file {policy} --trials 0", 1, "error: trials must be at least 1, got 0",
        choices({"0": 0, "1": 0})),
    "TestInputErrors::test_expmax_counts[zero-trials]": Row(
        None, "expmax --regime sqrtlog --m 4 --trials 0", 1, "error: trials must be at least 1, got 0"),
    "TestInputErrors::test_expmax_counts[sqrtlog-zero-m]": Row(
        None, "expmax --regime sqrtlog --m 0", 1, "error: m must be at least 1, got 0"),
    "TestInputErrors::test_expmax_counts[geo-zero-m]": Row(
        None, "expmax --regime geo --m 0", 1, "error: m must be at least 1, got 0"),
    # geo's largest summand count, 2 * c_1, first passes 2^63 - 1 at m = 106
    "TestInputErrors::test_expmax_count_below_the_sampler_limit": Row(
        None, "expmax --regime geo --m 105 --trials 10", 0),
    "TestInputErrors::test_expmax_count_past_sampler": Row(
        None, "expmax --regime geo --m 106 --trials 10", 1, "summand count 10016949127614678712 "),
    **{
        f"TestInputErrors::test_expmax_bad_tau[{tau}]": Row(
            None, f"expmax --regime sqrtlog --m 4 --trials 10 --tau={tau}", 1, f"--tau {tau!r}")
        for tau in ["0", "-1", "nan"]
    },
    **{
        f"TestInputErrors::test_gen_past_the_cap[{kind}-argv{k}-{message}]": Row(
            None, f"gen --kind {kind} {counts} --out {{out}}", 1, message)
        for kind in ["config", "unrelated", "related"]
        for k, (counts, message) in enumerate([
            ("--n 50 --m 10", "error: n_max 50 exceeds the oracle-tractable cap 4"),
            ("--n 4 --m 4", "error: m_max 4 exceeds the oracle-tractable cap 3"),
        ])
    },
    **{
        f"TestInputErrors::test_gen_zero_count[{kind}-{count}]": Row(
            None, f"gen --kind {kind} {count} 0 --out {{out}}", 1, f"error: n_max and m_max must be at least 1, got {counts}")
        for kind in ["config", "unrelated", "related"]
        for count, counts in [("--n", "0 and 3"), ("--m", "3 and 0")]
    },
    **{
        f"TestMalformedInput::test_instance_shape[{name}]": Row(text, "oracle --in {in} --what opt", 1, field)
        for name, text, field in [
            ("request-not-object", '{"kind": "config", "m": 1, "requests": [5]}', "'configs'"),
            ("config-not-object", '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [7]}]}', "'multipliers'"),
            ("bool-id", '{"kind": "config", "m": 1, "requests": [{"id": true, "configs": [%s]}]}' % ONE_CONFIG, "'id'"),
            ("bool-m", '{"kind": "config", "m": true, "requests": [{"id": 0, "configs": [%s]}]}' % ONE_CONFIG, "'m'"),
            ("unrelated-row", '{"kind": "unrelated", "m": 1, "jobs": [5]}', "jobs[0]"),
            ("bool-edge-end", '{"kind": "routing", "vertices": 2, "edges": [[0, true, 1]], "requests": [[0, 1, [[1, 1]]]]}',
             "edges[0][1]"),
        ]
    },
    "TestMalformedInput::test_duplicate_request_ids[oracle]": Row(
        TWICE, "oracle --what opt --in {in}", 1, "not unique"),
    "TestMalformedInput::test_duplicate_request_ids[online]": Row(
        TWICE, "online --algo config --in {in}", 1, "not unique"),
    "TestMalformedInput::test_directory_paths[in]": Row(None, "offline --in {dir} --algo config", 1, "{dir}"),
    "TestMalformedInput::test_directory_paths[policy]": Row(
        GAP2, "simulate --in {in} --policy-file {dir} --trials 5", 1, "{dir}"),
    "TestMalformedInput::test_directory_paths[report]": Row(
        GAP2, "offline --in {in} --algo config --report {dir}", 1, "{dir}"),
    "TestMalformedInput::test_simulate_zero_tau": Row(
        GAP2, SIMULATE + " --tau 0", 1, "error: truncation threshold must be positive, got 0.0", choices({"0": 0, "1": 0})),
    **{
        f"TestMalformedInput::test_simulate_routing_choice[{name}]": Row(
            GRID, SIMULATE, 0 if message is None else 1, message or "", choices({"0": choice}))
        for name, choice, message in [
            ("path-a", [0, 4], None),
            ("path-b", [2, 6], None),
            ("not-a-list", 0, "error: policy chose 0 for request 0; expected the edge ids of a simple path 0 -> 3"),
            ("stops-short", [0], "error: policy chose (0,) for request 0; expected"),
            ("wrong-order", [4, 0], "error: policy chose (4, 0) for request 0; expected"),
            ("empty", [], "error: policy chose () for request 0; expected"),
            ("revisits", [0, 1, 0, 4], "error: policy chose (0, 1, 0, 4) for request 0; expected"),
            ("unknown-edge", [0, 9], "error: policy chose edge 9; the instance has 8"),
        ]
    },
}


def contract_test(rows):
    """A test method that checks rows, a {parameters: Row} dict (or {None:
    Row} for an unparametrized test), through check_row."""
    if list(rows) == [None]:
        def test(self, tmp_path, capsys):
            check_row(rows[None], tmp_path, capsys)
        return test

    @pytest.mark.parametrize("row", list(rows.values()), ids=list(rows))
    def test(self, row, tmp_path, capsys):
        check_row(row, tmp_path, capsys)
    return test


def install_contract():
    """Make each CONTRACT key a test: its test method on its class, which
    is made if this module does not define it."""
    tests = {}
    for key, row in CONTRACT.items():
        owner, name, params = re.fullmatch(r"(\w+)::(\w+)(?:\[(.*)\])?", key).groups()
        tests.setdefault((owner, name), {})[params] = row
    for (owner, name), rows in tests.items():
        cls = globals().setdefault(owner, type(owner, (), {}))
        setattr(cls, name, contract_test(rows))


install_contract()
