import json

import pytest

from cfgbal.cli import main
from cfgbal.instance_io import read_instance, write_instance
from cfgbal.distributions import point_mass
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    Request,
    RoutingInstance,
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
    def test_lp_check_feasible(self, tmp_path):
        src = tmp_path / "gap.json"
        run_cli("gen", "--kind", "gap", "--m", "4", "--tau", "2", "--out", str(src))
        assert run_cli("lp-check", "--in", str(src), "--tau", "11/4") == 0

    def test_lp_check_infeasible_exit_2(self, tmp_path):
        src = tmp_path / "gap.json"
        run_cli("gen", "--kind", "gap", "--m", "4", "--tau", "2", "--out", str(src))
        assert run_cli("lp-check", "--in", str(src), "--tau", "1/100") == 2

    def test_unknown_algorithm_exits_1(self, tmp_path, capsys):
        src = tmp_path / "gap.json"
        run_cli("gen", "--kind", "gap", "--m", "4", "--tau", "2", "--out", str(src))
        assert run_cli("offline", "--in", str(src), "--algo", "mystery") == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_file_exits_1(self):
        assert run_cli("oracle", "--in", "/nonexistent.json", "--what", "opt") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("offline", "--algo", "config"),
            ("online", "--algo", "config"),
            ("oracle", "--what", "opt"),
        ],
    )
    def test_routing_file_for_config_command_exits_1(self, tmp_path, capsys, argv):
        src = tmp_path / "routing.json"
        write_instance(RoutingInstance(2, [(0, 1, 1)], [(0, 1, point_mass(1))]), src)
        assert run_cli(*argv, "--in", str(src)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_trivial_config_exits_0(self, tmp_path, capsys):
        src = tmp_path / "zero.json"
        write_instance(
            ConfigInstance(1, [Request(0, [Configuration([1], point_mass(0))])]), src
        )
        assert run_cli("offline", "--in", str(src), "--algo", "config") == 0
        assert "lp_status: trivial" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "algo, text",
        [
            ("config", '{"kind": "config", "m": 1, "requests": []}'),
            ("related", '{"kind": "related", "speeds": [1], "jobs": []}'),
        ],
    )
    def test_empty_online_stream_exits_1(self, tmp_path, capsys, algo, text):
        src = tmp_path / "empty.json"
        src.write_text(text)
        assert run_cli("online", "--in", str(src), "--algo", algo) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: empty request stream")
        assert "Traceback" not in err

    def test_zero_demand_routing_exits_1(self, tmp_path, capsys):
        src = tmp_path / "zero.json"
        write_instance(RoutingInstance(2, [(0, 1, 1)], [(0, 1, point_mass(0))]), src)
        assert run_cli("offline", "--in", str(src), "--algo", "routing") == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestReports:
    def test_offline_report_deterministic(self, tmp_path):
        src = tmp_path / "inst.json"
        run_cli("gen", "--kind", "config", "--seed", "3", "--out", str(src))
        r1, r2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        code1 = run_cli("offline", "--in", str(src), "--algo", "config", "--seed", "7", "--report", str(r1))
        code2 = run_cli("offline", "--in", str(src), "--algo", "config", "--seed", "7", "--report", str(r2))
        assert code1 == code2
        assert r1.read_bytes() == r2.read_bytes()

    def test_online_report(self, tmp_path):
        src = tmp_path / "inst.json"
        run_cli("gen", "--kind", "config", "--seed", "4", "--out", str(src))
        rep = tmp_path / "online.txt"
        assert run_cli("online", "--in", str(src), "--algo", "config", "--report", str(rep)) == 0
        assert rep.read_text().startswith("# online report")

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


def assert_one_error_line(err):
    """stderr of a clean failure: exactly one "error:" line, no traceback."""
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1


NAN_LAW = '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [{"multipliers": [1], "law": [[NaN, 1]]}]}]}'
INF_MULT = '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [{"multipliers": [Infinity], "law": [[1, 1]]}]}]}'


class TestNonFiniteInput:
    @pytest.mark.parametrize("text", [NAN_LAW, INF_MULT], ids=["nan-law", "inf-multiplier"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("online", "--algo", "config"),
            ("offline", "--algo", "config"),
            ("oracle", "--what", "opt"),
        ],
    )
    def test_exits_1_with_one_error_line(self, tmp_path, capsys, text, argv):
        src = tmp_path / "bad.json"
        src.write_text(text)
        assert run_cli(*argv, "--in", str(src)) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err)
        assert "non-finite" in captured.err
        assert "lambda" not in captured.out


class TestArgumentErrors:
    @pytest.fixture
    def gap(self, tmp_path):
        src = tmp_path / "gap.json"
        run_cli("gen", "--kind", "gap", "--m", "2", "--tau", "2", "--out", str(src))
        return src

    def policy(self, tmp_path, choices):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"choices": choices}))
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [
            ("oracle", "--what", "opt", "--tau", "abc"),
            ("oracle", "--what", "restart", "--tau", "1/0"),
            ("lp-check", "--tau", "1e400"),
        ],
    )
    def test_bad_tau(self, gap, capsys, argv):
        assert run_cli(*argv, "--in", str(gap)) == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_simulate_bad_tau(self, gap, tmp_path, capsys):
        policy = self.policy(tmp_path, {"0": 0, "1": 0})
        assert run_cli("simulate", "--in", str(gap), "--policy-file", policy, "--tau", "x") == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_restart_tau_below_first_decision(self, tmp_path, capsys):
        src = tmp_path / "one.json"
        write_instance(ConfigInstance(1, [Request(0, [Configuration([1], point_mass(1))])]), src)
        assert run_cli("oracle", "--in", str(src), "--what", "restart", "--tau", "0.1") == 1
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("choices", [{"0": 0, "1": 7}, {"0": 0, "5": 0}, {"0": "0", "1": 0}])
    def test_simulate_missing_choice(self, gap, tmp_path, capsys, choices):
        policy = self.policy(tmp_path, choices)
        assert run_cli("simulate", "--in", str(gap), "--policy-file", policy, "--trials", "10") == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_oracle_eval_missing_choice(self, gap, tmp_path, capsys):
        policy = self.policy(tmp_path, {"0": 0, "1": 7})
        assert run_cli(
            "oracle", "--in", str(gap), "--what", "eval", "--tau", "2", "--policy-file", policy
        ) == 1
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("tau", ["0", "-1"])
    def test_oracle_non_positive_tau(self, gap, capsys, tau):
        assert run_cli("oracle", "--in", str(gap), "--what", "opt", "--tau", tau) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err)
        assert captured.out == ""


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


class TestInputErrors:
    """Bad policy files and non-positive counts exit 1 with one error line."""

    @pytest.fixture
    def gap(self, tmp_path):
        src = tmp_path / "gap.json"
        run_cli("gen", "--kind", "gap", "--m", "2", "--tau", "2", "--out", str(src))
        return str(src)

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"choices": {"0": 0', "invalid JSON"),
            ('{"x": 1}', "'choices'"),
            ('{"choices": {"a": 0}}', "choices['a']"),
        ],
        ids=["truncated-json", "no-choices", "non-integer-key"],
    )
    @pytest.mark.parametrize(
        "argv",
        [("simulate", "--trials", "10"), ("oracle", "--what", "eval", "--tau", "2")],
        ids=["simulate", "oracle-eval"],
    )
    def test_bad_policy_file(self, gap, tmp_path, capsys, text, field, argv):
        policy = tmp_path / "policy.json"
        policy.write_text(text)
        assert run_cli(*argv, "--in", gap, "--policy-file", str(policy)) == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert str(policy) in err and field in err

    def test_simulate_zero_trials(self, gap, tmp_path, capsys):
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"choices": {"0": 0, "1": 0}}))
        assert run_cli("simulate", "--in", gap, "--policy-file", str(policy), "--trials", "0") == 1
        assert_one_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--regime", "sqrtlog", "--m", "4", "--trials", "0"),
            ("--regime", "sqrtlog", "--m", "0"),
            ("--regime", "geo", "--m", "0"),
        ],
        ids=["zero-trials", "sqrtlog-zero-m", "geo-zero-m"],
    )
    def test_expmax_counts(self, capsys, argv):
        assert run_cli("expmax", *argv) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err)
        assert "nan" not in captured.out

    @pytest.mark.parametrize("count", ["--n", "--m"])
    @pytest.mark.parametrize("kind", ["config", "unrelated", "related"])
    def test_gen_zero_count(self, tmp_path, capsys, kind, count):
        out = tmp_path / "inst.json"
        assert run_cli("gen", "--kind", kind, count, "0", "--out", str(out)) == 1
        assert_one_error_line(capsys.readouterr().err)
        assert not out.exists()


ONE_CONFIG = '{"multipliers": [1], "law": [[1, 1]]}'


class TestMalformedInput:
    """Shape errors in instance and policy files, unreadable paths and a
    non-positive simulation threshold exit 1 with one error line."""

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"kind": "config", "m": 1, "requests": [5]}', "'configs'"),
            ('{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [7]}]}', "'multipliers'"),
            ('{"kind": "config", "m": 1, "requests": [{"id": true, "configs": [%s]}]}' % ONE_CONFIG, "'id'"),
            ('{"kind": "config", "m": true, "requests": [{"id": 0, "configs": [%s]}]}' % ONE_CONFIG, "'m'"),
            ('{"kind": "unrelated", "m": 1, "jobs": [5]}', "jobs[0]"),
            ('{"kind": "routing", "vertices": 2, "edges": [[0, true, 1]], "requests": [[0, 1, [[1, 1]]]]}',
             "edges[0][1]"),
        ],
        ids=["request-not-object", "config-not-object", "bool-id", "bool-m", "unrelated-row", "bool-edge-end"],
    )
    def test_instance_shape(self, tmp_path, capsys, text, field):
        src = tmp_path / "bad.json"
        src.write_text(text)
        assert run_cli("oracle", "--in", str(src), "--what", "opt") == 1
        err = capsys.readouterr().err
        assert_one_error_line(err)
        assert field in err

    @pytest.mark.parametrize("argv", [("oracle", "--what", "opt"), ("online", "--algo", "config")], ids=["oracle", "online"])
    def test_duplicate_request_ids(self, tmp_path, capsys, argv):
        src = tmp_path / "twice.json"
        law = '{"multipliers": [1], "law": [[%d, 1]]}'
        src.write_text(
            '{"kind": "config", "m": 1, "requests": [{"id": 0, "configs": [%s]}, {"id": 0, "configs": [%s]}]}'
            % (law % 1, law % 2)
        )
        assert run_cli(*argv, "--in", str(src)) == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err)
        assert "not unique" in captured.err
        assert captured.out == ""

    @pytest.fixture
    def gap(self, tmp_path):
        src = tmp_path / "gap.json"
        run_cli("gen", "--kind", "gap", "--m", "2", "--tau", "2", "--out", str(src))
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"choices": {"0": 0, "1": 0}}))
        return str(src), str(policy)

    @pytest.mark.parametrize("where", ["in", "policy", "report"])
    def test_directory_paths(self, gap, tmp_path, capsys, where):
        src, policy = gap
        argv = {
            "in": ("offline", "--in", str(tmp_path), "--algo", "config"),
            "policy": ("simulate", "--in", src, "--policy-file", str(tmp_path), "--trials", "5"),
            "report": ("offline", "--in", src, "--algo", "config", "--report", str(tmp_path)),
        }[where]
        assert run_cli(*argv) == 1
        assert_one_error_line(capsys.readouterr().err)

    def test_simulate_zero_tau(self, gap, capsys):
        src, policy = gap
        assert run_cli("simulate", "--in", src, "--policy-file", policy, "--trials", "5", "--tau", "0") == 1
        captured = capsys.readouterr()
        assert_one_error_line(captured.err)
        assert captured.out == ""

    @pytest.fixture
    def grid(self, tmp_path):
        # a 2x2 grid: vertices 0 1 / 2 3, both directions, request 0 -> 3
        edges = [(0, 1, 1), (1, 0, 1), (0, 2, 1), (2, 0, 1), (1, 3, 1), (3, 1, 1), (2, 3, 1), (3, 2, 1)]
        src = tmp_path / "grid.json"
        write_instance(RoutingInstance(4, edges, [(0, 3, point_mass(1))]), src)
        return str(src)

    @pytest.mark.parametrize(
        "choice, ok",
        [
            ([0, 4], True),
            ([2, 6], True),
            (0, False),
            ([0], False),
            ([4, 0], False),
            ([], False),
            ([0, 1, 0, 4], False),
            ([0, 9], False),
        ],
        ids=["path-a", "path-b", "not-a-list", "stops-short", "wrong-order", "empty", "revisits", "unknown-edge"],
    )
    def test_simulate_routing_choice(self, grid, tmp_path, capsys, choice, ok):
        policy = tmp_path / "route.json"
        policy.write_text(json.dumps({"choices": {"0": choice}}))
        code = run_cli("simulate", "--in", grid, "--policy-file", str(policy), "--trials", "5")
        captured = capsys.readouterr()
        if ok:
            assert code == 0 and captured.err == ""
        else:
            assert code == 1
            assert_one_error_line(captured.err)
            assert captured.out == ""
