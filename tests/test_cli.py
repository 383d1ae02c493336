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
