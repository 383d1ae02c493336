"""The benchmark's workloads: seeded instances, the ops that run on them,
and the check of each op's output.

An op goes through the entry point a user calls: `cfgbal.cli.main` on
instance files written during set-up, or the library function where no
subcommand exists. Names are looked up on their module at call time, so the
tracer's patches apply.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

import checks
import gen
from cfgbal import cli, instance_io, instances, offline, oracle, simulate

RATIO_SIM_TRIALS = 4000


class Op:
    """One timed call.

    run() -> raw is the timed part. finish(raw) -> (key, payload) is untimed
    glue: it reads the report and prepares later ops' inputs; `key` is what
    the op produced, so an identical output is checked once. check(payload)
    raises checks.CheckFailed or returns the op's makespan ratio (or None).
    `kind` and `units` feed the throughput figures.
    """

    __slots__ = ("name", "kind", "units", "run", "finish", "check")

    def __init__(self, name, kind, units, run, finish, check):
        self.name = name
        self.kind = kind
        self.units = units
        self.run = run
        self.finish = finish
        self.check = check


class Workload:
    name = ""
    why = ""
    warmup = ""  # the op run once per set-up, untimed: a cheap one that stands alone

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.ops = []

    def path(self, name):
        return os.path.join(self.workdir, name)

    def setup(self):
        """Generate the instances, write their files and build the ops.
        Returns the written file paths."""
        written = []
        for name, inst in self.generate().items():
            instance_io.write_instance(inst, self.path(name))
            written.append(self.path(name))
        self.ops = self.build_ops()
        return written

    def generate(self):
        """{file name: instance} to write; keeps what the ops need."""
        raise NotImplementedError

    def build_ops(self):
        raise NotImplementedError

    def cli_op(self, name, kind, units, argv, report, check, after=None):
        """`cfgbal <argv> --report <report>` in-process, expecting exit code
        0. argv may be a function, called when the op runs, for arguments
        that come from an earlier op's output; after(text) is glue."""
        report = self.path(report)

        def run():
            return cli.main((argv() if callable(argv) else argv) + ["--report", report])

        def finish(rc):
            with open(report, encoding="utf-8") as fh:
                text = fh.read()
            checks.require(rc == 0, f"exit code {rc}")
            if after:
                after(text)
            return (rc, text), text

        return Op(name, kind, units, run, finish, check)


def file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def simulated_ratio(inst, choices, lower_bound, seed):
    """Simulated E[makespan] of fixed choices over a lower bound on E[OPT]."""
    report = simulate.simulate_policy(
        inst, simulate.NonAdaptiveAssignment(choices), RATIO_SIM_TRIALS, seed
    )
    return report.mean_makespan / lower_bound


# ---------------------------------------------------------------------------


class OfflineLP(Workload):
    name = "offline-lp"
    why = (
        "unrelated n=50 m=10 x6, offline config + simulate: LP_C rebuilds and HiGHS per "
        "bisection step, no law or work shared"
    )
    warmup = "offline[0]"
    COUNT, N, M, SUPPORT, TRIALS = 6, 50, 10, 3, 10000

    def generate(self):
        self.insts = [
            gen.unrelated_instance(self.seed, k, self.N, self.M, self.SUPPORT)
            for k in range(self.COUNT)
        ]
        self.offline_reports = {}
        return {f"unrelated{k}.json": inst for k, inst in enumerate(self.insts)}

    def build_ops(self):
        ops = []
        for k, inst in enumerate(self.insts):
            ops.append(self._offline(k, inst))
            ops.append(self._simulate(k, inst))
        return ops

    def _offline(self, k, inst):
        def after(text):
            rep = checks.parse_offline(text)
            self.offline_reports[k] = rep
            with open(self.path(f"policy{k}.json"), "w", encoding="utf-8") as fh:
                json.dump({"choices": {str(j): c for j, c in rep["choices"].items()}}, fh)

        def check(text):
            checks.check_offline_unrelated(inst, instances.unrelated_to_config(inst), text)

        argv = ["offline", "--in", self.path(f"unrelated{k}.json"), "--algo", "config",
                "--seed", str(self.seed)]
        return self.cli_op(f"offline[{k}]", "solve", 1, argv, f"offline{k}.txt", check, after=after)

    def _simulate(self, k, inst):
        def argv():
            return ["simulate", "--in", self.path(f"unrelated{k}.json"),
                    "--policy-file", self.path(f"policy{k}.json"), "--trials", str(self.TRIALS),
                    "--seed", str(self.seed), "--tau", repr(self.offline_reports[k]["tau"])]

        def check(text):
            rep = self.offline_reports[k]
            sim = checks.check_simulation_unrelated(inst, rep["choices"], rep["opt_lower_bound"], text)
            return sim["mean_makespan"] / rep["opt_lower_bound"]

        return self.cli_op(f"simulate[{k}]", "sim", self.TRIALS, argv, f"sim{k}.csv", check)


class OnlineStream(Workload):
    name = "online-stream"
    why = (
        "online config n=250 q=4 m=50 30% dense x4 + online related n=500 m=64 x4: per-request "
        "proxies and the potential; no LP or graph work"
    )
    warmup = "online-related[0]"
    COUNT = 4
    CONFIG_N, CONFIG_M, Q, DENSITY = 250, 50, 4, 0.3
    RELATED_N, RELATED_M = 500, 64

    def generate(self):
        self.configs = [
            gen.dense_config_instance(self.seed, k, self.CONFIG_N, self.CONFIG_M, self.Q, self.DENSITY)
            for k in range(self.COUNT)
        ]
        self.relateds = [gen.related_instance(self.seed, k, self.RELATED_N, self.RELATED_M) for k in range(self.COUNT)]
        files = {f"config{k}.json": inst for k, inst in enumerate(self.configs)}
        files.update({f"related{k}.json": inst for k, inst in enumerate(self.relateds)})
        return files

    def build_ops(self):
        ops = []
        for k in range(self.COUNT):
            ops += self._ops(k, self.configs[k], self.relateds[k])
        return ops

    def _ops(self, k, config, related):
        def check_related(text):
            groups, surviving = instances.smooth_machines(related)

            def machine_ok(j, machine, tau):
                checks.require(0 <= machine < surviving.m, f"job {j}: machine {machine} out of range")

            checks.check_online(text, related.n, len(groups), machine_ok)

        def check_config(text):
            def config_ok(j, c, tau):
                checks.require(0 <= c < len(config.requests[j].configs), f"request {j}: config {c}")

            choices = checks.check_online(text, config.n, config.m, config_ok)
            return simulated_ratio(config, choices, checks.config_lower_bound(config), self.seed)

        seed = ["--seed", str(self.seed)]
        return [
            self.cli_op(f"online-related[{k}]", "online", related.n,
                        ["online", "--in", self.path(f"related{k}.json"), "--algo", "related"] + seed,
                        f"online_related{k}.txt", check_related),
            self.cli_op(f"online-config[{k}]", "online", config.n,
                        ["online", "--in", self.path(f"config{k}.json"), "--algo", "config"] + seed,
                        f"online_config{k}.txt", check_config),
        ]


class RoutingGrid(Workload):
    name = "routing-grid"
    why = (
        "32 5x5 bidirectional grids, caps {1,2,4}, seeded laws: offline routing n=3 on each, "
        "online routing n=100 on 4: tight-edge walks, column generation, path pricing"
    )
    warmup = "online-routing[0]"
    GRIDS, ONLINE_GRIDS, SIDE, OFFLINE_N, ONLINE_N = 32, 4, 5, 3, 100

    def generate(self):
        files = {}
        self.offline_insts, self.online_insts = [], []
        for k in range(self.GRIDS):
            self.offline_insts.append(gen.grid_instance(self.seed, k, self.SIDE, self.OFFLINE_N))
            files[f"grid{k}.json"] = self.offline_insts[-1]
        for k in range(self.ONLINE_GRIDS):
            # the same stream draws the graph first, so both share one grid
            self.online_insts.append(gen.grid_instance(self.seed, k, self.SIDE, self.ONLINE_N))
            files[f"grid{k}_online.json"] = self.online_insts[-1]
        return files

    def build_ops(self):
        ops = []
        seed = ["--seed", str(self.seed)]
        for k, inst in enumerate(self.offline_insts):
            ops.append(self.cli_op(
                f"offline-routing[{k}]", "solve", 1,
                ["offline", "--in", self.path(f"grid{k}.json"), "--algo", "routing"] + seed,
                f"offline{k}.txt", self._check_offline(inst)))
        for k, inst in enumerate(self.online_insts):
            ops.append(self.cli_op(
                f"online-routing[{k}]", "online", inst.n,
                ["online", "--in", self.path(f"grid{k}_online.json"), "--algo", "routing"] + seed,
                f"online{k}.txt", self._check_online(inst)))
        return ops

    def _check_offline(self, inst):
        def check(text):
            rep = checks.check_offline_routing(inst, text)
            return simulated_ratio(inst, rep["choices"], rep["opt_lower_bound"], self.seed)

        return check

    def _check_online(self, inst):
        def check(text):
            checks.check_online(text, inst.n, inst.m, lambda j, path, tau: checks.check_path(inst, j, path, tau))

        return check


class AdaptiveExact(Workload):
    name = "adaptive-exact"
    why = (
        "offline_related n=48 m=20 x2 + adaptive simulate_policy, oracle-policy simulation on "
        "the gap instance, cfgbal oracle opt/restart on 160 tiny instances"
    )
    warmup = "simulate-oracle-policy"
    RELATED, RELATED_N, RELATED_M, POLICY_TRIALS, GAP_TRIALS, TINY = 2, 48, 20, 600, 1000, 160

    def generate(self):
        self.relateds = [
            gen.related_instance(self.seed, k, self.RELATED_N, self.RELATED_M, tag=gen.TAG_ADAPTIVE)
            for k in range(self.RELATED)
        ]
        self.gap = gen.gap_instance(self.seed)
        self.gap_tau = float(self.gap.jobs[0].support[-1][0])
        self.gap_oracle = oracle.AdaptiveOracle(self.gap)
        self.gap_oracle.value()
        self.tiny = gen.tiny_suite(self.seed, self.TINY)
        self.offline_results = {}
        self.opt_values = {}
        return {f"tiny{k}.json": inst for k, inst in enumerate(self.tiny)}

    def build_ops(self):
        ops = []
        for k in range(self.RELATED):
            ops += [self._offline_related(k), self._policy_sim(k)]
        ops.append(self._gap_sim())
        for k, inst in enumerate(self.tiny):
            ops += self._oracle_ops(k, inst)
        return ops

    def _offline_related(self, k):
        def run():
            return offline.offline_related(self.relateds[k], simulate.request_stream(self.seed, k))

        def finish(raw):
            self.offline_results[k] = raw
            return repr(raw[1].as_dict()), raw

        def check(raw):
            policy, report = raw
            checks.require(policy is not None, f"no policy: lp_status {report.lp_status}")
            checks.check_offline_related(policy.instance, report)

        return Op(f"offline-related[{k}]", "solve", 1, run, finish, check)

    def _policy_sim(self, k):
        def run():
            policy, report = self.offline_results[k]
            return simulate.simulate_policy(policy.instance, policy, self.POLICY_TRIALS, self.seed, tau=report.tau)

        def check(rep):
            policy, report = self.offline_results[k]
            checks.check_simulation_groups(policy, rep, report.opt_lower_bound)
            return rep.mean_makespan / report.opt_lower_bound

        return Op(f"simulate-policy[{k}]", "sim", self.POLICY_TRIALS, run, _as_dict_key, check)

    def _gap_sim(self):
        def run():
            return simulate.simulate_adaptive_config(
                self.gap_oracle.inst, self.gap_oracle.policy(), self.GAP_TRIALS, self.seed, tau=self.gap_tau
            )

        def check(rep):
            exact = checks.brute_force_opt(self.gap)
            checks.check_oracle_simulation(rep, exact)
            return rep.mean_makespan / float(exact)

        return Op("simulate-oracle-policy", "sim", self.GAP_TRIALS, run, _as_dict_key, check)

    def _oracle_ops(self, k, inst):
        path = self.path(f"tiny{k}.json")

        def after(text):
            self.opt_values[k] = Fraction(checks.parse_report(text)["expected_makespan"])

        def check_opt(text):
            checks.check_oracle_opt(inst, text)

        def restart_argv():
            return ["oracle", "--in", path, "--what", "restart", "--tau", str(2 * self.opt_values[k])]

        def check_restart(text):
            opt = self.opt_values[k]
            return float(checks.check_oracle_restart(opt, text) / opt)

        return [
            self.cli_op(f"oracle-opt[{k}]", "oracle", 1, ["oracle", "--in", path, "--what", "opt"],
                        f"opt{k}.txt", check_opt, after=after),
            self.cli_op(f"oracle-restart[{k}]", "oracle", 0, restart_argv, f"restart{k}.txt", check_restart),
        ]


def _as_dict_key(rep):
    return repr(rep.as_dict()), rep


class Combined(Workload):
    """Two of the workloads above, each in its own subdirectory, with their
    ops in one round: fewer, longer runs average over more of the shared
    host's slow and fast stretches than four short ones."""

    parts = ()

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.members = [cls(seed, os.path.join(workdir, cls.name)) for cls in self.parts]

    def setup(self):
        written = []
        for member in self.members:
            os.makedirs(member.workdir, exist_ok=True)
            written += member.setup()
        self.ops = [op for member in self.members for op in member.ops]
        return written


class LpRouting(Combined):
    name = "lp-routing"
    why = (
        "offline-lp (unrelated n=50 m=10 x6, offline config + simulate) and routing-grid (32 5x5 "
        "grids, offline n=3 each, online n=100 on 4): LP_C, HiGHS, column generation, graphs"
    )
    warmup = "online-routing[0]"
    parts = (OfflineLP, RoutingGrid)


class OnlineExact(Combined):
    name = "online-exact"
    why = (
        "online-stream (online config n=250 x4, related n=500 x4) and adaptive-exact "
        "(offline_related + adaptive simulation, oracle policy, 160 tiny oracle instances)"
    )
    warmup = "simulate-oracle-policy"
    parts = (OnlineStream, AdaptiveExact)


WORKLOADS = {w.name: w for w in (LpRouting, OnlineExact)}
