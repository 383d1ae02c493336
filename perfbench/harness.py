"""Runs one workload: set-up, measured rounds, checks, metrics, traced round."""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import checks
import spans
import workloads

SETUP_REPEATS = 3
MIN_ROUNDS = 3
# op time between two reference calls, and the reference call's median
# time in a quiet stretch of a 2 vCPU Intel Xeon VM (Python 3.11)
REF_EVERY_S = 0.1
REF_QUIET_S = 0.006

_REF_ROWS = json.dumps([{"id": i, "w": [i * 0.5, i % 7, str(i)]} for i in range(3000)])


def thread_count():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


class Runner:
    """Runs ops, times them, checks each distinct output once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.durations = {}
        self.verdicts = {}
        self.ratios = {}
        self.reported = set()

    def run_op(self, op, tracer=None):
        """Run one op; returns its wall time (the timed region only)."""
        self.attempted += 1
        error = None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            raw = tracer.root(op.name, op.run) if tracer else op.run()
        except Exception:
            error = traceback.format_exc(limit=3)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
        self.durations.setdefault(op.name, []).append(dt)
        if error is None:
            error = self._check(op, raw)
        if error is not None:
            self.failed += 1
            if (op.name, error) not in self.reported:
                self.reported.add((op.name, error))
                print(f"FAILED {op.name}: {error.strip()}", file=sys.stderr)
        return dt

    def _check(self, op, raw):
        """None, or why the op failed; an output seen before reuses its verdict."""
        try:
            key, payload = op.finish(raw)
            seen = (op.name, key)
            if seen not in self.verdicts:
                try:
                    self.verdicts[seen] = (None, op.check(payload) if op.check else None)
                except checks.CheckFailed as exc:
                    self.verdicts[seen] = (f"check: {exc}", None)
        except checks.CheckFailed as exc:
            return f"check: {exc}"
        except Exception:
            return traceback.format_exc(limit=3)
        error, ratio = self.verdicts[seen]
        if ratio is not None:
            self.ratios[op.name] = ratio
        return error


def reference_call():
    """Fixed work in the style of the ops (JSON, dicts, sorting, numpy) that
    no change to cfgbal can alter."""
    rows = json.loads(_REF_ROWS)
    groups = {}
    for row in rows:
        groups.setdefault(row["id"] % 211, []).append(row["w"][0] * 1.5 + row["w"][1])
    ranked = sorted((sum(v), k) for k, v in groups.items())
    a = np.random.default_rng(0).random(100000)
    return ranked[0], float((np.sort(a) + np.cumsum(a))[-1])


def time_reference():
    t0 = time.perf_counter()
    reference_call()
    return time.perf_counter() - t0


def measure(workload, runner, seconds):
    """Closed-loop rounds for `seconds` (at least MIN_ROUNDS), with a
    reference call after every REF_EVERY_S of op time; returns the per-round
    wall times (sum of the ops' timed regions) and the reference times."""
    runner.durations.clear()
    rounds, refs = [], [time_reference()]
    since = 0.0
    t0 = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - t0 < seconds:
        total = 0.0
        for op in workload.ops:
            dt = runner.run_op(op)
            total += dt
            since += dt
            if since >= REF_EVERY_S:
                refs.append(time_reference())
                since = 0.0
        rounds.append(total)
    return rounds, refs


def round_wall(workload, runner):
    """Wall time of one round, as the sum of each op's median time: the
    per-op median shrugs off a burst that hits a single round."""
    return sum(statistics.median(runner.durations[op.name]) for op in workload.ops)


def host_slowdown(refs):
    """How much slower than in a quiet stretch the host ran during the
    rounds: the median reference call over REF_QUIET_S. Other tenants slow
    every call by up to 1.7x for stretches as long as a whole run, and the
    reference calls with them."""
    return statistics.median(refs) / REF_QUIET_S


def end_to_end(workload, runner, import_s, setup_times, refs):
    # mean per kind of op (name without its [index]), then the geometric
    # mean across kinds, so 160 oracle instances do not drown two LP policies
    by_kind = {}
    for op in workload.ops:
        if op.name in runner.ratios:
            by_kind.setdefault(op.name.split("[")[0], []).append(runner.ratios[op.name])
    ratios = [statistics.fmean(values) for values in by_kind.values()]
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "wall_norm_s": round_wall(workload, runner) / host_slowdown(refs),
        "makespan_ratio": math.exp(statistics.fmean(map(math.log, ratios))) if ratios else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def throughputs(workload, runner):
    """Throughput figures per op kind: (name, value, unit, samples)."""
    out = []
    kinds = {}
    for op in workload.ops:
        kinds.setdefault(op.kind, []).append(op)
    if "solve" in kinds:
        solves = [d for op in kinds["solve"] for d in runner.durations.get(op.name, [])]
        out.append(("solve_s", statistics.median(solves), "s", len(solves)))
    for kind, name in (("online", "online_req_per_s"), ("sim", "sim_trials_per_s"),
                       ("oracle", "oracle_solves_per_s")):
        if kind not in kinds:
            continue
        units = sum(op.units * len(runner.durations.get(op.name, [])) for op in kinds[kind])
        secs = sum(sum(runner.durations.get(op.name, [])) for op in kinds[kind])
        samples = sum(len(runner.durations.get(op.name, [])) for op in kinds[kind])
        out.append((name, units / secs if secs else 0.0, "1/s", samples))
    return out


def unit_of(spec, group, name):
    return next((m["unit"] for m in spec[group] if m["name"] == name), "?")


def run_workload(root, name, seed, seconds, trace, spec, import_s):
    cls = workloads.WORKLOADS[name]
    workdir = root / ".perfbench" / f"{name}-s{seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner()
    try:
        wl = cls(seed, str(workdir))
        setup_times, digests = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            files = wl.setup()
            gen_s = time.perf_counter() - t0
            warmup = next(op for op in wl.ops if op.name == wl.warmup)
            setup_times.append(gen_s + runner.run_op(warmup))
            digests.append(workloads.file_digest(files))
        runner.attempted += 1
        if len(set(digests)) != 1:
            runner.failed += 1
            print("FAILED setup: instance files differ between set-ups of one seed", file=sys.stderr)
        rounds, refs = measure(wl, runner, seconds)
        e2e = end_to_end(wl, runner, import_s, setup_times, refs)
        wall_s = round_wall(wl, runner)
        extra = [
            ("import_s", import_s, "s", 1),
            ("wall_s", wall_s, "s", len(rounds)),
            ("host_slowdown", host_slowdown(refs), "1", len(refs)),
            ("round_min_s", min(rounds), "s", len(rounds)),
            ("round_max_s", max(rounds), "s", len(rounds)),
        ]
        extra += throughputs(wl, runner)
        extra.append(("failed_ratio", runner.failed / runner.attempted, "1", runner.attempted))
        extra.append(("threads", thread_count(), "count", 1))
        layers = traced_round(root, wl, runner, wall_s, seed) if trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = {"wall_norm_s": len(rounds), "setup_s": len(setup_times)}
    rows = [(k, v, unit_of(spec, "end_to_end", k), samples.get(k, 1)) for k, v in e2e.items()]
    rows += extra
    if layers is not None:
        rows += [(k, v, unit_of(spec, "per_layer", k), 1) for k, v in sorted(layers.items())]
    for key, value, unit, n in rows:
        print(f"{name:15s} {key:28s} {value:14.6g} {unit:6s} n={n}")
    group, metrics = ("per_layer", layers) if trace else ("end_to_end", e2e)
    units = {m["name"]: m["unit"] for m in spec[group]}
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json {group}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in metrics},
    }


def traced_round(root, wl, runner, untraced_wall, seed):
    """One traced set-up and round after the measured ones."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.root("setup", wl.setup)
    finally:
        tracer.uninstall()
    traced_wall = sum(runner.run_op(op, tracer) for op in wl.ops)
    metrics = tracer.layer_metrics()
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.self_share"] = sum(tracer.self_times().values()) / tracer.root_time()
    metrics["process.threads"] = thread_count()
    out = root / ".perfbench" / "traces"
    out.mkdir(parents=True, exist_ok=True)
    tracer.save(out / f"{wl.name}-s{seed}.npz")
    return metrics
