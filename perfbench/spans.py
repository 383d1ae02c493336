"""Span tracing of cfgbal's public functions, from outside the package.

`Tracer.install()` replaces each public function or method listed in
`TRACE_POINTS` with a wrapper that records one span per call: name, start,
end, parent span and op id. A function is patched in every cfgbal module
namespace that binds it, which is where its callers look it up; methods are
patched on their class. `uninstall()` restores every original. Spans stay in
memory (compact arrays) until `save()` writes them out.

A layer's self time is the time its spans cover minus the time covered by
their child spans, so the layers' self times add up to the traced ops' wall
time. Counters are taken at the same boundaries by per-point hooks.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from cfgbal import (
    cli,
    distributions,
    graphs,
    instance_io,
    instances,
    lp,
    offline,
    online,
    oracle,
    simulate,
)

# layers in self-time order; "highs" is scipy's solver behind cfgbal.lp.linprog
# and "bench" is the benchmark's own op glue
LAYERS = (
    "bench", "cli", "instance_io", "instances", "distributions", "lp", "highs",
    "graphs", "offline", "online", "simulate", "oracle",
)


def _lpc_shape(t, args, result, dur):
    program, _ = result
    t.count["lp.builds"] += 1
    t.count["lp.rows"] += len(program.rows)
    t.count["lp.cols"] += program.n_vars
    t.count["lp.nnz"] += sum(len(coeffs) for coeffs, _, _, _ in program.rows)


def _highs(t, args, result, dur):
    t.count["lp.highs_iters"] += int(result.nit)
    if t.active("lp.solve_lpp_column_generation"):
        t.count["lp.cg_rounds"] += 1
        t.count["lp.cg_master_s"] += dur


def _search_step(t, args, result, dur):
    if t.active("lp.min_feasible_tau") or t.active("offline.min_feasible_tau_routing"):
        t.count["lp.search_calls"] += 1


def _cg_result(t, args, result, dur):
    _search_step(t, args, result, dur)
    if not isinstance(result, lp.Infeasible):
        t.count["lp.cg_solutions"] += 1
        t.count["lp.cg_columns"] += sum(len(entries) for _, entries in result.items())


def _lex_sp(t, args, result, dur):
    t.count["graphs.lex_sp_calls"] += 1
    if t.active("lp.solve_lpp_column_generation"):
        t.count["lp.cg_pricing_s"] += dur


def _counter(name):
    def hook(t, args, result, dur):
        t.count[name] += 1
    return hook


def _step(t, args, result, dur):
    t.samples["online.step_us"].append(dur * 1e6)
    t.count["online.steps"] += 1
    t.count["online.committed"] += result is not None


def _phases(t, args, result, dur):
    t.count["online.runs"] += 1
    t.count["online.phases"] += result.phases


def _list_sched(t, args, result, dur):
    t.samples["offline.list_sched_us"].append(dur * 1e6)


def _adaptive_trials(t, args, result, dur):
    t.count["simulate.adaptive_trials"] += result.trials
    t.count["simulate.adaptive_s"] += dur


def _policy_trials(t, args, result, dur):
    if not isinstance(args[1], simulate.NonAdaptiveAssignment):
        _adaptive_trials(t, args, result, dur)


# (owner, attribute, layer, inclusive-time metric or None, hook or None).
# Inclusive times count outermost calls only, so recursion is not double
# counted.
TRACE_POINTS = (
    (cli, "main", "cli", None, None),
    (instance_io, "read_instance", "instance_io", "instance_io.read_s", None),
    (instance_io, "write_instance", "instance_io", "instance_io.write_s", None),
    (instances, "unrelated_to_config", "instances", "instances.reduce_s", None),
    (instances, "related_to_unrelated", "instances", "instances.reduce_s", None),
    (instances, "smooth_machines", "instances", "instances.smooth_s", None),
    (instances, "routing_to_config", "instances", "instances.views_s", None),
    (distributions.DiscreteDistribution, "scale", "distributions", None, _counter("distributions.scale_calls")),
    (distributions.DiscreteDistribution, "truncated_mean", "distributions", None, _counter("distributions.tail_calls")),
    (distributions.DiscreteDistribution, "exceptional_mean", "distributions", None, _counter("distributions.tail_calls")),
    (lp, "build_lpc", "lp", "lp.build_s", _lpc_shape),
    (lp, "linprog", "highs", "lp.highs_s", _highs),
    (lp, "solve_lpc", "lp", None, _search_step),
    (lp, "min_feasible_tau", "lp", None, _counter("lp.searches")),
    (lp, "solve_lpp_column_generation", "lp", None, _cg_result),
    (graphs, "lex_shortest_path", "graphs", "graphs.lex_sp_s", _lex_sp),
    (graphs, "dijkstra_to_sink", "graphs", "graphs.dijkstra_s", None),
    (graphs, "widest_path_value", "graphs", "graphs.widest_s", None),
    (offline, "offline_config_balancing", "offline", None, None),
    (offline, "offline_routing", "offline", None, None),
    (offline, "offline_related", "offline", None, None),
    (offline, "min_feasible_tau_routing", "offline", None, _counter("lp.searches")),
    (offline, "randomized_round", "offline", "offline.round_s", None),
    (offline, "assignment_loads", "offline", "offline.loads_s", None),
    (offline, "routing_assignment_loads", "offline", "offline.loads_s", None),
    (offline.GroupListSchedulePolicy, "run", "offline", None, _list_sched),
    (online, "guess_and_double", "online", None, _phases),
    (online, "request_proxies", "online", "online.proxy_s", None),
    (online, "related_group_proxies", "online", "online.proxy_s", None),
    (online.ConfigBalancer, "step", "online", None, _step),
    (online.RelatedBalancer, "step", "online", None, _step),
    (online.RouteBalancer, "step", "online", None, _step),
    (simulate, "uniform_table", "simulate", "simulate.uniform_s", None),
    (simulate, "law_quantiles", "simulate", "simulate.quantile_s", None),
    (simulate, "simulate_policy", "simulate", None, _policy_trials),
    (simulate, "simulate_adaptive_config", "simulate", None, _adaptive_trials),
    (oracle.AdaptiveOracle, "value", "oracle", None, _counter("oracle.value_calls")),
    (oracle, "evaluate_policy", "oracle", "oracle.eval_s", None),
    (oracle.RestartPolicy, "value", "oracle", "oracle.eval_s", None),
)


def _owner_label(owner):
    name = owner.__name__
    return name.rsplit(".", 1)[-1] if isinstance(owner, types.ModuleType) else name


class Tracer:
    """Spans and counters of one traced run; see the module docstring."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.stack = []
        self.op_id = -1
        self.depth = defaultdict(int)
        self.count = defaultdict(float)
        self.inclusive = defaultdict(float)
        self.samples = defaultdict(list)
        self._patch_list = None
        self._roots = {}

    # -- recording ----------------------------------------------------------

    def _intern(self, name, layer):
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def active(self, name):
        return self.depth[name] > 0

    def root(self, label, fn):
        """Run fn() as a new op: a root span of the "bench" layer."""
        nid = self._roots.get(label)
        if nid is None:
            nid = self._roots[label] = self._intern(label, "bench")
        self.op_id += 1
        idx = len(self.start)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(-1)
        self.op.append(self.op_id)
        self.stack.append(idx)
        try:
            return fn()
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, layer, metric, hook, fn):
        nid = self._intern(name, layer)
        depth = self.depth
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            stack.append(idx)
            depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.end[idx] = end
                stack.pop()
                depth[name] -= 1
            dur = end - self.start[idx]
            if metric and not depth[name]:
                self.inclusive[metric] += dur
            if hook:
                hook(self, args, result, dur)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def _patches(self):
        """(owner, attribute, original, wrapper) for every binding to patch;
        built once, so repeated installs share span names."""
        if self._patch_list is None:
            modules = [m for n, m in sys.modules.items() if n == "cfgbal" or n.startswith("cfgbal.")]
            self._patch_list = []
            for owner, attr, layer, metric, hook in TRACE_POINTS:
                name = f"{_owner_label(owner)}.{attr}"
                if isinstance(owner, type):
                    original = owner.__dict__[attr]
                    bindings = [(owner, attr)]
                else:
                    original = getattr(owner, attr)
                    bindings = [
                        (module, key)
                        for module in modules
                        for key, value in vars(module).items()
                        if value is original
                    ]
                wrapped = self._wrap(name, layer, metric, hook, original)
                self._patch_list += [(o, a, original, wrapped) for o, a in bindings]
        return self._patch_list

    def install(self):
        for owner, attr, _, wrapped in self._patches():
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._patches():
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        return start, end, name, parent

    def self_times(self):
        """{layer: self seconds}; a span's self time is its duration minus
        its children's durations (children never overlap in one thread)."""
        start, end, name, parent = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        layer_ids = np.array([LAYERS.index(layer) for layer in self.layer_of], dtype=np.int64)
        per_layer = np.bincount(layer_ids[name], weights=own, minlength=len(LAYERS))
        return dict(zip(LAYERS, per_layer.tolist()))

    def root_time(self):
        start, end, _, parent = self.arrays()
        roots = parent < 0
        return float((end[roots] - start[roots]).sum())

    def layer_metrics(self):
        """Per-layer metrics of everything recorded so far."""
        c = self.count
        selfs = self.self_times()
        out = {f"{layer}.self_s": selfs[layer] for layer in LAYERS if layer != "highs"}
        for metric in (
            "instance_io.read_s", "instance_io.write_s", "instances.reduce_s",
            "instances.smooth_s", "instances.views_s", "lp.build_s", "lp.highs_s",
            "graphs.lex_sp_s", "graphs.dijkstra_s", "graphs.widest_s",
            "offline.round_s", "offline.loads_s", "online.proxy_s",
            "simulate.uniform_s", "simulate.quantile_s", "oracle.eval_s",
        ):
            out[metric] = self.inclusive[metric]
        for metric in (
            "distributions.scale_calls", "distributions.tail_calls", "lp.highs_iters",
            "lp.cg_rounds", "lp.cg_master_s", "lp.cg_pricing_s", "graphs.lex_sp_calls",
            "oracle.value_calls",
        ):
            out[metric] = c[metric]
        out["lp.search_steps"] = _ratio(c["lp.search_calls"], c["lp.searches"])
        out["lp.rows"] = _ratio(c["lp.rows"], c["lp.builds"])
        out["lp.cols"] = _ratio(c["lp.cols"], c["lp.builds"])
        out["lp.nnz"] = _ratio(c["lp.nnz"], c["lp.builds"])
        out["lp.cg_columns"] = _ratio(c["lp.cg_columns"], c["lp.cg_solutions"])
        steps = self.samples["online.step_us"]
        out["online.step_us.p50"] = float(np.percentile(steps, 50)) if steps else 0.0
        out["online.step_us.p99"] = float(np.percentile(steps, 99)) if steps else 0.0
        out["online.phases"] = _ratio(c["online.phases"], c["online.runs"])
        out["online.useful_ratio"] = _ratio(c["online.committed"], c["online.steps"])
        sched = self.samples["offline.list_sched_us"]
        out["offline.list_sched_us"] = float(np.mean(sched)) if sched else 0.0
        out["simulate.trial_us"] = 1e6 * _ratio(c["simulate.adaptive_s"], c["simulate.adaptive_trials"])
        return out

    def save(self, path):
        start, end, name, parent = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            name=name,
            start=start,
            end=end,
            parent=parent,
            op=np.frombuffer(self.op, dtype=np.int64),
        )


def _ratio(num, den):
    return float(num) / den if den else 0.0

