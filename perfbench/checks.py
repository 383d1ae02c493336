"""Correctness checks on the outputs of benchmark operations.

Each check reads what the program produced (a report file's text or a
library result), recomputes the claim independently where it can, and
raises CheckFailed when the claim does not hold. Checks run outside the
timed region. LP certificates are re-solved with the library's LP solver;
loads, expectations and exact oracle values are recomputed here.
"""

from __future__ import annotations

import ast
import math
import re
from fractions import Fraction

from cfgbal import lp as cfg_lp
from cfgbal.instances import (
    ConfigInstance,
    RelatedInstance,
    related_to_unrelated,
    unrelated_to_config,
)

LOAD_RTOL = 1e-9
CAP_ATOL = 1e-9


class CheckFailed(AssertionError):
    """An operation's output failed a correctness check."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# parsing


def parse_report(text):
    """`key: value` lines of a CLI report, in order."""
    out = {}
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        key, sep, value = line.partition(": ")
        require(sep, f"malformed report line {line!r}")
        out[key] = value
    return out


def parse_offline(text):
    rep = parse_report(text)
    choices = {}
    loads = {}
    for key, value in rep.items():
        if key.startswith("choice_"):
            choices[int(key[7:])] = ast.literal_eval(value)
        elif key.startswith("truncated_load_"):
            loads[int(key[15:])] = float(value)
    return {
        "tau": float(rep["tau"]),
        "lp_status": rep["lp_status"],
        "opt_lower_bound": float(rep["opt_lower_bound"]),
        "choices": choices,
        "loads": [loads[i] for i in range(len(loads))],
    }


_RECORD = re.compile(r"phase=(\d+) lambda=(\S+) choice=(.*?) proxy=(.*) dphi=(\S+)$")


def parse_online(text):
    """(final_lambda, phases, [(request, phase, lambda, choice, proxy dict)])."""
    rep = parse_report(text)
    records = []
    for key, value in rep.items():
        if not key.startswith("request_"):
            continue
        match = _RECORD.match(value)
        require(match, f"malformed online record {value!r}")
        phase, lam, choice, proxy, _ = match.groups()
        proxy = ast.literal_eval(proxy)
        if isinstance(proxy, tuple):
            proxy = dict(enumerate(proxy))
        records.append((int(key[8:]), int(phase), float(lam), ast.literal_eval(choice), proxy))
    return float(rep["final_lambda"]), int(rep["phases"]), records


def parse_simulation_csv(text):
    header, row = text.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    loads = [float(fields[f"load_{i}"]) for i in range(len(fields) - 5)]
    return {
        "trials": int(fields["trials"]),
        "mean_makespan": float(fields["mean_makespan"]),
        "stderr": float(fields["stderr"]),
        "loads": loads,
    }


# ---------------------------------------------------------------------------
# moments of discrete laws, in floats


def law_mean(law):
    return sum(float(v) * float(p) for v, p in law.support)


def law_var(law):
    mu = law_mean(law)
    return sum(float(p) * (float(v) - mu) ** 2 for v, p in law.support)


def scaled_truncated_mean(law, factor, tau):
    """E[(factor X) 1{factor X < tau}], scaling values the way the library does."""
    total = 0.0
    for v, p in law.support:
        x = v * factor
        if x < tau:
            total += x * p
    return float(total)


# ---------------------------------------------------------------------------
# offline


def check_lp_certificate(feasible_at, tau, lower_bound):
    """Feasible at the reported tau and infeasible at twice the reported
    lower bound; feasible_at(t) -> bool re-solves the program."""
    require(lower_bound > 0, f"opt_lower_bound {lower_bound} is not positive")
    require(feasible_at(tau), f"LP infeasible at the reported tau={tau!r}")
    require(
        not feasible_at(2.0 * lower_bound),
        f"LP feasible at 2*opt_lower_bound={2.0 * lower_bound!r}; the bound is not certified",
    )


def lpc_feasible(config_inst):
    return lambda t: not isinstance(cfg_lp.solve_lpc(config_inst, t), cfg_lp.Infeasible)


def lpp_feasible(routing_inst):
    return lambda t: not isinstance(
        cfg_lp.solve_lpp_column_generation(routing_inst, t), cfg_lp.Infeasible
    )


def check_loads(reported, expected):
    require(len(reported) == len(expected), "truncated load count differs from the resource count")
    for i, (got, want) in enumerate(zip(reported, expected)):
        require(
            abs(got - want) <= LOAD_RTOL * max(abs(want), 1e-300) or got == want,
            f"truncated_load_{i}={got!r} but the choices give {want!r}",
        )


def unrelated_loads(inst, choices, tau):
    loads = [0.0] * inst.m
    for j in sorted(choices):
        loads[choices[j]] += scaled_truncated_mean(inst.jobs[j][choices[j]], 1, tau)
    return loads


def check_offline_unrelated(inst, config_inst, text):
    """Offline config run on an unrelated instance."""
    rep = parse_offline(text)
    require(rep["lp_status"] == "feasible", f"lp_status {rep['lp_status']}")
    choices = rep["choices"]
    require(sorted(choices) == list(range(inst.n)), "not every job has a choice")
    require(all(0 <= c < inst.m for c in choices.values()), "choice out of machine range")
    check_loads(rep["loads"], unrelated_loads(inst, choices, rep["tau"]))
    check_lp_certificate(lpc_feasible(config_inst), rep["tau"], rep["opt_lower_bound"])
    return rep


def check_path(inst, j, path, tau):
    """Admissible simple source-sink edge sequence at threshold tau."""
    source, sink, law = inst.requests[j]
    require(isinstance(path, tuple) and path, f"request {j}: empty path")
    mean = float(law.mean())
    at = source
    seen = {source}
    for e in path:
        require(0 <= e < inst.m, f"request {j}: unknown edge {e}")
        tail, head, cap = inst.edges[e]
        require(tail == at, f"request {j}: edge {e} does not continue the path")
        require(mean / float(cap) <= tau, f"request {j}: edge {e} inadmissible at tau={tau!r}")
        require(head not in seen, f"request {j}: path revisits vertex {head}")
        seen.add(head)
        at = head
    require(at == sink, f"request {j}: path ends at {at}, not {sink}")


def routing_loads(inst, choices, tau):
    loads = [0.0] * inst.m
    for j in sorted(choices):
        law = inst.requests[j][2]
        for e in choices[j]:
            loads[e] += scaled_truncated_mean(law, 1.0 / float(inst.edges[e][2]), tau)
    return loads


def check_offline_routing(inst, text):
    rep = parse_offline(text)
    require(rep["lp_status"] == "feasible", f"lp_status {rep['lp_status']}")
    choices = rep["choices"]
    require(sorted(choices) == list(range(inst.n)), "not every request has a path")
    for j, path in choices.items():
        check_path(inst, j, path, rep["tau"])
    check_loads(rep["loads"], routing_loads(inst, choices, rep["tau"]))
    check_lp_certificate(lpp_feasible(inst), rep["tau"], rep["opt_lower_bound"])
    return rep


def check_offline_related(surviving, report):
    """offline_related's report against the smoothed instance it ran on."""
    require(report.lp_status == "feasible", f"lp_status {report.lp_status}")
    choices = dict(report.assignment)
    require(sorted(choices) == list(range(surviving.n)), "not every job has a machine")
    require(all(0 <= c < surviving.m for c in choices.values()), "machine out of range")
    expected = [0.0] * surviving.m
    for j in sorted(choices):
        i = choices[j]
        expected[i] += scaled_truncated_mean(surviving.jobs[j], 1.0 / float(surviving.speeds[i]), report.tau)
    check_loads(report.truncated_loads, expected)
    reduced = unrelated_to_config(related_to_unrelated(surviving))
    check_lp_certificate(lpc_feasible(reduced), report.tau, report.opt_lower_bound)


# ---------------------------------------------------------------------------
# simulation


def check_mean_within(got, want, var, trials, k, what):
    se = math.sqrt(var / trials)
    require(
        abs(got - want) <= k * se + 1e-12 * max(1.0, abs(want)),
        f"{what}: simulated mean {got!r} is {abs(got - want) / se if se else math.inf:.1f} "
        f"standard errors from the exact {want!r}",
    )


def check_simulation_unrelated(inst, choices, lower_bound, text):
    """Non-adaptive simulate CSV: per-machine means and the makespan bound."""
    sim = parse_simulation_csv(text)
    require(len(sim["loads"]) == inst.m, "load column count differs from the machine count")
    mean = [0.0] * inst.m
    var = [0.0] * inst.m
    for j, i in choices.items():
        mean[i] += law_mean(inst.jobs[j][i])
        var[i] += law_var(inst.jobs[j][i])
    for i in range(inst.m):
        check_mean_within(sim["loads"][i], mean[i], var[i], sim["trials"], 5, f"load_{i}")
    check_makespan_bound(lower_bound, sim["mean_makespan"], sim["stderr"])
    return sim


def check_makespan_bound(lower_bound, mean, stderr):
    require(
        lower_bound <= mean + 4 * stderr,
        f"opt_lower_bound {lower_bound!r} exceeds the simulated makespan {mean!r} + 4 stderr",
    )


def check_simulation_groups(policy, report, lower_bound):
    """Adaptive group list scheduling: each group's speed-weighted load is
    the total size of the jobs assigned to that group."""
    inst = policy.instance
    for g, ids in enumerate(policy.group_machines):
        got = sum(float(inst.speeds[i]) * report.resource_means[i] for i in ids)
        jobs = [j for j, gj in policy.group_of_job.items() if gj == g]
        want = sum(law_mean(inst.jobs[j]) for j in jobs)
        var = sum(law_var(inst.jobs[j]) for j in jobs)
        check_mean_within(got, want, var, report.trials, 5, f"group {g} work")
    check_makespan_bound(lower_bound, report.mean_makespan, report.stderr)


def check_oracle_simulation(report, exact_value):
    tol = 4 * report.stderr + 0.02
    require(
        abs(report.mean_makespan - float(exact_value)) <= tol,
        f"oracle-policy simulation mean {report.mean_makespan!r} is off the exact "
        f"{exact_value} by more than {tol!r}",
    )


# ---------------------------------------------------------------------------
# online


def check_online(text, n, m, check_choice):
    """Every request committed once; per phase, the committed proxies stay
    within ell * 2 lambda on every resource (ell = log_{3/2}(2m + 2)).
    check_choice(request, choice, tau) raises CheckFailed on a bad choice."""
    final_lambda, phases, records = parse_online(text)
    ids = [r[0] for r in records]
    require(sorted(ids) == list(range(n)), "requests are not each committed exactly once")
    require(records[-1][1] == phases - 1, "phase count disagrees with the records")
    require(records[-1][2] == final_lambda, "final_lambda disagrees with the records")
    ell = math.log(2 * m + 2) / math.log(1.5)
    sums = {}
    phase = None
    for request, ph, lam, choice, proxy in records:
        check_choice(request, choice, 2.0 * lam)
        if ph != phase:
            require(phase is None or ph > phase, "phases go backwards")
            phase, sums = ph, {}
        cap = ell * 2.0 * lam + CAP_ATOL
        for i, x in proxy.items():
            sums[i] = sums.get(i, 0.0) + x
            require(sums[i] <= cap, f"phase {ph}: resource {i} load {sums[i]!r} exceeds {cap!r}")
    return {r[0]: r[3] for r in records}


def config_lower_bound(inst):
    """max(max_j min_c E[max_i X_i(c)], sum_j min_c sum_i a_i(c) E[X_c] / m)."""
    biggest = 0.0
    total = 0.0
    for req in inst.requests:
        biggest = max(biggest, min(max(map(float, c.multipliers)) * law_mean(c.law) for c in req.configs))
        total += min(sum(map(float, c.multipliers)) * law_mean(c.law) for c in req.configs)
    return max(biggest, total / inst.m)


# ---------------------------------------------------------------------------
# exact oracle


def exact_options(inst):
    """Per request, its options as (multipliers, support) in Fractions,
    built directly from the instance without the library's reductions."""
    F = Fraction
    if isinstance(inst, ConfigInstance):
        return [
            [([F(a) for a in c.multipliers], [(F(v), F(p)) for v, p in c.law.support]) for c in req.configs]
            for req in inst.requests
        ]
    if isinstance(inst, RelatedInstance):
        inv = [1 / F(s) for s in inst.speeds]
        return [
            [
                ([inv[i] if k == i else F(0) for k in range(inst.m)], [(F(v), F(p)) for v, p in law.support])
                for i in range(inst.m)
            ]
            for law in inst.jobs
        ]
    raise TypeError(f"no brute force for {type(inst).__name__}")


def brute_force_opt(inst):
    """Optimal adaptive E[makespan] by direct recursion over
    (requests left, loads) in exact arithmetic."""
    options = exact_options(inst)
    memo = {}

    def best(left, loads):
        if not left:
            return max(loads)
        key = (left, loads)
        if key not in memo:
            memo[key] = min(
                sum(
                    p * best(left - {j}, tuple(L + a * v for L, a in zip(loads, mults)))
                    for v, p in support
                )
                for j in left
                for mults, support in options[j]
            )
        return memo[key]

    m = len(options[0][0][0])
    return best(frozenset(range(len(options))), (Fraction(0),) * m)


def check_oracle_opt(inst, text):
    rep = parse_report(text)
    value = Fraction(rep["expected_makespan"])
    want = brute_force_opt(inst)
    require(value == want, f"oracle opt {value} but brute force gives {want}")
    return value


def check_oracle_restart(opt, text):
    rep = parse_report(text)
    require(Fraction(rep["tau"]) == 2 * opt, "restart ran at the wrong tau")
    makespan = Fraction(rep["expected_makespan"])
    require(makespan <= 2 * opt, f"restart makespan {makespan} exceeds 2*OPT={2 * opt}")
    require(Fraction(rep["expected_exceptional"]) <= 2 * opt, "restart exceptional load exceeds 2*OPT")
    return makespan
