"""Offline drivers: threshold search, LP rounding, routing, related machines.

The configuration and routing drivers binary-search the smallest tau with a
feasible LP, round the solution the search found at that tau by one
independent categorical draw per request, and report the expected loads of
the rounded assignment. An infeasible LP at a threshold t certifies
E[OPT] > t / 2; the search's last infeasible midpoint is at least
tau * (1 - eps), so the report carries tau * (1 - eps) / 2 as a lower bound.
"""

from __future__ import annotations

import numpy as np

from .distributions import ValidationError, check_tau
from .instances import (
    RoutingRequestView,
    related_to_unrelated,
    smooth_machines,
    unrelated_to_config,
)
from .lp import min_feasible_tau, min_feasible_tau_routing


class OfflineReport:
    """Outcome of an offline run: threshold, LP status, the rounded
    assignment, and the expected loads recomputed from that assignment."""

    __slots__ = (
        "tau",
        "lp_status",
        "assignment",
        "truncated_loads",
        "exceptional_total",
        "opt_lower_bound",
    )

    def __init__(self, tau, lp_status, assignment, truncated_loads, exceptional_total, opt_lower_bound):
        self.tau = tau
        self.lp_status = lp_status
        self.assignment = assignment
        self.truncated_loads = truncated_loads
        self.exceptional_total = exceptional_total
        self.opt_lower_bound = opt_lower_bound

    def as_dict(self):
        return {
            "tau": self.tau,
            "lp_status": self.lp_status,
            "assignment": {str(k): _choice_repr(v) for k, v in self.assignment.items()},
            "truncated_loads": list(self.truncated_loads),
            "exceptional_total": self.exceptional_total,
            "opt_lower_bound": self.opt_lower_bound,
        }


def _choice_repr(choice):
    if isinstance(choice, tuple):
        return list(choice)
    return choice


def randomized_round(sol, rng):
    """Independent categorical draw per request with the LP weights."""
    assignment = {}
    for j, entries in sorted(sol.items()):
        total = sum(w for _, w in entries)
        if total <= 0:
            raise ValueError(f"request {j}: fractional weights sum to {total}")
        u = rng.random() * total
        acc = 0.0
        choice = entries[-1][0]
        for c, w in entries:
            acc += w
            if u < acc:
                choice = c
                break
        assignment[j] = choice
    return assignment


def assignment_loads(inst, assignment, tau):
    """Expected truncated load per resource and total expected exceptional
    load of a fixed assignment."""
    check_tau(tau)
    loads = [0.0] * inst.m
    exc = 0.0
    for j, req in enumerate(inst.requests):
        exceptional, truncated = req.configs[assignment[j]].tails(tau)
        for i, v in truncated:
            loads[i] += float(v)
        exc += float(exceptional)
    return loads, exc


def offline_config_balancing(inst, rng, eps=1e-3):
    """Algorithm: binary-search tau* over LP_C, round its solution
    independently."""
    tau, sol = min_feasible_tau(inst, eps=eps)
    if tau <= 0:
        # every request has a zero-cost configuration
        assignment = {
            j: min(range(len(r.configs)), key=lambda c: float(r.configs[c].expected_max()))
            for j, r in enumerate(inst.requests)
        }
        return OfflineReport(0.0, "trivial", assignment, [0.0] * inst.m, 0.0, 0.0)
    assignment = randomized_round(sol, rng)
    loads, exc = assignment_loads(inst, assignment, tau)
    return OfflineReport(tau, "feasible", assignment, loads, exc, tau * (1.0 - eps) / 2.0)


def routing_assignment_loads(r, assignment, tau):
    """Per-edge expected truncated load and total expected exceptional load
    of fixed paths."""
    loads = [0.0] * r.m
    exc = 0.0
    for j, path in assignment.items():
        view = RoutingRequestView(r, j, tau)
        exc += view.exceptional(path)
        for e in path:
            loads[e] += view.truncated[e]
    return loads, exc


def offline_routing(r, rng, eps=1e-3):
    """Offline routing: tau search via column generation, then independent
    rounding of the path weights the search found at tau."""
    tau, sol = min_feasible_tau_routing(r, eps=eps)
    if tau <= 0:
        raise ValidationError("degenerate routing instance with zero demand")
    assignment = randomized_round(sol, rng)
    loads, exc = routing_assignment_loads(r, assignment, tau)
    return OfflineReport(tau, "feasible", assignment, loads, exc, tau * (1.0 - eps) / 2.0)


class GroupListSchedulePolicy:
    """Adaptive policy for related machines: the non-adaptive assignment
    fixes a group per job; execution sends each job to the group machine
    with the least realized truncated load (lowest id on ties).

    Comparing truncated loads (values at or above tau do not count) is what
    makes the per-trace averaging bound hold: the chosen machine's truncated
    load is at most the group average before the job lands. Machine ids are
    indices into the smoothed instance attached as .instance.
    """

    def __init__(self, instance, group_machines, group_of_job, tau):
        self.instance = instance
        self.group_machines = [tuple(ids) for ids in group_machines]
        self.group_of_job = dict(group_of_job)
        self.tau = float(tau)

    def schedule(self, inst, trials, size_of):
        """Yield (job, machine per trial, size per trial) for the jobs of a
        related instance in arrival order, in every trial at once.
        size_of(j) gives job j's realized size per trial; the machine is the
        argmin over the trials x group truncated loads (first occurrence
        over sorted ids, so ties go to the lowest id)."""
        speeds = np.array([float(s) for s in inst.speeds])
        groups = [np.array(sorted(ids), dtype=np.intp) for ids in self.group_machines]
        rows = np.arange(trials)
        trunc = np.zeros((trials, inst.m))
        for j in range(inst.n):
            ids = groups[self.group_of_job[j]]
            machine = ids[np.argmin(trunc[:, ids], axis=1)]
            size = size_of(j)
            scaled = size / speeds[machine]
            trunc[rows, machine] += np.where(scaled < self.tau, scaled, 0.0)
            yield j, machine, size

    def simulate(self, sim):
        """Run in every trial of a cfgbal.simulate.Trials at once."""
        jobs = sim.inst.jobs
        for j, machine, size in self.schedule(sim.inst, sim.trials, lambda j: sim.realized(j, jobs[j])):
            sim.commit_each(j, machine, size)

    def run(self, inst, realize):
        """Execute one trace on a related instance; realize(j, law) ->
        realized size X_j. Returns [(job, machine, realized size)] in
        arrival order."""
        steps = self.schedule(inst, 1, lambda j: np.array([float(realize(j, inst.jobs[j]))]))
        return [(j, int(machine[0]), float(size[0])) for j, machine, size in steps]


def offline_related(r, rng, eps=1e-3):
    """Offline related machines: smooth, reduce, run the configuration
    driver for a job-to-machine map, then list-schedule adaptively inside
    the assigned machine's speed group. Returns (policy, report); the policy
    executes on the smoothed instance (policy.instance)."""
    smoothed, surviving = smooth_machines(r)
    reduced = unrelated_to_config(related_to_unrelated(surviving))
    report = offline_config_balancing(reduced, rng, eps=eps)
    if report.lp_status != "feasible":
        return None, report
    group_machines = [ids for _, _, ids in smoothed.renumbered()]
    group_of_machine = {}
    for g, ids in enumerate(group_machines):
        for i in ids:
            group_of_machine[i] = g
    group_of_job = {j: group_of_machine[c] for j, c in report.assignment.items()}
    policy = GroupListSchedulePolicy(
        surviving, group_machines, group_of_job, max(report.tau, 1e-12)
    )
    return policy, report
