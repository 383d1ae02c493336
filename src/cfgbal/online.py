"""Online algorithms built around the exponential potential function.

The potential of a load vector L (entry 0 is the virtual exceptional
resource) at threshold tau is sum_i (3/2)^(L_i / tau). Each arriving request
commits the configuration minimizing the potential increase of its
deterministic proxy, a list of (index, x) increments to the load vector; a
commitment that would push any entry past ell * tau (ell = log_{3/2}(2m + 2))
is refused, certifying E[OPT] > lambda. The guess-and-double wrapper turns
that certificate into a parameter-free algorithm. Proxy loads are
expectations; realized loads never enter the potential.
"""

from __future__ import annotations

import heapq
import math

from .distributions import ValidationError, check_tau
from .instances import RoutingRequestView, check_float_loads, smooth_machines


def potential(loads, tau):
    """sum_i (3/2)^(L_i / tau)."""
    check_tau(tau)
    t = float(tau)
    return sum(1.5 ** (float(L) / t) for L in loads)


class PotentialState:
    """Load vector (virtual resource first), threshold tau = 2 lambda, and
    the per-entry capacity bound ell = log_{3/2}(2m + 2)."""

    __slots__ = ("loads", "tau", "ell")

    def __init__(self, loads, tau, ell):
        self.loads = list(loads)
        self.tau = tau
        self.ell = ell

    @classmethod
    def fresh(cls, m, lam):
        """Zero loads at the guess lam; ValidationError when tau = 2 * lam
        is not a positive finite float (at tau = inf every potential term
        is 1 and the cap never binds)."""
        tau = 2.0 * float(lam)
        if not math.isfinite(tau):
            raise ValidationError(f"threshold 2 * lambda for the guess lambda = {lam!r} is not a finite float")
        check_tau(tau)
        ell = math.log(2 * m + 2) / math.log(1.5)
        return cls([0.0] * (m + 1), tau, ell)

    def phi(self):
        return potential(self.loads, self.tau)

    def admit(self, increments):
        """The state after adding each (index, x) of increments, or None
        (Fail) when some entry would exceed ell * tau."""
        loads = list(self.loads)
        cap = self.ell * self.tau
        for i, x in increments:
            loads[i] += x
            if loads[i] > cap:
                return None
        return PotentialState(loads, self.tau, self.ell)


def delta_phi(loads, tau, increments):
    """Potential increase from adding each (index, x) of increments to the
    loads; math.inf when a term overflows, since that entry is then far past
    ell * tau and admit refuses it."""
    t = float(tau)
    inc = 0.0
    for i, x in increments:
        if x:
            L = loads[i]
            try:
                inc += 1.5 ** ((L + x) / t) - 1.5 ** (L / t)
            except OverflowError:
                return math.inf
    return inc


def argmin_step(state, proxies):
    """Pick the proxy minimizing delta-phi (ties to the lowest index) and
    commit it unless some entry would exceed ell * tau.

    Returns (index, dphi, new_state, increments) with increments the
    admitted proxy, or None as the Fail verdict.
    """
    best = None
    for idx, proxy in enumerate(proxies):
        d = delta_phi(state.loads, state.tau, proxy)
        if best is None or d < best[1]:
            best = (idx, d)
    idx, d = best
    new = state.admit(proxies[idx])
    if new is None:
        return None
    return idx, d, new, proxies[idx]


def request_proxies(request, tau):
    """Deterministic proxies of a request's configurations at threshold tau
    as (index, x) increments in floats: each configuration's exceptional
    part on the virtual resource 0 and its truncated means on resources
    i + 1, as Configuration.tails prices them."""
    proxies = []
    for config in request.configs:
        exceptional, truncated = config.tails(tau)
        proxies.append([(0, float(exceptional))] + [(i + 1, float(v)) for i, v in truncated])
    return proxies


def online_step(state, request):
    """One step of online configuration balancing: (config index, dphi, new
    state, increments), or None for Fail (certifying E[OPT] > lambda =
    tau / 2)."""
    return argmin_step(state, request_proxies(request, state.tau))


class TraceRecord:
    __slots__ = ("request", "phase", "lam", "choice", "proxy", "dphi")

    def __init__(self, request, phase, lam, choice, proxy, dphi):
        self.request = request
        self.phase = phase
        self.lam = lam
        self.choice = choice
        self.proxy = proxy
        self.dphi = dphi


class OnlineRun:
    __slots__ = ("records", "state", "final_lambda", "phases")

    def __init__(self, records, state, final_lambda, phases):
        self.records = records
        self.state = state
        self.final_lambda = final_lambda
        self.phases = phases


def guess_and_double(stream, inner):
    """Doubling wrapper: run the inner algorithm at guess lambda; on Fail,
    double lambda, reset the load vector (committed choices stand) and
    re-offer the failing request. The initial guess is the cheapest expected
    cost any policy could pay for the first request; a zero guess is bumped
    to the first positive cost in the stream, else 1.0 (a Fail at
    lambda = 0 would otherwise never escape the doubling).

    stream holds (request id, request) pairs; each record carries the id.
    The inner algorithm provides m, min_expected_cost(request) and
    step(state, request), which returns (choice, dphi, new state,
    increments) or None on Fail; each record keeps the admitted increments
    as its proxy."""
    stream = list(stream)
    if not stream:
        raise ValidationError("empty request stream")
    lam = inner.min_expected_cost(stream[0][1])
    if lam <= 0:
        costs = (inner.min_expected_cost(request) for _, request in stream)
        lam = next((v for v in costs if v > 0), 1.0)
    state = PotentialState.fresh(inner.m, lam)
    records = []
    phase = 0
    idx = 0
    while idx < len(stream):
        request_id, request = stream[idx]
        step = inner.step(state, request)
        if step is None:
            lam = 2.0 * lam
            phase += 1
            state = PotentialState.fresh(inner.m, lam)
            continue
        choice, dphi, state, proxy = step
        records.append(TraceRecord(request_id, phase, lam, choice, proxy, dphi))
        idx += 1
    return OnlineRun(records, state, lam, phase + 1)


class ConfigBalancer:
    """Inner algorithm for online configuration balancing (explicit
    configurations)."""

    def __init__(self, m):
        self.m = m

    def min_expected_cost(self, request):
        return min(float(c.expected_max()) for c in request.configs)

    def step(self, state, request):
        return online_step(state, request)


def run_online_config(inst):
    """Online configuration balancing with guess-and-double; the produced
    assignment is non-adaptive (proxies are expectations)."""
    return guess_and_double([(r.id, r) for r in inst.requests], ConfigBalancer(inst.m))


# ---------------------------------------------------------------------------
# related machines


def related_group_proxies(groups, law, tau):
    """Proxies of the group configurations as (index, x) increments:
    choosing group c puts the job's exceptional part (at speed s_c) on the
    virtual resource and 1/m_c of its truncated part on resource c + 1."""
    proxies = []
    for c, (speed, count, _) in enumerate(groups):
        factor = 1.0 / float(speed)
        exc = float(law.exceptional_mean(tau, factor))
        trunc = float(law.truncated_mean(tau, factor))
        proxies.append([(0, exc), (c + 1, trunc / count)])
    return proxies


class RelatedBalancer:
    """Inner algorithm for online related-machine load balancing: group
    choice via the potential over m' + 1 resources, list scheduling inside
    the chosen group.

    List scheduling compares realized truncated loads at the current
    threshold (values at or above tau stay out of the comparison, mirroring
    the averaging argument that bounds per-machine truncated load) and
    sends the job to the group machine of least (load, id), so ties go to
    the lowest id. Those loads are kept per phase in one heap of (load,
    machine id) per group, whose top is that machine: loads_tau is the
    threshold they are summed at, and a step at a new threshold rebuilds
    the heaps from a rescan of the history. Each step costs one heap
    replacement, not a scan of the group.

    A related job's largest value over the slowest smoothed speed must be
    a finite float (check_float_loads): smoothing rounds speeds down, so
    the original speeds can pass where the smoothed ones overflow."""

    def __init__(self, related, realize):
        groups, smoothed = smooth_machines(related)
        check_float_loads(smoothed)
        self.groups = groups.renumbered()
        self.m = len(self.groups)
        self.realize = realize
        self.history = []  # (machine id, realized scaled size)
        self.loads_tau = None
        self.heaps = []  # per group, a heap of (truncated load at loads_tau, machine id)
        self.speed_of = {i: float(speed) for speed, _, ids in self.groups for i in ids}

    def min_expected_cost(self, job):
        fastest = max(float(s) for s, _, _ in self.groups)
        return float(job.mean()) / fastest

    def truncated_loads(self, tau):
        """Per-machine realized truncated loads at tau, rescanned from the
        whole history."""
        loads = {}
        for machine, scaled in self.history:
            if scaled < tau:
                loads[machine] = loads.get(machine, 0.0) + scaled
        return loads

    def step(self, state, job):
        tau = state.tau
        if tau != self.loads_tau:
            self.loads_tau = tau
            loads = self.truncated_loads(tau)
            self.heaps = [[(loads.get(i, 0.0), i) for i in ids] for _, _, ids in self.groups]
            for heap in self.heaps:
                heapq.heapify(heap)
        result = argmin_step(state, related_group_proxies(self.groups, job, tau))
        if result is None:
            return None
        group_idx, dphi, new_state, increments = result
        heap = self.heaps[group_idx]
        load, machine = heap[0]
        job_index = len(self.history)
        value = float(self.realize(job_index, job))
        scaled = value / self.speed_of[machine]
        self.history.append((machine, scaled))
        if scaled < tau:
            # same per-machine order of additions as a rescan
            heapq.heapreplace(heap, (load + scaled, machine))
        return machine, dphi, new_state, increments


def run_online_related(related, realize):
    """Online related-machines balancing over the job list; realize(j, job)
    gives job j's realized size once it is committed."""
    inner = RelatedBalancer(related, realize)
    run = guess_and_double(list(enumerate(related.jobs)), inner)
    return run, inner


# ---------------------------------------------------------------------------
# routing


def online_route_step(r, state, j):
    """Choose the admissible path minimizing the potential increase; ties go
    to the canonically smallest path. Returns (path, dphi, new state,
    increments), or None (Fail) when no admissible path exists or the chosen
    path breaches the ell*tau cap."""
    tau = state.tau
    view = RoutingRequestView(r, j, tau)
    t = float(tau)
    trunc = view.truncated
    weights = {}
    for e, xt in trunc.items():
        L = state.loads[e + 1]
        weights[e] = 1.5 ** ((L + xt) / t) - 1.5 ** (L / t)
    L0 = state.loads[0]

    def dphi_of(path):
        exc = view.exceptional(path)
        d = 1.5 ** ((L0 + exc) / t) - 1.5 ** (L0 / t)
        d += sum(weights[e] for e in path)
        return d

    best = view.best_path(weights, dphi_of)
    if best is None:
        return None
    path, dphi = best
    increments = [(0, view.exceptional(path))] + [(e + 1, trunc[e]) for e in path]
    new = state.admit(increments)
    if new is None:
        return None
    return path, dphi, new, increments


class RouteBalancer:
    """Inner algorithm for online virtual circuit routing."""

    def __init__(self, r):
        self.r = r
        self.m = r.m

    def min_expected_cost(self, j):
        return self.r.min_expected_cost(j)

    def step(self, state, j):
        return online_route_step(self.r, state, j)


def run_online_routing(r):
    """Online routing over requests in arrival order; choices are paths as
    edge-index tuples."""
    return guess_and_double([(j, j) for j in range(r.n)], RouteBalancer(r))


# ---------------------------------------------------------------------------
# nonclairvoyant baseline


class SqrtListScheduler:
    """List scheduling restricted to machines within 1/sqrt(m) of the top
    speed; sizes are revealed only after each placement."""

    def __init__(self, speeds):
        self.speeds = list(speeds)
        m = len(self.speeds)
        s_max = max(self.speeds)
        threshold = s_max / math.isqrt(m) if math.isqrt(m) ** 2 == m else s_max / math.sqrt(m)
        self.fast = [i for i, s in enumerate(self.speeds) if s >= threshold]
        self.loads = {i: 0 * self.speeds[i] for i in self.fast}

    def choose(self):
        return min(self.fast, key=lambda i: (self.loads[i], i))

    def observe(self, machine, size):
        self.loads[machine] += size / self.speeds[machine]

    def makespan(self):
        return max(self.loads.values())


def nonclairvoyant_sqrt_list(related, reveal):
    """Run the sqrt(m) baseline over the job list; reveal(j, machine) returns
    the realized size after placement (the adversary's hook). Returns the
    assignment trace [(job, machine, size)]."""
    sched = SqrtListScheduler(related.speeds)
    trace = []
    for j in range(related.n):
        i = sched.choose()
        size = reveal(j, i)
        sched.observe(i, size)
        trace.append((j, i, size))
    return trace, sched
