"""Online algorithms built around the exponential potential function.

The potential of a load vector L (entry 0 is the virtual exceptional
resource) at threshold tau is sum_i (3/2)^(L_i / tau). Each arriving request
commits the configuration minimizing the potential increase of its
deterministic proxy vector; a commitment that would push any entry past
ell * tau (ell = log_{3/2}(2m + 2)) is refused, certifying E[OPT] > lambda.
The guess-and-double wrapper turns that certificate into a parameter-free
algorithm. Proxy loads are expectations; realized loads never enter the
potential.
"""

from __future__ import annotations

import math

from .distributions import ValidationError, check_tau
from .instances import NoFeasiblePath, RoutingRequestView, smooth_machines


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
        tau = 2.0 * float(lam)
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


def delta_phi(loads, tau, proxy):
    """Potential increase from adding the proxy vector to the loads."""
    t = float(tau)
    inc = 0.0
    for L, x in zip(loads, proxy):
        if x:
            inc += 1.5 ** ((L + x) / t) - 1.5 ** (L / t)
    return inc


def argmin_step(state, proxies):
    """Pick the proxy minimizing delta-phi (ties to the lowest index) and
    commit it unless some entry would exceed ell * tau.

    Returns (index, dphi, new_state) or None as the Fail verdict.
    """
    best = None
    for idx, proxy in enumerate(proxies):
        d = delta_phi(state.loads, state.tau, proxy)
        if best is None or d < best[1]:
            best = (idx, d)
    idx, d = best
    new = state.admit(enumerate(proxies[idx]))
    if new is None:
        return None
    return idx, d, new


def request_proxies(request, tau):
    """Deterministic proxy vectors (x_0, x_1, ..., x_m) of a request's
    configurations at threshold tau."""
    return [
        tuple(float(v) for v in config.proxy_vector(tau))
        for config in request.configs
    ]


def online_step(state, request):
    """One step of online configuration balancing; None means Fail
    (certifying E[OPT] > lambda = tau / 2)."""
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

    def assignment(self):
        return {rec.request: rec.choice for rec in self.records}


def guess_and_double(stream, inner, lam0=None):
    """Doubling wrapper: run the inner algorithm at guess lambda; on Fail,
    double lambda, reset the load vector (committed choices stand) and
    re-offer the failing request. The initial guess is the cheapest expected
    cost any policy could pay for the first request; a zero guess is bumped
    to the first positive cost in the stream, else 1.0 (a Fail at
    lambda = 0 would otherwise never escape the doubling). The inner
    algorithm provides m, min_expected_cost, request_id and step."""
    stream = list(stream)
    if not stream:
        raise ValidationError("empty request stream")
    lam = float(lam0) if lam0 is not None else inner.min_expected_cost(stream[0])
    if lam <= 0:
        costs = (inner.min_expected_cost(request) for request in stream)
        lam = next((v for v in costs if v > 0), 1.0)
    state = PotentialState.fresh(inner.m, lam)
    records = []
    phase = 0
    idx = 0
    while idx < len(stream):
        request = stream[idx]
        step = inner.step(state, request)
        if step is None:
            lam = 2.0 * lam
            phase += 1
            state = PotentialState.fresh(inner.m, lam)
            continue
        choice, proxy, dphi, state = step
        records.append(
            TraceRecord(inner.request_id(request, idx), phase, lam, choice, proxy, dphi)
        )
        idx += 1
    return OnlineRun(records, state, lam, phase + 1)


class ConfigBalancer:
    """Inner algorithm for online configuration balancing (explicit
    configurations)."""

    def __init__(self, m):
        self.m = m

    def min_expected_cost(self, request):
        return min(float(c.expected_max()) for c in request.configs)

    def request_id(self, request, idx):
        return request.id

    def step(self, state, request):
        proxies = request_proxies(request, state.tau)
        result = argmin_step(state, proxies)
        if result is None:
            return None
        idx, dphi, new_state = result
        return idx, proxies[idx], dphi, new_state


def run_online_config(inst, lam0=None):
    """Online configuration balancing with guess-and-double; the produced
    assignment is non-adaptive (proxies are expectations)."""
    return guess_and_double(inst.requests, ConfigBalancer(inst.m), lam0=lam0)


# ---------------------------------------------------------------------------
# related machines


def related_group_proxies(groups, law, tau):
    """Proxy vectors of the group configurations: choosing group c puts the
    job's exceptional part (at speed s_c) on the virtual resource and
    1/m_c of its truncated part on resource c."""
    proxies = []
    m_prime = len(groups)
    for c, (speed, count, _) in enumerate(groups):
        factor = 1.0 / float(speed)
        x = [0.0] * (m_prime + 1)
        x[0] = float(law.exceptional_mean(tau, factor))
        x[c + 1] = float(law.truncated_mean(tau, factor)) / count
        proxies.append(tuple(x))
    return proxies


def online_related_step(groups, state, law, machine_loads, proxies=None):
    """Pick a group through the potential and then the least-loaded machine
    of that group (by realized truncated load, lowest id on ties).

    machine_loads maps a machine id of groups -> current realized truncated
    load; proxies, when given, are related_group_proxies(groups, law,
    state.tau). Returns (machine id, group index, dphi, new state) or None
    on Fail.
    """
    if proxies is None:
        proxies = related_group_proxies(groups, law, state.tau)
    result = argmin_step(state, proxies)
    if result is None:
        return None
    group_idx, dphi, new_state = result
    _, _, ids = groups.groups[group_idx]
    machine = min(ids, key=lambda i: (machine_loads.get(i, 0.0), i))
    return machine, group_idx, dphi, new_state


class RelatedBalancer:
    """Inner algorithm for online related-machine load balancing: group
    choice via the potential over m' + 1 resources, list scheduling inside
    the chosen group.

    List scheduling compares realized truncated loads at the current
    threshold (values at or above tau stay out of the comparison, mirroring
    the averaging argument that bounds per-machine truncated load). Those
    loads are kept per phase: loads_tau is the threshold they are summed
    at, and a step at a new threshold rebuilds them from the history."""

    def __init__(self, related, realize):
        self.groups = smooth_machines(related)[0].renumbered()
        self.m = len(self.groups)
        self.realize = realize
        self.history = []  # (machine id, realized scaled size)
        self.loads_tau = None
        self.loads = {}  # machine id -> truncated load at loads_tau
        self.speed_of = {i: float(speed) for speed, _, ids in self.groups for i in ids}

    def min_expected_cost(self, job):
        fastest = max(float(s) for s, _, _ in self.groups)
        return float(job.mean()) / fastest

    def request_id(self, job, idx):
        return idx

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
            self.loads = self.truncated_loads(tau)
        proxies = related_group_proxies(self.groups, job, tau)
        result = online_related_step(self.groups, state, job, self.loads, proxies)
        if result is None:
            return None
        machine, group_idx, dphi, new_state = result
        job_index = len(self.history)
        value = float(self.realize(job_index, job))
        scaled = value / self.speed_of[machine]
        self.history.append((machine, scaled))
        if scaled < tau:
            # same per-machine order of additions as a rescan
            self.loads[machine] = self.loads.get(machine, 0.0) + scaled
        return machine, proxies[group_idx], dphi, new_state


def run_online_related(related, realize, lam0=None):
    """Online related-machines balancing over the job list; realize(j) gives
    job j's realized size once it is committed."""
    inner = RelatedBalancer(related, realize)
    run = guess_and_double(list(related.jobs), inner, lam0=lam0)
    return run, inner


# ---------------------------------------------------------------------------
# routing


def online_route_step(r, state, j):
    """Choose the admissible path minimizing the potential increase; ties go
    to the canonically smallest path. None (Fail) when no admissible path
    exists or the chosen path breaches the ell*tau cap."""
    tau = state.tau
    try:
        view = RoutingRequestView(r, j, tau)
    except NoFeasiblePath:
        return None
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
    new = state.admit([(0, view.exceptional(path))] + [(e + 1, trunc[e]) for e in path])
    if new is None:
        return None
    return path, dphi, new


class RouteBalancer:
    """Inner algorithm for online virtual circuit routing."""

    def __init__(self, r):
        self.r = r
        self.m = r.m

    def min_expected_cost(self, j):
        return self.r.min_expected_cost(j)

    def request_id(self, j, idx):
        return j

    def step(self, state, j):
        result = online_route_step(self.r, state, j)
        if result is None:
            return None
        path, dphi, new_state = result
        proxy = {0: new_state.loads[0] - state.loads[0]}
        for e in path:
            proxy[e + 1] = new_state.loads[e + 1] - state.loads[e + 1]
        return path, proxy, dphi, new_state


def run_online_routing(r, lam0=None):
    """Online routing over requests in arrival order; choices are paths as
    edge-index tuples."""
    return guess_and_double(range(r.n), RouteBalancer(r), lam0=lam0)


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
