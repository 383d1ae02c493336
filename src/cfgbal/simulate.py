"""Monte-Carlo policy evaluation and expected-maximum estimation.

Realizations come from counter-based Philox streams keyed (seed, request
id); trial t of a request reads position t of its stream, so every realized
value is fixed by (seed, trial, request id) independently of scheduling,
decision order and the order the instance lists its requests in. A
realization is a support index: the trial's uniform picks an index into the
support of each law the request may realize through that law's inverse CDF.
One uniform thereby couples the alternative configuration laws of one
request (they are never jointly observed, so the coupling is statistically
invisible to any single policy).

Every policy runs across all trials at once. A non-adaptive assignment adds
each request's realized column to its resources; group list scheduling
works job by job on trials x group arrays; a deterministic state policy
(the oracle's decision rule, the restart transform) walks its decision tree
once, deciding once per node and splitting the node's trials by the support
index they realize.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .distributions import ValidationError, check_tau
from .instances import (
    ConfigInstance,
    RelatedInstance,
    RoutingInstance,
    UnrelatedInstance,
    check_float_loads,
)

MASK64 = (1 << 64) - 1


def request_stream(seed, request):
    """Philox generator dedicated to one (seed, request id) pair."""
    key = np.array([seed & MASK64, request & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_table(seed, requests, trials):
    """Array [trials, len(requests)] of the per-(trial, request) uniforms;
    requests lists request ids. It is the transpose of one row per request,
    so each request's column is contiguous."""
    table = np.empty((len(requests), trials))
    for row, j in zip(table, requests):
        request_stream(seed, j).random(out=row)
    return table.T


def support_indices(law, uniforms):
    """Vectorized inverse CDF of a discrete law, as indices into its
    support: the number of the first k - 1 running sums of its float
    probabilities that are at most u. A u past the last running sum, which
    rounding can leave below 1, thus picks the last point."""
    cdf = np.cumsum([float(p) for _, p in law.support])
    index = np.zeros(np.shape(uniforms), dtype=np.intp)
    for c in cdf[:-1].tolist():
        index += uniforms >= c
    return index


def law_quantiles(law, uniforms):
    """Vectorized inverse CDF of a discrete law."""
    values = np.array([float(v) for v, _ in law.support])
    return values[support_indices(law, uniforms)]


class Effect(NamedTuple):
    """What committing one (request, choice) does: its law, the resources
    with a nonzero multiplier, those multipliers as floats, and the largest
    one, a_max."""

    law: object
    resources: np.ndarray
    mults: np.ndarray
    a_max: float


def _effect(law, resources, mults):
    return Effect(law, np.array(resources, dtype=np.intp), np.array(mults), max(mults, default=0.0))


def _require(option, count, what, owner):
    if option not in range(count):
        raise ValidationError(f"policy chose {what} {option!r}; {owner} has {count}")


def _require_path(inst, choice, source, sink, j):
    """A routing choice must list the edge ids of a simple source-sink path."""
    if isinstance(choice, (list, tuple)):
        for e in choice:
            _require(e, inst.m, "edge", "the instance")
        visited = [source] + [inst.edges[e][1] for e in choice]
        tails = [inst.edges[e][0] for e in choice]
        if tails == visited[:-1] and visited[-1] == sink and len(set(visited)) == len(visited):
            return
    raise ValidationError(
        f"policy chose {choice!r} for request {j}; expected the edge ids of a simple path {source} -> {sink}"
    )


def request_ids(inst):
    """The ids a policy names requests by: a configuration instance's own
    ids, the positions of the other kinds' requests."""
    if isinstance(inst, ConfigInstance):
        return [r.id for r in inst.requests]
    if isinstance(inst, (UnrelatedInstance, RelatedInstance, RoutingInstance)):
        return list(range(inst.n))
    raise TypeError(f"cannot simulate on {type(inst).__name__}")


def _locate(position, j):
    """The position of request id j; ValidationError when there is none."""
    k = position.get(j)
    if k is None:
        raise ValidationError(f"policy chose request {j!r}; the instance has no such request")
    return k


def _law_of(inst, k, j, choice):
    """The law request j, the k-th of inst, realizes under choice;
    ValidationError when inst offers no such choice."""
    if isinstance(inst, ConfigInstance):
        configs = inst.requests[k].configs
        _require(choice, len(configs), "configuration", f"request {j}")
        return configs[choice].law
    if isinstance(inst, RoutingInstance):
        source, sink, law = inst.requests[k]
        _require_path(inst, choice, source, sink, j)
        return law
    _require(choice, inst.m, "machine", f"request {j}")
    return inst.jobs[k][choice] if isinstance(inst, UnrelatedInstance) else inst.jobs[k]


def check_assignment(inst, assignment):
    """ValidationError naming the first fault of a fixed assignment
    {request id: choice} on inst: in ascending id order a request inst does
    not have or a choice it does not offer, then the smallest request left
    without a choice."""
    position = {j: k for k, j in enumerate(request_ids(inst))}
    for j in sorted(assignment):
        _law_of(inst, _locate(position, j), j, assignment[j])
    missing = position.keys() - assignment.keys()
    if missing:
        raise ValidationError(f"policy assigns no choice to request {min(missing)}")


class Trials:
    """One simulation: its realizations, keyed by request id, and the
    per-trial loads and exceptional totals of what has been committed.

    Configuration instances carry request ids; the requests of the other
    kinds are their positions. Loads accumulate per trial in commitment
    order as L + a * v, with a = float(a) for configurations, 1.0 for
    unrelated machines, 1.0 / float(speed) for related machines and
    1.0 / float(capacity) on each edge of a route; a realization with
    a_max * v >= tau adds a_max * v to the trial's exceptional total. For
    machine instances, machine_mult holds each machine's a. An instance
    whose largest load is not a finite float (check_float_loads) is refused.
    """

    def __init__(self, inst, trials, seed, tau=None):
        if trials < 1:
            raise ValidationError(f"trials must be at least 1, got {trials}")
        self.ids = request_ids(inst)
        if not isinstance(inst, UnrelatedInstance):  # an unrelated load is a finite law value
            check_float_loads(inst)
        self.position = {j: k for k, j in enumerate(self.ids)}
        self.inst = inst
        self.trials = trials
        self.seed = seed
        self.tau = None if tau is None else float(check_tau(tau))
        self.uniforms = uniform_table(seed, self.ids, trials)
        self.loads = np.zeros((trials, inst.m))
        self.exc = np.zeros(trials)
        if isinstance(inst, RelatedInstance):
            self.machine_mult = np.array([1.0 / float(s) for s in inst.speeds])
        elif isinstance(inst, UnrelatedInstance):
            self.machine_mult = np.ones(inst.m)
        self._effects = {}
        self._index = {}

    def effect(self, j, choice):
        """The Effect of (request id, choice), built on first use;
        ValidationError when the instance has no such request or option."""
        key = (j, tuple(choice) if isinstance(choice, list) else choice)
        effect = self._effects.get(key)
        if effect is None:
            effect = self._effects[key] = self._build(j, choice)
        return effect

    def _build(self, j, choice):
        inst = self.inst
        k = _locate(self.position, j)
        law = _law_of(inst, k, j, choice)
        if isinstance(inst, ConfigInstance):
            mult = [float(a) for a in inst.requests[k].configs[choice].multipliers]
            resources = [i for i, a in enumerate(mult) if a]
            return _effect(law, resources, [mult[i] for i in resources])
        if isinstance(inst, RoutingInstance):
            edges = sorted(choice)
            return _effect(law, edges, [1.0 / float(inst.edges[e][2]) for e in edges])
        return _effect(law, [choice], [float(self.machine_mult[choice])])

    def uniform(self, j):
        return self.uniforms[:, self.position[j]]

    def realized(self, j, law):
        """Value of law realized by request j, per trial."""
        return law_quantiles(law, self.uniform(j))

    def index(self, j, law):
        """Support index of law realized by request j, per trial."""
        key = (j, law)
        idx = self._index.get(key)
        if idx is None:
            idx = self._index[key] = support_indices(law, self.uniform(j))
        return idx

    def commit(self, rows, j, choice, x):
        """Commit (j, choice) in the trials rows (None: every trial), which
        realize the value x (per row, or one for all)."""
        effect = self.effect(j, choice)
        if rows is None:
            # column adds: fancy indexing over every trial costs a third more
            rows = slice(None)
            for i, a in zip(effect.resources.tolist(), effect.mults.tolist()):
                self.loads[:, i] += a * x
        else:
            self.loads[np.ix_(rows, effect.resources)] += np.multiply.outer(x, effect.mults)
        if self.tau is not None and effect.a_max > 0:
            peak = effect.a_max * x
            self.exc[rows] += np.where(peak >= self.tau, peak, 0.0)

    def commit_each(self, j, choices, x):
        """Commit request j in every trial with a per-trial machine choice,
        realizing x per trial, on an unrelated or related instance. A
        trial's load grows by a * x on its machine, a read from one
        per-machine float array (machine_mult), so a step costs a few array
        operations whatever the number of machines. ValidationError names
        an unknown request, or the smallest invalid machine."""
        _locate(self.position, j)
        m = self.inst.m
        choices = np.asarray(choices)
        invalid = choices[(choices < 0) | (choices >= m)]
        if invalid.size:
            _require(int(invalid.min()), m, "machine", f"request {j}")
        added = self.machine_mult[choices] * x
        self.loads[np.arange(self.trials), choices] += added
        if self.tau is not None:
            self.exc += np.where(added >= self.tau, added, 0.0)

    def walk(self, decide, after=None, state=None):
        """Run a deterministic state policy in every trial.

        decide(remaining ids, loads, state) -> (request, choice, state) is
        asked once per node of the decision tree, where loads is the float
        load tuple every trial at the node shares; after(state, request,
        choice, k) -> state is the policy's state once that commitment
        realized support index k (state stays None without after). The
        node's trials then split by the support index they realize.
        """
        stack = [(np.arange(self.trials), frozenset(self.ids), state)]
        while stack:
            rows, remaining, state = stack.pop()
            if not remaining:
                continue
            loads = tuple(self.loads[rows[0]].tolist())
            j, c, state = decide(remaining, loads, state)
            if j not in remaining:
                raise ValidationError(f"policy chose request {j!r}, which is not pending")
            law = self.effect(j, c).law
            ks = self.index(j, law)[rows]
            rest = remaining - {j}
            for k in np.unique(ks).tolist():
                sub = rows[ks == k]
                self.commit(sub, j, c, float(law.support[k][0]))
                stack.append((sub, rest, after(state, j, c, k) if after else None))

    def report(self, resource_means=None):
        """SimulationReport of the committed trials; resource_means defaults
        to the loads summed over the trials in trial order."""
        if resource_means is None:
            resource_means = np.cumsum(self.loads, axis=0)[-1] / self.trials
        makespans = self.loads.max(axis=1, initial=0.0)
        trials = self.trials
        return SimulationReport(
            trials,
            self.seed,
            float(makespans.mean()),
            float(makespans.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
            [float(v) for v in resource_means],
            float(self.exc.mean()),
        )


class NonAdaptiveAssignment:
    """Fixed choice per request; runs in ascending request id order. Called
    as a decision function (remaining ids, loads) -> (request, choice), as
    cfgbal.oracle.evaluate_policy runs it."""

    def __init__(self, assignment):
        self.assignment = dict(assignment)

    def __call__(self, remaining, loads):
        j = min(remaining)
        return j, self.assignment[j]


class SimulationReport(NamedTuple):
    trials: int
    seed: int
    mean_makespan: float
    stderr: float
    resource_means: list
    mean_exceptional: float

    def as_dict(self):
        return {**self._asdict(), "resource_means": list(self.resource_means)}


def simulate_policy(inst, policy, trials, seed, tau=None):
    """Estimate the expected makespan of a policy by independent trials.

    A NonAdaptiveAssignment must pass check_assignment, and then commits
    each request's realized column in ascending id order. Any other policy
    runs through its simulate(trials) method, which commits into every
    trial of a Trials at once; adaptive policies observe exactly the
    realizations of requests they committed.
    """
    sim = Trials(inst, trials, seed, tau)
    if isinstance(policy, NonAdaptiveAssignment):
        check_assignment(inst, policy.assignment)
        for j in sorted(policy.assignment):
            choice = policy.assignment[j]
            law = sim.effect(j, choice).law
            sim.commit(None, j, choice, sim.realized(j, law))
        return sim.report(sim.loads.mean(axis=0))
    if not hasattr(policy, "simulate"):
        raise TypeError(f"{type(policy).__name__} has no batched simulate(trials) method")
    policy.simulate(sim)
    return sim.report()


def simulate_adaptive_config(inst, policy_fn, trials, seed, tau=None):
    """Simulate a deterministic decision function on a configuration
    instance, where the realized scalar depends on the chosen
    configuration. policy_fn(remaining ids, loads) -> (request, config);
    the policy observes float loads."""
    sim = Trials(inst, trials, seed, tau)
    sim.walk(lambda remaining, loads, _: (*policy_fn(remaining, loads), None))
    return sim.report()


# ---------------------------------------------------------------------------
# expected-maximum estimation


def expmax_regime(name, m, tau=1.0):
    """Per-sum specs for the maximal-inequality test regimes.

    sqrtlog: m sums of m iid Ber(1/m)*tau, so E[S_i] = tau.
    logm:    m sums with E[S_i] = tau * ln m.
    geo:     sums with E[S_i] = c_i * tau for integer c_i shrinking
             geometrically by 3/2 (weights returned for max_i S_i / c_i);
             summand counts reach ~1.5^m, which the multinomial sampler
             absorbs without enumerating summands up to m = 105.
    Returns (per_sum, weights or None).
    """
    from fractions import Fraction

    from .distributions import DiscreteDistribution, scaled_bernoulli

    if m < 1:
        raise ValidationError(f"m must be at least 1, got {m}")
    ber = scaled_bernoulli(tau, Fraction(1, m))  # a point mass at m = 1
    if name == "sqrtlog":
        return [[(ber, m)] for _ in range(m)], None
    if name == "logm":
        count = max(m, int(round(m * math.log(m))))
        return [[(ber, count)] for _ in range(m)], None
    if name == "geo":
        half = DiscreteDistribution([(0, Fraction(1, 2)), (tau, Fraction(1, 2))])
        # integer sizes with c_i >= (3/2) c_{i+1}, built from c_m = 1 up
        weights = [1]
        for _ in range(m - 1):
            weights.append(math.ceil(Fraction(3, 2) * weights[-1]))
        weights.reverse()
        per_sum = [[(half, 2 * c)] for c in weights]
        return per_sum, weights
    raise ValueError(f"unknown regime {name!r}")


def estimate_expected_max(per_sum, trials, seed, weights=None):
    """Monte-Carlo estimate of E[max_i S_i] (or E[max_i S_i / c_i]).

    per_sum[i] is a list of (law, count) pairs: S_i is the sum of count iid
    copies of each law. Sums of iid finite-support draws are sampled exactly
    through multinomial counts, so astronomically many summands cost O(1),
    up to numpy's limit of a C long (2^63 - 1 on 64-bit Linux); a larger
    count raises ValidationError. Returns (estimate, stderr).
    """
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    m = len(per_sum)
    sums = np.zeros((trials, m))
    for i, parts in enumerate(per_sum):
        rng = request_stream(seed, i)
        for law, count in parts:
            values = np.array([float(v) for v, _ in law.support])
            probs = np.array([float(p) for _, p in law.support])
            probs = probs / probs.sum()
            if len(values) == 1:
                sums[:, i] += count * values[0]
                continue
            try:
                counts = rng.multinomial(int(count), probs, size=trials)
            except OverflowError as exc:  # numpy takes counts as C longs
                raise ValidationError(
                    f"summand count {count} is too large for the multinomial sampler"
                ) from exc
            sums[:, i] += counts @ values
    if weights is not None:
        sums = sums / np.asarray([float(c) for c in weights])
    maxima = sums.max(axis=1)
    est = float(maxima.mean())
    err = float(maxima.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return est, err
