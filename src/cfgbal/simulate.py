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
)

MASK64 = (1 << 64) - 1


def request_stream(seed, request):
    """Philox generator dedicated to one (seed, request id) pair."""
    key = np.array([seed & MASK64, request & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_table(seed, requests, trials):
    """Array [trials, len(requests)] of the per-(trial, request) uniforms;
    requests lists request ids, or is a count n for the ids 0..n-1."""
    ids = range(requests) if isinstance(requests, (int, np.integer)) else requests
    table = np.empty((trials, len(ids)))
    for col, j in enumerate(ids):
        table[:, col] = request_stream(seed, j).random(trials)
    return table


def support_indices(law, uniforms):
    """Vectorized inverse CDF of a discrete law, as indices into its support."""
    probs = np.cumsum([float(p) for _, p in law.support])
    return np.minimum(np.searchsorted(probs, uniforms, side="right"), len(probs) - 1)


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


class Trials:
    """One simulation: its realizations, keyed by request id, and the
    per-trial loads and exceptional totals of what has been committed.

    Configuration instances carry request ids; the requests of the other
    kinds are their positions. Loads accumulate per trial in commitment
    order as L + a * v, with a = float(a) for configurations, 1.0 for
    unrelated machines, 1.0 / float(speed) for related machines and
    1.0 / float(capacity) on each edge of a route; a realization with
    a_max * v >= tau adds a_max * v to the trial's exceptional total.
    """

    def __init__(self, inst, trials, seed, tau=None):
        if trials < 1:
            raise ValidationError(f"trials must be at least 1, got {trials}")
        if isinstance(inst, ConfigInstance):
            self.ids = [r.id for r in inst.requests]
        elif isinstance(inst, (UnrelatedInstance, RelatedInstance, RoutingInstance)):
            self.ids = list(range(inst.n))
        else:
            raise TypeError(f"cannot simulate on {type(inst).__name__}")
        self.position = {j: k for k, j in enumerate(self.ids)}
        self.inst = inst
        self.trials = trials
        self.seed = seed
        self.tau = None if tau is None else float(check_tau(tau))
        self.uniforms = uniform_table(seed, self.ids, trials)
        self.loads = np.zeros((trials, inst.m))
        self.exc = np.zeros(trials)
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
        k = self.position.get(j)
        if k is None:
            raise ValidationError(f"policy chose request {j!r}; the instance has no such request")
        if isinstance(inst, ConfigInstance):
            configs = inst.requests[k].configs
            _require(choice, len(configs), "configuration", f"request {j}")
            config = configs[choice]
            mult = [float(a) for a in config.multipliers]
            resources = [i for i, a in enumerate(mult) if a]
            return _effect(config.law, resources, [mult[i] for i in resources])
        if isinstance(inst, RoutingInstance):
            source, sink, law = inst.requests[k]
            _require_path(inst, choice, source, sink, j)
            edges = sorted(choice)
            return _effect(law, edges, [1.0 / float(inst.edges[e][2]) for e in edges])
        _require(choice, inst.m, "machine", f"request {j}")
        if isinstance(inst, UnrelatedInstance):
            return _effect(inst.jobs[k][choice], [choice], [1.0])
        return _effect(inst.jobs[k], [choice], [1.0 / float(inst.speeds[choice])])

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
        realizing x per trial (a machine's effect is one resource). Each
        (job, machine) pair comes up once, so its effect is not memoized."""
        options = np.unique(choices)
        effects = [self._build(j, c) for c in options.tolist()]
        pos = np.searchsorted(options, choices)
        resource = np.array([e.resources[0] for e in effects])[pos]
        mult = np.array([e.a_max for e in effects])[pos]
        self.loads[np.arange(self.trials), resource] += mult * x
        if self.tau is not None:
            peak = mult * x
            self.exc += np.where(peak >= self.tau, peak, 0.0)

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
    """Fixed choice per request; runs in ascending request id order."""

    def __init__(self, assignment):
        self.assignment = dict(assignment)


class SimulationReport:
    __slots__ = (
        "trials",
        "seed",
        "mean_makespan",
        "stderr",
        "resource_means",
        "mean_exceptional",
    )

    def __init__(self, trials, seed, mean_makespan, stderr, resource_means, mean_exceptional):
        self.trials = trials
        self.seed = seed
        self.mean_makespan = mean_makespan
        self.stderr = stderr
        self.resource_means = resource_means
        self.mean_exceptional = mean_exceptional

    def as_dict(self):
        return {
            "trials": self.trials,
            "seed": self.seed,
            "mean_makespan": self.mean_makespan,
            "stderr": self.stderr,
            "resource_means": list(self.resource_means),
            "mean_exceptional": self.mean_exceptional,
        }


def simulate_policy(inst, policy, trials, seed, tau=None):
    """Estimate the expected makespan of a policy by independent trials.

    A NonAdaptiveAssignment commits each request's realized column in
    ascending id order. Any other policy runs through its simulate(trials)
    method, which commits into every trial of a Trials at once; adaptive
    policies observe exactly the realizations of requests they committed.
    """
    sim = Trials(inst, trials, seed, tau)
    if isinstance(policy, NonAdaptiveAssignment):
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
             absorbs without enumerating summands.
    Returns (per_sum, weights or None).
    """
    from fractions import Fraction

    from .distributions import DiscreteDistribution

    if m < 1:
        raise ValidationError(f"m must be at least 1, got {m}")
    ber = DiscreteDistribution([(0, Fraction(m - 1, m)), (tau, Fraction(1, m))])
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
    through multinomial counts, so astronomically many summands cost O(1).
    Returns (estimate, stderr).
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
            counts = rng.multinomial(int(count), probs, size=trials)
            sums[:, i] += counts @ values
    if weights is not None:
        sums = sums / np.asarray([float(c) for c in weights])
    maxima = sums.max(axis=1)
    est = float(maxima.mean())
    err = float(maxima.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return est, err
