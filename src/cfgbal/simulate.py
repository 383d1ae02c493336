"""Monte-Carlo policy evaluation and expected-maximum estimation.

Realizations come from counter-based Philox streams keyed (seed, request);
trial t of request j reads position t of that stream, so every realized
value is fixed by (seed, trial, request) independently of scheduling or
decision order. One uniform drives a request's scalar through each law's
inverse CDF, which also couples the alternative configuration laws of one
request (they are never jointly observed, so the coupling is statistically
invisible to any single policy).
"""

from __future__ import annotations

import math

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
    """Philox generator dedicated to one (seed, request) pair."""
    key = np.array([seed & MASK64, request & MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_table(seed, n_requests, trials):
    """Array [trials, n_requests] of the per-(trial, request) uniforms."""
    table = np.empty((trials, n_requests))
    for j in range(n_requests):
        table[:, j] = request_stream(seed, j).random(trials)
    return table


def law_quantiles(law, uniforms):
    """Vectorized inverse CDF of a discrete law."""
    probs = np.cumsum([float(p) for _, p in law.support])
    values = np.array([float(v) for v, _ in law.support])
    idx = np.minimum(np.searchsorted(probs, uniforms, side="right"), len(values) - 1)
    return values[idx]


class NonAdaptiveAssignment:
    """Fixed choice per request; runs in ascending request order."""

    def __init__(self, assignment):
        self.assignment = dict(assignment)

    def run(self, inst, realize):
        trace = []
        for j in sorted(self.assignment):
            choice = self.assignment[j]
            law, _, _ = _choice_law_and_effect(inst, j, choice)
            trace.append((j, choice, float(realize(j, law))))
        return trace


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


def _choice_law_and_effect(inst, j, choice):
    """law, per-resource multiplier vector, and max multiplier of a chosen
    configuration, uniformly across instance kinds; ValidationError when
    the policy names a request or an option the instance does not have."""
    _require(j, inst.n, "request", "the instance")
    if isinstance(inst, ConfigInstance):
        configs = inst.requests[j].configs
        _require(choice, len(configs), "configuration", f"request {j}")
        config = configs[choice]
        mult = [float(a) for a in config.multipliers]
        return config.law, mult, max(mult)
    if isinstance(inst, (UnrelatedInstance, RelatedInstance)):
        _require(choice, inst.m, "machine", f"request {j}")
    if isinstance(inst, UnrelatedInstance):
        mult = [0.0] * inst.m
        mult[choice] = 1.0
        return inst.jobs[j][choice], mult, 1.0
    if isinstance(inst, RelatedInstance):
        mult = [0.0] * inst.m
        mult[choice] = 1.0 / float(inst.speeds[choice])
        return inst.jobs[j], mult, mult[choice]
    if isinstance(inst, RoutingInstance):
        law = inst.requests[j][2]
        mult = [0.0] * inst.m
        for e in choice:
            _require(e, inst.m, "edge", f"request {j}")
            mult[e] = 1.0 / float(inst.edges[e][2])
        return law, mult, max(mult) if choice else 0.0
    raise TypeError(f"cannot simulate on {type(inst).__name__}")


def _require(option, count, what, owner):
    if option not in range(count):
        raise ValidationError(f"policy chose {what} {option!r}; {owner} has {count}")


def simulate_policy(inst, policy, trials, seed, tau=None):
    """Estimate the expected makespan of a policy by independent trials.

    The policy's run(inst, realize) is called once per trial with realize
    bound to that trial's row of the realization table; adaptive policies
    therefore observe exactly the realizations of requests they committed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    n = inst.n
    uniforms = uniform_table(seed, n, trials)
    fast = isinstance(policy, NonAdaptiveAssignment)
    if fast:
        trace0 = policy.run(inst, lambda j, law: 0.0)
        choices = {j: choice for j, choice, _ in trace0}
        loads = np.zeros((trials, inst.m))
        exc = np.zeros(trials)
        for j in sorted(choices):
            law, mult, a_max = _choice_law_and_effect(inst, j, choices[j])
            x = law_quantiles(law, uniforms[:, j])
            for i, a in enumerate(mult):
                if a:
                    loads[:, i] += a * x
            if tau is not None and a_max > 0:
                peak = a_max * x
                exc += np.where(peak >= float(tau), peak, 0.0)
        makespans = loads.max(axis=1)
        return SimulationReport(
            trials,
            seed,
            float(makespans.mean()),
            float(makespans.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
            [float(v) for v in loads.mean(axis=0)],
            float(exc.mean()) if tau is not None else 0.0,
        )

    quantile_cache = {}

    def realized(trial, j, law):
        key = (j, law)
        col = quantile_cache.get(key)
        if col is None:
            col = law_quantiles(law, uniforms[:, j])
            quantile_cache[key] = col
        return col[trial]

    makespans = np.empty(trials)
    loads_acc = np.zeros(inst.m)
    exc_acc = np.zeros(trials)
    for t in range(trials):

        def realize(j, law, _t=t):
            return realized(_t, j, law)

        trace = policy.run(inst, realize)
        loads = np.zeros(inst.m)
        exc_total = 0.0
        for j, choice, value in trace:
            _, mult, a_max = _choice_law_and_effect(inst, j, choice)
            for i, a in enumerate(mult):
                if a:
                    loads[i] += a * float(value)
            if tau is not None and a_max > 0:
                peak = a_max * float(value)
                if peak >= float(tau):
                    exc_total += peak
        makespans[t] = loads.max() if inst.m else 0.0
        loads_acc += loads
        exc_acc[t] = exc_total
    return SimulationReport(
        trials,
        seed,
        float(makespans.mean()),
        float(makespans.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        [float(v) for v in loads_acc / trials],
        float(exc_acc.mean()) if tau is not None else 0.0,
    )


def simulate_adaptive_config(inst, policy_fn, trials, seed, tau=None):
    """Trial-wise simulation for adaptive policies on configuration
    instances, where the realized scalar depends on the chosen
    configuration. policy_fn(remaining ids, loads) -> (request, config);
    the policy observes float loads."""
    if tau is not None:
        check_tau(tau)
    uniforms = uniform_table(seed, inst.n, trials)
    by_id = {r.id: r for r in inst.requests}
    makespans = np.empty(trials)
    exc_acc = np.zeros(trials)
    loads_acc = np.zeros(inst.m)
    for t in range(trials):
        remaining = frozenset(by_id)
        loads = tuple(0.0 for _ in range(inst.m))
        exc_total = 0.0
        while remaining:
            j, c = policy_fn(remaining, loads)
            config = by_id[j].configs[c]
            v = float(law_quantiles(config.law, uniforms[t : t + 1, j])[0])
            loads = tuple(
                L + float(a) * v for L, a in zip(loads, config.multipliers)
            )
            peak = float(config.max_multiplier) * v
            if tau is not None and peak >= float(tau):
                exc_total += peak
            remaining = remaining - {j}
        makespans[t] = max(loads)
        exc_acc[t] = exc_total
        loads_acc += np.array(loads)
    return SimulationReport(
        trials,
        seed,
        float(makespans.mean()),
        float(makespans.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0,
        [float(v) for v in loads_acc / trials],
        float(exc_acc.mean()),
    )


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
