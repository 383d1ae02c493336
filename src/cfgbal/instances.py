"""Problem instances: configuration balancing, load balancing, routing.

All instances are immutable after validation. Configurations use the
scaled-scalar canonical form: one scalar law X and a fixed multiplier per
resource, so resource i receives multipliers[i] * X. This covers load
balancing (indicator multipliers) and routing (1/capacity along a path,
perfectly correlated) and makes E[max_i X_i^E] a one-dimensional quantity.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

from .distributions import (
    DiscreteDistribution,
    ValidationError,
    as_exact,
    check_tau,
    is_finite,
    point_mass,
    scaled_bernoulli,
)
from .graphs import lex_shortest_path, path_key, simple_paths, widest_path_value


class NoFeasiblePath(ValidationError):
    """A routing request has no admissible source-sink path."""


class Configuration:
    """One choice for a request: per-resource multipliers times a scalar law.

    The tau-independent pieces (the resources with nonzero multipliers and
    the largest multiplier) are computed once. Nonzero resources are kept as
    bare indices: (i, a) pairs would double the memory of a sparse
    configuration.
    """

    __slots__ = ("multipliers", "law", "max_multiplier", "_nonzero")

    def __init__(self, multipliers, law):
        mults = tuple(multipliers)
        if not mults:
            raise ValidationError("configuration needs at least one resource")
        for a in mults:
            if not is_finite(a):
                raise ValidationError(f"non-finite multiplier {a}")
            if a < 0:
                raise ValidationError(f"negative multiplier {a}")
        self.multipliers = mults
        self.law = law
        self.max_multiplier = max(mults)
        self._nonzero = tuple(i for i, a in enumerate(mults) if a != 0)

    def expected_max(self):
        """E[max_i X_i(c)] = (max_i a_i) * E[X]."""
        return self.max_multiplier * self.law.mean()

    def expected_max_exceptional(self, tau):
        """E[max_i X_i^E(c)]: exceptional part of the largest coordinate."""
        a = self.max_multiplier
        if a == 0:
            return 0
        return self.law.exceptional_mean(tau, a)

    def expected_truncated(self, i, tau):
        """E[X_i^T(c)] for resource i; truncation is per coordinate."""
        a = self.multipliers[i]
        if a == 0:
            return 0
        return self.law.truncated_mean(tau, a)

    def tails(self, tau):
        """(expected_max_exceptional, [(i, expected_truncated(i)) for every
        a_i != 0]) at tau, with one truncated-mean scan per distinct nonzero
        multiplier (keyed by type as well, since 1 and 1.0 scale a rational
        law into different types)."""
        law, mults = self.law, self.multipliers
        by_multiplier = {}
        truncated = []
        for i in self._nonzero:
            a = mults[i]
            key = (a.__class__, a)
            v = by_multiplier.get(key)
            if v is None:
                v = by_multiplier[key] = law.truncated_mean(tau, a)
            truncated.append((i, v))
        return self.expected_max_exceptional(tau), truncated

    def proxy_vector(self, tau):
        """Deterministic proxy (x_0, x_1, ..., x_m): exceptional part on the
        virtual resource 0, truncated expectations elsewhere."""
        exceptional, truncated = self.tails(tau)
        loads = [0] * len(self.multipliers)
        for i, v in truncated:
            loads[i] = v
        return (exceptional, *loads)

    def exact(self):
        """This configuration in Fractions; itself when it already is."""
        law = self.law.exact()
        if law is self.law and all(type(a) is Fraction for a in self.multipliers):
            return self
        return Configuration([as_exact(a) for a in self.multipliers], law)

    def __eq__(self, other):
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.multipliers == other.multipliers and self.law == other.law

    def __repr__(self):
        return f"Configuration({list(self.multipliers)}, {self.law!r})"


class Request:
    __slots__ = ("id", "configs")

    def __init__(self, id, configs):
        cfgs = tuple(configs)
        if not cfgs:
            raise ValidationError(f"request {id} has no configurations")
        width = len(cfgs[0].multipliers)
        if any(len(c.multipliers) != width for c in cfgs):
            raise ValidationError(f"request {id}: configurations disagree on resource count")
        self.id = int(id)
        self.configs = cfgs

    def __eq__(self, other):
        if not isinstance(other, Request):
            return NotImplemented
        return self.id == other.id and self.configs == other.configs

    def __repr__(self):
        return f"Request({self.id}, {len(self.configs)} configs)"


class ConfigInstance:
    """Configuration balancing: choose one configuration per request."""

    kind = "config"

    def __init__(self, m, requests):
        self.m = int(m)
        if self.m < 1:
            raise ValidationError("resource count must be >= 1")
        reqs = tuple(requests)
        for r in reqs:
            if len(r.configs[0].multipliers) != self.m:
                raise ValidationError(
                    f"request {r.id}: multiplier length != resource count {self.m}"
                )
        if len({r.id for r in reqs}) != len(reqs):
            raise ValidationError("request ids are not unique")
        self.requests = reqs

    @property
    def n(self):
        return len(self.requests)

    def exact(self):
        return ConfigInstance(
            self.m,
            [Request(r.id, [c.exact() for c in r.configs]) for r in self.requests],
        )

    def __eq__(self, other):
        if not isinstance(other, ConfigInstance):
            return NotImplemented
        return self.m == other.m and self.requests == other.requests

    def __repr__(self):
        return f"ConfigInstance(m={self.m}, n={self.n})"


class UnrelatedInstance:
    """Load balancing on unrelated machines: job j has law X_ij per machine i.

    Per-machine laws of one job are alternatives, never jointly realized.
    """

    kind = "unrelated"

    def __init__(self, m, jobs):
        self.m = int(m)
        if self.m < 1:
            raise ValidationError("machine count must be >= 1")
        jb = tuple(tuple(row) for row in jobs)
        for idx, row in enumerate(jb):
            if len(row) != self.m:
                raise ValidationError(f"job {idx}: expected {self.m} machine laws")
        self.jobs = jb

    @property
    def n(self):
        return len(self.jobs)

    def __eq__(self, other):
        if not isinstance(other, UnrelatedInstance):
            return NotImplemented
        return self.m == other.m and self.jobs == other.jobs

    def __repr__(self):
        return f"UnrelatedInstance(m={self.m}, n={self.n})"


class RelatedInstance:
    """Load balancing on related machines: X_ij = X_j / s_i."""

    kind = "related"

    def __init__(self, speeds, jobs):
        sp = tuple(speeds)
        if not sp:
            raise ValidationError("need at least one machine")
        for s in sp:
            if s <= 0:
                raise ValidationError(f"machine speed must be positive, got {s}")
        self.speeds = sp
        self.jobs = tuple(jobs)

    @property
    def m(self):
        return len(self.speeds)

    @property
    def n(self):
        return len(self.jobs)

    def __eq__(self, other):
        if not isinstance(other, RelatedInstance):
            return NotImplemented
        return self.speeds == other.speeds and self.jobs == other.jobs

    def __repr__(self):
        return f"RelatedInstance(m={self.m}, n={self.n})"


class RoutingInstance:
    """Virtual circuit routing on a directed graph with edge capacities."""

    kind = "routing"

    def __init__(self, vertices, edges, requests):
        self.vertices = int(vertices)
        if self.vertices < 1:
            raise ValidationError("need at least one vertex")
        eds = []
        for tail, head, cap in edges:
            tail, head = int(tail), int(head)
            if not (0 <= tail < self.vertices and 0 <= head < self.vertices):
                raise ValidationError(f"edge ({tail},{head}) out of vertex range")
            if cap <= 0:
                raise ValidationError(f"edge ({tail},{head}) capacity must be positive")
            eds.append((tail, head, cap))
        self.edges = tuple(eds)
        self.capacities = tuple(float(cap) for _, _, cap in eds)
        reqs = []
        for source, sink, law in requests:
            source, sink = int(source), int(sink)
            if source == sink:
                raise ValidationError(f"request with source == sink == {source}")
            if not (0 <= source < self.vertices and 0 <= sink < self.vertices):
                raise ValidationError(f"request ({source},{sink}) out of vertex range")
            reqs.append((source, sink, law))
        self.requests = tuple(reqs)
        for j, (s, t, _) in enumerate(self.requests):
            if not self._reachable(s, t):
                raise NoFeasiblePath(f"request {j}: no directed path {s} -> {t}")

    @property
    def m(self):
        """Resources are the edges."""
        return len(self.edges)

    @property
    def n(self):
        return len(self.requests)

    def min_expected_cost(self, j):
        """E[X_j] over the widest source-sink capacity: the least expected
        bottleneck load any path can give request j."""
        source, sink, law = self.requests[j]
        width = widest_path_value(self.vertices, self.edges, range(self.m), source, sink)
        return float(law.mean()) / width

    def _reachable(self, s, t, edge_ids=None):
        adj = {}
        ids = range(len(self.edges)) if edge_ids is None else edge_ids
        for e in ids:
            tail, head, _ = self.edges[e]
            adj.setdefault(tail, []).append(head)
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            if u == t:
                return True
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    def __eq__(self, other):
        if not isinstance(other, RoutingInstance):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self.requests == other.requests
        )

    def __repr__(self):
        return f"RoutingInstance(V={self.vertices}, m={self.m}, n={self.n})"


class SmoothedGroups:
    """Machine groups after smoothing: ascending speeds, geometric sizes."""

    __slots__ = ("groups",)

    def __init__(self, groups):
        self.groups = tuple((speed, int(count), tuple(ids)) for speed, count, ids in groups)
        speeds = [g[0] for g in self.groups]
        if any(a >= b for a, b in zip(speeds, speeds[1:])):
            raise ValidationError("group speeds must be strictly increasing")
        for (_, mk, _), (_, mk1, _) in zip(self.groups, self.groups[1:]):
            if 2 * mk < 3 * mk1:
                raise ValidationError("group sizes must satisfy m_k >= 1.5 * m_{k+1}")

    def __len__(self):
        return len(self.groups)

    def __iter__(self):
        return iter(self.groups)

    def renumbered(self):
        """These groups with each machine id replaced by its position in the
        surviving instance of smooth_machines, which lists the kept machines
        in ascending original id."""
        kept = sorted(i for _, _, ids in self.groups for i in ids)
        position = {i: k for k, i in enumerate(kept)}
        return SmoothedGroups(
            (speed, count, tuple(sorted(position[i] for i in ids)))
            for speed, count, ids in self.groups
        )

    def __repr__(self):
        body = ", ".join(f"{s}:x{c}" for s, c, _ in self.groups)
        return f"SmoothedGroups({body})"


# ---------------------------------------------------------------------------
# reductions


def unrelated_to_config(u):
    """One configuration per machine: indicator multipliers, law X_cj."""
    requests = []
    for j, row in enumerate(u.jobs):
        configs = []
        for c in range(u.m):
            mult = [0] * u.m
            mult[c] = 1
            configs.append(Configuration(mult, row[c]))
        requests.append(Request(j, configs))
    return ConfigInstance(u.m, requests)


def related_to_unrelated(r):
    """X_ij = X_j / s_i."""
    jobs = []
    for law in r.jobs:
        jobs.append(tuple(law.scale(_invert(s)) for s in r.speeds))
    return UnrelatedInstance(r.m, jobs)


def _invert(s):
    if isinstance(s, Rational):
        return Fraction(1) / Fraction(s)
    return 1.0 / s


def as_config_instance(inst):
    """Reduce a load-balancing instance to configuration balancing
    (related -> unrelated -> config); routing instances have no explicit
    configuration form and are rejected."""
    if isinstance(inst, RelatedInstance):
        inst = related_to_unrelated(inst)
    if isinstance(inst, UnrelatedInstance):
        inst = unrelated_to_config(inst)
    if not isinstance(inst, ConfigInstance):
        raise ValidationError(
            f"expected a config, unrelated or related instance, got {inst.kind}"
        )
    return inst


class RoutingRequestView:
    """Implicit configuration view of one routing request at threshold tau,
    holding the routing cost model the LP, online and offline layers share.

    The admissible edges are E_j = {e : E[X_j] / c_e <= tau}, tested in
    floats; truncated[e] is E[X_ej^T] for each admissible edge, priced once
    per distinct capacity; the exceptional part of a path sits at its
    bottleneck edge. Paths are enumerated lazily, never materialized as a
    configuration list.
    """

    __slots__ = (
        "instance", "index", "source", "sink", "law", "tau", "edge_ids",
        "truncated", "_exceptional",
    )

    def __init__(self, instance, index, tau):
        self.instance = instance
        self.index = index
        self.source, self.sink, self.law = instance.requests[index]
        self.tau = tau
        caps = instance.capacities
        mean, t = float(self.law.mean()), float(tau)
        self.edge_ids = tuple(e for e in range(instance.m) if mean / caps[e] <= t)
        if not instance._reachable(self.source, self.sink, self.edge_ids):
            raise NoFeasiblePath(
                f"request {index}: admissible edges disconnect {self.source} -> {self.sink}"
            )
        by_cap = {}
        for e in self.edge_ids:
            if caps[e] not in by_cap:
                by_cap[caps[e]] = float(self.law.truncated_mean(tau, 1.0 / caps[e]))
        self.truncated = {e: by_cap[caps[e]] for e in self.edge_ids}
        self._exceptional = {}  # bottleneck capacity -> exceptional part

    def exceptional(self, path):
        """E[max_{e in P} X_ej^E] = exceptional part at the bottleneck edge."""
        c_min = min(self.instance.capacities[e] for e in path)
        exc = self._exceptional.get(c_min)
        if exc is None:
            exc = float(self.law.exceptional_mean(self.tau, 1.0 / c_min))
            self._exceptional[c_min] = exc
        return exc

    def best_path(self, weights, score):
        """Bottleneck-capacity guessing: for each distinct admissible
        capacity, in edge order, the lex-shortest path under weights over the
        admissible edges at or above it. Returns (path, score(path)) for the
        candidate minimizing (score, canonical path key), the first candidate
        winning ties, or None if no guess yields a path."""
        r = self.instance
        best = None
        seen_caps = set()
        caps = r.capacities
        for ebar in self.edge_ids:
            cap = caps[ebar]
            if cap in seen_caps:
                continue
            seen_caps.add(cap)
            sub = tuple(e for e in self.edge_ids if caps[e] >= cap)
            path = lex_shortest_path(r.vertices, r.edges, sub, weights, self.source, self.sink)
            if path is None:
                continue
            value = score(path)
            key = (value, path_key(r.edges, path))
            if best is None or key < best[0]:
                best = (key, path, value)
        if best is None:
            return None
        return best[1], best[2]

    def paths(self):
        """Yield simple source-sink paths as tuples of edge ids, in
        lexicographic order of the (vertex, edge) sequence."""
        yield from simple_paths(
            self.instance.vertices,
            self.instance.edges,
            self.edge_ids,
            self.source,
            self.sink,
        )


def routing_to_config(r, tau):
    """Per-request implicit configuration views at threshold tau."""
    check_tau(tau)
    return [RoutingRequestView(r, j, tau) for j in range(r.n)]


# ---------------------------------------------------------------------------
# machine smoothing


def _floor_log2(f):
    """Largest integer t with 2^t <= f, computed exactly for Fraction f <= 1."""
    if f > 1:
        raise ValueError("expected a ratio in (0, 1]")
    t = 0
    half = Fraction(1, 2)
    power = Fraction(1)
    while power > f:
        power *= half
        t -= 1
    return t


def smooth_machines(r):
    """Speed rounding and group pruning for related machines.

    Rescales so the fastest speed is 1, deletes machines slower than 1/m
    (the fastest machine always survives), rounds speeds down to powers of
    two, then repeatedly deletes any group whose size is below 3/2 times the
    size of the next-faster surviving group, until the geometric-size
    property holds. Returns the groups and the surviving instance with
    rounded speeds in original machine order and original units.
    """
    m = r.m
    exact_mode = all(isinstance(s, Rational) for s in r.speeds)
    speeds = [as_exact(s) for s in r.speeds]
    s_max = max(speeds)
    kept = {}
    for i, s in enumerate(speeds):
        ratio = s / s_max
        if ratio <= Fraction(1, m) and ratio < 1:
            continue
        kept[i] = _floor_log2(ratio)

    by_exp = {}
    for i, t in kept.items():
        by_exp.setdefault(t, []).append(i)
    order = sorted(by_exp)  # ascending exponent = ascending speed

    groups = [(t, by_exp[t]) for t in order]
    # Delete undersized groups until every adjacent surviving pair satisfies
    # m_k >= (3/2) m_{k+1}; rescanning after each deletion keeps the
    # comparison against the current next-faster surviving group.
    changed = True
    while changed:
        changed = False
        for k in range(len(groups) - 1):
            mk = len(groups[k][1])
            mk1 = len(groups[k + 1][1])
            if 2 * mk < 3 * mk1:
                del groups[k]
                changed = True
                break

    def to_speed(t):
        if exact_mode:
            return Fraction(s_max) * Fraction(2) ** t
        return math.ldexp(float(s_max), t)

    group_list = [(to_speed(t), len(ids), tuple(sorted(ids))) for t, ids in groups]
    smoothed = SmoothedGroups(group_list)

    surviving = sorted(i for _, ids in groups for i in ids)
    exp_of = {i: t for t, ids in groups for i in ids}
    new_speeds = [to_speed(exp_of[i]) for i in surviving]
    return smoothed, RelatedInstance(new_speeds, r.jobs)


# ---------------------------------------------------------------------------
# generators


def gen_adaptivity_gap_instance(m, tau):
    """One fast machine, m-1 slow ones, one tau*Ber(1/tau) job and m-1
    deterministic jobs of size 1/m."""
    if m < 2:
        raise ValidationError("need m >= 2")
    tau = as_exact(tau)
    if tau <= 1:
        raise ValidationError("need tau > 1")
    one = Fraction(1)
    speeds = [one] + [one / (tau * m)] * (m - 1)
    jobs = [scaled_bernoulli(tau, one / tau)]
    jobs += [point_mass(one / m) for _ in range(m - 1)]
    return RelatedInstance(speeds, jobs)


def gen_clairvoyance_adversary_instance(m):
    """One fast machine and m-1 machines of speed 1/sqrt(m); job pool of one
    big job (size 1) and m-1 small jobs (size 1/sqrt(m)). Job identities are
    assigned adaptively by the adversary simulation."""
    if m < 1:
        raise ValidationError("need m >= 1")
    root = math.isqrt(m)
    inv_root = Fraction(1, root) if root * root == m else 1.0 / math.sqrt(m)
    one = Fraction(1) if root * root == m else 1.0
    speeds = [one] + [inv_root] * (m - 1)
    jobs = [point_mass(one)] + [point_mass(inv_root) for _ in range(m - 1)]
    return RelatedInstance(speeds, jobs)


_TINY_VALUES = (0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3)
_TINY_MULTS = (0, Fraction(1, 2), 1, 2)


def _tiny_law(rng, support_max, require_positive=False):
    size = int(rng.integers(1, support_max + 1))
    values = list(_TINY_VALUES)
    if require_positive:
        values = [v for v in values if v > 0]
    idx = rng.choice(len(values), size=size, replace=False)
    picked = sorted(values[i] for i in idx)
    # probabilities as eighths so rational mode is exact
    cuts = sorted(rng.choice(7, size=size - 1, replace=False) + 1) if size > 1 else []
    weights = [b - a for a, b in zip([0] + cuts, cuts + [8])]
    return DiscreteDistribution(
        [(v, Fraction(w, 8)) for v, w in zip(picked, weights)]
    )


def random_tiny_instance(kind, rng, n_max=4, m_max=3, q_max=3, support_max=3):
    """Reproducible random instance within oracle-tractable bounds."""
    if n_max > 4 or m_max > 3 or q_max > 3 or support_max > 3:
        raise ValidationError("bounds exceed oracle-tractable limits (4, 3, 3, 3)")
    if n_max < 1 or m_max < 1:
        raise ValidationError(f"n_max and m_max must be at least 1, got {n_max} and {m_max}")
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    if kind == "config":
        requests = []
        for j in range(n):
            q = int(rng.integers(1, q_max + 1))
            configs = []
            for _ in range(q):
                while True:
                    mult = [
                        _TINY_MULTS[int(rng.integers(0, len(_TINY_MULTS)))]
                        for _ in range(m)
                    ]
                    if j > 0 or any(a > 0 for a in mult):
                        break
                law = _tiny_law(rng, support_max, require_positive=(j == 0))
                configs.append(Configuration(mult, law))
            requests.append(Request(j, configs))
        return ConfigInstance(m, requests)
    if kind == "unrelated":
        jobs = []
        for j in range(n):
            jobs.append(
                tuple(
                    _tiny_law(rng, support_max, require_positive=(j == 0))
                    for _ in range(m)
                )
            )
        return UnrelatedInstance(m, jobs)
    if kind == "related":
        speed_pool = (Fraction(1, 2), 1, 2, 4)
        speeds = [speed_pool[int(rng.integers(0, len(speed_pool)))] for _ in range(m)]
        jobs = [
            _tiny_law(rng, support_max, require_positive=(j == 0)) for j in range(n)
        ]
        return RelatedInstance(speeds, jobs)
    raise ValidationError(f"unknown tiny-instance kind {kind!r}")
