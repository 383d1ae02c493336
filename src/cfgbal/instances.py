"""Problem instances: configuration balancing, load balancing, routing.

All instances are immutable after validation. Configurations use the
scaled-scalar canonical form: one scalar law X and a fixed multiplier per
resource, so resource i receives multipliers[i] * X. This covers load
balancing (indicator multipliers) and routing (1/capacity along a path,
perfectly correlated) and makes E[max_i X_i^E] a one-dimensional quantity.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, compress, repeat
from numbers import Rational

import numpy as np

from .distributions import (
    EXACT_TYPES,
    DiscreteDistribution,
    ValidationError,
    as_exact,
    check_tau,
    is_finite,
    point_mass,
    scaled_bernoulli,
)
from .graphs import (
    Digraph,
    lex_shortest_path,
    path_key,
    reachable,
    widest_path_value,
)


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
        self.max_multiplier = top = max(mults)
        # 0 <= a < inf for every a, checked a whole list at a time: ints and
        # Fractions are finite, and a NaN, which min and max may skip, makes
        # the sum NaN (a sum of floats is cheap, of Fractions is not)
        exact = type(top) is not float and set(map(type, mults)) <= EXACT_TYPES
        if not (min(mults) >= 0 and (exact or top < math.inf and (s := sum(mults)) == s)):
            for a in mults:
                if not is_finite(a):
                    raise ValidationError(f"non-finite multiplier {a}")
                if a < 0:
                    raise ValidationError(f"negative multiplier {a}")
        self.multipliers = mults
        self.law = law
        self._nonzero = tuple(compress(range(len(mults)), mults))

    def expected_max(self):
        """E[max_i X_i(c)] = (max_i a_i) * E[X]."""
        return self.max_multiplier * self.law.mean()

    def tails(self, tau):
        """The configuration's prices at tau, which the online proxies and
        the offline loads read: (E[max_i X_i^E], [(i, E[X_i^T]) for every
        a_i != 0]). The exceptional part is that of the largest coordinate
        (0 when every a_i is 0); truncation is per coordinate, with one
        truncated-mean scan per distinct nonzero multiplier (keyed by type
        as well, since 1 and 1.0 scale a rational law into different
        types)."""
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
        top = self.max_multiplier
        return (law.exceptional_mean(tau, top) if top else 0), truncated

    def exact(self):
        """This configuration in exact numbers; itself when it already is
        (ints and Fractions), else a copy in Fractions."""
        law = self.law.exact()
        if law is self.law and set(map(type, self.multipliers)) <= EXACT_TYPES:
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
        self._tail_table = None

    @property
    def n(self):
        return len(self.requests)

    def tail_table(self):
        """This instance's TailTable, built on the first call."""
        if self._tail_table is None:
            self._tail_table = TailTable(self)
        return self._tail_table

    def exact(self):
        """This instance in exact numbers; itself when it already is."""
        if all(c.exact() is c for r in self.requests for c in r.configs):
            return self
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


class TailTable:
    """What LP_C needs of a ConfigInstance at every threshold, computed
    once, so that lp.build_lpc only looks values up.

    Configurations are numbered in request order: choices[k] = (j, c),
    emax[k] = float(E[max_i X_i(c)]), and request_start[j] numbers request
    j's first configuration.

    A pair is a distinct (law, multiplier a) that some configuration prices
    with: a nonzero multiplier or a nonzero largest multiplier, keyed by the
    law object and by a's type and value, like Configuration.tails. Pair p
    has breakpoints[p], the nonzero scaled support values x = v * a in the
    law's own number types (ascending, since a > 0 keeps the order;
    underflow can make two equal, and a zero can split no tau > 0), and
    from position start[p] of truncated and exceptional the kernel's values
    as floats at each breakpoint and then at +inf. For tau > 0 and
    s = bisect_left(breakpoints[p], tau), the breakpoints below tau are
    exactly the first s, so the kernel sums the same terms in the same
    order at tau as at the s-th point: the stored value is the kernel's
    value at tau, bit for bit. The table computes those values without
    calling the kernel, from one list per pair of the kernel's terms
    (v * a) * p in support order: at a point x, with c = bisect_left over
    the scaled values (the kernel's x_i < tau split), the truncated value
    is the running sum accumulate(terms, initial=0) at c, which adds what
    the kernel's sum() adds in the same order, and the exceptional value
    is sum(terms[c:]).

    LP_C's coefficients are entries: configuration entry_config[e] in row
    entry_row[e] (resource i is row i, the exceptional row m, request j row
    m + 1 + j: lp.py's layout) with value entry_value[e], an index into
    [*truncated at tau, *exceptional at tau, 1.0] over the pairs. Each
    configuration lists its request row, the truncated row of every nonzero
    multiplier and, if its largest multiplier is nonzero, the exceptional
    row.
    """

    def __init__(self, inst):
        m = inst.m
        index = {}
        self.pairs, self.breakpoints = [], []
        start, truncated, exceptional = [], [], []

        def pair(law, a):
            key = (id(law), a.__class__, a)
            p = index.get(key)
            if p is None:
                p = index[key] = len(self.pairs)
                self.pairs.append((law, a))
                xs = [v * a for v, _ in law.support]
                terms = [x * prob for x, (_, prob) in zip(xs, law.support)]
                prefix = list(accumulate(terms, initial=0))
                points = [x for x in xs if x]
                self.breakpoints.append(points)
                start.append(len(truncated))
                for x in points + [math.inf]:
                    c = bisect_left(xs, x)
                    truncated.append(float(prefix[c]))
                    exceptional.append(float(sum(terms[c:])))
            return p

        self.choices, emax, request_start = [], [], []
        entries = []  # (configuration, row, kind, pair); kind 0 truncated, 1 exceptional, 2 request
        for j, req in enumerate(inst.requests):
            request_start.append(len(emax))
            for c, config in enumerate(req.configs):
                k = len(emax)
                self.choices.append((j, c))
                emax.append(float(config.expected_max()))
                law, mults = config.law, config.multipliers
                entries.append((k, m + 1 + j, 2, 0))
                entries += [(k, i, 0, pair(law, mults[i])) for i in config._nonzero]
                if config.max_multiplier:
                    entries.append((k, m, 1, pair(law, config.max_multiplier)))
        self.emax = np.array(emax, dtype=float)
        self.request_start = np.array(request_start, dtype=np.intp)
        self.start = np.array(start, dtype=np.intp)
        self.truncated = np.array(truncated, dtype=float)
        self.exceptional = np.array(exceptional, dtype=float)
        config, row, kind, p = np.array(entries, dtype=np.intp).reshape(-1, 4).T
        self.entry_config, self.entry_row = config, row
        self.entry_value = kind * len(self.pairs) + p

    def tails_at(self, tau):
        """(truncated, exceptional) at tau > 0: float arrays over the
        pairs, equal to float(law.truncated_mean(tau, a)) and
        float(law.exceptional_mean(tau, a))."""
        splits = np.fromiter(
            map(bisect_left, self.breakpoints, repeat(tau)), dtype=np.intp, count=len(self.breakpoints)
        )
        at = self.start + splits
        return self.truncated[at], self.exceptional[at]


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
        self.graph = Digraph(self.edges)
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
            if not reachable(self.graph, range(self.m), s, t):
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
        return float(law.mean()) / widest_path_value(self.graph, source, sink)

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


def as_float_instance(inst, kind):
    """inst as a `kind` instance for the layers that compute in floats (the
    LP, the online and offline algorithms): kind "config" reduces load
    balancing input through as_config_instance, "related" and "routing"
    take only their own kind. Rejects an instance whose largest load, by
    check_float_loads, is not a finite float."""
    if kind == "config":
        if isinstance(inst, RelatedInstance):
            check_float_loads(inst)  # named before the reduction overflows
        inst = as_config_instance(inst)
    elif inst.kind != kind:
        raise ValidationError(f"expected a {kind} instance, got {inst.kind}")
    return check_float_loads(inst)


def check_float_loads(inst):
    """Raise a ValidationError naming the first largest load that is not a
    finite float: a configuration's largest multiplier times its largest
    value, a related job's largest value over the slowest speed, a routing
    request's largest value over the smallest capacity. Returns inst."""
    if isinstance(inst, ConfigInstance):
        where = "request {} configuration {}"
        loads = (
            ((r.id, k), c.max_multiplier, "*", c.law.support[-1][0])
            for r in inst.requests
            for k, c in enumerate(r.configs)
        )
    elif isinstance(inst, RelatedInstance):
        where = "job {} machine {}"
        i = min(range(inst.m), key=inst.speeds.__getitem__)
        loads = (((j, i), law.support[-1][0], "/", inst.speeds[i]) for j, law in enumerate(inst.jobs))
    else:
        where = "request {} edge {}"
        e = min(range(inst.m), key=inst.capacities.__getitem__, default=0)
        loads = (
            ((j, e), law.support[-1][0], "/", inst.edges[e][2])
            for j, (_, _, law) in enumerate(inst.requests)
        )
    for at, a, op, b in loads:
        try:
            load = float(a) * float(b if op == "*" else _invert(b))
        except OverflowError:
            load = math.inf
        if not math.isfinite(load):
            raise ValidationError(
                f"{where.format(*at)}: largest load {a} {op} {b} is not a finite float"
            )
    return inst


class RoutingRequestView:
    """Implicit configuration view of one routing request at threshold tau,
    holding the routing cost model the LP, online and offline layers share.

    The admissible edges are E_j = {e : E[X_j] / c_e <= tau}, tested in
    floats; truncated[e] is E[X_ej^T] for each admissible edge, priced once
    per distinct capacity; the exceptional part of a path sits at its
    bottleneck edge. Paths are found by walks over the admissible edges,
    never materialized as a configuration list.
    """

    __slots__ = (
        "instance", "index", "source", "sink", "law", "tau", "edge_ids",
        "truncated", "_exceptional", "_seed",
    )

    def __init__(self, instance, index, tau):
        self.instance = instance
        self.index = index
        self.source, self.sink, self.law = instance.requests[index]
        self.tau = tau
        caps = instance.capacities
        mean, t = float(self.law.mean()), float(tau)
        self.edge_ids = tuple(e for e in range(instance.m) if mean / caps[e] <= t)
        if not reachable(instance.graph, self.edge_ids, self.source, self.sink):
            raise NoFeasiblePath(
                f"request {index}: admissible edges disconnect {self.source} -> {self.sink}"
            )
        by_cap = {}
        for e in self.edge_ids:
            if caps[e] not in by_cap:
                by_cap[caps[e]] = float(self.law.truncated_mean(tau, 1.0 / caps[e]))
        self.truncated = {e: by_cap[caps[e]] for e in self.edge_ids}
        self._exceptional = {}  # bottleneck capacity -> exceptional part
        self._seed = None

    def seed_path(self):
        """The lex-shortest source-sink path under the truncated weights,
        found once per view: column generation's first column."""
        if self._seed is None:
            self._seed = lex_shortest_path(
                self.instance.graph, self.edge_ids, self.truncated, self.source, self.sink
            )
        return self._seed

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
            path = lex_shortest_path(r.graph, sub, weights, self.source, self.sink)
            if path is None:
                continue
            value = score(path)
            key = (value, path_key(r.edges, path))
            if best is None or key < best[0]:
                best = (key, path, value)
        if best is None:
            return None
        return best[1], best[2]


class RoutingViewMemo:
    """The RoutingRequestViews of one threshold search over r, built once
    per (request, split). A view reads tau only through the tail kernel's
    partition x < tau of each x = v * (1.0 / c), over its law's support
    values v and the distinct capacities c, and through the admissibility
    rule float(mean) / c <= float(tau). So the split is one bisect_left
    per capacity over the x and the count of thresholds float(mean) / c at
    or below float(tau), and views with one split are equal in every bit.
    A memoized view keeps the tau it was built at, its exceptional parts
    and its seed path. A split that disconnects the request raises a new
    NoFeasiblePath with the same message each time."""

    __slots__ = ("instance", "scaled", "thresholds", "views")

    def __init__(self, r):
        self.instance = r
        caps = sorted(set(r.capacities))
        self.scaled, self.thresholds = [], []
        for _, _, law in r.requests:
            self.scaled.append([[v * (1.0 / c) for v, _ in law.support] for c in caps])
            mean = float(law.mean())
            self.thresholds.append(sorted(mean / c for c in caps))
        self.views = {}  # (request, split) -> view, or the NoFeasiblePath message

    def view(self, j, tau):
        """RoutingRequestView(r, j, tau), from the memo."""
        split = (bisect_right(self.thresholds[j], float(tau)), *(bisect_left(x, tau) for x in self.scaled[j]))
        view = self.views.get((j, split))
        if view is None:
            try:
                view = RoutingRequestView(self.instance, j, tau)
            except NoFeasiblePath as exc:
                view = str(exc)
            self.views[j, split] = view
        if isinstance(view, str):
            raise NoFeasiblePath(view)
        return view


def routing_to_config(r, tau, memo=None):
    """Per-request implicit configuration views at threshold tau, fresh, or
    from memo, a RoutingViewMemo of r."""
    check_tau(tau)
    if memo is None:
        return [RoutingRequestView(r, j, tau) for j in range(r.n)]
    return [memo.view(j, tau) for j in range(r.n)]


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
