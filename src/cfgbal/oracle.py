"""Exact adaptive-policy computations on tiny instances.

Everything here is exact: the optimal adaptive policy via memoized value
iteration over (remaining requests, load vector) states, exact policy
evaluation (expected makespan and total expected exceptional load), the
restart transform that caps exceptional load, and the clairvoyance-gap
adversary. Floats would break comparisons like 11/8 vs 11/4 at the
boundaries, so inputs are converted to Fractions up front, and the walkers
compute with Python ints over common denominators (see outcome_table);
results become Fractions again at the public boundary.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .distributions import ValidationError, check_tau
from .instances import as_config_instance

# a float load snaps to the grid point within 1 / SNAP_RATIO relative of it
SNAP_RATIO = 10**9


class StateSpaceExceeded(RuntimeError):
    def __init__(self, size, limit):
        super().__init__(f"oracle state space {size} exceeds limit {limit}")
        self.size = size


class IncompletePolicy(RuntimeError):
    """The supplied policy left a reachable state undecided."""


class PolicyValue:
    """Exact expected makespan and expected total exceptional load."""

    __slots__ = ("makespan", "exceptional")

    def __init__(self, makespan, exceptional):
        self.makespan = makespan
        self.exceptional = exceptional

    def __iter__(self):
        return iter((self.makespan, self.exceptional))

    def __eq__(self, other):
        if not isinstance(other, PolicyValue):
            return NotImplemented
        return (self.makespan, self.exceptional) == (other.makespan, other.exceptional)

    def __repr__(self):
        return f"PolicyValue(makespan={self.makespan}, exceptional={self.exceptional})"


def to_config_instance(inst):
    """Accept any load-balancing instance; reduce to configuration
    balancing with exact rational data."""
    return as_config_instance(inst).exact()


def outcome_table(inst):
    """(table, D, P) of an exact configuration instance: D is the lcm of
    the denominators of every a * v in lowest terms, P the lcm of the
    denominators of every support probability.

    table is {request id: one (E[max_i X_i] * D * P, outcomes) per
    configuration}; outcomes holds one (v, p * P, a_max * v * D, increments)
    per support point, where increments lists (i, a_i * v * D) for every
    a_i != 0: the load added to each resource. All but v are ints. Every
    walker holds a load L as the int L * D and reads these instead of
    recomputing L + a * v for all resources at every state; the value of a
    state with s requests left is then an int over D * P**s.

    Each a * v is computed as an int pair (numerator, denominator) reduced
    by math.gcd, not as a Fraction, so D is the same lcm a Fraction product
    would give.
    """
    products = {}
    for r in inst.requests:
        rows = products[r.id] = []
        for c in r.configs:
            nonzero = [(i, a.numerator, a.denominator) for i, a in enumerate(c.multipliers) if a != 0]
            support = []
            for v, p in c.law.support:
                incs = []
                for i, an, ad in nonzero:
                    num, d = an * v.numerator, ad * v.denominator
                    g = math.gcd(num, d)
                    incs.append((i, num // g, d // g))
                support.append((v, p, incs))
            rows.append(support)
    points = [point for configs in products.values() for support in configs for point in support]
    den = math.lcm(1, *(d for _, _, incs in points for _, _, d in incs))
    pden = math.lcm(1, *(p.denominator for _, p, _ in points))
    table = {}
    for j, configs in products.items():
        rows = []
        for support in configs:
            outcomes = []
            for v, p, incs in support:
                increments = tuple((i, num * (den // d)) for i, num, d in incs)
                # a_max * v is the largest a_i * v: multipliers are nonnegative
                peak = max((x for _, x in increments), default=0)
                outcomes.append((v, p.numerator * (pden // p.denominator), peak, increments))
            rows.append((sum(p * peak for _, p, peak, _ in outcomes), tuple(outcomes)))
        table[j] = tuple(rows)
    return table, den, pden


def add_load(loads, increments):
    """loads with each (i, x) of increments added."""
    new = list(loads)
    for i, x in increments:
        new[i] += x
    return tuple(new)


def tau_threshold(tau, den):
    """The least int peak * D with peak >= tau (a Fraction): an outcome is
    exceptional at tau iff its int peak reaches it."""
    return math.ceil(tau * den)


class AdaptiveOracle:
    """Memoized value iteration for the optimal adaptive policy.

    A state is (frozenset of remaining request ids, per-resource loads).
    V(empty, L) = max_i L_i; otherwise the policy picks the (request,
    configuration) pair minimizing the expected continuation. Ties break on
    the lowest (request id, config id), making OPT deterministic.

    The memo holds loads as ints over D and V(S, L) as the int
    V * D * P**|S| (see outcome_table): a leaf stores max_i L_i * D, a step
    sum_k (p_k * P) * V_int(rest, L + inc_k). Every candidate at one state
    has the same scale, so comparing ints picks the same argmin, and the
    same tie, as comparing Fractions. value and choice take Fraction, int
    or float loads (see _grid_loads); max_states bounds the memo's states.
    """

    def __init__(self, inst, max_states=2_000_000):
        self.inst = to_config_instance(inst)
        self.max_states = max_states
        self.by_id = {r.id: r for r in self.inst.requests}
        self.table, self.den, self.pden = outcome_table(self.inst)
        self._value = {}
        self._choice = {}
        self.zero_loads = (0,) * self.inst.m
        self.all_ids = frozenset(self.by_id)

    def _grid_loads(self, loads):
        """A load vector as ints over D. An exact load must be a multiple
        of 1/D; a float snaps to the multiple within 1e-9 relative of it,
        as float sums like 1/3 + 1/3 miss the grid by rounding. Anything
        else raises ValidationError."""
        if len(loads) != self.inst.m:
            raise ValidationError(f"expected {self.inst.m} loads, got {len(loads)}")
        den = self.den
        grid = []
        for x in loads:
            if isinstance(x, float):
                if not math.isfinite(x):
                    raise ValidationError(f"non-finite load {x}")
                num, d = x.as_integer_ratio()
                k = (2 * num * den + d) // (2 * d)  # the nearest multiple of 1/D
                on_grid = abs(num * den - k * d) * SNAP_RATIO <= abs(k) * d
            else:
                scaled = Fraction(x) * den
                k = scaled.numerator
                on_grid = scaled.denominator == 1
            if not on_grid:
                raise ValidationError(f"load {x} is not a multiple of 1/{den}, the oracle's load grid")
            grid.append(k)
        return tuple(grid)

    def value(self, remaining=None, loads=None):
        """V(remaining, loads) as a Fraction; by default every request from
        zero loads."""
        if remaining is None:
            remaining = self.all_ids
        loads = self.zero_loads if loads is None else self._grid_loads(loads)
        return Fraction(self._solve(remaining, loads), self.den * self.pden ** len(remaining))

    def _solve(self, remaining, loads):
        """V_int at a state of int loads."""
        key = (remaining, loads)
        cached = self._value.get(key)
        if cached is not None:
            return cached
        best = best_choice = None
        if not remaining:
            best = max(loads, default=0)
        for j in sorted(remaining):
            rest = remaining - {j}
            for c, (_, outcomes) in enumerate(self.table[j]):
                q = 0
                for _, p, _, increments in outcomes:
                    q += p * self._solve(rest, add_load(loads, increments))
                if best is None or q < best:
                    best = q
                    best_choice = (j, c)
        self._value[key] = best
        self._choice[key] = best_choice
        if len(self._value) > self.max_states:
            raise StateSpaceExceeded(len(self._value), self.max_states)
        return best

    def choice(self, remaining, loads):
        """Optimal (request id, config id) at a state; None when done."""
        return self._grid_choice(remaining, self._grid_loads(loads))

    def _grid_choice(self, remaining, loads):
        """choice at int loads."""
        self._solve(remaining, loads)
        return self._choice[(remaining, loads)]

    def policy(self):
        """The optimal policy as a state -> (request, config) function."""
        return self.choice

    def tree_text(self):
        """Nested textual rendering of the reachable decision tree."""
        lines = []
        den = self.den

        def render(remaining, loads, depth):
            pad = "  " * depth
            shown = ", ".join(str(Fraction(x, den)) for x in loads)
            state = f"remaining={sorted(remaining)} loads=({shown})"
            if not remaining:
                lines.append(f"{pad}{{state: {state}, value: {Fraction(max(loads, default=0), den)}}}")
                return
            j, c = self._grid_choice(remaining, loads)
            lines.append(f"{pad}{{state: {state}, decision: request {j} -> config {c}}}")
            for v, _, _, increments in self.table[j][c][1]:
                lines.append(f"{pad}  realized {v}:")
                render(remaining - {j}, add_load(loads, increments), depth + 2)

        render(self.all_ids, self.zero_loads, 0)
        return "\n".join(lines)


def optimal_adaptive(inst, max_states=2_000_000):
    """Exact E[OPT] and the optimal decision rule."""
    oracle = AdaptiveOracle(inst, max_states=max_states)
    return oracle.value(), oracle


def _policy_value(table, den, pden, loads, tau, decide, after=None, state=None):
    """Exact PolicyValue at tau of a state policy serving every request of
    an outcome table (with its D and P) from int loads: decide(remaining
    ids, loads, state) -> (request, config, state) and after(state, request,
    config, k) -> state, the protocol cfgbal.simulate.Trials.walk runs
    (state stays None without after). decide sees the walk's loads, ints
    over D (a decide that reads them as numbers divides by D). A None
    decision or a KeyError is an IncompletePolicy.

    The walk holds loads as ints over D, and the makespan and exceptional
    load of a state with s requests left as ints over D * P**s."""
    memo = {}
    threshold = tau_threshold(tau, den)

    def walk(remaining, loads, state):
        if not remaining:
            return max(loads, default=0), 0
        key = (remaining, loads, state)
        cached = memo.get(key)
        if cached is not None:
            return cached
        try:
            decision = decide(remaining, loads, state)
        except KeyError:
            decision = None
        if decision is None:
            raise IncompletePolicy(f"no decision at remaining={sorted(remaining)}")
        j, c, state = decision
        if j not in remaining:
            raise IncompletePolicy(f"policy chose request {j} not in remaining set")
        if c not in range(len(table[j])):
            raise IncompletePolicy(f"policy chose missing config {c} of request {j}")
        mk = 0
        exc = 0
        rest = remaining - {j}
        # this step's exceptional load, over D, lifted to the scale of rest
        lift = pden ** len(rest)
        for k, (_, p, peak, increments) in enumerate(table[j][c][1]):
            sub_state = after(state, j, c, k) if after else None
            sub_mk, sub_exc = walk(rest, add_load(loads, increments), sub_state)
            mk += p * sub_mk
            exc += p * (peak * lift + sub_exc if peak >= threshold else sub_exc)
        memo[key] = (mk, exc)
        return memo[key]

    mk, exc = walk(frozenset(table), loads, state)
    scale = den * pden ** len(table)
    return PolicyValue(Fraction(mk, scale), Fraction(exc, scale))


def evaluate_policy(inst, policy, tau):
    """Exact expectation of (makespan, total exceptional load at tau) for a
    decision function policy(remaining ids, loads) -> (request, config),
    which sees Fraction loads."""
    check_tau(tau)
    inst = to_config_instance(inst)
    table, den, pden = outcome_table(inst)

    def decide(remaining, loads, _):
        decision = policy(remaining, tuple(Fraction(x, den) for x in loads))
        return None if decision is None else (*decision, None)

    return _policy_value(table, den, pden, (0,) * inst.m, Fraction(tau), decide)


def non_adaptive_policy(assignment):
    """Fixed configuration per request, served in ascending id order."""

    def decide(remaining, loads):
        j = min(remaining)
        return j, assignment[j]

    return decide


class RestartPolicy:
    """Follow OPT but stop on exceptional or too-large configurations.

    Runs the optimal policy of the current request set from a fresh load
    vector; right before OPT would commit a configuration with
    E[max_i X_i(c)] > tau, it stops and restarts on the same set, and right
    after a committed configuration realizes max_i X_i(c) >= tau it restarts
    on the remaining set. Restarts reset the loads that drive OPT's
    decisions; true loads keep accumulating for evaluation. OPT's loads,
    the state of decide and after, are the oracle's int loads over D.
    """

    def __init__(self, inst, tau):
        check_tau(tau)
        self.oracle = AdaptiveOracle(inst)
        self.inst = self.oracle.inst
        self.tau = Fraction(tau)
        den, pden = self.oracle.den, self.oracle.pden
        self.threshold = tau_threshold(self.tau, den)
        # E[max] > tau iff E[max] * D * P > floor(tau * D * P)
        self.emax_limit = math.floor(self.tau * den * pden)
        self.committed_configs = set()

    def decide(self, remaining, loads, opt_loads):
        """(request, config, OPT's loads) committed next from a state, with
        OPT restarted on fresh loads instead of committing E[max] > tau; the
        true loads are not consulted. The state policy form that value()
        and cfgbal.simulate.Trials.walk run; each choice is recorded in
        committed_configs."""
        oracle = self.oracle
        j, c = oracle._grid_choice(remaining, opt_loads)
        while oracle.table[j][c][0] > self.emax_limit:
            if opt_loads == oracle.zero_loads:
                raise ValidationError(
                    f"tau {self.tau} is below E[max] of OPT's first decision; "
                    "the restart policy needs tau >= 2 E[OPT]"
                )
            opt_loads = oracle.zero_loads
            j, c = oracle._grid_choice(remaining, opt_loads)
        self.committed_configs.add((j, c))
        return j, c, opt_loads

    def after(self, opt_loads, j, c, k):
        """OPT's loads once (j, c) realizes its k-th support point: fresh
        after an exceptional realization (a_max * v >= tau)."""
        _, _, peak, increments = self.oracle.table[j][c][1][k]
        if peak >= self.threshold:
            return self.oracle.zero_loads
        return add_load(opt_loads, increments)

    def value(self):
        """Exact (expected makespan, expected total exceptional load)."""
        oracle = self.oracle
        zero = oracle.zero_loads
        table, den, pden = oracle.table, oracle.den, oracle.pden
        return _policy_value(table, den, pden, zero, self.tau, self.decide, self.after, zero)

    def simulate(self, sim):
        """Run in every trial of a cfgbal.simulate.Trials at once: one walk
        of the decision tree on exact OPT loads."""
        sim.walk(self.decide, self.after, self.oracle.zero_loads)


def restart_policy(inst, tau):
    """Build the restart policy and compute its exact value."""
    policy = RestartPolicy(inst, tau)
    value = policy.value()
    return policy, value


def clairvoyance_adversary(m, algorithm):
    """Adaptive adversary of the clairvoyance gap on related machines.

    The machine set is one fast machine (speed 1) and m-1 machines of speed
    1/sqrt(m); the pool holds m-1 small jobs (size 1/sqrt(m)) and one big job
    (size 1). The adversary reveals small jobs while the algorithm stays on
    the fast machine, makes the job big the first time a slow machine is
    used, and forces the final job big if the small pool runs out.

    algorithm(loads, speeds) -> machine index, called before the size is
    revealed. Returns (realized sizes, assignment, makespan); the clairvoyant
    optimum of every realized sequence is 1.
    """
    from .instances import gen_clairvoyance_adversary_instance

    inst = gen_clairvoyance_adversary_instance(m)
    speeds = [Fraction(s) for s in inst.speeds]
    big = Fraction(1)
    small = speeds[1] if m > 1 else big  # slow speed equals the small size
    loads = [Fraction(0)] * m
    sizes = []
    assignment = []
    smalls_left = m - 1
    big_used = False
    for step in range(m):
        i = algorithm(tuple(loads), tuple(speeds))
        if not (0 <= i < m):
            raise ValueError(f"algorithm chose invalid machine {i}")
        slow = speeds[i] < speeds[0]
        if not big_used and (slow or smalls_left == 0):
            size = big
            big_used = True
        else:
            size = small
            smalls_left -= 1
        loads[i] += size / speeds[i]
        sizes.append(size)
        assignment.append(i)
    return sizes, assignment, max(loads)


def always_fast(loads, speeds):
    """Baseline that schedules everything on the fastest machine."""
    best = max(range(len(speeds)), key=lambda i: (speeds[i], -i))
    return best
