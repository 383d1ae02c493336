"""Exact adaptive-policy computations on tiny instances.

Everything here runs in exact rational arithmetic: the optimal adaptive
policy via memoized value iteration over (remaining requests, load vector)
states, exact policy evaluation (expected makespan and total expected
exceptional load), the restart transform that caps exceptional load, and the
clairvoyance-gap adversary. Floats would break comparisons like 11/8 vs 11/4
at the boundaries, so inputs are converted to Fractions up front.
"""

from __future__ import annotations

from fractions import Fraction

from .distributions import ValidationError, check_tau
from .instances import as_config_instance


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
    """{request id: one (expected_max, a_max, outcomes) per configuration}
    of an exact configuration instance.

    outcomes holds one (v, p, a_max * v, increments) per support point,
    where increments lists (i, a_i * v) for every a_i != 0: the load added
    to each resource. Every walker reads these instead of recomputing
    L + a * v for all resources at every state.
    """
    table = {}
    for r in inst.requests:
        rows = []
        for config in r.configs:
            a_max = config.max_multiplier
            nonzero = [(i, a) for i, a in enumerate(config.multipliers) if a != 0]
            outcomes = tuple(
                (v, p, a_max * v, tuple((i, a * v) for i, a in nonzero))
                for v, p in config.law.support
            )
            rows.append((config.expected_max(), a_max, outcomes))
        table[r.id] = tuple(rows)
    return table


def add_load(loads, increments):
    """loads with each (i, x) of increments added; a float load plus a
    Fraction increment stays a float, as L + a * v did."""
    new = list(loads)
    for i, x in increments:
        new[i] = new[i] + x
    return tuple(new)


class AdaptiveOracle:
    """Memoized value iteration for the optimal adaptive policy.

    A state is (frozenset of remaining request ids, per-resource loads).
    V(empty, L) = max_i L_i; otherwise the policy picks the (request,
    configuration) pair minimizing the expected continuation. Ties break on
    the lowest (request id, config id), making OPT deterministic.
    """

    def __init__(self, inst, max_states=2_000_000):
        self.inst = to_config_instance(inst)
        self.max_states = max_states
        self.by_id = {r.id: r for r in self.inst.requests}
        self.table = outcome_table(self.inst)
        self._value = {}
        self._choice = {}
        self.zero_loads = tuple(Fraction(0) for _ in range(self.inst.m))
        self.all_ids = frozenset(self.by_id)

    def value(self, remaining=None, loads=None):
        if remaining is None:
            remaining = self.all_ids
        if loads is None:
            loads = self.zero_loads
        key = (remaining, loads)
        cached = self._value.get(key)
        if cached is not None:
            return cached
        if not remaining:
            result = max(loads) if loads else Fraction(0)
            self._store(key, result, None)
            return result
        best = None
        best_choice = None
        for j in sorted(remaining):
            rest = remaining - {j}
            for c, (_, _, outcomes) in enumerate(self.table[j]):
                q = Fraction(0)
                for _, p, _, increments in outcomes:
                    q += p * self.value(rest, add_load(loads, increments))
                if best is None or q < best:
                    best = q
                    best_choice = (j, c)
        self._store(key, best, best_choice)
        return best

    def choice(self, remaining, loads):
        """Optimal (request id, config id) at a state; None when done."""
        self.value(remaining, loads)
        return self._choice[(remaining, loads)]

    def _store(self, key, value, choice):
        self._value[key] = value
        self._choice[key] = choice
        if len(self._value) > self.max_states:
            raise StateSpaceExceeded(len(self._value), self.max_states)

    def policy(self):
        """The optimal policy as a state -> (request, config) function."""
        return self.choice

    def tree_text(self):
        """Nested textual rendering of the reachable decision tree."""
        lines = []

        def render(remaining, loads, depth):
            pad = "  " * depth
            state = f"remaining={sorted(remaining)} loads=({', '.join(map(str, loads))})"
            if not remaining:
                lines.append(f"{pad}{{state: {state}, value: {max(loads) if loads else 0}}}")
                return
            j, c = self.choice(remaining, loads)
            lines.append(f"{pad}{{state: {state}, decision: request {j} -> config {c}}}")
            for v, _, _, increments in self.table[j][c][2]:
                lines.append(f"{pad}  realized {v}:")
                render(remaining - {j}, add_load(loads, increments), depth + 2)

        render(self.all_ids, self.zero_loads, 0)
        return "\n".join(lines)


def optimal_adaptive(inst, max_states=2_000_000):
    """Exact E[OPT] and the optimal decision rule."""
    oracle = AdaptiveOracle(inst, max_states=max_states)
    return oracle.value(), oracle


def _policy_value(table, loads, tau, decide, after=None, state=None):
    """Exact PolicyValue at tau of a state policy serving every request of
    an outcome table from loads: decide(remaining ids, loads, state) ->
    (request, config, state) and after(state, request, config, k) -> state,
    the protocol cfgbal.simulate.Trials.walk runs (state stays None without
    after). A None decision or a KeyError is an IncompletePolicy."""
    memo = {}

    def walk(remaining, loads, state):
        if not remaining:
            return (max(loads) if loads else Fraction(0)), Fraction(0)
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
        mk = Fraction(0)
        exc = Fraction(0)
        rest = remaining - {j}
        for k, (_, p, peak, increments) in enumerate(table[j][c][2]):
            step_exc = peak if peak >= tau else Fraction(0)
            sub_state = after(state, j, c, k) if after else None
            sub_mk, sub_exc = walk(rest, add_load(loads, increments), sub_state)
            mk += p * sub_mk
            exc += p * (step_exc + sub_exc)
        memo[key] = (mk, exc)
        return memo[key]

    mk, exc = walk(frozenset(table), loads, state)
    return PolicyValue(mk, exc)


def evaluate_policy(inst, policy, tau):
    """Exact expectation of (makespan, total exceptional load at tau) for a
    decision function policy(remaining ids, loads) -> (request, config)."""
    check_tau(tau)
    inst = to_config_instance(inst)

    def decide(remaining, loads, _):
        decision = policy(remaining, loads)
        return None if decision is None else (*decision, None)

    zero = tuple(Fraction(0) for _ in range(inst.m))
    return _policy_value(outcome_table(inst), zero, Fraction(tau), decide)


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
    decisions; true loads keep accumulating for evaluation.
    """

    def __init__(self, inst, tau, max_states=2_000_000):
        check_tau(tau)
        self.oracle = AdaptiveOracle(inst, max_states=max_states)
        self.inst = self.oracle.inst
        self.tau = Fraction(tau)
        self.committed_configs = set()

    def decide(self, remaining, loads, opt_loads):
        """(request, config, OPT's loads) committed next from a state, with
        OPT restarted on fresh loads instead of committing E[max] > tau; the
        true loads are not consulted. The state policy form that value()
        and cfgbal.simulate.Trials.walk run; each choice is recorded in
        committed_configs."""
        j, c = self.oracle.choice(remaining, opt_loads)
        while self.oracle.table[j][c][0] > self.tau:
            if opt_loads == self.oracle.zero_loads:
                raise ValidationError(
                    f"tau {self.tau} is below E[max] of OPT's first decision; "
                    "the restart policy needs tau >= 2 E[OPT]"
                )
            opt_loads = self.oracle.zero_loads
            j, c = self.oracle.choice(remaining, opt_loads)
        self.committed_configs.add((j, c))
        return j, c, opt_loads

    def after(self, opt_loads, j, c, k):
        """OPT's loads once (j, c) realizes its k-th support point: fresh
        after an exceptional realization (a_max * v >= tau)."""
        _, _, peak, increments = self.oracle.table[j][c][2][k]
        if peak >= self.tau:
            return self.oracle.zero_loads
        return add_load(opt_loads, increments)

    def value(self):
        """Exact (expected makespan, expected total exceptional load)."""
        zero = self.oracle.zero_loads
        return _policy_value(self.oracle.table, zero, self.tau, self.decide, self.after, zero)

    def simulate(self, sim):
        """Run in every trial of a cfgbal.simulate.Trials at once: one walk
        of the decision tree on exact OPT loads."""
        sim.walk(self.decide, self.after, self.oracle.zero_loads)

    def run(self, inst, realize):
        """Execute one trajectory; realize(request id, law) -> a support
        value of the chosen configuration's law (compared as floats).

        Returns the trace as (request id, config id, support value) records.
        """
        remaining = self.oracle.all_ids
        opt_loads = self.oracle.zero_loads
        trace = []
        while remaining:
            j, c, opt_loads = self.decide(remaining, None, opt_loads)
            law = self.oracle.by_id[j].configs[c].law
            x = float(realize(j, law))
            values = [float(v) for v, _ in law.support]
            if x not in values:
                raise ValidationError(f"request {j} cannot realize {x} under config {c}")
            k = values.index(x)
            trace.append((j, c, law.support[k][0]))
            opt_loads = self.after(opt_loads, j, c, k)
            remaining = remaining - {j}
        return trace


def restart_policy(inst, tau, max_states=2_000_000):
    """Build the restart policy and compute its exact value."""
    policy = RestartPolicy(inst, tau, max_states=max_states)
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
