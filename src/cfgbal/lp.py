"""Linear programs: feasibility solving, the configuration-balancing LP,
threshold search, and the routing path LP via column generation.

Feasibility is decided by an explicit phase-1 program (minimize total
constraint violation through artificial variables); a point is feasible iff
the phase-1 optimum is at most FEAS_TOL. LP_C and the column-generation
master both go through phase1, the one call of scipy's HiGHS simplex, which
is deterministic for a fixed input. Both LPs share one threshold search,
which returns the solution it found at the threshold it returns, so the
offline drivers round that solution without solving again. Its last
infeasible midpoint is at least tau * (1 - eps) and certifies
E[OPT] > tau * (1 - eps) / 2.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from .distributions import check_tau
from .graphs import lex_shortest_path
from .instances import NoFeasiblePath, RoutingRequestView, routing_to_config

FEAS_TOL = 1e-9


class NumericalFailure(RuntimeError):
    """The solver could not certify feasibility either way at tolerance."""


class NoFeasibleTau(RuntimeError):
    """Binary search bracket contains no feasible threshold."""


class Infeasible:
    """Verdict object carrying a human-readable reason."""

    __slots__ = ("reason",)

    def __init__(self, reason=""):
        self.reason = reason

    def __bool__(self):
        return False

    def __repr__(self):
        return f"Infeasible({self.reason!r})"


class LinearProgram:
    """Dense feasibility LP: named variables, rows with sense in
    {<=, =, >=}. Adequate for desk-scale problems (<= 1e4 nonzeros)."""

    def __init__(self, var_names):
        self.var_names = list(var_names)
        self.rows = []  # (coeffs dict var_index -> float, sense, rhs, name)

    @property
    def n_vars(self):
        return len(self.var_names)

    def add_row(self, coeffs, sense, rhs, name):
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"bad sense {sense}")
        for k in coeffs:
            if not (0 <= k < self.n_vars):
                raise ValueError(f"coefficient on unknown variable {k}")
        self.rows.append((dict(coeffs), sense, float(rhs), name))


def phase1(a_eq, b_eq, a_ub, b_ub):
    """The one HiGHS call: minimize the total violation of A_eq x = b_eq,
    A_ub x <= b_ub over x >= 0. Artificial columns follow the structural
    ones: one per equality row (signed like its right-hand side), then one
    per <= row with a negative right-hand side. Returns scipy's result over
    [x, artificials]. Phase 1 is always feasible and bounded, so any
    non-zero solver status means HiGHS gave up: NumericalFailure."""
    n = a_eq.shape[1]
    n_eq, n_ub = len(b_eq), len(b_ub)
    neg = np.flatnonzero(b_ub < 0)
    n_art = n_eq + len(neg)
    full_eq = np.zeros((n_eq, n + n_art))
    full_eq[:, :n] = a_eq
    full_eq[np.arange(n_eq), n + np.arange(n_eq)] = np.where(b_eq >= 0, 1.0, -1.0)
    full_ub = np.zeros((n_ub, n + n_art))
    full_ub[:, :n] = a_ub
    full_ub[neg, n + n_eq + np.arange(len(neg))] = -1.0
    res = linprog(
        np.concatenate([np.zeros(n), np.ones(n_art)]),
        A_ub=full_ub if n_ub else None,
        b_ub=b_ub if n_ub else None,
        A_eq=full_eq if n_eq else None,
        b_eq=b_eq if n_eq else None,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise NumericalFailure(f"phase-1 solver status {res.status}: {res.message}")
    return res


def _dense_rows(rows, n):
    mat = np.zeros((len(rows), n))
    for r, (coeffs, _) in enumerate(rows):
        for k, v in coeffs.items():
            mat[r, k] = float(v)
    return mat, np.array([rhs for _, rhs in rows], dtype=float)


def solve_feasibility(lp):
    """Phase-1 feasibility: a point satisfying all rows within FEAS_TOL, or
    an Infeasible verdict. >= rows enter negated as <= rows."""
    eq, ub = [], []
    for coeffs, sense, rhs, _ in lp.rows:
        if sense == ">=":
            coeffs, rhs = {k: -v for k, v in coeffs.items()}, -rhs
        (eq if sense == "=" else ub).append((coeffs, rhs))
    res = phase1(*_dense_rows(eq, lp.n_vars), *_dense_rows(ub, lp.n_vars))
    if res.fun > FEAS_TOL:
        return Infeasible(f"phase-1 violation {res.fun:.3e}")
    return np.clip(res.x[: lp.n_vars], 0.0, None)


class FractionalSolution:
    """Per-request weights over configuration ids or path descriptors."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        self.weights = {j: list(entries) for j, entries in weights.items()}

    def weight_sum(self, j):
        return sum(w for _, w in self.weights[j])

    def items(self):
        return self.weights.items()

    def __getitem__(self, j):
        return self.weights[j]

    def __repr__(self):
        return f"FractionalSolution({self.weights})"


class DualPoint:
    """Candidate dual (a_j per request, b_e per edge, scalar c)."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a = list(a)
        self.b = list(b)
        self.c = c


class ViolatedConstraint:
    __slots__ = ("kind", "request", "path", "value")

    def __init__(self, kind, request=None, path=None, value=None):
        self.kind = kind
        self.request = request
        self.path = path
        self.value = value

    def __repr__(self):
        return (
            f"ViolatedConstraint({self.kind}, request={self.request}, "
            f"path={self.path}, value={self.value})"
        )


FEASIBLE = "feasible"


# ---------------------------------------------------------------------------
# configuration-balancing LP


def build_lpc(inst, tau):
    """LP_C at threshold tau: per-request convex weights, per-resource
    truncated rows, one total-exceptional row; configurations with
    E[max_i X_i(c)] > tau are pruned (excluded, so their weight is exactly
    zero). Returns (LinearProgram, var_map) with var_map[k] = (j, c).

    One pass over the configurations fills every row; a configuration
    touches only the rows of its nonzero multipliers."""
    check_tau(tau)
    t = float(tau)
    var_map = []
    names = []
    req_rows = [{} for _ in inst.requests]
    trunc_rows = [{} for _ in range(inst.m)]
    exc_row = {}
    for j, req in enumerate(inst.requests):
        for c, config in enumerate(req.configs):
            if float(config.expected_max()) > t:
                continue
            k = len(var_map)
            var_map.append((j, c))
            names.append(f"y_{j}_{c}")
            req_rows[j][k] = 1.0
            exceptional, truncated = config.tails(tau)
            for i, v in truncated:
                v = float(v)
                if v:
                    trunc_rows[i][k] = v
            v = float(exceptional)
            if v:
                exc_row[k] = v
    lp = LinearProgram(names)
    for j, coeffs in enumerate(req_rows):
        lp.add_row(coeffs, "=", 1.0, f"req_{j}")
    for i, coeffs in enumerate(trunc_rows):
        lp.add_row(coeffs, "<=", t, f"trunc_{i}")
    lp.add_row(exc_row, "<=", t, "exc")
    return lp, var_map


def solve_lpc(inst, tau):
    """Solve LP_C; FractionalSolution with exact zeros on pruned configs, or
    Infeasible."""
    lp, var_map = build_lpc(inst, tau)
    present = {j for j, _ in var_map}
    for j in range(inst.n):
        if j not in present:
            return Infeasible(f"request {j}: all configurations pruned at tau={tau}")
    x = solve_feasibility(lp)
    if isinstance(x, Infeasible):
        return x
    weights = {j: [] for j in range(inst.n)}
    for k, (j, c) in enumerate(var_map):
        weights[j].append((c, float(x[k])))
    return FractionalSolution(weights)


def threshold_search(solve, lo, hi, eps):
    """Bisect for the smallest tau in [lo, hi] at which solve(tau) is
    feasible, to relative precision eps, assuming feasibility is monotone
    in tau. Returns (tau, solution) with the solution solve found feasible
    at that tau, or (0.0, None) when hi <= 0. Every midpoint set as lo was
    found infeasible, and the last one is at least tau * (1 - eps)."""
    if hi <= 0:
        return 0.0, None
    sol = solve(hi)
    if isinstance(sol, Infeasible):
        raise NoFeasibleTau(f"LP infeasible at the upper bound tau={hi}: {sol.reason}")
    if lo >= hi:
        return hi, sol
    if lo > 0:
        low = solve(lo)
        if not isinstance(low, Infeasible):
            return lo, low
    while hi - lo > eps * hi:
        mid = 0.5 * (lo + hi)
        trial = solve(mid)
        if isinstance(trial, Infeasible):
            lo = mid
        else:
            hi, sol = mid, trial
    return hi, sol


def min_feasible_tau(inst, lo=0.0, hi=None, eps=1e-3):
    """(tau, LP_C solution at tau) for the smallest tau with LP_C(tau)
    feasible, to relative precision eps. Feasibility is monotone in tau:
    larger thresholds relax every row and prune fewer configurations. The
    default upper bound sums each request's cheapest E[max]."""
    if hi is None:
        hi = sum(
            float(min(c.expected_max() for c in req.configs))
            for req in inst.requests
        )
    return threshold_search(lambda t: solve_lpc(inst, t), float(lo), float(hi), eps)


# ---------------------------------------------------------------------------
# routing: dual separation oracle and primal column generation


def _min_price_path(view, b, c_coef):
    """Minimize sum_e b_e E[X^T_ej] + c * exc(P) over the view's admissible
    paths. Returns (path, value), or None if no path exists."""
    weights = {e: b[e] * w for e, w in view.truncated.items()}
    return view.best_path(
        weights,
        lambda path: sum(weights[e] for e in path) + c_coef * view.exceptional(path),
    )


def separation_oracle_dp(r, tau, point, tol=FEAS_TOL):
    """Separation oracle for the dual of the path LP: rejects negative b/c,
    otherwise searches for a path constraint with
    a_j + sum b_e E[X^T] + c * exc < 0 via bottleneck-edge guessing."""
    check_tau(tau)
    for e, be in enumerate(point.b):
        if be < 0:
            return ViolatedConstraint("nonneg_b", path=(e,), value=be)
    if point.c < 0:
        return ViolatedConstraint("nonneg_c", value=point.c)
    for j in range(r.n):
        try:
            view = RoutingRequestView(r, j, tau)
        except NoFeasiblePath:
            continue
        best = _min_price_path(view, point.b, point.c)
        if best is None:
            continue
        path, value = best
        lhs = point.a[j] + value
        if lhs < -tol:
            return ViolatedConstraint("path", request=j, path=path, value=lhs)
    return FEASIBLE


def _routing_master(r, tau, views, columns):
    """Phase-1 master LP for a restricted column set; returns scipy's
    result and the (request, path) of each structural column."""
    cols = [(j, path) for j, paths in enumerate(columns) for path in sorted(paths)]
    a_eq = np.zeros((r.n, len(cols)))
    a_ub = np.zeros((r.m + 1, len(cols)))
    for k, (j, path) in enumerate(cols):
        a_eq[j, k] = 1.0
        for e in path:
            a_ub[e, k] += views[j].truncated[e]
        a_ub[r.m, k] = views[j].exceptional(path)
    return phase1(a_eq, np.ones(r.n), a_ub, np.full(r.m + 1, float(tau))), cols


def solve_lpp_column_generation(r, tau, tol=FEAS_TOL, max_rounds=200):
    """Feasibility of the path LP at tau by primal column generation.

    Maintains one admissible seed path per request, alternates solving the
    restricted phase-1 master with pricing new columns through the
    bottleneck-edge-guessing shortest-path routine, and stops when no
    improving column exists. Returns a FractionalSolution over paths or an
    Infeasible verdict.
    """
    check_tau(tau)
    try:
        views = routing_to_config(r, tau)
    except NoFeasiblePath as exc:
        return Infeasible(str(exc))
    columns = [
        {lex_shortest_path(r.vertices, r.edges, v.edge_ids, v.truncated, v.source, v.sink)}
        for v in views
    ]

    for _ in range(max_rounds):
        res, cols = _routing_master(r, tau, views, columns)
        if res.fun <= tol:
            weights = {j: [] for j in range(r.n)}
            for k, (j, path) in enumerate(cols):
                weights[j].append((path, max(float(res.x[k]), 0.0)))
            return FractionalSolution(weights)
        y_eq = np.asarray(res.eqlin.marginals)
        y_ub = np.asarray(res.ineqlin.marginals)
        b = [-y_ub[e] for e in range(r.m)]
        c_coef = -y_ub[r.m]
        added = False
        for j, view in enumerate(views):
            best = _min_price_path(view, b, c_coef)
            if best is None:
                continue
            path, value = best
            # column improves iff its phase-1 reduced cost is negative
            if value < y_eq[j] - tol and path not in columns[j]:
                columns[j].add(path)
                added = True
        if not added:
            return Infeasible(f"pricing found no improving column; violation {res.fun:.3e}")
    raise NumericalFailure(f"column generation did not converge in {max_rounds} rounds")


def min_feasible_tau_routing(r, eps=1e-3):
    """(tau, path-LP solution at tau) for the smallest tau at which column
    generation finds the path LP feasible, to relative precision eps; the
    upper bound sums each request's cheapest expected path cost."""
    hi = sum(r.min_expected_cost(j) for j in range(r.n))
    return threshold_search(lambda t: solve_lpp_column_generation(r, t), 0.0, hi, eps)
