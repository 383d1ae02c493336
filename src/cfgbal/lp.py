"""Linear programs: feasibility solving, the configuration-balancing LP,
threshold search, and the routing path LP via column generation.

Feasibility is decided by an explicit phase-1 program (minimize total
constraint violation through artificial variables); a point is feasible iff
the phase-1 optimum is at most FEAS_TOL. The backend behind
solve_feasibility is scipy's HiGHS simplex, which is deterministic for a
fixed input.
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
    """Dense LP: named variables, rows with sense in {<=, =, >=}, optional
    objective. Adequate for desk-scale problems (<= 1e4 nonzeros)."""

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

    def to_lp_format(self):
        """CPLEX-LP text for external cross-checking."""
        out = ["Minimize", " obj: 0", "Subject To"]
        for coeffs, sense, rhs, name in self.rows:
            terms = " ".join(
                f"{'+' if v >= 0 else '-'} {abs(v)!r} {self.var_names[k]}"
                for k, v in sorted(coeffs.items())
            )
            op = {"<=": "<=", "=": "=", ">=": ">="}[sense]
            out.append(f" {name}: {terms or '0 ' + self.var_names[0]} {op} {rhs!r}")
        out.append("Bounds")
        for v in self.var_names:
            out.append(f" 0 <= {v}")
        out.append("End")
        return "\n".join(out)


def solve_feasibility(lp):
    """Phase-1 feasibility: a point satisfying all rows within FEAS_TOL, or
    an Infeasible verdict. Deterministic for fixed input."""
    n = lp.n_vars
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    art_cols = []  # (row list index into a_eq/a_ub, which, sign)
    for coeffs, sense, rhs, _ in lp.rows:
        if sense == ">=":
            coeffs = {k: -v for k, v in coeffs.items()}
            rhs, sense = -rhs, "<="
        if sense == "=":
            a_eq.append(coeffs)
            b_eq.append(rhs)
            art_cols.append(("eq", len(a_eq) - 1, 1.0 if rhs >= 0 else -1.0))
        else:
            a_ub.append(coeffs)
            b_ub.append(rhs)
            if rhs < 0:
                art_cols.append(("ub", len(a_ub) - 1, -1.0))
    n_art = len(art_cols)
    total = n + n_art

    def dense(rows, which):
        mat = np.zeros((len(rows), total))
        for r, coeffs in enumerate(rows):
            for k, v in coeffs.items():
                mat[r, k] = float(v)
        for a, (kind, r, sign) in enumerate(art_cols):
            if kind == which:
                mat[r, n + a] = sign
        return mat

    cost = np.concatenate([np.zeros(n), np.ones(n_art)])
    res = linprog(
        cost,
        A_ub=dense(a_ub, "ub") if a_ub else None,
        b_ub=np.array(b_ub) if a_ub else None,
        A_eq=dense(a_eq, "eq") if a_eq else None,
        b_eq=np.array(b_eq) if a_eq else None,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        # phase-1 is always feasible (x = 0, artificials absorb); reaching
        # this means the solver gave up
        raise NumericalFailure(f"phase-1 reported infeasible: {res.message}")
    if res.status != 0:
        raise NumericalFailure(f"solver status {res.status}: {res.message}")
    if res.fun > FEAS_TOL:
        return Infeasible(f"phase-1 violation {res.fun:.3e}")
    x = np.clip(res.x[:n], 0.0, None)
    return x


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


def min_feasible_tau(inst, lo=0.0, hi=None, eps=1e-3):
    """Binary search for the smallest tau with LP_C(tau) feasible, to
    relative precision eps. Feasibility is monotone in tau: larger thresholds
    relax every row and prune fewer configurations."""
    if hi is None:
        hi = sum(
            float(min(c.expected_max() for c in req.configs))
            for req in inst.requests
        )
    hi = float(hi)
    lo = float(lo)
    if hi <= 0:
        return 0.0
    if isinstance(solve_lpc(inst, hi), Infeasible):
        raise NoFeasibleTau(f"LP_C infeasible at hi={hi}; double hi and retry")
    if lo >= hi:
        return hi
    if lo > 0 and not isinstance(solve_lpc(inst, lo), Infeasible):
        return lo
    while hi - lo > eps * hi:
        mid = 0.5 * (lo + hi)
        if isinstance(solve_lpc(inst, mid), Infeasible):
            lo = mid
        else:
            hi = mid
    return hi


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
    """Phase-1 master LP for a restricted column set; returns scipy result
    plus row bookkeeping."""
    t = float(tau)
    cols = [(j, path) for j, paths in enumerate(columns) for path in sorted(paths)]
    n_struct = len(cols)
    n = n_struct + r.n  # artificials, one per request equality
    a_eq = np.zeros((r.n, n))
    b_eq = np.ones(r.n)
    for k, (j, _) in enumerate(cols):
        a_eq[j, k] = 1.0
    for j in range(r.n):
        a_eq[j, n_struct + j] = 1.0
    n_ub = r.m + 1
    a_ub = np.zeros((n_ub, n))
    b_ub = np.full(n_ub, t)
    for k, (j, path) in enumerate(cols):
        for e in path:
            a_ub[e, k] += views[j].truncated[e]
        a_ub[r.m, k] = views[j].exceptional(path)
    cost = np.concatenate([np.zeros(n_struct), np.ones(r.n)])
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
    )
    if res.status != 0:
        raise NumericalFailure(f"restricted master: {res.message}")
    return res, cols, n_struct


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
        res, cols, n_struct = _routing_master(r, tau, views, columns)
        if res.fun <= tol:
            weights = {j: [] for j in range(r.n)}
            for k, (j, path) in enumerate(cols):
                w = float(res.x[k])
                if w < 0:
                    w = 0.0
                weights[j].append((path, w))
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
