"""Linear programs: feasibility solving, the configuration-balancing LP
LP_C, threshold search, and the routing path LP via column generation.

Feasibility is decided by an explicit phase-1 program (minimize total
constraint violation through artificial variables); a point is feasible iff
the phase-1 optimum is at most FEAS_TOL. LP_C and the column-generation
master both go through phase1, which assembles one sparse column-wise model
and hands it to HiGHS through scipy's bundled bindings
(scipy.optimize._highspy._core) under the options scipy's linprog sets for
method="highs"; the dual simplex is deterministic for a fixed input. phase1
keeps linprog's checks: finite input, an optimal model status, and a
solution within linprog's residual tolerance.

LP_C's tau-independent data (each configuration's E[max], and the tail
kernel's values at the breakpoints of each (law, multiplier) pair) is built
once per instance, as instances.TailTable. Each build_lpc call then prunes
by one array comparison, finds each pair's coefficients by one bisect_left,
and hands phase1 coordinate entries; LinearProgram derives dict rows only
when they are read.

Both LPs share one threshold search, which returns the solution
{request: [(choice, weight)]} it found at the threshold it returns, so the
offline drivers round that solution without solving again. Its last
infeasible midpoint is at least tau * (1 - EPS) and certifies
E[OPT] > tau * (1 - EPS) / 2.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress

import numpy as np
from scipy.optimize._highspy import _core as highs

from .distributions import check_tau
from .graphs import lex_shortest_path
from .instances import NoFeasiblePath, routing_to_config

FEAS_TOL = 1e-9
EPS = 1e-3  # relative precision of the threshold search
CG_MAX_ROUNDS = 200
RESIDUAL_TOL = np.sqrt(1e-9) * 10  # linprog's acceptance tolerance at its default tol

# what scipy's linprog sets for method="highs"; HiGHS copies it per solve
_OPTIONS = highs.HighsOptions()
_OPTIONS.presolve = "on"
_OPTIONS.output_flag = False
_OPTIONS.log_to_console = False
_OPTIONS.highs_debug_level = highs.kHighsDebugLevelNone
_OPTIONS.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual


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
    """Feasibility LP over n_vars variables x >= 0. Row r has sense
    senses[r] ("<=" or "="), right-hand side rhs[r] and name names[r]; the
    coefficients are coordinate entries (row[k], col[k], val[k]), no
    position twice. .rows derives the (coeffs dict col -> val, sense, rhs,
    name) tuples, each dict in entry order, when read."""

    def __init__(self, n_vars, senses=(), rhs=(), names=(), row=(), col=(), val=()):
        self.n_vars = n_vars
        self.senses, self.rhs, self.names = list(senses), list(rhs), list(names)
        self.row = np.asarray(row, dtype=np.intp)
        self.col = np.asarray(col, dtype=np.intp)
        self.val = np.asarray(val, dtype=float)

    def add_row(self, coeffs, sense, rhs, name):
        if sense not in ("<=", "="):
            raise ValueError(f"bad sense {sense}")
        if coeffs and not (0 <= min(coeffs) and max(coeffs) < self.n_vars):
            raise ValueError(f"row {name}: coefficient on an unknown variable")
        self.row = np.concatenate((self.row, np.full(len(coeffs), len(self.senses), dtype=np.intp)))
        self.col = np.concatenate((self.col, np.fromiter(coeffs, dtype=np.intp, count=len(coeffs))))
        self.val = np.concatenate((self.val, np.fromiter(coeffs.values(), dtype=float, count=len(coeffs))))
        self.senses.append(sense)
        self.rhs.append(float(rhs))
        self.names.append(name)

    @property
    def rows(self):
        order = np.argsort(self.row, kind="stable")
        bounds = np.searchsorted(self.row[order], np.arange(len(self.senses) + 1)).tolist()
        col, val = self.col[order].tolist(), self.val[order].tolist()
        return [
            (dict(zip(col[a:b], val[a:b])), sense, rhs, name)
            for a, b, sense, rhs, name in zip(bounds, bounds[1:], self.senses, self.rhs, self.names)
        ]


# what phase 1 reads back from HiGHS: x = col_value, fun = the objective
# value, row_value and row_dual over the stacked rows (<= rows, then = rows),
# nit = simplex iterations
HighsSolution = namedtuple("HighsSolution", "x fun row_value row_dual nit")


def linprog(model):
    """The one HiGHS call, timed under this name by perfbench's tracer:
    solve a column-wise HighsLp under _OPTIONS. A model status other than
    optimal (or empty, for a model without columns) means HiGHS gave up:
    NumericalFailure."""
    solver = highs._Highs()
    solver.passOptions(_OPTIONS)
    status = highs.HighsModelStatus.kModelError
    if solver.passModel(model) != highs.HighsStatus.kError:
        solver.run()
        status = solver.getModelStatus()
    if status not in (highs.HighsModelStatus.kOptimal, highs.HighsModelStatus.kModelEmpty):
        raise NumericalFailure(f"phase-1 solver status: {solver.modelStatusToString(status)}")
    solution, info = solver.getSolution(), solver.getInfo()
    return HighsSolution(
        np.array(solution.col_value),
        info.objective_function_value,
        np.array(solution.row_value),
        np.array(solution.row_dual),
        max(info.simplex_iteration_count, 0),
    )


def phase1_model(n, row, col, val, b_ub, b_eq):
    """The column-wise phase-1 HighsLp: minimize the total violation of
    A_ub x <= b_ub, A_eq x = b_eq over x >= 0. The structural matrix comes
    as coordinate entries (row[i], col[i], val[i]), no position twice, with
    rows numbered over the <= rows and then the = rows. Artificial columns
    follow the n structural ones: one per = row (signed like its right-hand
    side), then one per <= row with a negative right-hand side. Zero entries
    are dropped and row indices ascend within a column. A non-finite
    coefficient or right-hand side, or a coefficient at or above HiGHS's
    large_matrix_value in magnitude, raises NumericalFailure."""
    val = np.asarray(val, dtype=float)
    b_ub, b_eq = np.asarray(b_ub, dtype=float), np.asarray(b_eq, dtype=float)
    if not (np.isfinite(val).all() and np.isfinite(b_ub).all() and np.isfinite(b_eq).all()):
        raise NumericalFailure("phase-1 input has a non-finite coefficient or right-hand side")
    largest, limit = np.abs(val).max(initial=0.0), _OPTIONS.large_matrix_value
    if largest >= limit:
        raise NumericalFailure(
            f"phase-1 coefficient of magnitude {largest:g} is at or above the solver's limit {limit:g}"
        )
    n_ub, n_eq = len(b_ub), len(b_eq)
    neg = np.flatnonzero(b_ub < 0)
    n_cols = n + n_eq + len(neg)
    row = np.concatenate((np.asarray(row, dtype=int), n_ub + np.arange(n_eq), neg))
    col = np.concatenate((np.asarray(col, dtype=int), np.arange(n, n_cols)))
    val = np.concatenate((val, np.where(b_eq >= 0, 1.0, -1.0), np.full(len(neg), -1.0)))
    nonzero = val != 0
    row, col, val = row[nonzero], col[nonzero], val[nonzero]
    order = np.lexsort((row, col))
    # lists: the bindings copy them into HiGHS faster than numpy arrays
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n_cols
    model.num_row_ = model.a_matrix_.num_row_ = n_ub + n_eq
    model.col_cost_ = [0.0] * n + [1.0] * (n_cols - n)
    model.col_lower_ = [0.0] * n_cols
    model.col_upper_ = [np.inf] * n_cols
    model.row_lower_ = [-np.inf] * n_ub + b_eq.tolist()
    model.row_upper_ = b_ub.tolist() + b_eq.tolist()
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = [0] + np.cumsum(np.bincount(col, minlength=n_cols)).tolist()
    model.a_matrix_.index_ = row[order].tolist()
    model.a_matrix_.value_ = val[order].tolist()
    return model


def phase1(n, row, col, val, b_ub, b_eq):
    """Solve phase1_model and return the HighsSolution over [x,
    artificials]. Phase 1 is always feasible and bounded, so a solution
    that breaks linprog's acceptance rule (a NaN, x < -tol, a <= row over
    its bound by more than tol, an = row off by more than tol, with
    tol = 10 * sqrt(1e-9)) means HiGHS gave up: NumericalFailure."""
    b_ub, b_eq = np.asarray(b_ub, dtype=float), np.asarray(b_eq, dtype=float)
    res = linprog(phase1_model(n, row, col, val, b_ub, b_eq))
    slack = b_ub - res.row_value[: len(b_ub)]
    residual = np.abs(b_eq - res.row_value[len(b_ub):])
    if not (
        (res.x >= -RESIDUAL_TOL).all()
        and (slack >= -RESIDUAL_TOL).all()
        and (residual <= RESIDUAL_TOL).all()
        and not np.isnan(res.fun)
    ):
        raise NumericalFailure(f"phase-1 solution violates its rows or bounds by more than {RESIDUAL_TOL:.2e}")
    return res


def solve_feasibility(lp):
    """Phase-1 feasibility: a point satisfying all rows within FEAS_TOL, or
    an Infeasible verdict."""
    eq = np.array([sense == "=" for sense in lp.senses], dtype=bool)
    rhs = np.array(lp.rhs, dtype=float)
    # phase 1 numbers the <= rows first, then the = rows
    position = np.empty(len(eq), dtype=np.intp)
    position[np.argsort(eq, kind="stable")] = np.arange(len(eq))
    res = phase1(lp.n_vars, position[lp.row], lp.col, lp.val, rhs[~eq], rhs[eq])
    if res.fun > FEAS_TOL:
        return Infeasible(f"phase-1 violation {res.fun:.3e}")
    return np.clip(res.x[: lp.n_vars], 0.0, None)


# ---------------------------------------------------------------------------
# configuration-balancing LP


def build_lpc(inst, tau):
    """LP_C at threshold tau: per-request convex weights, per-resource
    truncated rows, one total-exceptional row; configurations with
    E[max_i X_i(c)] > tau are pruned (excluded, so their weight is exactly
    zero). Returns (LinearProgram, var_map) with var_map[k] = (j, c).

    Every coefficient is looked up in the instance's TailTable; zero
    coefficients are left out."""
    check_tau(tau)
    t = float(tau)
    table = inst.tail_table()
    value = np.concatenate((*table.tails_at(tau), [1.0]))[table.entry_value]
    kept = ~(table.emax > t)
    keep = kept[table.entry_config] & (value != 0)
    col = np.cumsum(kept)[table.entry_config[keep]] - 1
    var_map = list(compress(table.choices, kept.tolist()))
    n, m = inst.n, inst.m
    lp = LinearProgram(
        len(var_map), ["="] * n + ["<="] * (m + 1), [1.0] * n + [t] * (m + 1), table.row_names,
        table.entry_row[keep], col, value[keep],
    )
    return lp, var_map


def solve_lpc(inst, tau):
    """Solve LP_C: {request: [(configuration, weight)]} over the configurations
    not pruned at tau (a pruned one has weight exactly zero), or
    Infeasible."""
    lp, var_map = build_lpc(inst, tau)
    present = {j for j, _ in var_map}
    for j, req in enumerate(inst.requests):
        if j not in present:
            return Infeasible(f"request {req.id}: all configurations pruned at tau={tau}")
    x = solve_feasibility(lp)
    if isinstance(x, Infeasible):
        return x
    weights = {j: [] for j in range(inst.n)}
    for (j, c), w in zip(var_map, x.tolist()):
        weights[j].append((c, w))
    return weights


def threshold_search(solve, hi):
    """Bisect [0, hi] for a threshold at which solve(tau) is feasible, to
    relative precision EPS. Returns (tau, solution) with the solution solve
    found feasible at that tau, or (0.0, None) when hi <= 0. Every midpoint
    taken as the lower end was found infeasible, and the last one is at
    least tau * (1 - EPS). Feasibility need not be monotone in tau, so tau
    is not claimed to be the smallest feasible threshold."""
    if hi <= 0:
        return 0.0, None
    sol = solve(hi)
    if isinstance(sol, Infeasible):
        raise NoFeasibleTau(f"LP infeasible at the upper bound tau={hi}: {sol.reason}")
    lo = 0.0
    while hi - lo > EPS * hi:
        mid = 0.5 * (lo + hi)
        trial = solve(mid)
        if isinstance(trial, Infeasible):
            lo = mid
        else:
            hi, sol = mid, trial
    return hi, sol


def min_feasible_tau(inst):
    """(tau, LP_C solution at tau) by threshold_search up to the sum of each
    request's cheapest E[max], where LP_C is feasible. LP_C is feasible at
    every tau >= 2 E[OPT] but not monotone in tau: past a support value
    a * v, mass leaves the exceptional row for a truncated row."""
    table = inst.tail_table()
    hi = sum(np.minimum.reduceat(table.emax, table.request_start).tolist())
    return threshold_search(lambda t: solve_lpc(inst, t), float(hi))


# ---------------------------------------------------------------------------
# routing: the path LP by primal column generation


def _routing_master(r, tau, views, columns):
    """Phase-1 master LP for a restricted column set over the m edge rows,
    the exceptional row and one convexity row per request; returns the
    HighsSolution and the (request, path) of each structural column."""
    cols = [(j, path) for j, paths in enumerate(columns) for path in sorted(paths)]
    row, col, val = [], [], []
    for k, (j, path) in enumerate(cols):
        view = views[j]
        row += [*path, r.m, r.m + 1 + j]
        col += [k] * (len(path) + 2)
        val += [*(view.truncated[e] for e in path), view.exceptional(path), 1.0]
    return phase1(len(cols), row, col, val, np.full(r.m + 1, float(tau)), np.ones(r.n)), cols


def solve_lpp_column_generation(r, tau):
    """Feasibility of the path LP at tau by primal column generation.

    Maintains one admissible seed path per request, alternates solving the
    restricted phase-1 master with pricing new columns through the
    bottleneck-edge-guessing shortest-path routine
    (RoutingRequestView.best_path), and stops when no improving column
    exists. Returns {request: [(path, weight)]} or an Infeasible verdict.
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

    for _ in range(CG_MAX_ROUNDS):
        res, cols = _routing_master(r, tau, views, columns)
        if res.fun <= FEAS_TOL:
            weights = {j: [] for j in range(r.n)}
            for k, (j, path) in enumerate(cols):
                weights[j].append((path, max(float(res.x[k]), 0.0)))
            return weights
        y_ub, y_eq = res.row_dual[: r.m + 1], res.row_dual[r.m + 1 :]
        b = [-y_ub[e] for e in range(r.m)]
        c_coef = -y_ub[r.m]
        added = False
        for j, view in enumerate(views):
            # minimize sum_e b_e E[X^T_ej] + c * exc(P) over admissible paths
            prices = {e: b[e] * w for e, w in view.truncated.items()}
            best = view.best_path(
                prices,
                lambda path: sum(prices[e] for e in path) + c_coef * view.exceptional(path),
            )
            if best is None:
                continue
            path, value = best
            # column improves iff its phase-1 reduced cost is negative
            if value < y_eq[j] - FEAS_TOL and path not in columns[j]:
                columns[j].add(path)
                added = True
        if not added:
            return Infeasible(f"pricing found no improving column; violation {res.fun:.3e}")
    raise NumericalFailure(f"column generation did not converge in {CG_MAX_ROUNDS} rounds")


def min_feasible_tau_routing(r):
    """(tau, path-LP solution at tau) by threshold_search over column
    generation, up to the sum of each request's cheapest expected path
    cost."""
    hi = sum(r.min_expected_cost(j) for j in range(r.n))
    return threshold_search(lambda t: solve_lpp_column_generation(r, t), hi)
