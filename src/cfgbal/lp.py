"""Linear programs: the configuration-balancing LP LP_C, threshold search,
and the routing path LP via column generation.

Both LPs are one LinearProgram in one layout: row i < m is resource (or
edge) i's truncated row, row m the exceptional row, both <= tau, and row
m + 1 + j request j's convexity row, = 1; column k is one (request,
choice), in request order. Every model handed to HiGHS is phase1_model(lp),
the layout's phase 1: minimize total constraint violation through one
artificial variable per request row (tau >= 0, so the <= rows need none); a
point is feasible iff the phase-1 optimum is at most FEAS_TOL. solve(lp)
hands that sparse column-wise model to HiGHS through scipy's bundled
bindings (scipy.optimize._highspy._core) under the options scipy's linprog
sets for method="highs"; the dual simplex is deterministic for a fixed
input. solve keeps linprog's checks: finite input, an optimal model status,
and a solution within linprog's residual tolerance. One master(lp, cols)
turns a solve into both LPs' verdict and weights: the fresh solve_lpc and
each column-generation round. When every request row holds exactly one
column, x = 1 is the only point that can zero phase 1, and master answers
without HiGHS if those columns' float row sums are at most lp.t on every
<= row; a row over lp.t by any amount goes to HiGHS, as does every other
program.

LP_C's tau-independent data (each configuration's E[max], and the tail
kernel's values at the breakpoints of each (law, multiplier) pair) is built
once per instance, as instances.TailTable, whose entries are already in the
layout. Each build_lpc call then prunes by one array comparison, finds each
pair's coefficients by one bisect_left, and keeps the table entries of the
unpruned configurations; LinearProgram derives dict rows only when they are
read.

Both LPs share one threshold search, which returns the solution
{request: [(choice, weight)]} it found at the threshold it returns, so the
offline drivers round that solution without solving again. Its last
infeasible midpoint is at least tau * (1 - EPS) and certifies
E[OPT] > tau * (1 - EPS) / 2.

LP_C's search runs all its steps on one HiGHS model (_LpcSession), which
each step updates where it changed and re-runs from the last basis; it
gives each step's verdict and is closed with the search. One fresh
solve_lpc at the returned tau gives the returned solution, so reports are
those of a fresh search, and confirms the verdict that ended the search;
a contradiction raises NumericalFailure. check_phase1_input and
accept_phase1 hold on both paths.

Column generation reads its views from the instance's RoutingViewMemo, as
LP_C reads its tail table: a view and its seed path are built once per
split of tau (the tail kernel's partition and the admissibility thresholds
at or below tau), so the search's steps return what fresh views give.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress

import numpy as np
from scipy.optimize._highspy import _core as highs

from .distributions import CfgbalError, check_tau
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


class NumericalFailure(CfgbalError, RuntimeError):
    """The solver could not certify feasibility either way at tolerance."""


class NoFeasibleTau(CfgbalError, RuntimeError):
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
    """LP_C or the path LP at threshold t over n_vars variables x >= 0, in
    the module's layout over m resources and n requests. The coefficients
    are coordinate entries (row[k], col[k], val[k]), no position twice; a
    zero entry is inert. .rows derives the (coeffs dict col -> val, sense,
    rhs, name) tuples, the nonzero coefficients in entry order, named
    trunc_i, exc and req_j, when read."""

    def __init__(self, n_vars, m, n, t, row, col, val):
        self.n_vars, self.m, self.n, self.t = n_vars, m, n, t
        self.row = np.asarray(row, dtype=np.intp)
        self.col = np.asarray(col, dtype=np.intp)
        self.val = np.asarray(val, dtype=float)

    @property
    def rows(self):
        nonzero = self.val != 0
        row = self.row[nonzero]
        order = np.argsort(row, kind="stable")
        bounds = np.searchsorted(row[order], np.arange(self.m + self.n + 2)).tolist()
        col, val = self.col[nonzero][order].tolist(), self.val[nonzero][order].tolist()
        shape = [("<=", self.t, f"trunc_{i}") for i in range(self.m)] + [("<=", self.t, "exc")]
        shape += [("=", 1.0, f"req_{j}") for j in range(self.n)]
        return [
            (dict(zip(col[a:b], val[a:b])), sense, rhs, name)
            for a, b, (sense, rhs, name) in zip(bounds, bounds[1:], shape)
        ]


# what phase 1 reads back from HiGHS: x = col_value, fun = the objective
# value, row_value and row_dual over the stacked rows (<= rows, then = rows),
# nit = simplex iterations
HighsSolution = namedtuple("HighsSolution", "x fun row_value row_dual nit")


def linprog(model, solver=None):
    """The one HiGHS call, timed under this name by perfbench's tracer:
    pass a column-wise HighsLp to solver (a new _Highs under _OPTIONS when
    None) and run it, or, with model None, re-run solver on the model it
    holds, from the basis its last run left. A model status other than
    optimal (or empty, for a model without columns) means HiGHS gave up:
    NumericalFailure."""
    if solver is None:
        solver = highs._Highs()
        solver.passOptions(_OPTIONS)
    status = highs.HighsModelStatus.kModelError
    if model is None or solver.passModel(model) != highs.HighsStatus.kError:
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


def check_phase1_input(val, t):
    """A non-finite coefficient or threshold, or a coefficient at or above
    HiGHS's large_matrix_value in magnitude, raises NumericalFailure."""
    if not (np.isfinite(val).all() and np.isfinite(t)):
        raise NumericalFailure("phase-1 input has a non-finite coefficient or right-hand side")
    largest, limit = np.abs(val).max(initial=0.0), _OPTIONS.large_matrix_value
    if largest >= limit:
        raise NumericalFailure(
            f"phase-1 coefficient of magnitude {largest:g} is at or above the solver's limit {limit:g}"
        )


def phase1_model(lp):
    """The column-wise phase-1 HighsLp of a LinearProgram: minimize the
    total violation of its rows over x >= 0. One +1 artificial column per
    request row follows the n_vars structural ones; the <= rows need none,
    as lp.t >= 0. Zero entries are dropped and row indices ascend within a
    column. The input goes through check_phase1_input first."""
    check_phase1_input(lp.val, lp.t)
    n_ub, n_cols = lp.m + 1, lp.n_vars + lp.n
    row = np.concatenate((lp.row, n_ub + np.arange(lp.n)))
    col = np.concatenate((lp.col, np.arange(lp.n_vars, n_cols)))
    val = np.concatenate((lp.val, np.ones(lp.n)))
    nonzero = val != 0
    row, col, val = row[nonzero], col[nonzero], val[nonzero]
    order = np.lexsort((row, col))
    # lists: the bindings copy them into HiGHS faster than numpy arrays
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n_cols
    model.num_row_ = model.a_matrix_.num_row_ = n_ub + lp.n
    model.col_cost_ = [0.0] * lp.n_vars + [1.0] * lp.n
    model.col_lower_ = [0.0] * n_cols
    model.col_upper_ = [np.inf] * n_cols
    model.row_lower_ = [-np.inf] * n_ub + [1.0] * lp.n
    model.row_upper_ = [lp.t] * n_ub + [1.0] * lp.n
    model.a_matrix_.format_ = highs.MatrixFormat.kColwise
    model.a_matrix_.start_ = [0] + np.cumsum(np.bincount(col, minlength=n_cols)).tolist()
    model.a_matrix_.index_ = row[order].tolist()
    model.a_matrix_.value_ = val[order].tolist()
    return model


def accept_phase1(res, lp):
    """res, if it keeps linprog's acceptance rule. Phase 1 is always
    feasible and bounded, so a solution that breaks it (a NaN, x < -tol, a
    <= row over lp.t by more than tol, a request row off 1 by more than tol,
    with tol = 10 * sqrt(1e-9)) means HiGHS gave up: NumericalFailure."""
    slack = lp.t - res.row_value[: lp.m + 1]
    residual = np.abs(1.0 - res.row_value[lp.m + 1 :])
    if not (
        (res.x >= -RESIDUAL_TOL).all()
        and (slack >= -RESIDUAL_TOL).all()
        and (residual <= RESIDUAL_TOL).all()
        and not np.isnan(res.fun)
    ):
        raise NumericalFailure(f"phase-1 solution violates its rows or bounds by more than {RESIDUAL_TOL:.2e}")
    return res


def solve(lp):
    """The HighsSolution of phase1_model(lp), over [x, artificials], checked
    by accept_phase1."""
    return accept_phase1(linprog(phase1_model(lp)), lp)


def _fits_at_one(lp):
    """Whether x = 1 is lp's only candidate and fits: every request row
    holds exactly one column, with coefficient 1, and no column sits in two;
    and the float row sums of those columns are at most lp.t on every <=
    row. A row over lp.t by any amount, however small, does not fit."""
    nonzero = lp.val != 0
    row, col, val = lp.row[nonzero], lp.col[nonzero], lp.val[nonzero]
    request = row > lp.m
    if not (
        lp.n_vars == lp.n == np.count_nonzero(request)
        and (val[request] == 1.0).all()
        and (np.bincount(row[request] - (lp.m + 1), minlength=lp.n) == 1).all()
        and (np.bincount(col[request], minlength=lp.n) == 1).all()
    ):
        return False
    ub = ~request
    return bool((np.bincount(row[ub], weights=val[ub], minlength=lp.m + 1) <= lp.t).all())


def master(lp, cols):
    """solve(lp) and its verdict, with cols[k] = (request, choice) naming
    column k: (res, {request: [(choice, weight)]}), the weights clipped at
    0 in cols order, or (res, Infeasible) if the phase-1 optimum is over
    FEAS_TOL.

    When x = 1 is the only candidate and fits (_fits_at_one), phase 1's
    optimum is 0 at x = 1, and master returns (None, every weight 1.0)
    without HiGHS, after check_phase1_input. Otherwise HiGHS solves it,
    whose duals price the next column when it is infeasible."""
    check_phase1_input(lp.val, lp.t)
    if _fits_at_one(lp):
        res, x = None, [1.0] * lp.n_vars
    else:
        res = solve(lp)
        if res.fun > FEAS_TOL:
            return res, Infeasible(f"phase-1 violation {res.fun:.3e}")
        x = np.clip(res.x[: lp.n_vars], 0.0, None).tolist()
    weights = {j: [] for j in range(lp.n)}
    for (j, choice), w in zip(cols, x):
        weights[j].append((choice, w))
    return res, weights


# ---------------------------------------------------------------------------
# configuration-balancing LP


def _unpruned(table, t):
    """LP_C's configurations at float threshold t: E[max] <= t."""
    return ~(table.emax > t)


def build_lpc(inst, tau):
    """LP_C at threshold tau: per-request convex weights, per-resource
    truncated rows, one total-exceptional row; configurations with
    E[max_i X_i(c)] > tau are pruned (excluded, so their weight is exactly
    zero). Returns (LinearProgram, var_map) with var_map[k] = (j, c).

    Every coefficient is looked up in the instance's TailTable. The
    entries are the table's entries of the unpruned configurations, in
    table order, zeros included (phase1_model drops them)."""
    check_tau(tau)
    t = float(tau)
    table = inst.tail_table()
    value = np.concatenate((*table.tails_at(tau), [1.0]))[table.entry_value]
    kept = _unpruned(table, t)
    keep = kept[table.entry_config]
    col = np.cumsum(kept)[table.entry_config[keep]] - 1
    var_map = list(compress(table.choices, kept.tolist()))
    lp = LinearProgram(len(var_map), inst.m, inst.n, t, table.entry_row[keep], col, value[keep])
    return lp, var_map


def solve_lpc(inst, tau, session=None):
    """Solve LP_C: {request: [(configuration, weight)]} over the configurations
    not pruned at tau (a pruned one has weight exactly zero), or
    Infeasible. With a session (min_feasible_tau's _LpcSession), the step
    updates and re-runs the session's model instead of solving a new one,
    and returns only its verdict: True or Infeasible."""
    lp, var_map = build_lpc(inst, tau)
    present = {j for j, _ in var_map}
    for j, req in enumerate(inst.requests):
        if j not in present:
            return Infeasible(f"request {req.id}: all configurations pruned at tau={tau}")
    if session is not None:
        return session.verdict(lp)
    return master(lp, var_map)[1]


class _LpcSession:
    """LP_C's phase 1 for one threshold search, as one HiGHS model that each
    step updates and re-runs from the basis the last run left (a dual
    simplex warm start). Its columns are every configuration of the
    instance in the tail table's order, then one artificial per request
    row; its rows are the module's layout, and its coefficients the tail
    table's entries. The first step opens a _Highs with phase1_model's
    model, the pruned configurations bounded to [0, 0]. A later step
    writes only what changed: each unpruned configuration's coefficient
    whose value changed (checked by check_phase1_input first; a zero
    deletes the entry), [0, 0] on newly pruned configurations and [0, inf)
    on restored ones, and tau on the <= rows. A pruned configuration keeps
    its last coefficients, which its bounds make inert. close() drops the
    solver."""

    def __init__(self, inst):
        self.table = inst.tail_table()
        self.value = np.zeros(len(self.table.entry_config))  # each entry's coefficient in the model
        self.kept = np.zeros(len(self.table.emax), dtype=bool)
        self.solver = None

    def close(self):
        self.solver = None

    def verdict(self, lp):
        """solve_lpc's verdict on build_lpc's lp, True or Infeasible, from
        the session's model."""
        table = self.table
        kept = _unpruned(table, lp.t)
        value = self.value.copy()
        value[kept[table.entry_config]] = lp.val  # build_lpc's entries, in table order
        if self.solver is None:
            model = phase1_model(
                LinearProgram(len(kept), lp.m, lp.n, lp.t, table.entry_row, table.entry_config, value)
            )
            model.col_upper_ = np.where(kept, np.inf, 0.0).tolist() + [np.inf] * lp.n
            self.solver = highs._Highs()
            self.solver.passOptions(_OPTIONS)
            res = linprog(model, self.solver)
        else:
            changed = np.flatnonzero(value != self.value)
            check_phase1_input(value[changed], lp.t)
            rows, configs = table.entry_row[changed].tolist(), table.entry_config[changed].tolist()
            for r, k, v in zip(rows, configs, value[changed].tolist()):
                self.solver.changeCoeff(r, k, v)
            flip = np.flatnonzero(kept != self.kept)
            if len(flip):
                upper = np.where(kept[flip], np.inf, 0.0)
                self.solver.changeColsBounds(len(flip), flip.astype(np.int32), np.zeros(len(flip)), upper)
            for r in range(lp.m + 1):
                self.solver.changeRowBounds(r, -np.inf, lp.t)
            res = linprog(None, self.solver)
        self.value, self.kept = value, kept
        res = accept_phase1(res, lp)
        if res.fun > FEAS_TOL:
            return Infeasible(f"phase-1 violation {res.fun:.3e}")
        return True


def _no_feasible_tau(hi, verdict):
    return NoFeasibleTau(f"LP infeasible at the upper bound tau={hi}: {verdict.reason}")


def threshold_search(solve, hi):
    """Bisect [0, hi] for a threshold at which solve(tau) is feasible, to
    relative precision EPS. Returns (tau, solution) with the solution solve
    found feasible at that tau, or (0.0, None) when hi <= 0. Every midpoint
    taken as the lower end was found infeasible, and the last one is at
    least tau * (1 - EPS). Feasibility need not be monotone in tau, so tau
    is not claimed to be the smallest feasible threshold. An upper end
    whose EPS * hi underflows to 0.0 raises NumericalFailure naming it, so
    every midpoint lies strictly inside (lo, hi)."""
    if hi <= 0:
        return 0.0, None
    sol = solve(hi)
    if isinstance(sol, Infeasible):
        raise _no_feasible_tau(hi, sol)
    lo = 0.0
    while hi - lo > EPS * hi:
        if EPS * hi == 0.0:
            raise NumericalFailure(f"threshold search upper end tau={hi} is too small: EPS * tau underflows to 0.0")
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
    a * v, mass leaves the exceptional row for a truncated row.

    The search's steps share one _LpcSession, which gives each verdict.
    A fresh solve_lpc confirms the verdicts that end the search, infeasible
    at hi or feasible at the returned tau, and gives the returned solution;
    if it contradicts the session: NumericalFailure."""
    table = inst.tail_table()
    hi = float(sum(np.minimum.reduceat(table.emax, table.request_start).tolist()))
    if hi <= 0:
        return 0.0, None
    session = _LpcSession(inst)
    try:
        tau, _ = threshold_search(lambda t: solve_lpc(inst, t, session), hi)
    except NoFeasibleTau as exc:
        fresh = solve_lpc(inst, hi)
        if isinstance(fresh, Infeasible):
            raise _no_feasible_tau(hi, fresh) from None
        raise NumericalFailure(f"LP_C verdicts disagree: session: {exc}; fresh solve: feasible") from None
    finally:
        session.close()
    sol = solve_lpc(inst, tau)
    if isinstance(sol, Infeasible):
        raise NumericalFailure(
            f"LP_C verdicts disagree at tau={tau}: session: feasible; fresh solve: {sol.reason}"
        )
    return tau, sol


# ---------------------------------------------------------------------------
# routing: the path LP by primal column generation


def solve_lpp_column_generation(r, tau):
    """Feasibility of the path LP at tau by primal column generation.

    Maintains one admissible seed path per request, alternates solving the
    restricted phase-1 master with pricing new columns through the
    bottleneck-edge-guessing shortest-path routine
    (RoutingRequestView.best_path), and stops when no improving column
    exists. Returns {request: [(path, weight)]} or an Infeasible verdict.
    The views and their seed paths come from routing_to_config, so from
    r's view memo.
    """
    try:
        views = routing_to_config(r, tau)
    except NoFeasiblePath as exc:
        return Infeasible(str(exc))
    columns = [{v.seed_path()} for v in views]

    for _ in range(CG_MAX_ROUNDS):
        cols = [(j, path) for j, paths in enumerate(columns) for path in sorted(paths)]
        row, col, val = [], [], []
        for k, (j, path) in enumerate(cols):
            view = views[j]
            row += [*path, r.m, r.m + 1 + j]
            col += [k] * (len(path) + 2)
            val += [*(view.truncated[e] for e in path), view.exceptional(path), 1.0]
        res, weights = master(LinearProgram(len(cols), r.m, r.n, float(tau), row, col, val), cols)
        if not isinstance(weights, Infeasible):
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
    cost. The search's steps share r's view memo, which builds each
    request's view once per split."""
    hi = sum(r.min_expected_cost(j) for j in range(r.n))
    return threshold_search(lambda t: solve_lpp_column_generation(r, t), hi)
