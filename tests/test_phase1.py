"""solve against the dense linprog phase 1 it replaces (conftest's
reference_phase1): phase1_model hands HiGHS the same CSC matrix, costs and
row bounds, and x, the objective, both blocks of row duals and the
iteration count come back bit for bit, on LP_C builds (the session's first
model included), column-generation masters and small random programs.
master's one-column shortcut gives HiGHS's verdict and weights bit for bit.
Non-finite input, a coefficient past HiGHS's limit, a failed model and a
solution that breaks a row raise NumericalFailure."""

import importlib.util
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal import lp
from cfgbal.distributions import point_mass
from cfgbal.instances import Configuration, ConfigInstance, Request, unrelated_to_config
from cfgbal.lp import (
    FEAS_TOL,
    Infeasible,
    LinearProgram,
    NumericalFailure,
    build_lpc,
    master,
    min_feasible_tau,
    min_feasible_tau_routing,
    phase1_model,
    solve,
    solve_lpc,
)

from conftest import reference_min_feasible_tau, reference_phase1

_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def dense_program(program):
    """(A_eq, b_eq, A_ub, b_ub) of a LinearProgram: its request rows at 1,
    its <= rows at program.t."""
    n_ub = program.m + 1
    a = np.zeros((n_ub + program.n, program.n_vars))
    a[program.row, program.col] = program.val
    return a[n_ub:], np.ones(program.n), a[:n_ub], np.full(n_ub, program.t)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_matches_reference(program):
    a_eq, b_eq, a_ub, b_ub = dense_program(program)
    ref, csc, cost = reference_phase1(a_eq, b_eq, a_ub, b_ub)
    assert ref.status == 0, ref.message
    model = phase1_model(program)
    matrix = model.a_matrix_
    assert np.array_equal(matrix.start_, csc.indptr)
    assert np.array_equal(matrix.index_, csc.indices)
    assert bits(matrix.value_) == bits(csc.data)
    assert bits(model.col_cost_) == bits(cost)
    assert bits(model.row_upper_) == bits(np.concatenate((b_ub, b_eq)))
    assert bits(model.row_lower_) == bits(np.concatenate((np.full(len(b_ub), -np.inf), b_eq)))
    res = solve(program)
    assert bits(res.x) == bits(ref.x)
    assert bits([res.fun]) == bits([ref.fun])
    assert bits(res.row_dual[: len(b_ub)]) == bits(ref.ineqlin.marginals)
    assert bits(res.row_dual[len(b_ub):]) == bits(ref.eqlin.marginals)
    assert res.nit == ref.nit


@pytest.fixture
def phase1_programs(monkeypatch):
    """Every LinearProgram that the lp module builds a model from, the
    session's first model included. Checking a program solves it again
    and records it again, so tests check a copy of the list."""
    programs = []

    def recording(program):
        programs.append(program)
        return phase1_model(program)

    monkeypatch.setattr(lp, "phase1_model", recording)
    return programs


@pytest.mark.parametrize("k", range(2))
def test_lpc_builds_match_reference(phase1_programs, k):
    inst = unrelated_to_config(gen.unrelated_instance(1, k, 12, 4))
    tau, _ = min_feasible_tau(inst)
    # the search's later session steps update its first model; the
    # reference search builds each of its midpoints fresh
    assert reference_min_feasible_tau(inst)[0] == tau
    verdicts = [solve_lpc(inst, f * tau) for f in (0.5, 0.9, 0.999, 1.0, 1.1, 2.0)]
    assert isinstance(verdicts[1], Infeasible) and not isinstance(verdicts[-1], Infeasible)
    assert len(phase1_programs) > 10
    # the session's first model has a column for every configuration
    assert phase1_programs[0].n_vars == len(inst.tail_table().emax)
    for program in list(phase1_programs):
        assert_matches_reference(program)


# grids whose search still builds masters: on grid 0 every step's first
# master holds one fitting column per request, which master answers
# without HiGHS
@pytest.mark.parametrize("k", [1, 2, 4])
def test_column_generation_masters_match_reference(phase1_programs, k):
    min_feasible_tau_routing(gen.grid_instance(1, k, 5, 3))
    assert len(phase1_programs) > 5
    for program in list(phase1_programs):
        assert_matches_reference(program)


@pytest.fixture
def one_column_masters(monkeypatch):
    """(program, cols) of every master call whose program holds one column
    per request (every request holds at least one in both LPs)."""
    seen = []

    def recording(program, cols):
        if program.n_vars == program.n:
            seen.append((program, list(cols)))
        return master(program, cols)

    monkeypatch.setattr(lp, "master", recording)
    return seen


def highs_master(monkeypatch, program, cols):
    """master with the one-column shortcut declined: HiGHS's verdict."""
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_fits_at_one", lambda program: False)
        return master(program, cols)[1]


def shortcut_master(monkeypatch, program, cols):
    """master's verdict, which must not reach HiGHS when the columns fit."""
    with monkeypatch.context() as patch:
        if lp._fits_at_one(program):
            patch.setattr(lp, "linprog", unreachable_solver)
        return master(program, cols)[1]


def unreachable_solver(model, solver=None):
    raise AssertionError("HiGHS solved a program whose one column per request fits")


def assert_shortcut_matches_highs(monkeypatch, program, cols):
    # repr tells 1.0 from 0.9999999999999998 and -0.0 from 0.0
    assert repr(shortcut_master(monkeypatch, program, cols)) == repr(highs_master(monkeypatch, program, cols))


@pytest.mark.parametrize("seed", [1, 1009])
def test_one_column_shortcut_matches_highs_on_searches(monkeypatch, one_column_masters, seed):
    for n in (3, 6):
        for k in range(8):
            min_feasible_tau_routing(gen.grid_instance(seed, k, 5, n))
    masters = list(one_column_masters)
    fits = sum(lp._fits_at_one(program) for program, _ in masters)
    assert 0 < fits < len(masters)
    for program, cols in masters:
        assert_shortcut_matches_highs(monkeypatch, program, cols)


def test_one_column_shortcut_matches_highs_on_pruned_lpc(monkeypatch):
    # at tau = 2 each request's second configuration (E[max] 3 or 4) is
    # pruned; at tau = 1 the kept ones' mass 1 is exceptional, and the
    # exceptional row's 2 is over 1
    inst = ConfigInstance(2, [
        Request(0, [Configuration([1, 0], point_mass(1)), Configuration([0, 1], point_mass(3))]),
        Request(1, [Configuration([0, 1], point_mass(1)), Configuration([1, 0], point_mass(4))]),
    ])
    for tau, fits in ((2.0, True), (1.0, False)):
        program, var_map = build_lpc(inst, tau)
        assert program.n_vars == program.n == 2 and lp._fits_at_one(program) == fits
        assert_shortcut_matches_highs(monkeypatch, program, var_map)
    monkeypatch.setattr(lp, "linprog", unreachable_solver)
    assert solve_lpc(inst, 2.0) == {0: [(0, 1.0)], 1: [(0, 1.0)]}


def test_seed_row_one_ulp_over_t_reaches_highs(monkeypatch):
    # one request whose seed column's edge row is one ulp over t: HiGHS's
    # tolerance calls it feasible, at a weight x = t / row just below 1
    t = 0.6
    program = LinearProgram(1, 1, 1, t, [0, 1, 2], [0, 0, 0], [math.nextafter(t, math.inf), 0.0, 1.0])
    assert not lp._fits_at_one(program)
    models, real = [], lp.linprog

    def spying(model, solver=None):
        models.append(model)
        return real(model, solver)

    monkeypatch.setattr(lp, "linprog", spying)
    res, verdict = master(program, [(0, (0,))])
    assert len(models) == 1
    expected = solve(program)
    assert expected.fun <= FEAS_TOL and bits(res.x) == bits(expected.x)
    assert verdict == {0: [((0,), max(float(expected.x[0]), 0.0))]}
    assert verdict[0][0][1] == 0.9999999999999998


COEFFS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -3.0])


@st.composite
def small_programs(draw):
    """Small LinearPrograms with every cell of the dense matrix as an entry,
    zeros included, in a drawn order; rows may be all zero."""
    m, n, n_vars = draw(st.integers(0, 2)), draw(st.integers(0, 3)), draw(st.integers(0, 4))
    t = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    cells = draw(st.permutations([(i, k) for i in range(m + 1 + n) for k in range(n_vars)]))
    val = draw(st.lists(COEFFS, min_size=len(cells), max_size=len(cells)))
    return LinearProgram(n_vars, m, n, t, [i for i, _ in cells], [k for _, k in cells], val)


@settings(max_examples=150, deadline=None)
@given(small_programs())
def test_small_programs_match_reference(program):
    if program.n_vars + program.n == 0:
        return  # linprog refuses a program without columns
    assert_matches_reference(program)


def test_program_without_columns_is_feasible():
    res = solve(LinearProgram(0, 1, 0, 1.0, [], [], []))
    assert res.x.size == 0 and res.fun == 0.0 and res.nit == 0


@pytest.mark.parametrize(
    "program",
    [
        LinearProgram(1, 0, 1, 1.0, [0], [0], [np.nan]),
        LinearProgram(1, 0, 1, 1.0, [1], [0], [np.inf]),
        LinearProgram(1, 0, 1, np.inf, [0], [0], [1.0]),
    ],
    ids=["nan-coefficient", "inf-coefficient", "inf-ub-rhs"],
)
def test_non_finite_input_is_refused(monkeypatch, program):
    def unreachable(model):
        raise AssertionError("HiGHS saw non-finite input")

    monkeypatch.setattr(lp, "linprog", unreachable)
    with pytest.raises(NumericalFailure, match="non-finite"):
        solve(program)


def one_request(value):
    """One variable with coefficient value in its request's row."""
    return LinearProgram(1, 0, 1, 1.0, [1], [0], [value])


def test_model_error_is_a_numerical_failure():
    # HiGHS refuses matrix values at or above its large_matrix_value (1e15);
    # phase1_model refuses them first, so this model is doctored after it
    model = phase1_model(one_request(1.0))
    model.a_matrix_.value_ = [1e300, 1.0]
    with pytest.raises(NumericalFailure, match="Model error"):
        lp.linprog(model)


@pytest.mark.parametrize("value", [1e15, -1e16, 1e300])
def test_coefficient_past_the_solver_limit_is_refused(monkeypatch, value):
    def unreachable(model):
        raise AssertionError("HiGHS saw a coefficient past its limit")

    monkeypatch.setattr(lp, "linprog", unreachable)
    message = f"magnitude {abs(value):g} is at or above the solver's limit 1e+15"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        solve(one_request(value))
    monkeypatch.undo()
    assert solve(one_request(9.999999999999999e14)).fun == 0.0


@pytest.mark.parametrize(
    "field, change",
    [
        ("row_value", lambda v: v + np.array([3.0, 0.0])),  # <= row over its bound
        ("row_value", lambda v: v + np.array([0.0, 1e-3])),  # = row off
        ("x", lambda x: x - 1.0),  # negative x
        ("fun", lambda f: float("nan")),
    ],
    ids=["ub-row", "eq-row", "negative-x", "nan-objective"],
)
def test_doctored_solution_is_refused(monkeypatch, field, change):
    real = lp.linprog

    def doctored(model):
        res = real(model)
        return res._replace(**{field: change(getattr(res, field))})

    monkeypatch.setattr(lp, "linprog", doctored)
    # x0 + x1 <= 2 and x0 - x1 = 1
    program = LinearProgram(2, 0, 1, 2.0, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0, 1.0, -1.0])
    with pytest.raises(NumericalFailure, match="violates"):
        solve(program)
    monkeypatch.setattr(lp, "linprog", real)
    solve(program)
