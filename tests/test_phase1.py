"""phase1 against the dense linprog phase 1 it replaces (conftest's
reference_phase1): the same CSC matrix, costs and row bounds reach HiGHS,
and x, the objective, both blocks of row duals and the iteration count come
back bit for bit, on LP_C builds, column-generation masters and small random
programs. Non-finite input, a coefficient past HiGHS's limit, a failed model
and a solution that breaks a row raise NumericalFailure."""

import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgbal import lp
from cfgbal.instances import unrelated_to_config
from cfgbal.lp import (
    Infeasible,
    NumericalFailure,
    min_feasible_tau,
    min_feasible_tau_routing,
    phase1,
    phase1_model,
    solve_lpc,
)

from conftest import reference_min_feasible_tau, reference_phase1

_GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
_spec = importlib.util.spec_from_file_location("perfbench_gen", _GEN)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def dense_program(n, row, col, val, b_ub, b_eq):
    """(A_eq, b_eq, A_ub, b_ub) from phase1's coordinate entries."""
    n_ub = len(b_ub)
    a = np.zeros((n_ub + len(b_eq), n))
    a[np.asarray(row, dtype=int), np.asarray(col, dtype=int)] = np.asarray(val, dtype=float)
    return a[n_ub:], np.asarray(b_eq, dtype=float), a[:n_ub], np.asarray(b_ub, dtype=float)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


def assert_matches_reference(args):
    ref, csc, cost = reference_phase1(*dense_program(*args))
    assert ref.status == 0, ref.message
    model = phase1_model(*args)
    matrix = model.a_matrix_
    assert np.array_equal(matrix.start_, csc.indptr)
    assert np.array_equal(matrix.index_, csc.indices)
    assert bits(matrix.value_) == bits(csc.data)
    assert bits(model.col_cost_) == bits(cost)
    b_ub, b_eq = np.asarray(args[4], dtype=float), np.asarray(args[5], dtype=float)
    assert bits(model.row_upper_) == bits(np.concatenate((b_ub, b_eq)))
    assert bits(model.row_lower_) == bits(np.concatenate((np.full(len(b_ub), -np.inf), b_eq)))
    res = phase1(*args)
    assert bits(res.x) == bits(ref.x)
    assert bits([res.fun]) == bits([ref.fun])
    assert bits(res.row_dual[: len(b_ub)]) == bits(ref.ineqlin.marginals)
    assert bits(res.row_dual[len(b_ub):]) == bits(ref.eqlin.marginals)
    assert res.nit == ref.nit


@pytest.fixture
def phase1_calls(monkeypatch):
    """The arguments of every phase1 call made through the lp module."""
    calls = []

    def recording(*args):
        calls.append(args)
        return phase1(*args)

    monkeypatch.setattr(lp, "phase1", recording)
    return calls


@pytest.mark.parametrize("k", range(2))
def test_lpc_builds_match_reference(phase1_calls, k):
    inst = unrelated_to_config(gen.unrelated_instance(1, k, 12, 4))
    tau, _ = min_feasible_tau(inst)
    # the search's session steps skip phase1; the reference search builds
    # each of its midpoints fresh
    assert reference_min_feasible_tau(inst)[0] == tau
    verdicts = [solve_lpc(inst, f * tau) for f in (0.5, 0.9, 0.999, 1.0, 1.1, 2.0)]
    assert isinstance(verdicts[1], Infeasible) and not isinstance(verdicts[-1], Infeasible)
    assert len(phase1_calls) > 10
    for args in phase1_calls:
        assert_matches_reference(args)


@pytest.mark.parametrize("k", range(3))
def test_column_generation_masters_match_reference(phase1_calls, k):
    min_feasible_tau_routing(gen.grid_instance(1, k, 5, 3))
    assert len(phase1_calls) > 5
    for args in phase1_calls:
        assert_matches_reference(args)


COEFFS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -3.0])
RHS = st.sampled_from([0.0, 1.0, -1.0, 2.0, -0.5])


@st.composite
def small_programs(draw):
    """Every position of a small dense program as an entry, zeros included,
    in a drawn order; either block may be empty, rows may be all zero and
    right-hand sides of both kinds may be negative."""
    n = draw(st.integers(0, 4))
    n_ub, n_eq = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    b_ub = draw(st.lists(RHS, min_size=n_ub, max_size=n_ub))
    b_eq = draw(st.lists(RHS, min_size=n_eq, max_size=n_eq))
    cells = [(i, k) for i in range(n_ub + n_eq) for k in range(n)]
    cells = draw(st.permutations(cells))
    val = draw(st.lists(COEFFS, min_size=len(cells), max_size=len(cells)))
    row = [i for i, _ in cells]
    col = [k for _, k in cells]
    return n, row, col, val, b_ub, b_eq


@settings(max_examples=150, deadline=None)
@given(small_programs())
def test_small_programs_match_reference(args):
    n, _, _, _, b_ub, b_eq = args
    if n + len(b_eq) + sum(b < 0 for b in b_ub) == 0:
        return  # linprog refuses a program without columns
    assert_matches_reference(args)


def test_program_without_columns_is_feasible():
    res = phase1(0, [], [], [], [1.0, 0.0], [])
    assert res.x.size == 0 and res.fun == 0.0 and res.nit == 0


@pytest.mark.parametrize(
    "args",
    [
        (1, [0], [0], [np.nan], [1.0], []),
        (1, [0], [0], [np.inf], [], [1.0]),
        (1, [0], [0], [1.0], [np.inf], []),
        (1, [0], [0], [1.0], [], [-np.inf]),
    ],
    ids=["nan-coefficient", "inf-coefficient", "inf-ub-rhs", "inf-eq-rhs"],
)
def test_non_finite_input_is_refused(monkeypatch, args):
    def unreachable(model):
        raise AssertionError("HiGHS saw non-finite input")

    monkeypatch.setattr(lp, "linprog", unreachable)
    with pytest.raises(NumericalFailure, match="non-finite"):
        phase1(*args)


def test_model_error_is_a_numerical_failure():
    # HiGHS refuses matrix values at or above its large_matrix_value (1e15);
    # phase1_model refuses them first, so this model is doctored after it
    model = phase1_model(1, [0], [0], [1.0], [], [1.0])
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
        phase1(1, [0], [0], [value], [], [1.0])
    monkeypatch.undo()
    assert phase1(1, [0], [0], [9.999999999999999e14], [], [1.0]).fun == 0.0


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
    args = (2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, 1.0, 1.0, -1.0], [2.0], [0.0])
    with pytest.raises(NumericalFailure, match="violates"):
        phase1(*args)
    monkeypatch.setattr(lp, "linprog", real)
    phase1(*args)
