"""min_feasible_tau's warm-started session against conftest's
reference_min_feasible_tau, which solves every step fresh: the same verdict
at every step, the same tau and the same solution repr, with one fresh
solve at the returned tau. A fresh solve that contradicts a verdict ending
the search raises NumericalFailure; a zero upper bound opens no session; and no
session keeps its solver past the search."""

import re
from fractions import Fraction

import pytest

from cfgbal import lp
from cfgbal.distributions import DiscreteDistribution, point_mass
from cfgbal.instances import (
    Configuration,
    ConfigInstance,
    Request,
    related_to_unrelated,
    smooth_machines,
    unrelated_to_config,
)
from cfgbal.lp import Infeasible, NoFeasibleTau, NumericalFailure, min_feasible_tau

from conftest import perfbench_gen, reference_min_feasible_tau, tiny_suite

gen = perfbench_gen()

# past tau = 1, request 0's value 1 leaves the exceptional row for the
# truncated row; the search returns 1.4 (tests/test_lp.py)
COIN = DiscreteDistribution([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
NOT_MONOTONE = ConfigInstance(
    1,
    [
        Request(0, [Configuration([1], COIN)]),
        Request(1, [Configuration([1], point_mass(Fraction(9, 10)))]),
    ],
)


def suite(name):
    seeds = (1, 1009)
    if name == "unrelated":
        return [unrelated_to_config(gen.unrelated_instance(s, 0, 50, 10)) for s in seeds]
    if name == "related":
        relateds = [smooth_machines(gen.related_instance(s, 0, 48, 20))[1] for s in seeds]
        return [unrelated_to_config(related_to_unrelated(r)) for r in relateds]
    if name == "not-monotone":
        return [NOT_MONOTONE]
    tiny = tiny_suite("config", 12, seed=9100)
    tiny += [unrelated_to_config(u) for u in tiny_suite("unrelated", 6, seed=9200)]
    tiny += [unrelated_to_config(related_to_unrelated(r)) for r in tiny_suite("related", 6, seed=9300)]
    return tiny


@pytest.fixture
def steps(monkeypatch):
    """Every lp.solve_lpc call as (tau, feasible, through a session)."""
    calls = []
    real = lp.solve_lpc

    def recording(inst, tau, session=None):
        out = real(inst, tau, session)
        calls.append((tau, not isinstance(out, Infeasible), session is not None))
        return out

    monkeypatch.setattr(lp, "solve_lpc", recording)
    return calls


@pytest.mark.parametrize("name", ["unrelated", "related", "tiny", "not-monotone"])
def test_session_search_matches_reference(steps, name):
    searched = 0
    for inst in suite(name):
        del steps[:]
        want = reference_min_feasible_tau(inst)
        reference = [(tau, feasible) for tau, feasible, _ in steps]
        del steps[:]
        got = min_feasible_tau(inst)
        assert repr(got) == repr(want)
        if got[0] == 0.0:
            assert steps == reference == []
            continue
        searched += 1
        # every step through the session, then one fresh solve at tau
        assert [(tau, feasible) for tau, feasible, _ in steps[:-1]] == reference
        assert all(session for _, _, session in steps[:-1])
        assert steps[-1] == (got[0], True, False)
    assert searched
    if name == "not-monotone":
        assert got[0] == pytest.approx(1.4, rel=1e-3)


def plant(monkeypatch, session_at_hi, fresh):
    """Make lp.solve_lpc infeasible: session steps at the search's upper
    bound ("planted session") if session_at_hi, and fresh solves anywhere
    ("planted fresh") if fresh."""
    real = lp.solve_lpc
    taus = []

    def planted(inst, tau, session=None):
        taus.append(tau)
        if session is not None and session_at_hi and tau == taus[0]:
            return Infeasible("planted session")
        if session is None and fresh:
            return Infeasible("planted fresh")
        return real(inst, tau, session)

    monkeypatch.setattr(lp, "solve_lpc", planted)


def test_fresh_infeasible_at_returned_tau_is_a_contradiction(monkeypatch):
    plant(monkeypatch, session_at_hi=False, fresh=True)
    message = "session: feasible; fresh solve: planted fresh"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        min_feasible_tau(NOT_MONOTONE)


def test_fresh_feasible_at_hi_is_a_contradiction(monkeypatch):
    plant(monkeypatch, session_at_hi=True, fresh=False)
    message = r"^LP_C verdicts disagree: session: LP infeasible at .*: planted session; fresh solve: feasible$"
    with pytest.raises(NumericalFailure, match=message):
        min_feasible_tau(NOT_MONOTONE)


def test_infeasible_at_hi_reports_the_fresh_verdict(monkeypatch):
    plant(monkeypatch, session_at_hi=True, fresh=True)
    with pytest.raises(NoFeasibleTau, match=r"^LP infeasible at the upper bound tau=.*: planted fresh$"):
        min_feasible_tau(NOT_MONOTONE)


@pytest.fixture
def sessions(monkeypatch):
    """Every _LpcSession opened."""
    opened = []
    real = lp._LpcSession

    def opening(inst):
        opened.append(real(inst))
        return opened[-1]

    monkeypatch.setattr(lp, "_LpcSession", opening)
    return opened


def test_zero_upper_bound_opens_no_session(sessions):
    inst = ConfigInstance(1, [Request(0, [Configuration([1], point_mass(0))])])
    assert min_feasible_tau(inst) == (0.0, None)
    assert min_feasible_tau(ConfigInstance(2, [])) == (0.0, None)
    assert sessions == []


def test_no_solver_outlives_a_search(sessions, monkeypatch):
    min_feasible_tau(NOT_MONOTONE)
    plant(monkeypatch, session_at_hi=True, fresh=True)
    with pytest.raises(NoFeasibleTau):
        min_feasible_tau(NOT_MONOTONE)
    assert len(sessions) == 2
    assert all(session.solver is None for session in sessions)
