import numpy as np
import pytest
from scipy.optimize import linprog

import pmsim.simplex
from pmsim.errors import LPSolverError

from pmsim.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, _pivot, solve_lp


def test_basic_optimum():
    # min -x0 - 2 x1  s.t.  x0 + x1 + s = 4, x1 + t = 3
    res = solve_lp([-1, -2, 0, 0],
                   [[1, 1, 1, 0], [0, 1, 0, 1]],
                   [4, 3])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-7.0)
    np.testing.assert_allclose(res.x[:2], [1, 3], atol=1e-9)


def test_infeasible():
    # x0 = 2 and x0 = 1 cannot both hold
    res = solve_lp([1, 0], [[1, 0], [1, 0]], [2, 1])
    assert res.status == INFEASIBLE


def test_unbounded():
    # min -x0 with only x1 constrained
    res = solve_lp([-1, 0], [[0, 1]], [1])
    assert res.status == UNBOUNDED


def test_degenerate_rhs_terminates():
    res = solve_lp([-1, -1, 0, 0],
                   [[1, -1, 1, 0], [1, 1, 0, 1]],
                   [0, 2])
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-2.0)


def test_matches_scipy_on_random_problems():
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(120):
        m, n = rng.integers(1, 5), rng.integers(2, 8)
        A = rng.normal(size=(m, n))
        x_feas = rng.random(n)
        b = A @ x_feas  # guarantees feasibility
        c = rng.normal(size=n)
        ours = solve_lp(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
        if ours.status == OPTIMAL:
            assert ref.status == 0
            assert ours.value == pytest.approx(ref.fun, abs=1e-7)
            np.testing.assert_allclose(A @ ours.x, b, atol=1e-8)
            assert np.all(ours.x >= -1e-9)
            agree += 1
        elif ours.status == UNBOUNDED:
            assert ref.status == 3
    assert agree > 60  # most random instances should be bounded and solved


def test_matches_scipy_on_infeasible_problems():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = rng.integers(2, 6)
        A = rng.normal(size=(2, n))
        # second row parallel to first but with inconsistent rhs
        A[1] = 2.0 * A[0]
        b = np.array([1.0, 3.0])
        ours = solve_lp(rng.normal(size=n), A, b)
        ref = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
        assert (ours.status == INFEASIBLE) == (ref.status == 2)


def _pivot_by_rows(T, row, col):
    """Reference pivot: one row at a time, skipping rows with a zero factor."""
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 0.0:
            T[r] -= T[r, col] * T[row]


def test_pivot_matches_row_by_row_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    for _ in range(300):
        m, n = int(rng.integers(2, 25)), int(rng.integers(2, 40))
        T = rng.normal(size=(m, n)) * (rng.random((m, n)) < 0.7)
        T[rng.random((m, n)) < 0.1] = -0.0  # signed zeros must survive untouched rows
        row, col = int(rng.integers(m)), int(rng.integers(n))
        T[row, col] = rng.normal() or 1.0
        ours, ref = T.copy(), T.copy()
        basis = list(range(m))
        _pivot(ours, basis, row, col)
        _pivot_by_rows(ref, row, col)
        assert ours.tobytes() == ref.tobytes()
        assert basis[row] == col


def test_phase1_refactors_once_then_raises(monkeypatch):
    calls = []

    def always_unbounded(T, basis, n_cols):
        calls.append(T.copy())
        return UNBOUNDED

    monkeypatch.setattr(pmsim.simplex, "_iterate", always_unbounded)
    with pytest.raises(LPSolverError, match="phase 1"):
        solve_lp([-1, -2, 0, 0], [[1, 1, 1, 0], [0, 1, 0, 1]], [4, 3])
    assert len(calls) == 2  # the first try, then one more after the refactor


def test_singular_refactor_is_a_solver_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(pmsim.simplex, "_iterate", lambda T, basis, n_cols: UNBOUNDED)
    monkeypatch.setattr(pmsim.simplex.np.linalg, "solve", singular)
    with pytest.raises(LPSolverError, match="singular"):
        solve_lp([-1, -2, 0, 0], [[1, 1, 1, 0], [0, 1, 0, 1]], [4, 3])
