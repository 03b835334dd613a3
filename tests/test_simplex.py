import numpy as np
import pytest
from scipy.optimize import linprog

import pmsim.simplex
from pmsim.errors import LPSolverError

from pmsim.simplex import _pivot, solve_lp


def test_basic_optimum():
    # min -x0 - 2 x1  s.t.  x0 + x1 + s = 4, x1 + t = 3
    value, x = solve_lp([-1, -2, 0, 0],
                        [[1, 1, 1, 0], [0, 1, 0, 1]],
                        [4, 3])
    assert value == pytest.approx(-7.0)
    np.testing.assert_allclose(x[:2], [1, 3], atol=1e-9)


def test_infeasible():
    # x0 = 2 and x0 = 1 cannot both hold
    value, x = solve_lp([1, 0], [[1, 0], [1, 0]], [2, 1])
    assert value == np.inf
    assert np.isnan(x).all()


def test_unbounded():
    # min -x0 with only x1 constrained
    value, x = solve_lp([-1, 0], [[0, 1]], [1])
    assert value == -np.inf
    assert np.isnan(x).all()


def test_degenerate_rhs_terminates():
    value, _ = solve_lp([-1, -1, 0, 0],
                        [[1, -1, 1, 0], [1, 1, 0, 1]],
                        [0, 2])
    assert value == pytest.approx(-2.0)


def test_matches_scipy_on_random_problems():
    rng = np.random.default_rng(2024)
    agree = 0
    for _ in range(120):
        m, n = rng.integers(1, 5), rng.integers(2, 8)
        A = rng.normal(size=(m, n))
        x_feas = rng.random(n)
        b = A @ x_feas  # guarantees feasibility
        c = rng.normal(size=n)
        value, x = solve_lp(c, A, b)
        ref = linprog(c, A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
        if np.isfinite(value):
            assert ref.status == 0
            assert value == pytest.approx(ref.fun, abs=1e-7)
            np.testing.assert_allclose(A @ x, b, atol=1e-8)
            assert np.all(x >= -1e-9)
            agree += 1
        elif value == -np.inf:
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
        value, _ = solve_lp(rng.normal(size=n), A, b)
        ref = linprog(np.zeros(n), A_eq=A, b_eq=b, bounds=[(0, None)] * n, method="highs")
        assert (value == np.inf) == (ref.status == 2)


def _pivot_by_rows(T, row, col):
    """Reference pivot: one row at a time, skipping rows with a zero factor."""
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and abs(T[r, col]) > 0.0:
            T[r] -= T[r, col] * T[row]


def test_pivot_matches_row_by_row_reference_bit_for_bit():
    rng = np.random.default_rng(8)
    for trial in range(300):
        K, m, n = int(rng.integers(1, 6)), int(rng.integers(2, 25)), int(rng.integers(2, 40))
        T = rng.normal(size=(K, m, n)) * (rng.random((K, m, n)) < 0.7)
        T[rng.random((K, m, n)) < 0.1] = -0.0  # signed zeros must survive untouched rows
        # every LP, or a subset that leaves the others untouched
        k = np.arange(K) if trial % 2 else np.flatnonzero(rng.random(K) < 0.5)
        rows, cols = rng.integers(m, size=len(k)), rng.integers(n, size=len(k))
        T[k, rows, cols] = [rng.normal() or 1.0 for _ in k]
        ours, ref = T.copy(), T.copy()
        basis = np.tile(np.arange(m), (K, 1))
        _pivot(ours, basis, k, rows, cols, ours[k, :, cols])
        for s, row, col in zip(k, rows, cols):
            _pivot_by_rows(ref[s], row, col)
        assert ours.tobytes() == ref.tobytes()
        expected = np.tile(np.arange(m), (K, 1))
        expected[k, rows] = cols
        assert (basis == expected).all()


def _iterate_flagging(flagged, calls):
    """``_iterate`` that reports the phase-1 LPs in ``flagged`` unbounded."""
    real = pmsim.simplex._iterate

    def iterate(T, basis, n_cols, todo):
        unbounded, stuck = real(T, basis, n_cols, todo)
        if n_cols == T.shape[2] - 1:  # phase 1: every column but the right-hand side
            calls.append(todo.copy())
            unbounded[flagged] |= todo[flagged]
        return unbounded, stuck

    return iterate


def test_phase1_refactors_once_then_raises(monkeypatch):
    calls = []
    monkeypatch.setattr(pmsim.simplex, "_iterate", _iterate_flagging([0], calls))
    with pytest.raises(LPSolverError, match="phase 1"):
        solve_lp([-1, -2, 0, 0], [[1, 1, 1, 0], [0, 1, 0, 1]], [4, 3])
    # the first try, then one more after the refactor
    assert [todo.tolist() for todo in calls] == [[True], [True]]


def test_singular_refactor_is_a_solver_error(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(pmsim.simplex, "_iterate", _iterate_flagging([0], []))
    monkeypatch.setattr(pmsim.simplex.np.linalg, "solve", singular)
    with pytest.raises(LPSolverError, match="singular"):
        solve_lp([-1, -2, 0, 0], [[1, 1, 1, 0], [0, 1, 0, 1]], [4, 3])


def _random_lp(rng, kind, m, n):
    """One LP of a mixed stack: optimal or unbounded, degenerate, infeasible,
    redundant, negative-rhs, or with ratio ties inside the tolerance."""
    A = rng.normal(size=(m, n))
    x0 = rng.random(n)
    if kind == 1:  # integer data: zero right-hand sides and exact ratio ties
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        x0 = rng.integers(0, 2, size=n).astype(float)
    b = A @ x0
    if kind == 2:  # a row twice another, with an inconsistent right-hand side
        A[1], b[1] = 2.0 * A[0], 2.0 * b[0] + 1.0
    elif kind == 3:  # a redundant row
        A[-1], b[-1] = A[0], b[0]
    elif kind == 4:  # negative right-hand sides
        A[0], b[0] = -np.abs(A[0]), -1.0
        b[0] = A[0] @ x0
    elif kind == 5:  # the first column enters on ratios within 1e-9 of each other
        A[:, 0] = 1.0
        A[:, 1:m + 1] = np.eye(m)
        b = 1.0 + rng.integers(-2, 3, size=m) * 6e-10
    return rng.normal(size=n), A, b


@pytest.mark.parametrize("block", [48, 3])
def test_stack_gives_each_lp_its_result_alone(monkeypatch, block):
    monkeypatch.setattr(pmsim.simplex, "_BLOCK", block)
    rng = np.random.default_rng(31)
    outcomes = set()
    for _ in range(40):
        K, m = int(rng.integers(2, 13)), int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 9))
        lps = [_random_lp(rng, int(rng.integers(6)), m, n) for _ in range(K)]
        c, A, b = (np.array(part) for part in zip(*lps))
        value, x = solve_lp(c[0], A, b)  # one cost row for every LP
        assert value.shape == (K,) and x.shape == (K, n)
        for s, lp in enumerate(lps):
            alone_value, alone_x = solve_lp(c[0], *lp[1:])
            assert float(value[s]).hex() == float(alone_value).hex()
            assert x[s].tobytes() == alone_x.tobytes()
            outcomes.add("optimal" if np.isfinite(value[s]) else str(value[s]))
    assert outcomes == {"optimal", "inf", "-inf"}


def _sequential_scan(col, rhs, basis):
    """The row-by-row ratio test on Python floats: tolerance tie-breaks by basis variable."""
    leaving, best, best_var = -1, np.inf, -1
    for r, (a, v) in enumerate(zip(col, rhs)):
        if a > 1e-9:
            ratio = v / a
            if ratio < best - 1e-9 or (abs(ratio - best) <= 1e-9 and basis[r] < best_var):
                leaving, best, best_var = r, ratio, basis[r]
    return leaving


def test_ratio_test_matches_the_sequential_scan():
    rng = np.random.default_rng(5)
    for _ in range(300):
        K, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        col = rng.choice([-1.0, 0.0, 5e-10, 1.0, 2.0], size=(K, m))
        # ratios of 1 + j * step: exact ties, and chains within the tolerance
        rhs = col * (1.0 + rng.integers(-3, 4, size=(K, m)) * rng.choice([0.0, 4e-10, 9e-10, 3e-9]))
        rhs[rng.random((K, m)) < 0.2] = 0.0
        basis = np.array([rng.permutation(20)[:m] for _ in range(K)])
        expected = [_sequential_scan(*lp) for lp in zip(col.tolist(), rhs.tolist(), basis.tolist())]
        got, none = pmsim.simplex._ratio_test(col, rhs, basis)
        assert none.tolist() == [e < 0 for e in expected]
        assert [-1 if n else g for g, n in zip(got.tolist(), none.tolist())] == expected


@pytest.mark.parametrize("singular_call, error", [(2, "unbounded auxiliary"), (1, "singular")])
def test_first_failing_lp_of_a_stack_raises(monkeypatch, singular_call, error):
    # LPs 1 and 2 of 4 report phase 1 unbounded and refactor, in that order.
    # The refactor that is singular fails its LP; the other LP refactors and
    # is unbounded again.  Either way the error raised is LP 1's.
    solve = np.linalg.solve
    refactors = []

    def singular_once(*args):
        refactors.append(args)
        if len(refactors) == singular_call:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args)

    monkeypatch.setattr(pmsim.simplex, "_iterate", _iterate_flagging([1, 2], []))
    monkeypatch.setattr(pmsim.simplex.np.linalg, "solve", singular_once)
    A, b = [[1, 1, 1, 0], [0, 1, 0, 1]], [4, 3]
    with pytest.raises(LPSolverError, match=error):
        solve_lp([-1, -2, 0, 0], [A] * 4, [b] * 4)
    assert len(refactors) == 2
