import copy
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisons import solver
from bisons.hermitian import (
    hermitian_basis,
    hermitize,
    phi_dual,
    random_density,
    trace_inner,
    trace_slots,
    unvectorize_phi,
    vectorize_phi,
)
from bisons.solver import (
    LogLossHistory,
    QuadraticObjective,
    SolverFailure,
    default_tol,
    minimize_simplex,
    minimize_simplex_history,
    minimize_spectraplex,
    minimize_spectraplex_history,
)


def simplex_grid_3(step=1e-3):
    """All (a, b, 1-a-b) grid points with spacing ``step``; returned stacked."""
    a = np.arange(step, 1.0, step)
    A, B = np.meshgrid(a, a, indexing="ij")
    mask = A + B < 1.0 - step / 2
    A, B = A[mask], B[mask]
    return np.stack([A, B, 1.0 - A - B], axis=1)


class TestMinimizeSimplex:
    def test_pure_barrier_is_uniform(self):
        for d in (2, 3, 5):
            rep = minimize_simplex(QuadraticObjective.zeros(d, 3.0, 1))
            assert np.abs(rep.minimizer - 1.0 / d).max() <= 1e-10

    def test_symmetric_quadratic_is_uniform(self):
        d = 4
        obj = QuadraticObjective.zeros(d, 1.0, 1)
        obj.quad = np.full((d, d), 0.5) + 0.5 * np.eye(d)  # permutation symmetric
        rep = minimize_simplex(obj, warm_start=np.array([0.4, 0.3, 0.2, 0.1]))
        assert np.abs(rep.minimizer - 0.25).max() <= 1e-8

    def test_matches_grid_oracle(self):
        obj = QuadraticObjective(0.01 * np.eye(3), np.array([[-1.0, 0.0, 0.0]]), np.zeros(1), 1.0)
        x = minimize_simplex(obj, tol=1e-12).minimizer[0]
        grid = simplex_grid_3(1e-3)
        vals = (0.5 * np.einsum("ij,jk,ik->i", grid, obj.quad, grid)
                + grid @ obj.lin[0] - obj.barrier_weight * np.log(grid).sum(axis=1))
        best = grid[np.argmin(vals)]
        assert np.abs(x - best).max() <= 2e-3
        assert 0.5 * x @ obj.quad @ x + obj.lin[0] @ x - np.log(x).sum() <= vals.min() + 1e-6

    def test_monotone_descent(self, monkeypatch):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        obj = QuadraticObjective(A @ A.T, rng.normal(size=(1, 3)), np.zeros(1), 2.0)
        x0 = np.array([0.90, 0.05, 0.05])

        def value(x):
            return 0.5 * x @ obj.quad @ x + obj.lin[0] @ x - obj.barrier_weight * np.log(x).sum()

        iters = minimize_simplex(obj, warm_start=x0).iterations
        values = []
        for k in range(iters + 1):  # the value of iterate k, from a run stopped after k steps
            monkeypatch.setattr(solver, "DEFAULT_MAX_ITER", k)
            with pytest.raises(SolverFailure) as exc_info:
                minimize_simplex(obj, warm_start=x0)
            values.append(value(exc_info.value.report.minimizer))
        assert iters >= 2
        assert (np.diff(values) <= 1e-12).all()

    def test_interior_minimizer_and_stationarity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = int(rng.integers(2, 6))
            A = rng.normal(size=(d, d))
            obj = QuadraticObjective(A @ A.T, 3.0 * rng.normal(size=(1, d)), np.zeros(1), float(rng.uniform(0.5, 20.0)))
            tol = 1e-10
            rep = minimize_simplex(obj, tol=tol)
            x = rep.minimizer[0]
            assert x.min() > 1e-14
            assert rep.certified_gap[0] <= tol
            g = obj.quad @ x + obj.lin[0] - obj.barrier_weight / x
            tangent = g - g.mean()  # gradient along the sum-one constraint
            assert np.linalg.norm(tangent) <= 10.0 * math.sqrt(tol) * max(1.0, np.linalg.norm(g))

    def test_nonconvergence_carries_best_iterate(self, monkeypatch):
        obj = QuadraticObjective(np.zeros((3, 3)), np.array([[-50.0, 0.0, 0.0]]), np.zeros(1), 0.5)
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITER", 2)
        with pytest.raises(SolverFailure) as exc_info:
            minimize_simplex(obj, tol=1e-30)
        assert exc_info.value.report.minimizer.min() > 0.0

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_nonconvergence_reports_decrement_at_its_iterate(self, monkeypatch, max_iter):
        rng = np.random.default_rng(0)
        A = rng.normal(size=(3, 3))
        obj = QuadraticObjective(A @ A.T, rng.normal(size=(1, 3)), np.zeros(1), 0.1)
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITER", max_iter)
        with pytest.raises(SolverFailure) as exc_info:
            minimize_simplex(obj, warm_start=np.array([0.90, 0.05, 0.05]))
        report = exc_info.value.report
        lam2 = simplex_decrement2(obj, report.minimizer)
        assert report.certified_gap == pytest.approx(lam2, rel=1e-9)
        assert f"(decrement^2 {lam2:.3e})" in str(exc_info.value)

    def test_singular_newton_system_reports_no_gap(self):
        # the second Newton system is singular: its Hessian cancels the barrier's
        class SingularOnSecondCall(QuadraticObjective):
            calls = 0

            def smooth_grad_hess(self, idx, X):
                self.calls += 1
                G, H = super().smooth_grad_hess(idx, X)
                return G, (-np.diag(self.barrier_weight / X[0] ** 2) if self.calls == 2 else H)

        obj = SingularOnSecondCall(np.eye(3), np.array([[-1.0, 0.0, 0.0]]), np.zeros(1), 1.0)
        with pytest.raises(SolverFailure, match="singular Newton system") as exc_info:
            minimize_simplex(obj, tol=1e-30)
        assert exc_info.value.report.iterations == 1
        assert exc_info.value.report.certified_gap == math.inf

    def test_default_tol(self):
        assert default_tol(1000) == 1e-10
        assert default_tol(10) == pytest.approx(1e-10)


class TestMinimizeSimplexHistory:
    def test_single_return_closed_form(self):
        # k copies of e_1 with barrier weight w: argmin has a = (k + w) / (k + 2w)
        w = 4.0
        for k in (1, 5, 40):
            R = np.tile(np.array([1.0, 0.0]), (k, 1))
            rep = minimize_simplex_history(R, w, tol=1e-14)
            expected = (k + w) / (k + 2.0 * w)
            assert rep.minimizer[0, 0] == pytest.approx(expected, abs=1e-9)

    def test_symmetric_history_is_uniform(self):
        R = np.array([[1.0, 0.0], [0.0, 1.0]])
        rep = minimize_simplex_history(R, 2.0)
        assert np.abs(rep.minimizer - 0.5).max() <= 1e-9


class TestMinimizeSpectraplex:
    def test_pure_barrier_is_maximally_mixed(self):
        for d in (1, 2, 3):
            rep = minimize_spectraplex(QuadraticObjective.zeros(d * d, 2.0, 1))
            assert np.abs(rep.minimizer - np.eye(d) / d).max() <= 1e-9

    def test_unitary_invariant_objective_is_maximally_mixed(self):
        # linear term proportional to the identity is constant on the domain
        d = 3
        obj = QuadraticObjective.zeros(d * d, 1.0, 1)
        obj.lin += phi_dual(np.eye(d))
        rng = np.random.default_rng(2)
        warm = random_density(rng, d)
        warm = 0.5 * warm + 0.5 * np.eye(d) / d
        rep = minimize_spectraplex(obj, warm_start=warm)
        assert np.abs(rep.minimizer - np.eye(d) / d).max() <= 1e-8

    def test_matches_parametric_oracle_d2(self):
        # objective with diagonal data: sweep eigenvalue split and rotation angle
        d = 2
        obj = QuadraticObjective.zeros(d * d, 1.0, 1)
        obj.lin += phi_dual(np.diag([-1.0, 0.0]).astype(complex))
        X_min = minimize_spectraplex(obj, tol=1e-12).minimizer[0]

        def value(X):
            v = vectorize_phi(X)
            sign, ld = np.linalg.slogdet(X)
            return float(obj.lin[0] @ v) - ld.real

        best_val, best_X = math.inf, None
        for a in np.arange(1e-3, 1.0, 1e-3):
            for theta in np.arange(0.0, math.pi, 1e-2):
                c, s = math.cos(theta), math.sin(theta)
                U = np.array([[c, -s], [s, c]], dtype=complex)
                X = U @ np.diag([a, 1.0 - a]).astype(complex) @ U.conj().T
                val = value(X)
                if val < best_val:
                    best_val, best_X = val, X
        # refine the angle near the optimum with a finer eigenvalue sweep
        for a in np.arange(max(1e-4, best_X[0, 0].real - 2e-3), best_X[0, 0].real + 2e-3, 1e-4):
            X = np.diag([a, 1.0 - a]).astype(complex)
            val = value(X)
            if val < best_val:
                best_val, best_X = val, X
        assert np.abs(X_min - best_X).max() <= 1e-4
        assert value(X_min) <= best_val + 1e-6

    @pytest.mark.parametrize("max_iter", [0, 1])
    def test_failure_report_carries_a_density_matrix(self, monkeypatch, max_iter):
        warm = np.diag([0.7, 0.3]).astype(complex)
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITER", max_iter)
        with pytest.raises(SolverFailure) as exc_info:
            minimize_spectraplex(QuadraticObjective.zeros(4, 1.0, 1), warm_start=warm, tol=1e-30)
        X = exc_info.value.report.minimizer
        assert X.shape == (2, 2)
        assert np.trace(X).real == pytest.approx(1.0, abs=1e-12)
        if max_iter == 0:
            assert np.abs(X - warm).max() <= 1e-15

    def test_trace_preserved_and_interior(self):
        rng = np.random.default_rng(3)
        d = 3
        for _ in range(10):
            obj = QuadraticObjective.zeros(d * d, float(rng.uniform(0.5, 5.0)), 1)
            G = -random_density(rng, d)
            obj.add_surrogate(phi_dual(G), float(rng.normal()), -1.0, 0.2)
            X = minimize_spectraplex(obj).minimizer[0]
            assert np.trace(X).real == pytest.approx(1.0, abs=1e-10)
            assert np.linalg.eigvalsh(X).min() > 1e-14


class TestMinimizeSpectraplexHistory:
    def test_diagonal_matches_simplex(self):
        rng = np.random.default_rng(4)
        d = 3
        R = rng.dirichlet(np.ones(d), size=12)
        duals = np.array([phi_dual(np.diag(r).astype(complex)) for r in R])
        rep_q = minimize_spectraplex_history(duals, 2.5, tol=1e-13)
        rep_v = minimize_simplex_history(R, 2.5, tol=1e-13)
        assert np.abs(np.diagonal(rep_q.minimizer[0]).real - rep_v.minimizer[0]).max() <= 1e-7

    def test_rank_one_history_concentrates(self):
        E = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        duals = np.tile(phi_dual(E), (60, 1))
        rep = minimize_spectraplex_history(duals, 0.01)
        assert trace_inner(rep.minimizer[0], E) > 0.9


class TestWarmStartRegression:
    def test_successive_solves_stay_cheap(self, monkeypatch):
        # warm-started FTRL solves along a run: <= 20 Newton steps after the first round's two
        import bisons.vector as vector
        from bisons.harness import adversary_returns
        from bisons.vector import BisonsParams, bisons_round, initial_state

        solve, iterations = vector.minimize_simplex, []

        def counted(obj, warm_start=None, tol=1e-10):
            # a round solves its two objectives as the two members of one, whose report sums their steps
            rep = solve(obj, warm_start=warm_start, tol=tol)
            alone = [solve(_member(obj, j), warm_start=x, tol=tol).iterations for j, x in enumerate(warm_start)]
            assert rep.iterations == sum(alone)
            iterations.extend(alone)
            return rep

        monkeypatch.setattr(vector, "minimize_simplex", counted)
        params = BisonsParams(d=2, T=1000, B=15.75, eta=1.0 / 63.0, beta=0.1)
        R = adversary_returns("single-asset-crash", 2, 1000, 0)
        state = initial_state(params)
        saw_reset = False
        for r in R:
            state, rec = bisons_round(state, r, params)
            saw_reset = saw_reset or rec.reset_triggered
        assert saw_reset
        assert len(iterations) == 2 * len(R) and max(iterations[2:]) <= 20


class TestLogLossHistory:
    def test_append_matches_fresh_history(self):
        rng = np.random.default_rng(4)
        R = rng.dirichlet(np.ones(4), size=50)
        x = rng.dirichlet(np.ones(4))
        hist = LogLossHistory(R[:1], 1.0, capacity=len(R))
        for n in range(2, len(R) + 1):
            hist.smooth_value(0, x)
            hist.smooth_grad_hess((0,), x[None])  # the gradient and Hessian sit at x before every append
            hist.append(R[n - 1])
            fresh = LogLossHistory(R[:n], 1.0)
            want_g, want_H = fresh.smooth_grad_hess((0,), x[None])
            got_g, got_H = hist.smooth_grad_hess((0,), x[None])
            assert hist.smooth_value(0, x) == fresh.smooth_value(0, x)  # a value is summed afresh, not moved
            assert np.abs(got_g - want_g).max() <= 1e-12 * np.abs(want_g).max()
            assert np.abs(got_H - want_H).max() <= 1e-12 * np.abs(want_H).max()

    @pytest.mark.parametrize("spectraplex", [False, True], ids=["simplex", "spectraplex"])
    def test_fortran_ordered_rows_give_the_same_bytes(self, spectraplex):
        # BLAS sums over the rows in the order of their layout, so the history keeps them in C order
        rng = np.random.default_rng(26)
        if spectraplex:
            rows = phi_dual(np.array([random_density(rng, 3) for _ in range(300)]))
            solve = minimize_spectraplex_history
        else:
            rows, solve = rng.dirichlet(np.ones(6), size=300), minimize_simplex_history
        c_order = solve(rows, 0.01, tol=1e-12)
        f_order = solve(np.asfortranarray(rows), 0.01, tol=1e-12)
        assert f_order.minimizer.tobytes() == c_order.minimizer.tobytes()
        assert LogLossHistory(rows, 1.0).rows.flags.c_contiguous
        assert LogLossHistory(np.asfortranarray(rows), 1.0).rows.flags.c_contiguous

    @pytest.mark.parametrize("rows", [np.full(3, 1.0 / 3.0), np.ones((2, 2, 3))], ids=["lone-row", "3-d"])
    def test_only_a_stack_of_rows_is_accepted(self, rows):
        message = f"need an (n, dim) stack of history rows, got shape {rows.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LogLossHistory(rows, 1.0)

    def test_append_beyond_capacity_rejected(self):
        hist = LogLossHistory(np.empty((0, 2)), 1.0, capacity=1)
        hist.append([0.5, 0.5])
        with pytest.raises(ValueError):
            hist.append([0.5, 0.5])


def _counting(cls):
    class Counting(cls):
        value_calls = 0
        grad_hess_calls = 0

        def smooth_value(self, i, x):
            self.value_calls += 1
            return super().smooth_value(i, x)

        def smooth_grad_hess(self, idx, X):
            self.grad_hess_calls += 1
            return super().smooth_grad_hess(idx, X)

    return Counting


class TestOneValuePerIterate:
    """A solve evaluates the objective's value once where each line search
    starts and once per Armijo trial; full Newton steps need none."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Line searches, and their Armijo trials: the values they take away from their start."""
        count = {"searches": 0, "trials": 0}
        armijo = solver._armijo

        def counted(fval, x, *args):
            def fval_counted(y):
                count["trials"] += y is not x
                return fval(y)

            count["searches"] += 1
            return armijo(fval_counted, x, *args)

        monkeypatch.setattr(solver, "_armijo", counted)
        return count

    def _quadratic(self, rng, dim):
        obj = _counting(QuadraticObjective).zeros(dim, 0.3, 1)
        for _ in range(5):
            w = rng.standard_normal(dim)
            obj.add_surrogate(w, 0.1, 0.2, 0.5)
        return obj

    def test_simplex(self, counts):
        rng = np.random.default_rng(8)
        for obj in (self._quadratic(rng, 4),
                    _counting(LogLossHistory)(rng.dirichlet(np.ones(4), size=30), 0.3)):
            counts.update(searches=0, trials=0)
            rep = minimize_simplex(obj, tol=1e-13)
            assert rep.iterations >= 1 and counts["searches"] >= 1
            assert obj.value_calls == counts["searches"] + counts["trials"]

    def test_spectraplex(self, counts):
        rng = np.random.default_rng(9)
        d = 2
        duals = np.array([phi_dual(random_density(rng, d)) for _ in range(20)])
        for obj in (self._quadratic(rng, d * d), _counting(LogLossHistory)(duals, 0.3)):
            counts.update(searches=0, trials=0)
            rep = minimize_spectraplex(obj, tol=1e-13)
            assert rep.iterations >= 1 and counts["searches"] >= 1
            assert obj.value_calls == counts["searches"] + counts["trials"]

    @pytest.mark.parametrize("spectraplex", [False, True], ids=["simplex", "spectraplex"])
    def test_cold_solve_backtracks(self, counts, spectraplex):
        # from the centre, a strong linear pull needs damped steps before any full one
        dim = 4 if spectraplex else 3
        obj = _counting(QuadraticObjective).zeros(dim, 0.05, 1)
        obj.lin += np.array([-40.0, 0.0, 0.0, 0.0][:dim])
        rep = (minimize_spectraplex if spectraplex else minimize_simplex)(obj, tol=1e-13)
        assert rep.iterations > counts["searches"] >= 2
        assert counts["trials"] > counts["searches"]  # some Armijo trial was rejected
        assert obj.value_calls == counts["searches"] + counts["trials"]  # one value where each line search starts

    def test_spectraplex_warm_stack_unpacks_once_per_iteration(self, monkeypatch):
        # one stacked unpacking checks the starts, one per lockstep iteration forms the gradients
        # and Hessians, and one gives the report; a warm solve takes no line search
        unpack, unpacked = solver.unvectorize_phi, [0]

        def counted(v, d):
            unpacked[0] += 1
            return unpack(v, d)

        obj = _stack_objective(True, seed=1, counting=True)
        starts = np.array([_perturbed(minimize_spectraplex(_member(obj, j), tol=1e-13).minimizer[0], True, size)
                           for j, size in enumerate((1e-4, 2e-2))])
        obj.value_calls = obj.grad_hess_calls = 0
        monkeypatch.setattr(solver, "unvectorize_phi", counted)
        rep = minimize_spectraplex(obj, warm_start=starts, tol=1e-13)
        lockstep = obj.grad_hess_calls  # one call per iteration, for every running member
        assert obj.value_calls == 0
        assert lockstep > 1 and rep.iterations > lockstep  # the members shared iterations
        assert unpacked[0] == 1 + lockstep + 1


def _tangent_decrement2(g, H, a):
    """g' N (N' H N)^{-1} N' g over an orthonormal basis N of the hyperplane a . dx = 0."""
    N = np.linalg.svd(a[None, :])[2][1:].T
    gN = N.T @ g
    return float(gN @ np.linalg.solve(N.T @ H @ N, gN))


def simplex_decrement2(obj, x):
    """Newton decrement^2 of the one member of ``obj`` plus its weighted log barrier at x, along sum(x) = 1."""
    (g,), H = obj.smooth_grad_hess((0,), x[None])
    w = obj.barrier_weight
    return _tangent_decrement2(g - w / x, H + np.diag(w / x**2), np.ones(x.size))


def spectraplex_decrement2(obj, X):
    """Newton decrement^2 of the one member of ``obj`` plus its weighted log-det barrier at X, along Tr X = 1.

    The barrier's derivatives come entry by entry from dX/dv_k: the gradient
    is -Tr(X^-1 B_k) and the Hessian Tr(X^-1 B_k X^-1 B_l).
    """
    d = X.shape[0]
    (g,), H = obj.smooth_grad_hess((0,), vectorize_phi(X)[None])
    Xinv = np.linalg.inv(X)
    B = [unvectorize_phi(e, d) for e in np.eye(d * d)]
    gb = np.array([-np.trace(Xinv @ Bk).real for Bk in B])
    Hb = np.array([[np.trace(Xinv @ Bk @ Xinv @ Bl).real for Bl in B] for Bk in B])
    w = obj.barrier_weight
    return _tangent_decrement2(g + w * gb, H + w * Hb, trace_slots(d))


def _warm_started_solves(spectraplex, history, w, seed, rounds=30, before_solve=None):
    """Grow a random objective by one round at a time and re-solve it from the last minimizer.

    Rounds are BISONS surrogates at the current play (``history`` False) or
    true log losses appended to a ``LogLossHistory``.  Returns, per solve,
    the report, the number of ``smooth_grad_hess`` calls it made and the
    decrement^2 recomputed at its minimizer.  ``before_solve``, if given,
    sees the objective right before each warm-started solve.
    """
    rng = np.random.default_rng(seed)
    d = 2 if spectraplex else 4

    def row():
        return phi_dual(random_density(rng, d)) if spectraplex else rng.dirichlet(np.ones(d))

    solve, coords, decrement2 = ((minimize_spectraplex, vectorize_phi, spectraplex_decrement2) if spectraplex
                                 else (minimize_simplex, np.asarray, simplex_decrement2))
    if history:
        obj = _counting(LogLossHistory)([row() for _ in range(20)], w, capacity=20 + rounds)
    else:
        obj = _counting(QuadraticObjective).zeros(d * d if spectraplex else d, w, 1)
    play = solve(obj, tol=1e-13).minimizer[0]
    solves = []
    for _ in range(rounds):
        c = row()
        if history:
            obj.append(c)
        else:
            ip = float(coords(play) @ c)
            obj.add_surrogate(-c / ip, -math.log(ip), -1.0, 0.1)
        if before_solve is not None:
            before_solve(obj)
        before = obj.grad_hess_calls
        rep = solve(obj, warm_start=play, tol=1e-10)
        play = rep.minimizer[0]
        solves.append((rep, obj.grad_hess_calls - before, decrement2(obj, play)))
    return solves


class TestFullStepCertificate:
    """A solve may stop after a full Newton step on the self-concordance bound
    alone; the decrement it never formed must lie below the gap it reports."""

    @pytest.mark.parametrize("w", [0.2, 50.0])
    @pytest.mark.parametrize("history", [False, True], ids=["quadratic", "history"])
    @pytest.mark.parametrize("spectraplex", [False, True], ids=["simplex", "spectraplex"])
    def test_certificate_dominates_decrement(self, spectraplex, history, w):
        solves = _warm_started_solves(spectraplex, history, w, seed=10)
        certified = [(rep, lam2) for rep, calls, lam2 in solves if calls == rep.iterations]
        assert certified  # exits on the bound: no gradient or Hessian at the minimizer
        for rep, lam2 in certified:
            assert rep.iterations >= 1
            assert lam2 <= rep.certified_gap[0] <= 1e-10
        for rep, calls, lam2 in solves:
            assert calls in (rep.iterations, rep.iterations + 1)

    def test_full_step_bound(self):
        # kappa * lambda = 1/3: (1/2)^4; kappa * lambda = 1/2 at kappa 2: 1 / kappa^2
        assert solver._full_step_bound(1.0 / 9.0, 1.0) == pytest.approx(1.0 / 16.0)
        assert solver._full_step_bound(1.0 / 16.0, 2.0) == pytest.approx(1.0 / 4.0)
        assert solver._full_step_bound(0.25, 2.0) == math.inf  # kappa * lambda = 1
        assert solver._full_step_bound(0.0, 3.0) == 0.0


def _snapshot(obj):
    """A plain copy of a (counting) objective as it stands."""
    if isinstance(obj, LogLossHistory):
        return LogLossHistory(obj.rows.copy(), obj.barrier_weight)
    return QuadraticObjective(obj.quad.copy(), obj.lin.copy(), obj.const.copy(), obj.barrier_weight)


def _barrier_objective(obj, x, spectraplex):
    """``obj`` plus its weighted barrier at x (phi coordinates on the spectraplex), from its data."""
    if isinstance(obj, LogLossHistory):
        smooth = -float(np.log(obj.rows @ x).sum())
    else:
        smooth = 0.5 * float(x @ obj.quad @ x) + float(obj.lin[0] @ x) + obj.const[0]
    if spectraplex:
        sign, logdet = np.linalg.slogdet(unvectorize_phi(x, math.isqrt(x.size)))
        return smooth - obj.barrier_weight * (logdet if sign.real > 0.0 else -math.inf)
    return smooth - obj.barrier_weight * float(np.log(x).sum())


class TestFullStepWithoutLineSearch:
    """A Newton step with kappa*lambda <= 1/3 is taken without a value, a
    boundary cap or an Armijo trial; recomputed here, it is interior and
    decreases the objective by the Armijo amount 0.25 lambda^2."""

    @pytest.mark.parametrize("w", [0.2, 50.0])
    @pytest.mark.parametrize("history", [False, True], ids=["quadratic", "history"])
    @pytest.mark.parametrize("spectraplex", [False, True], ids=["simplex", "spectraplex"])
    def test_skipped_line_searches_were_sound(self, monkeypatch, spectraplex, history, w):
        driver = solver._damped_newton
        objectives, steps, searched = [], [], set()

        def recording(x0, grad_hess, newton_step, fval, boundary_cap, tol, kappa):
            def step(X, G, H):  # the solves here are single: stacks of one
                dX, lam2 = newton_step(X, G, H)
                if lam2[0] > tol and objectives:  # a step of a warm-started solve
                    steps.append((objectives[-1], X[0].copy(), X[0] + dX[0]))
                return dX, lam2

            def cap(i, x, dx):  # asked for exactly when a line search starts
                searched.add(x.tobytes())
                return boundary_cap(i, x, dx)

            return driver(x0, grad_hess, step, fval, cap, tol, kappa)

        monkeypatch.setattr(solver, "_damped_newton", recording)
        _warm_started_solves(spectraplex, history, w, seed=11,
                             before_solve=lambda obj: objectives.append(_snapshot(obj)))
        full = [step for step in steps if step[1].tobytes() not in searched]
        assert full
        kappa = max(1.0, 1.0 / math.sqrt(w))
        for obj, x, xn in full:
            if spectraplex:
                d = math.isqrt(x.size)
                lam2 = spectraplex_decrement2(obj, unvectorize_phi(x, d))
                assert np.linalg.eigvalsh(unvectorize_phi(xn, d)).min() > 0.0
            else:
                lam2 = simplex_decrement2(obj, x)
                assert xn.min() > 0.0
            assert kappa * math.sqrt(lam2) <= 1.0 / 3.0 + 1e-9
            f, fn = _barrier_objective(obj, x, spectraplex), _barrier_objective(obj, xn, spectraplex)
            assert fn <= f - 0.25 * lam2


class TestOneSystemPerWarmSolve:
    @staticmethod
    def _count_round_solves(monkeypatch, module, name):
        """Record (Newton steps, smooth_grad_hess calls) of each solve through ``module.name``;
        also returns the count of QuadraticObjective.smooth_value calls."""
        solves, calls, value_calls = [], [0], [0]
        grad_hess = QuadraticObjective.smooth_grad_hess
        smooth_value = QuadraticObjective.smooth_value
        solve = getattr(module, name)

        def counted_grad_hess(self, idx, X):
            calls[0] += 1
            return grad_hess(self, idx, X)

        def counted_value(self, i, x):
            value_calls[0] += 1
            return smooth_value(self, i, x)

        def counted_solve(obj, warm_start=None, tol=1e-10):
            before = calls[0]
            rep = solve(obj, warm_start=warm_start, tol=tol)
            solves.append((rep.iterations, calls[0] - before))
            return rep

        monkeypatch.setattr(QuadraticObjective, "smooth_grad_hess", counted_grad_hess)
        monkeypatch.setattr(QuadraticObjective, "smooth_value", counted_value)
        monkeypatch.setattr(module, name, counted_solve)
        return solves, value_calls

    def test_bisons_solves_form_one_gradient_and_hessian_per_step(self, monkeypatch):
        from bisons import vector
        from bisons.harness import adversary_returns

        solves, value_calls = self._count_round_solves(monkeypatch, vector, "minimize_simplex")
        R = adversary_returns("iid-dirichlet", 10, 11000, 2)[:100]
        vector.run_bisons(R, vector.default_params(10, 11000))
        assert solves == [(2, 1)] * 100  # one stacked solve per round: one step for each of its two members, one call
        assert value_calls[0] == 0  # every step was a full one: no line search, so no value

    def test_qbisons_rounds_take_no_line_search(self, monkeypatch):
        # the spectraplex twin: no cache serves line searches, since Q-BISONS rounds make none
        from bisons import quantum
        from bisons.harness import measurement_stream

        solves, value_calls = self._count_round_solves(monkeypatch, quantum, "minimize_spectraplex")
        quantum.run_qbisons(measurement_stream(4, 200, seed=3), quantum.q_default_params(4, 1760),
                            rng=np.random.default_rng(0))
        assert len(solves) == 200  # one stacked solve per round
        # one call per lockstep iteration: at least the longer member's steps, and one more if it stops on its decrement
        assert all(steps / 2 <= formed <= steps + 1 for steps, formed in solves)
        assert value_calls[0] == 0  # every step was a full one: no line search, so no value


class _Singular(QuadraticObjective):
    """A quadratic whose members in ``singular`` have a smooth Hessian that cancels the barrier's at
    every point, so that their Newton systems are singular; ``spectraplex`` names the barrier."""

    def smooth_grad_hess(self, idx, X):
        G, H = super().smooth_grad_hess(idx, X)
        return G, np.array([-_barrier_hessian(x, self.barrier_weight, self.spectraplex) if i in self.singular else H
                            for i, x in zip(idx, X)])


def _stack_objective(spectraplex, kind="random", seed=0, counting=False, k=2, singular=None):
    """A quadratic of k members in the simplex (d=4) or spectraplex (d=2) coordinates.

    ``kind`` "random" is a sum of 20 random rounds at barrier weight 0.3;
    "cold" pulls hard towards one corner at barrier weight 0.05, so that a
    solve from the centre line-searches.  Each member adds its own random
    linear term.  The members in ``singular``, if given, have singular
    Newton systems (:class:`_Singular`).
    """
    base = QuadraticObjective if singular is None else _Singular
    base = _counting(base) if counting else base
    rng = np.random.default_rng(seed)
    d = 2 if spectraplex else 4
    if kind != "cold":
        rows = [phi_dual(random_density(rng, d)) if spectraplex else rng.dirichlet(np.ones(d)) for _ in range(20)]
        w = 0.3
    else:
        corner = phi_dual(np.diag([1.0, 0.01]).astype(complex)) if spectraplex else np.array([1.0, 0.01, 0.01, 0.01])
        rows, w = [corner] * 50, 0.05
    obj = base.zeros(rows[0].size, w, k)
    for r in rows:
        obj.add_surrogate(-r, 0.1, -1.0, 0.1)
    obj.lin += 0.1 * rng.standard_normal(obj.lin.shape)
    if singular is not None:
        obj.singular, obj.spectraplex = singular, spectraplex
    return obj


def _member(obj, j):
    """Member j of ``obj`` as an objective of its own, of the same class: the row j of its linear
    and constant terms (and of its singular members) with a copy of its quadratic."""
    alone = copy.copy(obj)
    alone.quad, alone.lin, alone.const = obj.quad.copy(), obj.lin[j:j + 1].copy(), obj.const[j:j + 1].copy()
    if isinstance(obj, _Singular):
        alone.singular = (0,) if j in obj.singular else ()
    return alone


def _barrier_hessian(x, w, spectraplex):
    """The barrier's Hessian at x as the solver forms it, so that subtracting it cancels it exactly."""
    if not spectraplex:
        return np.diag(w / (x * x))
    d = math.isqrt(x.size)
    Xinv = hermitize(np.linalg.inv(unvectorize_phi(x, d)))
    return w * solver._logdet_hessian(hermitian_basis(d) @ Xinv)


def _perturbed(x, spectraplex, size=1e-4):
    """x moved slightly along the domain, so that a solve from it takes one Newton step."""
    return x + size * (np.array([[1.0, 1j], [-1j, -1.0]]) if spectraplex else np.array([1.0, -1.0, 0.0, 0.0]))


def _solve(spectraplex):
    return minimize_spectraplex if spectraplex else minimize_simplex


def _centre(spectraplex, k=2):
    return np.array([np.eye(2) / 2 if spectraplex else np.full(4, 0.25)] * k)


@pytest.mark.parametrize("spectraplex", [False, True], ids=["simplex", "spectraplex"])
class TestStackedSolve:
    """The k members of one quadratic, solved in lockstep, each get what a solve of it alone gives,
    bit for bit, and the first failing member's error is raised."""

    @staticmethod
    def assert_members_alone(spectraplex, obj, starts, **kwargs):
        """Each member's report alone, after checking the stacked solve against them."""
        solve = _solve(spectraplex)
        stacked = solve(obj, warm_start=starts, **kwargs)
        alone = [solve(_member(obj, j), warm_start=x, **kwargs) for j, x in enumerate(starts)]
        for j, rep in enumerate(alone):
            assert stacked.minimizer[j].tobytes() == rep.minimizer[0].tobytes()
            assert stacked.certified_gap[j].tobytes() == rep.certified_gap[0].tobytes()
        assert stacked.iterations == sum(rep.iterations for rep in alone)
        assert stacked.minimizer.shape == (len(alone),) + alone[0].minimizer.shape[1:]
        return alone

    def test_an_optimal_member_beside_a_certified_full_step(self, spectraplex):
        obj = _stack_objective(spectraplex, counting=True)
        x = [_solve(spectraplex)(_member(obj, j), tol=1e-14).minimizer[0] for j in range(2)]
        obj.grad_hess_calls = 0
        reports = self.assert_members_alone(spectraplex, obj, np.array([x[0], _perturbed(x[1], spectraplex)]),
                                            tol=1e-10)
        assert [rep.iterations for rep in reports] == [0, 1]
        assert obj.grad_hess_calls == 1  # the step is certified by its bound

    def test_a_cold_line_search_beside_a_warm_member(self, spectraplex, monkeypatch):
        obj = _stack_objective(spectraplex, "cold")
        x = _solve(spectraplex)(_member(obj, 1), tol=1e-14).minimizer[0]
        searches = [0]
        armijo = solver._armijo

        def counted(*args):
            searches[0] += 1
            return armijo(*args)

        monkeypatch.setattr(solver, "_armijo", counted)
        reports = self.assert_members_alone(spectraplex, obj, np.array([_centre(spectraplex)[0],
                                                                        _perturbed(x, spectraplex, 1e-7)]), tol=1e-10)
        assert reports[0].iterations > 1 and reports[1].iterations == 1
        assert searches[0] >= 2  # the cold member line-searched in the stack and alone

    @pytest.mark.parametrize("failing", [(0,), (1,), (0, 1)])
    def test_the_first_failing_member_raises_its_own_error(self, spectraplex, failing):
        obj, starts = _stack_objective(spectraplex, singular=failing), _centre(spectraplex)
        with pytest.raises(SolverFailure) as stacked:
            _solve(spectraplex)(obj, warm_start=starts, tol=1e-10)
        with pytest.raises(SolverFailure) as alone:
            _solve(spectraplex)(_member(obj, failing[0]), warm_start=starts[failing[0]], tol=1e-10)
        assert str(stacked.value) == str(alone.value) == "singular Newton system: Singular matrix"
        assert stacked.value.report.minimizer.tobytes() == alone.value.report.minimizer.tobytes()
        assert (stacked.value.report.certified_gap, stacked.value.report.iterations) == (math.inf, 0)
        assert isinstance(stacked.value.__cause__, np.linalg.LinAlgError)

    def test_an_earlier_member_failing_later_wins(self, monkeypatch, spectraplex):
        # member 0 runs out of steps at its second iteration; member 1 is singular at its first
        obj, starts = _stack_objective(spectraplex, singular=(1,)), _centre(spectraplex)
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITER", 2)
        with pytest.raises(SolverFailure) as stacked:
            _solve(spectraplex)(obj, warm_start=starts, tol=1e-10)
        with pytest.raises(SolverFailure) as alone:
            _solve(spectraplex)(_member(obj, 0), warm_start=starts[0], tol=1e-10)
        assert str(stacked.value) == str(alone.value)
        assert str(stacked.value).startswith("no convergence in 2 iterations")
        assert stacked.value.report.minimizer.tobytes() == alone.value.report.minimizer.tobytes()
        assert stacked.value.report.certified_gap == alone.value.report.certified_gap

    def test_no_iterations_allowed(self, monkeypatch, spectraplex):
        obj = _stack_objective(spectraplex)
        x = _solve(spectraplex)(_member(obj, 0), tol=1e-14).minimizer[0]
        starts = np.array([x, _perturbed(x, spectraplex)])
        monkeypatch.setattr(solver, "DEFAULT_MAX_ITER", 0)
        with pytest.raises(SolverFailure) as stacked:
            _solve(spectraplex)(obj, warm_start=starts)
        with pytest.raises(SolverFailure) as alone:
            _solve(spectraplex)(_member(obj, 0), warm_start=starts[0])
        assert str(stacked.value) == str(alone.value)
        assert str(stacked.value).startswith("no convergence in 0 iterations")
        assert stacked.value.report.minimizer.tobytes() == alone.value.report.minimizer.tobytes()
        assert stacked.value.report.iterations == 0


@pytest.mark.parametrize("spectraplex", [False, True], ids=["simplex", "spectraplex"])
@settings(max_examples=60, deadline=None, database=None)
@given(k=st.integers(1, 4), d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1), w=st.floats(0.05, 20.0))
def test_each_member_of_a_stack_solves_as_it_would_alone(spectraplex, k, d, seed, w):
    # a random PSD quadratic shared by k random linear rows, from interior warm starts
    rng = np.random.default_rng(seed)
    n = d * d if spectraplex else d
    A = rng.standard_normal((n, n))
    obj = QuadraticObjective(A @ A.T, 3.0 * rng.standard_normal((k, n)), rng.standard_normal(k), w)
    if spectraplex:
        starts = np.array([0.5 * random_density(rng, d) + 0.5 * np.eye(d) / d for _ in range(k)])
    else:
        starts = 0.5 * rng.dirichlet(np.ones(d), size=k) + 0.5 / d
    stacked = _solve(spectraplex)(obj, warm_start=starts)
    for j in range(k):
        alone = _solve(spectraplex)(_member(obj, j), warm_start=starts[j])
        assert stacked.minimizer[j].tobytes() == alone.minimizer[0].tobytes()
        assert stacked.certified_gap[j].tobytes() == alone.certified_gap[0].tobytes()


def test_a_surrogate_enters_every_member_and_its_quadratic_part_once():
    # two members accumulate surrogates, and a linear term in one of them, as two one-member objectives do
    rng = np.random.default_rng(14)
    shared = QuadraticObjective.zeros(3, 1.0, 2)
    alone = [QuadraticObjective.zeros(3, 1.0, 1) for _ in range(2)]
    for _ in range(5):
        w, value, inner = rng.normal(size=3), rng.normal(), rng.normal()
        for obj in (shared, *alone):
            obj.add_surrogate(w, value, inner, 0.1)
        shared.lin[0] += w
        alone[0].lin[0] += w
    for j, ref in enumerate(alone):
        assert shared.quad.tobytes() == ref.quad.tobytes()
        assert shared.lin[j].tobytes() == ref.lin[0].tobytes() and shared.const[j] == ref.const[0]


@pytest.mark.parametrize("history", [False, True], ids=["quadratic", "history"])
@pytest.mark.parametrize("spectraplex", [False, True], ids=["simplex", "spectraplex"])
def test_a_one_member_solve_reports_a_stack_of_one(spectraplex, history):
    rng = np.random.default_rng(15)
    d = 2 if spectraplex else 4
    rows = [phi_dual(random_density(rng, d)) if spectraplex else rng.dirichlet(np.ones(d)) for _ in range(20)]
    rep = _solve(spectraplex)(LogLossHistory(rows, 0.3) if history else _stack_objective(spectraplex, k=1))
    assert rep.minimizer.shape == ((1, d, d) if spectraplex else (1, d))
    assert rep.certified_gap.shape == (1,) and rep.certified_gap[0] <= 1e-10
    assert isinstance(rep.iterations, int) and rep.iterations >= 1


class TestStackedRoundStates:
    """1000-round CRASH_OVERRIDE crash runs through their t=729 reset keep every (x, u, p) state
    byte for byte: sha256 digests recorded before the round's two solves were stacked (numpy 2.4.6,
    Python 3.11.7, x86-64; another numpy build may differ in the last digits, as in test_golden_outputs)."""

    @staticmethod
    def digest(states):
        h = hashlib.sha256()
        for state in states:
            for a in state:
                h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()

    def test_simplex(self):
        from bisons.checks import CRASH_OVERRIDE
        from bisons.harness import adversary_returns
        from bisons.vector import BisonsParams, run_bisons

        R = adversary_returns("single-asset-crash", 2, 1000, 0)
        res = run_bisons(R, BisonsParams(d=2, T=1000, **CRASH_OVERRIDE), keep_states=True)
        assert res.reset_times == [729]
        assert self.digest(res.states) == "4b42b8f469f335ac32d8cd42d7ce3b15ab42da0a678dece1ae72372cddfe632a"

    def test_spectraplex_in_a_rotated_basis(self):
        # the rotation makes every play non-diagonal, so the bias update takes its eigh branch
        from bisons.checks import CRASH_OVERRIDE
        from bisons.harness import adversary_returns
        from bisons.hermitian import random_unitary
        from bisons.quantum import QBisonsParams, run_qbisons

        R = adversary_returns("single-asset-crash", 2, 1000, 0)
        V = random_unitary(np.random.default_rng(0), 2)
        res = run_qbisons([V @ np.diag(r).astype(complex) @ V.conj().T for r in R],
                          QBisonsParams(d=2, T=1000, **CRASH_OVERRIDE), keep_states=True)
        assert res.reset_times == [729]
        assert self.digest(res.states) == "c223fb18dc71bdd7372fbc86837dcfbfd51c8cbbc31288a5fecdcf98f3193285"


class TestStackCounts:
    """A solve takes an objective of at least one member and exactly one warm start per member."""

    @pytest.mark.parametrize("spectraplex", [False, True], ids=["simplex", "spectraplex"])
    @pytest.mark.parametrize("members, starts", [(2, 1), (2, 3), (1, 2), (0, 0)])
    def test_count_mismatch_or_empty_stack_rejected(self, spectraplex, members, starts):
        obj = QuadraticObjective.zeros(4 if spectraplex else 3, 1.0, members)
        start = np.eye(2) / 2 if spectraplex else np.full(3, 1.0 / 3.0)
        with pytest.raises(ValueError) as exc_info:
            _solve(spectraplex)(obj, warm_start=np.array([start] * starts) if starts else None)
        assert str(exc_info.value) == ("a solve needs at least one member and one warm start per member "
                                       f"(members: {members}, warm starts: {starts})")

    @pytest.mark.parametrize("spectraplex", [False, True], ids=["simplex", "spectraplex"])
    def test_a_list_of_objectives_is_not_an_objective(self, spectraplex):
        obj = QuadraticObjective.zeros(4 if spectraplex else 3, 1.0, 1)
        with pytest.raises(AttributeError):
            _solve(spectraplex)([obj, obj])

    def test_history_rows_must_have_its_dimension(self):
        hist = LogLossHistory(np.full((1, 3), 1.0 / 3.0), 1.0, capacity=4)
        for row, shape in [(0.5, "()"), (np.ones(4), "(4,)"), (np.ones((1, 3)), "(1, 3)")]:
            with pytest.raises(ValueError) as exc_info:
                hist.append(row)
            assert str(exc_info.value) == f"a history row has shape (3,), got {shape}"
        assert hist.n == 1


class TestSpectraplexWarmStart:
    """A spectraplex warm start must be finite, Hermitian and positive definite after trace normalisation."""

    @pytest.mark.parametrize("start, reason", [
        (np.diag([1.2, -0.2]), "is not positive definite"),
        (np.array([[0.5, 0.6], [0.6, 0.5]]), "is not positive definite"),
        (np.diag([1.0, 0.0]), "is not positive definite"),
        (np.array([[0.5, 0.1], [0.2, 0.5]]), "is not Hermitian"),
        (np.array([[0.5, np.inf], [0.0, 0.5]]), "is not finite"),
    ], ids=["indefinite", "indefinite-off-diagonal", "singular", "not-hermitian", "not-finite"])
    def test_bad_start_rejected(self, start, reason):
        with pytest.raises(ValueError) as exc_info, np.errstate(invalid="ignore"):  # inf / 1 in complex is NaN
            minimize_spectraplex(QuadraticObjective.zeros(4, 1.0, 1), warm_start=start)
        assert str(exc_info.value) == f"warm start 0 {reason} after trace normalisation"

    def test_the_bad_member_is_named(self):
        starts = np.array([np.eye(2) / 2, np.diag([1.2, -0.2])])
        with pytest.raises(ValueError) as exc_info:
            minimize_spectraplex(QuadraticObjective.zeros(4, 1.0, 2), warm_start=starts)
        assert str(exc_info.value) == "warm start 1 is not positive definite after trace normalisation"

    @pytest.mark.parametrize("k", [1, 2])
    def test_a_singular_member_still_fails_in_its_solve(self, k):
        # the entry checks pass a positive definite start, so the singular system is reported as before
        with pytest.raises(SolverFailure) as exc_info:
            minimize_spectraplex(_stack_objective(True, k=k, singular=(k - 1,)), warm_start=_centre(True, k), tol=1e-10)
        assert str(exc_info.value) == "singular Newton system: Singular matrix"

    def test_a_start_within_the_hermitian_tolerance_is_accepted(self):
        start = np.array([[0.5, 0.1 + 1e-14], [0.1, 0.5]])
        rep = minimize_spectraplex(QuadraticObjective.zeros(4, 1.0, 1), warm_start=start)
        assert np.abs(rep.minimizer - np.eye(2) / 2).max() <= 1e-9
