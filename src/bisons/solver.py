"""Damped Newton minimization of barrier-regularized objectives.

Two domains are supported: the probability simplex with the log barrier
-sum(log x_i), and the trace-one PSD Hermitian matrices (spectraplex) with
the log-det barrier, handled in the real coordinates of
:func:`bisons.hermitian.vectorize_phi`.  Objectives are either accumulated
quadratics (:class:`QuadraticObjective`) or sums of true log losses over a
stored history (:class:`LogLossHistory`); each supplies its smooth value,
gradient and Hessian, and one frontend per domain adds the barrier.  All
of these are self-concordant, so the Newton decrement lambda certifies the
optimality gap.  Iteration stops on either of two tests, and the report
carries the value that passed as ``certified_gap``:

- the decrement computed at the iterate: lambda^2 <= tol;
- after a full, uncapped Newton step from a point with decrement lambda,
  the self-concordance bound on the new decrement^2,
  (kappa lambda / (1 - kappa lambda))^4 / kappa^2 <= tol, where
  kappa = max(1, 1/sqrt(w)) for barrier weight w (the objective is
  2 kappa-self-concordant).  This needs no gradient, Hessian or Newton
  system at the new point, which is all a warm-started solve that takes
  one step would otherwise build there.

Either way ``certified_gap`` bounds lambda^2 at the minimizer returned.

The simplex equality constraint is eliminated by dropping the last
coordinate; the spectraplex trace constraint is kept in the KKT system
with a scalar multiplier.  Steps are damped by Armijo backtracking
(slope 0.25, halving) and clipped so that 99% of the distance to the
boundary is never exceeded.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import hermitian_basis, phi_dual, trace_slots, unvectorize_phi, vectorize_phi

DEFAULT_MAX_ITER = 200
_ARMIJO_SLOPE = 0.25
_ARMIJO_SHRINK = 0.5
_BOUNDARY_FRACTION = 0.99


def default_tol(T):
    """Solve accuracy used along a run with horizon T."""
    return min(1e-10, float(T) ** -2)


@dataclass
class QuadraticObjective:
    """Accumulated quadratic 0.5 x'Qx + l.x + c plus ``barrier_weight`` times the barrier.

    ``dim`` is d on the simplex and d^2 on the spectraplex (real
    coordinates).  Surrogate rounds enter through :meth:`add_surrogate`,
    linear bias terms through direct updates of ``lin``.
    """

    dim: int
    quad: np.ndarray
    lin: np.ndarray
    const: float
    barrier_weight: float

    @classmethod
    def zeros(cls, dim, barrier_weight):
        if barrier_weight <= 0.0:
            raise ValueError("barrier weight must be positive")
        return cls(dim, np.zeros((dim, dim)), np.zeros(dim), 0.0, float(barrier_weight))

    def add_surrogate(self, w, anchor_value, anchor_inner, beta):
        """Accumulate a + <x - x_t, g> + (beta/2) <x - x_t, g>^2.

        ``w`` is the coordinate vector of the anchor gradient g (the
        gradient itself on the simplex, its phi-dual on the spectraplex)
        and ``anchor_inner`` is <x_t, g>.
        """
        self.quad += beta * np.outer(w, w)
        self.lin += (1.0 - beta * anchor_inner) * w
        self.const += anchor_value - anchor_inner + 0.5 * beta * anchor_inner * anchor_inner

    def add_linear(self, w):
        self.lin += w

    def smooth_value(self, x):
        return 0.5 * float(x @ self.quad @ x) + float(self.lin @ x) + self.const

    def smooth_grad_hess(self, x):
        return self.quad @ x + self.lin, self.quad


@dataclass
class _Evaluation:
    """A point x (``key`` is its bytes) with its value; ``ips`` = rows @ x until
    the gradient and Hessian are derived from it."""

    x: np.ndarray
    key: bytes
    value: float
    ips: np.ndarray = None
    grad: np.ndarray = None
    hess: np.ndarray = None


class LogLossHistory:
    """Sum of true log losses sum_t -log<x, r_t> plus ``barrier_weight`` times the barrier.

    ``rows`` holds the r_t: returns on the simplex, phi_dual(R_t) on the
    spectraplex, so that <x, r_t> = rows @ x in both coordinate systems.
    Each point costs one ``rows @ x``; the value, gradient and Hessian at
    the last point evaluated are cached (keyed on exact equality of x).
    With a ``capacity`` the rows live in a preallocated buffer that
    :meth:`append` fills, updating a cached gradient and Hessian in O(dim^2).
    """

    def __init__(self, rows, barrier_weight, capacity=None):
        R = np.asarray(rows, dtype=float)
        R = R.reshape(1, -1) if R.ndim == 1 else R
        self.n = R.shape[0]
        if capacity is not None:
            buf = np.empty((max(capacity, self.n), R.shape[1]))
            buf[: self.n] = R
            R = buf
        self._buf = R
        self.dim = R.shape[1]
        self.barrier_weight = float(barrier_weight)
        self._last = None

    @property
    def rows(self):
        return self._buf[: self.n]

    def _at(self, x):
        key = x.tobytes()
        if self._last is None or self._last.key != key:
            ips = self.rows @ x
            value = math.inf if ips.size and ips.min() <= 0.0 else -float(np.log(ips).sum())
            self._last = _Evaluation(x.copy(), key, value, ips)
        return self._last

    def smooth_value(self, x):
        return self._at(x).value

    def smooth_grad_hess(self, x):
        ev = self._at(x)
        if ev.grad is None:
            inv = 1.0 / ev.ips
            ev.grad, ev.hess, ev.ips = -(self.rows.T @ inv), (self.rows.T * inv**2) @ self.rows, None
        return ev.grad, ev.hess

    def append(self, r):
        """Add the row r; a cached gradient and Hessian move to the new sum at their point."""
        if self.n == self._buf.shape[0]:
            raise ValueError(f"history is full ({self.n} rows)")
        r = np.asarray(r, dtype=float)
        self._buf[self.n] = r
        self.n += 1
        ev, self._last = self._last, None
        if ev is None or ev.grad is None:
            return
        ip = float(r @ ev.x)
        if ip > 0.0:
            ev.value -= math.log(ip)
            ev.grad = ev.grad - r / ip
            ev.hess = ev.hess + np.outer(r, r) / ip**2
            self._last = ev


@dataclass
class SolveReport:
    minimizer: np.ndarray
    objective_value: float
    certified_gap: float
    iterations: int


class SolverFailure(RuntimeError):
    """Non-convergence; carries the best iterate found."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


# -- shared damped-Newton driver ----------------------------------------------

def _armijo(fval, x, f, step_dir, slope, s0):
    """Backtrack from step size ``s0``; the accepted point, its value and its step size."""
    s = s0
    for _ in range(80):
        xn = x + s * step_dir
        fn = fval(xn)
        if fn <= f + _ARMIJO_SLOPE * s * slope:
            return xn, fn, s
        s *= _ARMIJO_SHRINK
    return None, None, None


def _full_step_bound(lam2, kappa):
    """Bound on the decrement^2 after a full Newton step from a point with decrement^2 ``lam2``.

    For an objective that is 2*kappa-self-concordant, kappa*lambda(x+) <=
    (kappa*lambda / (1 - kappa*lambda))^2 (Nesterov, Introductory Lectures
    on Convex Optimization, sec. 4.1); no bound when kappa*lambda >= 1.
    """
    r = kappa * math.sqrt(max(lam2, 0.0))
    if r >= 1.0:
        return math.inf
    return (r / (1.0 - r)) ** 4 / kappa**2


def _damped_newton(fval, grad_hess, newton_step, line_step, x0, tol, max_iter, kappa):
    """Damped Newton; ``line_step`` turns a ``newton_step`` into a direction and a boundary cap.

    ``fval`` runs once at ``x0`` and once per Armijo trial; an accepted
    trial's value is the next iterate's, so ``grad_hess`` gives only (g, H).
    ``kappa`` is half the objective's self-concordance constant.  Only an
    uncapped, unshrunk step (step size 1) lands on the exact Newton iterate,
    so only then may :func:`_full_step_bound` certify the new point.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = fval(x)
    lam2 = bound = math.inf
    for it in range(max_iter):
        if bound <= tol:
            return SolveReport(x, f, bound, it)
        g, H = grad_hess(x)
        try:
            step, lam2 = newton_step(x, g, H)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"singular Newton system: {exc}", SolveReport(x, f, math.inf, it)) from exc
        if lam2 <= tol:
            return SolveReport(x, f, max(lam2, 0.0), it)
        dx, s0 = line_step(x, step)
        xn, fn, s = _armijo(fval, x, f, dx, float(g @ dx), s0)
        if xn is None:
            raise SolverFailure("line search stalled", SolveReport(x, f, lam2, it))
        x, f = xn, fn
        bound = _full_step_bound(lam2, kappa) if s == 1.0 else math.inf  # s = 1 needs s0 = 1: no cap
    try:  # the report describes the iterate it returns; lam2 is from before the last step
        lam2 = newton_step(x, *grad_hess(x))[1]
    except np.linalg.LinAlgError:
        lam2 = math.inf
    raise SolverFailure(f"no convergence in {max_iter} iterations (decrement^2 {lam2:.3e})",
                        SolveReport(x, f, lam2, max_iter))


def _kappa(barrier_weight):
    """Half the self-concordance constant of a quadratic or log-loss objective plus w times a barrier."""
    return max(1.0, 1.0 / math.sqrt(barrier_weight))


# -- frontends: one per domain, for QuadraticObjective and LogLossHistory -------

def _reduced_newton_step(x, g, H):
    """Newton step in the coordinates left after eliminating the last one by sum(x) = 1."""
    gz = g[:-1] - g[-1]
    Hz = H[:-1, :-1] - H[:-1, -1:] - H[-1:, :-1] + H[-1, -1]
    dz = np.linalg.solve(Hz, -gz)
    return dz, float(-gz @ dz)


def _simplex_line_step(x, dz):
    dx = np.empty_like(x)
    dx[:-1] = dz
    dx[-1] = -dz.sum()
    neg = dx < 0.0
    if not neg.any():
        return dx, 1.0
    return dx, min(1.0, _BOUNDARY_FRACTION * float(np.min(-x[neg] / dx[neg])))


def minimize_simplex(obj, warm_start=None, tol=1e-10, max_iter=DEFAULT_MAX_ITER):
    """Minimize ``obj`` plus its weighted log barrier -sum(log x_i) over the simplex."""
    d = obj.dim
    w = obj.barrier_weight
    x0 = np.full(d, 1.0 / d) if warm_start is None else np.asarray(warm_start, dtype=float)

    def fval(x):
        if x.min() <= 0.0:
            return math.inf
        return obj.smooth_value(x) - w * float(np.log(x).sum())

    def grad_hess(x):
        g, H = obj.smooth_grad_hess(x)
        return g - w / x, H + np.diag(w / (x * x))

    return _damped_newton(fval, grad_hess, _reduced_newton_step, _simplex_line_step, x0, tol, max_iter,
                          _kappa(w))


def minimize_simplex_history(returns, barrier_weight, warm_start=None, tol=1e-10):
    """Minimize sum_t -log<x, r_t> + barrier_weight * (-sum_i log x_i) over the simplex."""
    return minimize_simplex(LogLossHistory(returns, barrier_weight), warm_start, tol)


def _cholesky_pd(X):
    """The Cholesky factor of X, or None if X is not positive definite."""
    try:
        return np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return None


def _logdet_hessian(Xinv, basis):
    C = basis @ Xinv
    return np.einsum("kab,lba->kl", C, C).real


def minimize_spectraplex(obj, warm_start=None, tol=1e-10, max_iter=DEFAULT_MAX_ITER):
    """Minimize ``obj`` plus its weighted log-det barrier over trace-one PSD matrices.

    ``obj`` lives in the phi coordinates (dim = d^2); the warm start is a
    density matrix.
    """
    n = obj.dim
    d = int(round(math.sqrt(n)))
    if d * d != n:
        raise ValueError(f"objective dimension {n} is not a square")
    basis = hermitian_basis(d)
    w = obj.barrier_weight
    X0 = np.eye(d, dtype=complex) / d if warm_start is None else np.asarray(warm_start, dtype=complex)
    X0 = X0 / np.trace(X0).real
    v0 = vectorize_phi(X0)
    a = trace_slots(d)
    K = np.zeros((n + 1, n + 1))
    K[:n, n] = a
    K[n, :n] = a
    rhs = np.zeros(n + 1)

    last = None  # (bytes of v, X, Cholesky factor of X or None) at the last point evaluated

    def at(v):
        nonlocal last
        key = v.tobytes()
        if last is None or last[0] != key:
            X = unvectorize_phi(v, d)
            last = (key, X, _cholesky_pd(X))
        return last[1], last[2]

    def fval(v):
        _, L = at(v)
        if L is None:
            return math.inf
        ld = 2.0 * float(np.log(np.diagonal(L).real).sum())
        return obj.smooth_value(v) - w * ld

    def grad_hess(v):
        X, _ = at(v)
        Xinv = np.linalg.inv(X)
        Xinv = 0.5 * (Xinv + Xinv.conj().T)
        g, H = obj.smooth_grad_hess(v)
        return g - w * phi_dual(Xinv), H + w * _logdet_hessian(Xinv, basis)

    def kkt_step(v, g, H):
        K[:n, :n] = H
        rhs[:n] = -g
        rhs[n] = 1.0 - float(a @ v)
        dv = np.linalg.solve(K, rhs)[:n]
        return dv, float(dv @ H @ dv)

    def line_step(v, dv):
        Li = np.linalg.inv(at(v)[1])
        wmin = float(np.linalg.eigvalsh(Li @ unvectorize_phi(dv, d) @ Li.conj().T).min())
        return dv, 1.0 if wmin >= 0.0 else min(1.0, _BOUNDARY_FRACTION / (-wmin))

    rep = _damped_newton(fval, grad_hess, kkt_step, line_step, v0, tol, max_iter, _kappa(w))
    rep.minimizer = at(rep.minimizer)[0]  # the last point evaluated
    return rep


def minimize_spectraplex_history(loss_duals, barrier_weight, warm_start=None, tol=1e-10):
    """Minimize sum_t -log<X, R_t> + barrier_weight * (-log det X) over density matrices.

    ``loss_duals`` holds phi_dual(R_t) as rows, so <X, R_t> = loss_duals @ phi(X).
    """
    return minimize_spectraplex(LogLossHistory(loss_duals, barrier_weight), warm_start, tol)
