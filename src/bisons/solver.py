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

A Newton step with kappa lambda <= 1/3 is taken in full, with no value,
boundary cap or line search.  Self-concordance makes that step both
interior and sufficient (Nesterov, Introductory Lectures on Convex
Optimization, Thm 4.1.8 and sec. 4.1.5):

- the barrier's part of the local norm bounds every |dx_i| / x_i (every
  eigenvalue of X^-1/2 dX X^-1/2 on the spectraplex) by kappa lambda, so
  the new point is interior and no 99% boundary cap could bind;
- f(x+) <= f(x) - lambda^2 + omega*(kappa lambda) / kappa^2 with
  omega*(t) = -t - log(1 - t) <= t^2 / (2 (1 - t)) <= 0.75 t^2 for
  t <= 1/3, so f(x+) <= f(x) - 0.25 lambda^2, the Armijo condition.

A longer step is damped: clipped to 99% of the distance to the boundary,
then Armijo backtracking (slope 0.25, halving).  The objective's value is
evaluated only by these line searches.

The simplex equality constraint is eliminated by dropping the last
coordinate; the spectraplex trace constraint is kept in the KKT system
with a scalar multiplier.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import hermitian_basis, phi_dual, trace_slots, unvectorize_phi, vectorize_phi

DEFAULT_MAX_ITER = 200
_ARMIJO_SLOPE = 0.25
_ARMIJO_SHRINK = 0.5
_BOUNDARY_FRACTION = 0.99
_FULL_STEP = 1.0 / 3.0  # kappa * lambda at or below which a Newton step is taken in full


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
    """A point x (``key`` is its bytes) with ips = rows @ x; the value,
    gradient and Hessian there once asked for."""

    x: np.ndarray
    key: bytes
    ips: np.ndarray
    value: float = None
    grad: np.ndarray = None
    hess: np.ndarray = None


class LogLossHistory:
    """Sum of true log losses sum_t -log<x, r_t> plus ``barrier_weight`` times the barrier.

    ``rows`` holds the r_t: returns on the simplex, phi_dual(R_t) on the
    spectraplex, so that <x, r_t> = rows @ x in both coordinate systems.
    Each point costs one ``rows @ x``; the value, gradient and Hessian at
    the last point evaluated are derived from it when first asked for and
    cached (keyed on exact equality of x).  With a ``capacity`` the rows
    live in a preallocated buffer that :meth:`append` fills, updating in
    O(dim^2) whichever of the value, gradient and Hessian are cached.  The
    rows are kept in C order, since the BLAS products over them sum in the
    order of their layout.
    """

    def __init__(self, rows, barrier_weight, capacity=None):
        R = np.ascontiguousarray(rows, dtype=float)
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
            self._last = _Evaluation(x.copy(), key, self.rows @ x)
        return self._last

    def smooth_value(self, x):
        ev = self._at(x)
        if ev.value is None:
            ips = self.rows @ ev.x if ev.ips is None else ev.ips
            ev.value = math.inf if ips.size and ips.min() <= 0.0 else -float(np.log(ips).sum())
        return ev.value

    def smooth_grad_hess(self, x):
        ev = self._at(x)
        if ev.grad is None:
            inv = 1.0 / ev.ips
            ev.grad, ev.hess = -(self.rows.T @ inv), (self.rows.T * inv**2) @ self.rows
        return ev.grad, ev.hess

    def append(self, r):
        """Add the row r; a cached gradient and Hessian (and value) move to the new sum at their point."""
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
            if ev.value is not None:
                ev.value -= math.log(ip)
            ev.ips = None  # one row short now
            ev.grad = ev.grad - r / ip
            ev.hess = ev.hess + np.outer(r, r) / ip**2
            self._last = ev


@dataclass
class SolveReport:
    minimizer: np.ndarray
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


def _damped_newton(fval, grad_hess, newton_step, boundary_cap, x0, tol, max_iter, kappa):
    """Damped Newton; ``newton_step`` gives a direction and its decrement^2,
    ``boundary_cap`` the largest step size up to 1 that keeps 1% off the boundary.

    ``kappa`` is half the objective's self-concordance constant.  A step
    with kappa*lambda <= 1/3 is taken in full, with no value, cap or Armijo
    trial: self-concordance makes it interior and Armijo-sufficient (see the
    module docstring).  A longer step starts a line search, which evaluates
    ``fval`` at its start point unless the last line search left that value
    there, and once per Armijo trial.  Only a step of size 1 lands on the
    exact Newton iterate, so only then may :func:`_full_step_bound`
    certify the new point.
    """
    x = np.asarray(x0, dtype=float).copy()
    f = None  # the value at x, once a line search has needed it
    bound = math.inf
    for it in range(max_iter):
        if bound <= tol:
            return SolveReport(x, bound, it)
        g, H = grad_hess(x)
        try:
            dx, lam2 = newton_step(x, g, H)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"singular Newton system: {exc}", SolveReport(x, math.inf, it)) from exc
        if lam2 <= tol:
            return SolveReport(x, max(lam2, 0.0), it)
        if kappa * math.sqrt(lam2) <= _FULL_STEP:
            x, f, s = x + dx, None, 1.0
        else:
            f = fval(x) if f is None else f
            xn, f, s = _armijo(fval, x, f, dx, float(g @ dx), boundary_cap(x, dx))
            if xn is None:
                raise SolverFailure("line search stalled", SolveReport(x, lam2, it))
            x = xn
        bound = _full_step_bound(lam2, kappa) if s == 1.0 else math.inf  # s = 1 needs an uncapped step
    try:  # the report describes the iterate it returns; lam2 is from before the last step
        lam2 = newton_step(x, *grad_hess(x))[1]
    except np.linalg.LinAlgError:
        lam2 = math.inf
    raise SolverFailure(f"no convergence in {max_iter} iterations (decrement^2 {lam2:.3e})",
                        SolveReport(x, lam2, max_iter))


def _kappa(barrier_weight):
    """Half the self-concordance constant of a quadratic or log-loss objective plus w times a barrier."""
    return max(1.0, 1.0 / math.sqrt(barrier_weight))


# -- frontends: one per domain, for QuadraticObjective and LogLossHistory -------

def _reduced_newton_step(x, g, H):
    """Newton step in the coordinates left after eliminating the last one by sum(x) = 1,
    lifted back to all d coordinates."""
    gz = g[:-1] - g[-1]
    Hz = H[:-1, :-1] - H[:-1, -1:] - H[-1:, :-1] + H[-1, -1]
    dz = np.linalg.solve(Hz, -gz)
    dx = np.empty_like(x)
    dx[:-1] = dz
    dx[-1] = -dz.sum()
    return dx, float(-gz @ dz)


def _simplex_boundary_cap(x, dx):
    neg = dx < 0.0
    if not neg.any():
        return 1.0
    return min(1.0, _BOUNDARY_FRACTION * float(np.min(-x[neg] / dx[neg])))


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
        H = H.copy()
        H.flat[:: d + 1] += w / (x * x)
        return g - w / x, H

    return _damped_newton(fval, grad_hess, _reduced_newton_step, _simplex_boundary_cap, x0, tol, max_iter,
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

    last = {}  # the last point evaluated: its bytes, X and, once asked for, the Cholesky factor of X

    def matrix(v):
        key = v.tobytes()
        if last.get("key") != key:
            last.clear()
            last.update(key=key, X=unvectorize_phi(v, d))
        return last["X"]

    def cholesky(v):
        """The Cholesky factor of X at v, or None if X is not positive definite."""
        X = matrix(v)
        if "L" not in last:
            last["L"] = _cholesky_pd(X)
        return last["L"]

    def fval(v):
        L = cholesky(v)
        if L is None:
            return math.inf
        ld = 2.0 * float(np.log(np.diagonal(L).real).sum())
        return obj.smooth_value(v) - w * ld

    def grad_hess(v):
        Xinv = np.linalg.inv(matrix(v))
        Xinv = 0.5 * (Xinv + Xinv.conj().T)
        g, H = obj.smooth_grad_hess(v)
        return g - w * phi_dual(Xinv), H + w * _logdet_hessian(Xinv, basis)

    def kkt_step(v, g, H):
        K[:n, :n] = H
        rhs[:n] = -g
        rhs[n] = 1.0 - float(a @ v)
        dv = np.linalg.solve(K, rhs)[:n]
        return dv, float(dv @ H @ dv)

    def boundary_cap(v, dv):
        Li = np.linalg.inv(cholesky(v))
        wmin = float(np.linalg.eigvalsh(Li @ unvectorize_phi(dv, d) @ Li.conj().T).min())
        return 1.0 if wmin >= 0.0 else min(1.0, _BOUNDARY_FRACTION / (-wmin))

    try:
        rep = _damped_newton(fval, grad_hess, kkt_step, boundary_cap, v0, tol, max_iter, _kappa(w))
    except SolverFailure as exc:  # a failure report carries a density matrix too
        exc.report.minimizer = matrix(exc.report.minimizer)
        raise
    rep.minimizer = matrix(rep.minimizer)
    return rep


def minimize_spectraplex_history(loss_duals, barrier_weight, warm_start=None, tol=1e-10):
    """Minimize sum_t -log<X, R_t> + barrier_weight * (-log det X) over density matrices.

    ``loss_duals`` holds phi_dual(R_t) as rows, so <X, R_t> = loss_duals @ phi(X).
    """
    return minimize_spectraplex(LogLossHistory(loss_duals, barrier_weight), warm_start, tol)
