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

Both frontends solve a stack of k objectives of one dimension and barrier
weight, given as a list or tuple with a stack of k warm starts; a single
objective is the stack of one.  One driver runs the stack in lockstep.
Each iteration forms the gradient and Hessian of every member still
running, makes one stacked ``np.linalg.solve`` and computes each member's
decrement; every member whose step may be taken in full takes it, and any
other member gets its own boundary cap and Armijo search.  Each member
stops on its own test, so it takes exactly the steps, and ends at exactly
the bits, that a solve of it alone would: the stacked calls are ones that
give each slice the bits of the single call (``solve``, ``inv``, ``@``,
elementwise ufuncs and gathers), and the log-det Hessian ``einsum`` runs
member by member.  A stacked solve returns one :class:`SolveReport` whose
``minimizer`` is the (k, ...) stack, ``certified_gap`` the (k,) array and
``iterations`` the Newton steps summed over the stack.  If members fail,
the first failing one in stack order raises, with the message and report
(on the spectraplex, its d x d density matrix) that a solve of it alone
gives; a member after a failed one stops, since it could not be reported.
A stacked ``LinAlgError`` does not say which system is singular, so then
each member's system is solved alone.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .hermitian import hermitian_basis, hermitize, phi_dual, trace_slots, unvectorize_phi, vectorize_phi

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

    def add_surrogate(self, w, anchor_value, anchor_inner, beta, *sharing):
        """Accumulate a + <x - x_t, g> + (beta/2) <x - x_t, g>^2 here and in each of ``sharing``.

        ``w`` is the coordinate vector of the anchor gradient g (the
        gradient itself on the simplex, its phi-dual on the spectraplex)
        and ``anchor_inner`` is <x_t, g>.  The objectives in ``sharing``
        hold this one's ``quad`` array, so the quadratic part is added once.
        """
        if any(obj.quad is not self.quad for obj in sharing):
            raise ValueError("objectives that share a surrogate must share their quad array")
        self.quad += beta * np.outer(w, w)
        lin = (1.0 - beta * anchor_inner) * w
        const = anchor_value - anchor_inner + 0.5 * beta * anchor_inner * anchor_inner
        for obj in (self, *sharing):
            obj.lin += lin
            obj.const += const

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


def _newton_steps_alone(newton_step, X, G, H):
    """The members' Newton directions and decrements^2, each member solved alone.

    A stacked solve that fails does not say which member is singular; here
    a singular member's LinAlgError stands in for its decrement^2.
    """
    dX, lam2 = np.zeros_like(X), []
    for j in range(len(X)):
        try:
            dx, (l2,) = newton_step(X[j:j + 1], G[j:j + 1], H[j:j + 1])
            dX[j] = dx[0]
        except LinAlgError as exc:
            l2 = exc
        lam2.append(l2)
    return dX, lam2


def _failure(message, x, gap, steps, cause=None):
    """A member's SolverFailure, reporting a copy of its iterate x."""
    exc = SolverFailure(message, SolveReport(x.copy(), gap, steps))
    exc.__cause__ = cause
    return exc


def _damped_newton(X, grad_hess, newton_step, fval, boundary_cap, tol, max_iter, kappa):
    """Damped Newton on a stack of k systems in lockstep, from the (k, n) starts ``X``, which it updates.

    Each iteration, ``grad_hess(idx, X)`` gives the stacked gradients and
    Hessians of the members ``idx`` still running at their points X, and
    ``newton_step(X, G, H)`` their directions and the list of their
    decrements^2 from one stacked solve.  ``kappa`` is half the objectives'
    self-concordance constant.  A step with kappa*lambda <= 1/3 is taken in
    full, with no value, cap or Armijo trial: self-concordance makes it
    interior and Armijo-sufficient (see the module docstring).  A longer
    step starts the member's own line search from step size
    ``boundary_cap(i, x, dx)``; it evaluates ``fval(i, x)`` at its start
    point unless the member's last line search left that value there, and
    once per Armijo trial.  Only a step of size 1 lands on the exact Newton
    iterate, so only then may :func:`_full_step_bound` certify the new
    point.

    Returns the minimizers X, their certified gaps and the Newton steps
    summed over the stack; each member takes the steps it would take alone.
    A failed member stops those after it in the stack, and the first
    failure in stack order is raised.
    """
    k = len(X)
    x = list(X)  # the members' rows of X
    f = [None] * k  # a member's value at its point, once a line search has needed it
    done = [None] * k  # a member's (certified gap, steps) or its SolverFailure, once it stops
    active, stop = list(range(k)), k  # ``stop`` is the first failed member; those after it no longer matter
    for it in range(max_iter):
        Xa = X if len(active) == k else X[active]
        G, H = grad_hess(active, Xa)
        try:
            dXa, lam2s = newton_step(Xa, G, H)
        except LinAlgError:
            dXa, lam2s = _newton_steps_alone(newton_step, Xa, G, H)
        for j, i in enumerate(active):
            lam2 = lam2s[j]
            if isinstance(lam2, LinAlgError):
                done[i], stop = _failure(f"singular Newton system: {lam2}", x[i], math.inf, it, lam2), min(stop, i)
                continue
            if lam2 <= tol:
                done[i] = (max(lam2, 0.0), it)
                continue
            if kappa * math.sqrt(lam2) <= _FULL_STEP:
                x[i] += dXa[j]
                f[i], s = None, 1.0
            else:
                dx = dXa[j]
                f[i] = fval(i, x[i]) if f[i] is None else f[i]
                xn, f[i], s = _armijo(functools.partial(fval, i), x[i], f[i], dx, float(G[j] @ dx),
                                      boundary_cap(i, x[i], dx))
                if xn is None:
                    done[i], stop = _failure("line search stalled", x[i], lam2, it), min(stop, i)
                    continue
                x[i][...] = xn
            bound = _full_step_bound(lam2, kappa) if s == 1.0 else math.inf  # s = 1 needs an uncapped step
            if bound <= tol and it + 1 < max_iter:  # certified without a system at the new point
                done[i] = (bound, it + 1)
        active = [i for i in active if done[i] is None and i < stop]
        if not active:
            break
    else:  # max_iter steps taken: the report describes the iterate it returns, not the one before the last step
        if active:
            Xa = X[active]
            _, lam2s = _newton_steps_alone(newton_step, Xa, *grad_hess(active, Xa))
            for i, lam2 in zip(active, lam2s):
                lam2 = math.inf if isinstance(lam2, LinAlgError) else lam2
                done[i] = _failure(f"no convergence in {max_iter} iterations (decrement^2 {lam2:.3e})", x[i], lam2,
                                   max_iter)
            stop = min(stop, active[0])
    if stop < k:
        raise done[stop]
    gaps, steps = zip(*done)
    return X, list(gaps), sum(steps)


def _kappa(barrier_weight):
    """Half the self-concordance constant of a quadratic or log-loss objective plus w times a barrier."""
    return max(1.0, 1.0 / math.sqrt(barrier_weight))


def _as_stack(obj):
    """The objectives of a solve of ``obj``, one objective or a list or tuple of them, their
    common barrier weight, and whether the solve is stacked."""
    if not isinstance(obj, (list, tuple)):
        return [obj], obj.barrier_weight, False
    dim, w = obj[0].dim, obj[0].barrier_weight
    if any(o.dim != dim or o.barrier_weight != w for o in obj):
        raise ValueError("a stacked solve needs objectives of one dimension and one barrier weight")
    return list(obj), w, True


def _report(minimizers, gaps, steps, stacked):
    """The report of a stacked solve, or of its one member."""
    if stacked:
        return SolveReport(minimizers, np.array(gaps), steps)
    return SolveReport(minimizers[0], gaps[0], steps)


# -- frontends: one per domain, for QuadraticObjective and LogLossHistory -------

def _reduced_newton_step(X, G, H):
    """Newton steps in the coordinates left after eliminating the last one by sum(x) = 1,
    lifted back to all d coordinates, and their decrements^2; one stacked solve."""
    ngz = -(G[:, :-1] - G[:, -1:])
    Hz = H[:, :-1, :-1] - H[:, :-1, -1:] - H[:, -1:, :-1] + H[:, -1:, -1:]
    dz = np.linalg.solve(Hz, ngz[..., None])
    lam2 = (ngz[:, None] @ dz)[:, 0, 0].tolist()  # (1, m) @ (m, 1) products are dot products, as alone
    dz = dz[..., 0]
    return np.concatenate([dz, -dz.sum(axis=-1, keepdims=True)], axis=-1), lam2


def minimize_simplex(obj, warm_start=None, tol=1e-10, max_iter=DEFAULT_MAX_ITER):
    """Minimize ``obj`` plus its weighted log barrier -sum(log x_i) over the simplex.

    ``obj`` may be a list or tuple of k objectives with a (k, d) stack of
    warm starts; they are solved as one stack and the report is stacked.
    """
    objs, w, stacked = _as_stack(obj)
    k, d = len(objs), objs[0].dim
    x0 = np.full((k, d), 1.0 / d) if warm_start is None else np.array(warm_start, dtype=float, ndmin=2)

    def fval(i, x):
        if x.min() <= 0.0:
            return math.inf
        return objs[i].smooth_value(x) - w * float(np.log(x).sum())

    def grad_hess(idx, X):
        G, H = map(np.array, zip(*[objs[i].smooth_grad_hess(x) for i, x in zip(idx, X)]))
        H.reshape(len(idx), -1)[:, :: d + 1] += w / (X * X)
        return G - w / X, H

    def boundary_cap(i, x, dx):
        neg = dx < 0.0
        if not neg.any():
            return 1.0
        return min(1.0, _BOUNDARY_FRACTION * float(np.min(-x[neg] / dx[neg])))

    X, gaps, steps = _damped_newton(x0, grad_hess, _reduced_newton_step, fval, boundary_cap, tol, max_iter,
                                    _kappa(w))
    return _report(X, gaps, steps, stacked)


def minimize_simplex_history(returns, barrier_weight, warm_start=None, tol=1e-10):
    """Minimize sum_t -log<x, r_t> + barrier_weight * (-sum_i log x_i) over the simplex."""
    return minimize_simplex(LogLossHistory(returns, barrier_weight), warm_start, tol)


def _cholesky_pd(X):
    """The Cholesky factor of X, or None if X is not positive definite."""
    try:
        return np.linalg.cholesky(X)
    except LinAlgError:
        return None


def _logdet_hessian(C):
    """The log-det Hessian in phi coordinates from C = basis @ X^-1; one member at a time,
    since einsum over a stack does not sum as it does over each slice."""
    return np.einsum("kab,lba->kl", C, C).real


def minimize_spectraplex(obj, warm_start=None, tol=1e-10, max_iter=DEFAULT_MAX_ITER):
    """Minimize ``obj`` plus its weighted log-det barrier over trace-one PSD matrices.

    ``obj`` lives in the phi coordinates (dim = d^2); the warm start is a
    density matrix.  ``obj`` may be a list or tuple of k objectives with a
    (k, d, d) stack of warm starts; they are solved as one stack and the
    report is stacked.
    """
    objs, w, stacked = _as_stack(obj)
    k, n = len(objs), objs[0].dim
    d = int(round(math.sqrt(n)))
    if d * d != n:
        raise ValueError(f"objective dimension {n} is not a square")
    rows = hermitian_basis(d).reshape(-1, d)  # basis @ X^-1 as one product per member, bit for bit as slice by slice
    X0 = (np.tile(np.eye(d, dtype=complex) / d, (k, 1, 1)) if warm_start is None
          else np.array(warm_start, dtype=complex, copy=None, ndmin=3))
    X0 = X0 / X0.trace(axis1=1, axis2=2).real[:, None, None]
    a = trace_slots(d)
    K = np.zeros((k, n + 1, n + 1))  # the KKT matrices and right-hand sides; the first m serve m members
    K[:, :n, n] = K[:, n, :n] = a
    rhs = np.empty((k, n + 1, 1))
    keys, mats, chols = [None] * k, [None] * k, {}  # per member, its last point evaluated: bytes, X, Cholesky factor

    def matrices(idx, V):
        """The matrices of members idx at their points V, unpacked in one call unless each point
        is its member's last one."""
        new = [v.tobytes() for v in V]
        fresh = [j for j, i in enumerate(idx) if keys[i] != new[j]]
        if not fresh:
            return np.array([mats[i] for i in idx])
        Xs = unvectorize_phi(V, d)
        for j in fresh:
            i = idx[j]
            keys[i], mats[i] = new[j], Xs[j]
            chols.pop(i, None)
        return Xs

    def cholesky(i, v):
        """The Cholesky factor of member i's X at v, or None if X is not positive definite."""
        X = matrices([i], v[None])[0]
        if i not in chols:
            chols[i] = _cholesky_pd(X)
        return chols[i]

    def fval(i, v):
        L = cholesky(i, v)
        if L is None:
            return math.inf
        ld = 2.0 * float(np.log(np.diagonal(L).real).sum())
        return objs[i].smooth_value(v) - w * ld

    def grad_hess(idx, V):
        Xinv = hermitize(np.linalg.inv(matrices(idx, V)))
        G, H = map(np.array, zip(*[objs[i].smooth_grad_hess(v) for i, v in zip(idx, V)]))
        hess = np.array([_logdet_hessian(C) for C in (rows @ Xinv).reshape(len(idx), n, d, d)])
        return G - w * phi_dual(Xinv), H + w * hess

    def kkt_step(V, G, H):
        m = len(V)
        K[:m, :n, :n] = H
        np.negative(G, out=rhs[:m, :n, 0])
        rhs[:m, n] = 1.0 - (V[:, None] @ a[:, None])[:, 0]
        dV = np.linalg.solve(K[:m], rhs[:m])[:, :n]
        # a (1, n) @ (n, n) or (1, n) @ (n, 1) product is each member's own vector product
        return dV[..., 0], ((dV.swapaxes(1, 2) @ H) @ dV)[:, 0, 0].tolist()

    def boundary_cap(i, v, dv):
        Li = np.linalg.inv(cholesky(i, v))
        wmin = float(np.linalg.eigvalsh(Li @ unvectorize_phi(dv, d) @ Li.conj().T).min())
        return 1.0 if wmin >= 0.0 else min(1.0, _BOUNDARY_FRACTION / (-wmin))

    try:
        V, gaps, steps = _damped_newton(vectorize_phi(X0), grad_hess, kkt_step, fval, boundary_cap, tol, max_iter,
                                        _kappa(w))
    except SolverFailure as exc:  # a failure report carries a density matrix too
        exc.report.minimizer = unvectorize_phi(exc.report.minimizer, d)
        raise
    return _report(matrices(range(k), V), gaps, steps, stacked)


def minimize_spectraplex_history(loss_duals, barrier_weight, warm_start=None, tol=1e-10):
    """Minimize sum_t -log<X, R_t> + barrier_weight * (-log det X) over density matrices.

    ``loss_duals`` holds phi_dual(R_t) as rows, so <X, R_t> = loss_duals @ phi(X).
    """
    return minimize_spectraplex(LogLossHistory(loss_duals, barrier_weight), warm_start, tol)
