"""Damped Newton minimization of barrier-regularized objectives.

Two domains are supported: the probability simplex with the log barrier
-sum(log x_i), and the trace-one PSD Hermitian matrices (spectraplex) with
the log-det barrier, handled in the real coordinates of
:func:`bisons.hermitian.vectorize_phi`.  Objectives are either accumulated
quadratics (:class:`QuadraticObjective`) or sums of true log losses over a
stored history (:class:`LogLossHistory`); each supplies its members' smooth
values, gradients and Hessians, and one frontend per domain adds the
barrier.  All of these are self-concordant, so the Newton decrement
lambda certifies the optimality gap.  Iteration stops on either of two
tests, and the report carries the value that passed as ``certified_gap``:

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
evaluated only by these line searches.  They are rare (about 31 in 5e4
Newton iterations over the benchmark's jobs: none in 17,548 BISONS and
Q-BISONS solves, 7 in 98 hindsight solves, 24 in 12,400 LB-FTRL solves),
so a line search unpacks, factors and evaluates its own points.

The simplex equality constraint is eliminated by dropping the last
coordinate; the spectraplex trace constraint is kept in the KKT system
with a scalar multiplier.

Each frontend solves the k = ``len(obj)`` members of one objective from a
stack of k warm starts: a :class:`QuadraticObjective` holds k members that
share their quadratic part, and a :class:`LogLossHistory` is one member.
One driver runs the members in lockstep.  Each iteration forms the
gradients and Hessians of the members still running in one
``smooth_grad_hess`` call, makes one stacked ``np.linalg.solve`` and
computes each member's decrement; every member whose step may be taken in
full takes it, and any other member gets its own boundary cap and Armijo
search.  Each member stops on its own test, so it takes exactly the steps,
and ends at exactly the bits, that a solve of it alone would: the stacked
calls are ones that give each slice the bits of the single call
(``solve``, ``inv``, ``cholesky``, ``@``, ``vecdot``, elementwise ufuncs
and gathers), and the log-det Hessian ``einsum`` runs member by member.  A
solve returns one :class:`SolveReport` whose ``minimizer`` is the (k, ...)
stack, ``certified_gap`` the (k,) array and ``iterations`` the Newton
steps summed over the stack.  If members fail, the first failing one in
stack order raises, with the message and report (its own iterate; on the
spectraplex, its d x d density matrix) that a solve of it alone gives; a
member after a failed one stops, since it could not be reported.  A
stacked ``LinAlgError`` does not say which system is singular, so then
each member's system is solved alone.

An iteration pays per member only for the log-det Hessian ``einsum`` on
the spectraplex.  Everything else is a fixed number of array calls over
the whole stack, a stack of one included.  On the simplex that is the
objective's gradients and Hessians copied into one buffer, five calls for
the barrier terms, two gathers and five elementwise operations for the
reduced system, one ``solve``, one ``vecdot`` for the decrements and three
calls to lift the steps; when every member takes its full step, the steps
are one addition.

Warm starts: a solve takes one warm start per member (a single start
serves an objective of one member), and a count that does not match, or an
objective of no members, raises a ValueError that names both counts.  A
simplex warm start is not checked: it must be interior, and since Newton
steps keep the coordinate sum, a start off the simplex gives the minimizer
over the plane through it.  A spectraplex warm start is normalised to
trace one and must then be finite, Hermitian (to 1e-12) and positive
definite, or a ValueError names the member; one stacked Cholesky
factorisation checks the stack.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .hermitian import HERMITIAN_TOL, hermitian_basis, hermitize, phi_dual, trace_slots, unvectorize_phi, vectorize_phi

DEFAULT_MAX_ITER = 200  # Newton steps a solve may take before it raises SolverFailure; read when a solve starts
DEFAULT_TOL = 1e-10  # a frontend's default accuracy, and the loosest a round solves at (see default_tol)
HINDSIGHT_TOL = 1e-12  # the accuracy of the hindsight comparators, the ONS projection and criterion 11
_ARMIJO_SLOPE = 0.25
_ARMIJO_SHRINK = 0.5
_BOUNDARY_FRACTION = 0.99
_FULL_STEP = 1.0 / 3.0  # kappa * lambda at or below which a Newton step is taken in full


def default_tol(T):
    """The accuracy of every BISONS and Q-BISONS round's solves at horizon T."""
    return min(DEFAULT_TOL, float(T) ** -2)


@dataclass
class QuadraticObjective:
    """k accumulated quadratics 0.5 x'Qx + l_j.x + c_j that share Q, each plus ``barrier_weight`` times the barrier.

    ``quad`` is the (dim, dim) Q, ``lin`` the (k, dim) stack of the l_j and
    ``const`` the (k,) c_j; ``dim`` is d on the simplex and d^2 on the
    spectraplex (real coordinates).  Surrogate rounds enter every member
    through :meth:`add_surrogate`, linear bias terms through direct updates
    of a row of ``lin``.
    """

    quad: np.ndarray
    lin: np.ndarray
    const: np.ndarray
    barrier_weight: float

    @classmethod
    def zeros(cls, dim, barrier_weight, k):
        if barrier_weight <= 0.0:
            raise ValueError("barrier weight must be positive")
        return cls(np.zeros((dim, dim)), np.zeros((k, dim)), np.zeros(k), float(barrier_weight))

    @property
    def dim(self):
        return len(self.quad)

    def __len__(self):
        return len(self.lin)

    def add_surrogate(self, w, anchor_value, anchor_inner, beta):
        """Accumulate a + <x - x_t, g> + (beta/2) <x - x_t, g>^2 into every member, its quadratic part once.

        ``w`` is the coordinate vector of the anchor gradient g (the
        gradient itself on the simplex, its phi-dual on the spectraplex)
        and ``anchor_inner`` is <x_t, g>.
        """
        self.quad += beta * (w[:, None] * w)  # np.outer(w, w), without its dispatch
        self.lin += (1.0 - beta * anchor_inner) * w
        self.const += anchor_value - anchor_inner + 0.5 * beta * anchor_inner * anchor_inner

    def smooth_value(self, i, x):
        return 0.5 * float(x @ self.quad @ x) + float(self.lin[i] @ x) + self.const[i]

    def smooth_grad_hess(self, idx, X):
        """The gradients of the members ``idx`` at their points X, as one stack, and their shared Hessian."""
        lin = self.lin if len(idx) == len(self.lin) else self.lin[idx]  # every member, in order: no gather
        return (self.quad @ X[..., None])[..., 0] + lin, self.quad


class LogLossHistory:
    """Sum of true log losses sum_t -log<x, r_t> plus ``barrier_weight`` times the barrier; one member.

    ``rows`` holds the r_t: returns on the simplex, phi_dual(R_t) on the
    spectraplex, so that <x, r_t> = rows @ x in both coordinate systems.
    A value costs one ``rows @ x`` and a log-sum.  The gradient and Hessian
    at the last point asked for are kept with a copy of it (keyed on exact
    equality of x); with a ``capacity`` the rows live in a preallocated
    buffer that :meth:`append` fills, moving the kept gradient and Hessian
    to the new sum in O(dim^2).  Both products are taken over a copy of x,
    so their bits do not depend on its strides, and the rows are kept in C
    order, since the BLAS products over them sum in the order of their
    layout.
    """

    def __init__(self, rows, barrier_weight, capacity=None):
        R = np.ascontiguousarray(rows, dtype=float)
        if R.ndim != 2:
            raise ValueError(f"need an (n, dim) stack of history rows, got shape {R.shape}")
        self.n = R.shape[0]
        if capacity is not None:
            buf = np.empty((max(capacity, self.n), R.shape[1]))
            buf[: self.n] = R
            R = buf
        self._buf = R
        self.rows = R[: self.n]  # the rows so far, a view of the buffer
        self.dim = R.shape[1]
        self.barrier_weight = float(barrier_weight)
        self._last = None  # (bytes of x, copy of x, gradient, Hessian) at the last point asked for

    def __len__(self):
        return 1

    def smooth_value(self, i, x):
        ips = self.rows @ x.copy()
        return math.inf if ips.size and ips.min() <= 0.0 else -float(np.log(ips).sum())

    def smooth_grad_hess(self, idx, X):
        """The gradient at X[0], as a stack of one, and the Hessian."""
        key = X[0].tobytes()
        if self._last is None or self._last[0] != key:
            x = X[0].copy()
            R = self.rows
            inv = 1.0 / (R @ x)
            self._last = key, x, -(R.T @ inv), (R.T * inv**2) @ R
        return self._last[2][None], self._last[3]

    def append(self, r):
        """Add the row r, of shape (dim,); a kept gradient and Hessian move to the new sum at their point."""
        if self.n == self._buf.shape[0]:
            raise ValueError(f"history is full ({self.n} rows)")
        r = np.asarray(r, dtype=float)
        if r.shape != (self.dim,):
            raise ValueError(f"a history row has shape ({self.dim},), got {r.shape}")
        self._buf[self.n] = r
        self.n += 1
        self.rows = self._buf[: self.n]
        last, self._last = self._last, None
        if last is None:
            return
        key, x, g, H = last
        ip = float(r @ x)
        if ip > 0.0:
            self._last = key, x, g - r / ip, H + r[:, None] * r / ip**2


@dataclass
class SolveReport:
    """The (k, ...) minimizers, their (k,) certified gaps and the Newton steps summed over the members;
    a :class:`SolverFailure` reports its failing member's iterate, decrement^2 and steps."""

    minimizer: np.ndarray
    certified_gap: np.ndarray
    iterations: int


class SolverFailure(RuntimeError):
    """Non-convergence; carries the best iterate found."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def prefixed(exc, prefix):
    """``exc`` as its own type with ``prefix`` before its message, to raise ``from exc``; a failure keeps its report."""
    if isinstance(exc, SolverFailure):
        return SolverFailure(f"{prefix}{exc}", exc.report)
    return type(exc)(f"{prefix}{exc}")


#: Errors a round may raise: a run raises them again with :func:`prefixed`, the command line prints them in one line.
ROUND_ERRORS = (SolverFailure, ArithmeticError, ValueError)


# -- shared damped-Newton driver ----------------------------------------------

def _armijo(fval, x, step_dir, slope, s0):
    """Backtrack from step size ``s0``; the accepted point and its step size."""
    f, s = fval(x), s0
    for _ in range(80):
        xn = x + s * step_dir
        if fval(xn) <= f + _ARMIJO_SLOPE * s * slope:
            return xn, s
        s *= _ARMIJO_SHRINK
    return None, None


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


def _damped_newton(X, grad_hess, newton_step, fval, boundary_cap, tol, kappa):
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
    point (no value is kept from an earlier search) and once per Armijo
    trial.  Only a step of size 1 lands on the exact Newton
    iterate, so only then may :func:`_full_step_bound` certify the new
    point.  When every member of the stack takes its full step, the steps
    are one array addition.

    Returns the :class:`SolveReport` of the minimizers X; each member takes
    the steps it would take alone, at most ``DEFAULT_MAX_ITER`` (its value
    when the solve starts).  A failed member stops those after it in
    the stack, and the first failure in stack order is raised.
    """
    k, max_iter = len(X), DEFAULT_MAX_ITER
    done = [None] * k  # a member's (certified gap, steps) or its SolverFailure, once it stops
    active, stop = range(k), k  # ``stop`` is the first failed member; those after it no longer matter
    for it in range(max_iter):
        Xa = X if len(active) == k else X[active]
        G, H = grad_hess(active, Xa)
        try:
            dXa, lam2s = newton_step(Xa, G, H)
        except LinAlgError:
            dXa, lam2s = _newton_steps_alone(newton_step, Xa, G, H)
        full, stopped = [], False  # the positions in ``active`` of the members that take their full step
        for j, lam2 in enumerate(lam2s):
            i = active[j]
            if isinstance(lam2, LinAlgError):
                done[i], stop, stopped = (_failure(f"singular Newton system: {lam2}", X[i], math.inf, it, lam2),
                                          min(stop, i), True)
                continue
            if lam2 <= tol:
                done[i], stopped = (max(lam2, 0.0), it), True
                continue
            if kappa * math.sqrt(lam2) <= _FULL_STEP:
                full.append(j)
            else:
                x, dx = X[i], dXa[j]
                xn, s = _armijo(functools.partial(fval, i), x, dx, float(G[j] @ dx), boundary_cap(i, x, dx))
                if xn is None:
                    done[i], stop, stopped = _failure("line search stalled", x, lam2, it), min(stop, i), True
                    continue
                x[...] = xn
                if s != 1.0:  # only an uncapped step of size 1 lands on the Newton iterate
                    continue
            bound = _full_step_bound(lam2, kappa)
            if bound <= tol and it + 1 < max_iter:  # certified without a system at the new point
                done[i], stopped = (bound, it + 1), True
        if len(full) == k:
            X += dXa
        else:
            for j in full:
                X[active[j]] += dXa[j]
        if stopped:
            active = [i for i in active if done[i] is None and i < stop]
            if not active:
                break
    else:  # max_iter steps taken: the report describes the iterate it returns, not the one before the last step
        if active:
            Xa = X[active]
            _, lam2s = _newton_steps_alone(newton_step, Xa, *grad_hess(active, Xa))
            for i, lam2 in zip(active, lam2s):
                lam2 = math.inf if isinstance(lam2, LinAlgError) else lam2
                done[i] = _failure(f"no convergence in {max_iter} iterations (decrement^2 {lam2:.3e})", X[i], lam2,
                                   max_iter)
            stop = min(stop, active[0])
    if stop < k:
        raise done[stop]
    gaps, steps = zip(*done)
    return SolveReport(X, np.array(gaps), sum(steps))


def _kappa(barrier_weight):
    """Half the self-concordance constant of a quadratic or log-loss objective plus w times a barrier."""
    return max(1.0, 1.0 / math.sqrt(barrier_weight))


def _members(obj, starts):
    """The number k of members of ``obj``; ``starts`` is a stack of k warm starts, or None."""
    k = len(obj)
    if not k or (starts is not None and len(starts) != k):
        raise ValueError(f"a solve needs at least one member and one warm start per member "
                         f"(members: {k}, warm starts: {k if starts is None else len(starts)})")
    return k


# -- frontends: one per domain, for QuadraticObjective and LogLossHistory -------

@functools.cache
def _reduction_terms(m, d):
    """Flat indices of the terms that eliminate the last coordinate, for a stack of m members of dimension d.

    Each member's row of the stack holds its d x d Hessian H, row-major, then
    its gradient g.  With n = d - 1, the reduced Hessian is
    ((H_ij - H_in) - H_nj) + H_nn and the reduced gradient g_j - g_n for
    i, j < n; the first array gathers the four Hessian terms as a (4, m, n*n)
    stack and the second the two gradient terms as a (2, m, n) stack.
    """
    n, size = d - 1, d * d + d
    i, j = np.divmod(np.arange(n * n), n)
    rows = size * np.arange(m)[:, None]
    hess = np.array([i * d + j, i * d + n, n * d + j, np.full(n * n, n * d + n)])
    grad = d * d + np.array([np.arange(n), np.full(n, n)])
    return rows + hess[:, None], rows + grad[:, None]


def _reduced_newton_step(X, G, F):
    """Newton steps in the coordinates left after eliminating the last one by sum(x) = 1,
    lifted back to all d coordinates, and their decrements^2; one stacked solve.

    ``F`` is the (k, d*d + d) stack of each member's Hessian, row-major, then
    its gradient G (see :func:`_reduction_terms`).  One gather takes out the
    terms, so the reduction is made of array operations of one shape.
    """
    m, d = X.shape
    hess, grad = _reduction_terms(m, d)
    flat = F.reshape(-1)
    T = flat.take(hess)
    Hz = T[0] - T[1]
    Hz -= T[2]
    Hz += T[3]
    T = flat.take(grad)
    ngz = -(T[0] - T[1])
    dz = np.linalg.solve(Hz.reshape(m, d - 1, d - 1), ngz[..., None])[..., 0]
    lam2 = np.vecdot(ngz, dz).tolist()  # each member's dot product, as alone
    return np.concatenate([dz, -dz.sum(axis=-1, keepdims=True)], axis=-1), lam2


def minimize_simplex(obj, warm_start=None, tol=DEFAULT_TOL):
    """Minimize each of the k members of ``obj`` plus its weighted log barrier -sum(log x_i) over the simplex.

    ``warm_start`` is a (k, d) stack.  A warm start is not checked: the
    iterates keep its coordinate sum, so a start off the simplex gives a
    minimizer over the plane through it.
    """
    X = None if warm_start is None else np.array(warm_start, dtype=float, ndmin=2)
    k, d, w = _members(obj, X), obj.dim, obj.barrier_weight
    if X is None:
        X = np.full((k, d), 1.0 / d)

    def fval(i, x):
        if x.min() <= 0.0:
            return math.inf
        return obj.smooth_value(i, x) - w * float(np.log(x).sum())

    def grad_hess(idx, X):
        m = len(idx)
        F = np.empty((m, d * d + d))  # each member's Hessian, row-major, then its gradient
        H, G = F[:, : d * d].reshape(m, d, d), F[:, d * d :]
        G[:], H[:] = obj.smooth_grad_hess(idx, X)
        F[:, : d * d : d + 1] += w / (X * X)
        G -= w / X
        return G, F

    def boundary_cap(i, x, dx):
        neg = dx < 0.0
        if not neg.any():
            return 1.0
        return min(1.0, _BOUNDARY_FRACTION * float(np.min(-x[neg] / dx[neg])))

    return _damped_newton(X, grad_hess, _reduced_newton_step, fval, boundary_cap, tol, _kappa(w))


def minimize_simplex_history(returns, barrier_weight, warm_start=None, tol=DEFAULT_TOL):
    """Minimize sum_t -log<x, r_t> + barrier_weight * (-sum_i log x_i) over the simplex."""
    return minimize_simplex(LogLossHistory(returns, barrier_weight), warm_start, tol)


def _cholesky_pd(X):
    """The Cholesky factor of X, or None if X is not positive definite."""
    try:
        return np.linalg.cholesky(X)
    except LinAlgError:
        return None


def _check_starts(X0, Xs):
    """Check the trace-normalised warm starts X0 against Xs, the Hermitian matrices with their
    phi coordinates.

    A start that is not finite, not Hermitian (to HERMITIAN_TOL) or not positive
    definite raises a ValueError naming the first such member.  A start
    that equals its Xs, as one solve's minimizer handed to the next does,
    costs one comparison and one stacked Cholesky factorisation.
    """
    if (X0 == Xs).all() or np.abs(X0 - Xs).max() <= HERMITIAN_TOL:
        if _cholesky_pd(Xs) is not None:
            return
    for i, (X, S) in enumerate(zip(X0, Xs)):
        reason = ("is not finite" if not np.isfinite(X).all()
                  else "is not Hermitian" if np.abs(X - S).max() > HERMITIAN_TOL
                  else "is not positive definite" if _cholesky_pd(S) is None else None)
        if reason:
            raise ValueError(f"warm start {i} {reason} after trace normalisation")


def _logdet_hessian(C):
    """The log-det Hessian in phi coordinates from C = basis @ X^-1; one member at a time,
    since einsum over a stack does not sum as it does over each slice."""
    return np.einsum("kab,lba->kl", C, C).real


@functools.cache
def _kkt_matrices(k, d):
    """A stack of k KKT matrices for the d x d spectraplex with the trace constraint's border
    filled in, for copying; read-only."""
    n = d * d
    K = np.zeros((k, n + 1, n + 1))
    K[:, :n, n] = K[:, n, :n] = trace_slots(d)
    K.flags.writeable = False
    return K


def minimize_spectraplex(obj, warm_start=None, tol=DEFAULT_TOL):
    """Minimize each of the k members of ``obj`` plus its weighted log-det barrier over trace-one PSD matrices.

    ``obj`` lives in the phi coordinates (dim = d^2); ``warm_start`` is a
    (k, d, d) stack of density matrices.
    """
    X0 = None if warm_start is None else np.array(warm_start, dtype=complex, copy=None, ndmin=3)
    k, n, w = _members(obj, X0), obj.dim, obj.barrier_weight
    d = int(round(math.sqrt(n)))
    if d * d != n:
        raise ValueError(f"objective dimension {n} is not a square")
    rows = hermitian_basis(d).reshape(-1, d)  # basis @ X^-1 as one product per member, bit for bit as slice by slice
    if X0 is None:
        X0 = np.tile(np.eye(d, dtype=complex) / d, (k, 1, 1))
    X0 = X0 / X0.trace(axis1=1, axis2=2).real[:, None, None]
    V0 = vectorize_phi(X0)
    _check_starts(X0, unvectorize_phi(V0, d))
    a = trace_slots(d)
    K = _kkt_matrices(k, d).copy()  # the KKT matrices and right-hand sides; the first m serve m members
    rhs = np.empty((k, n + 1, 1))

    def fval(i, v):
        L = _cholesky_pd(unvectorize_phi(v, d))
        if L is None:
            return math.inf
        ld = 2.0 * float(np.log(np.diagonal(L).real).sum())
        return obj.smooth_value(i, v) - w * ld

    def grad_hess(idx, V):
        Xinv = hermitize(np.linalg.inv(unvectorize_phi(V, d)))
        G, H = obj.smooth_grad_hess(idx, V)
        hess = np.array([_logdet_hessian(C) for C in (rows @ Xinv).reshape(len(idx), n, d, d)])
        return G - w * phi_dual(Xinv), H + w * hess

    def kkt_step(V, G, H):
        m = len(V)
        K[:m, :n, :n] = H
        np.negative(G, out=rhs[:m, :n, 0])
        np.subtract(1.0, np.vecdot(V, a), out=rhs[:m, n, 0])  # each member's dot product, as alone
        dV = np.linalg.solve(K[:m], rhs[:m])[:, :n]
        # a (1, n) @ (n, n) or (1, n) @ (n, 1) product is each member's own vector product
        return dV[..., 0], ((dV.swapaxes(1, 2) @ H) @ dV)[:, 0, 0].tolist()

    def boundary_cap(i, v, dv):
        Li = np.linalg.inv(np.linalg.cholesky(unvectorize_phi(v, d)))
        wmin = float(np.linalg.eigvalsh(Li @ unvectorize_phi(dv, d) @ Li.conj().T).min())
        return 1.0 if wmin >= 0.0 else min(1.0, _BOUNDARY_FRACTION / (-wmin))

    try:
        rep = _damped_newton(V0, grad_hess, kkt_step, fval, boundary_cap, tol, _kappa(w))
    except SolverFailure as exc:  # a failure report carries a density matrix too
        exc.report.minimizer = unvectorize_phi(exc.report.minimizer, d)
        raise
    rep.minimizer = unvectorize_phi(rep.minimizer, d)
    return rep


def minimize_spectraplex_history(loss_duals, barrier_weight, warm_start=None, tol=DEFAULT_TOL):
    """Minimize sum_t -log<X, R_t> + barrier_weight * (-log det X) over density matrices.

    ``loss_duals`` holds phi_dual(R_t) as rows, so <X, R_t> = loss_duals @ phi(X).
    """
    return minimize_spectraplex(LogLossHistory(loss_duals, barrier_weight), warm_start, tol)
