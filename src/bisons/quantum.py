"""PSD generalization of the biased-surrogate epoch scheme (Schrodinger's BISONS).

States and loss matrices are trace-one PSD Hermitian matrices, the
regularizer is the log-det barrier, and both FTRL solves run in the real
coordinates of :mod:`bisons.hermitian`.  The scalar bias vector becomes a
PD matrix updated by

    P' = P + X^{-1/2} (I - X^{1/2} P X^{1/2})_+ X^{-1/2},

which is the cheapest (in realized bias cost) update keeping P' >= P and
P' >= X^{-1}; on diagonal matrices it reduces exactly to the coordinatewise
max rule of the simplex algorithm, and the code takes that path verbatim
for exactly-diagonal inputs.  The reset rule compares the unbiased
comparator U against the scaled inverse bias in the Loewner order,
boundary inclusive.

The epoch engine is the one of :mod:`bisons.vector`, run on the
:class:`Spectraplex` domain, so a round's biased and unbiased objectives
share their quadratic part and are solved as one stacked KKT solve, and
its stability monitor runs the same checks with least eigenvalues, matrix
inverses and :func:`bisons.hermitian.a_norm`.  A
run ingests its whole stream once, before round 1: a
:class:`bisons.hermitian.Measurements` stack is reduced in one call (its
fractional outcomes draw their uniforms in stream order, the same ones as
one at a time), and every loss matrix is checked and
trace-normalized as one (n, d, d) stack, which the run's result keeps for
the hindsight comparator.
"""

import numpy as np

from .geometry import InvalidReturnsError, neg_log_inner, reject_first_failure
from .hermitian import (
    PSD_TOL,
    ConditioningError,
    Measurements,
    a_norm,
    hermitize,
    min_eig,
    phi_dual,
    positive_part,
    rebuild,
    reduce_measurement,
    trace_inner,
)
from .solver import minimize_spectraplex
from .vector import BisonsParams, StabilityMonitor, bisons_round, run_epochs, update_bias


class QBisonsParams(BisonsParams):
    """The admissible region of :class:`bisons.vector.BisonsParams`, with d = 1 allowed."""

    min_d = 1


def q_default_params(d, T):
    """Parameter tuning giving the O(d^3 log^2 T) regret guarantee: the simplex tuning with s = d."""
    return QBisonsParams.tuned(d, T, d)


def _is_exactly_diagonal(M):
    return not np.count_nonzero(M - np.diag(np.diagonal(M)))


def q_update_bias(P, X_next):
    """Matrix bias update; keeps P' >= P and P' >= X_next^{-1} in the Loewner order."""
    P = np.asarray(P, dtype=complex)
    X = np.asarray(X_next, dtype=complex)
    if _is_exactly_diagonal(P) and _is_exactly_diagonal(X):
        return np.diag(update_bias(np.diagonal(P).real, np.diagonal(X).real)).astype(complex)
    w, V = np.linalg.eigh(hermitize(X))
    if w.min() <= 1e-12:
        raise ConditioningError(f"play nearly singular, min eigenvalue {w.min()}")
    S = rebuild(V, np.sqrt(w))
    Si = hermitize((V / np.sqrt(w)) @ V.conj().T)  # not rebuild(V, 1 / sqrt(w)): that rounds differently
    inner = positive_part(np.eye(P.shape[0]) - S @ P @ S)
    return hermitize(P + Si @ inner @ Si)


def q_check_reset(U, P, params):
    """True iff U is not strictly below (2(1+6eta)beta)^{-1} P^{-1}, boundary inclusive.

    U must be exactly Hermitian, as every solver minimizer is, so that its
    difference from the hermitized, scaled P^{-1} is too and has its
    eigenvalues taken as it stands.
    """
    Pinv = np.linalg.inv(np.asarray(P, dtype=complex))
    M = hermitize(Pinv) / params.reset_factor - np.asarray(U, dtype=complex)
    return bool(np.linalg.eigvalsh(M).min() <= 0.0)


class QStabilityMonitor(StabilityMonitor):
    """The checks of :class:`bisons.vector.StabilityMonitor` in the Loewner order, a chunk of rounds at a time."""

    dtype = complex
    least = staticmethod(min_eig)
    inverse = staticmethod(np.linalg.inv)
    a_norm = staticmethod(a_norm)

    # Its own entry in the class body, so that each monitor can be wrapped on its own.
    observe = StabilityMonitor.observe


def ingest_loss_matrix(item, rng=None):
    """Trace-one loss matrices of :class:`bisons.hermitian.Measurements` or of raw PSD loss matrices.

    A (d, d) array gives its (d, d) loss matrix; measurements, an (n, d, d)
    stack or a sequence of (d, d) arrays give the (n, d, d) stack.  Any
    other shape raises :class:`InvalidReturnsError`, and a matrix must be
    PSD to ``PSD_TOL`` after trace normalisation, whatever its scale.
    Measurements are reduced in one call, so their fractional outcomes draw
    their uniforms from ``rng`` in stream order.  A bad item of a stack
    raises :class:`InvalidReturnsError` with its ``index``.
    """
    if isinstance(item, Measurements):
        R, single = reduce_measurement(item, rng=rng), False
    else:
        R = np.asarray(item, dtype=complex)
        if R.ndim not in (2, 3) or R.shape[-1] != R.shape[-2]:
            raise InvalidReturnsError(f"need a (d, d) loss matrix or an (n, d, d) stack, got shape {R.shape}")
        single = R.ndim == 2
        R = R.reshape((-1,) + R.shape[-2:])
    finite = np.isfinite(R).all(axis=(-2, -1))
    # the later checks run on the items before the first non-finite one
    H = hermitize(R[: int(finite.argmin()) if not finite.all() else len(R)])
    tr = np.trace(H, axis1=-2, axis2=-1).real
    reject_first_failure([("loss matrix entries must be finite", ~finite),
                          ("loss matrix must be PSD", min_eig(H) < -PSD_TOL * tr),
                          ("loss matrix must have positive trace", ~(tr > 0.0))], not single)
    out = H / tr[:, None, None]
    return out[0] if single else out


class Spectraplex:
    """Density matrices with the log-det barrier in phi coordinates, the domain of Schrodinger's BISONS."""

    def centre(self, d):
        eye_d = np.eye(d, dtype=complex)
        return eye_d / d, float(d) * eye_d

    def ingest(self, stream, rng):
        return ingest_loss_matrix(stream, rng=rng)

    def loss(self, X, R):
        ip = trace_inner(X, R)
        loss = neg_log_inner(ip)
        G = -R / ip
        return loss, phi_dual(G), trace_inner(X, G)

    def bias_coords(self, dP):
        return phi_dual(dP)

    def solve(self, objs, warm_starts, tol):
        return minimize_spectraplex(objs, warm_start=warm_starts, tol=tol)

    def update_bias(self, P, X_next):
        return q_update_bias(P, X_next)

    def check_reset(self, U_next, P_next, params):
        return q_check_reset(U_next, P_next, params)

    def monitor(self, params):
        return QStabilityMonitor(params)

    def round(self, state, R, params):
        return qbisons_round(state, R, params)


SPECTRAPLEX = Spectraplex()


def qbisons_round(state, R_t, params):
    """One round against a trace-one PSD loss matrix: the simplex round on the spectraplex."""
    return bisons_round(state, R_t, params, domain=SPECTRAPLEX)


def run_qbisons(stream, params, rng=None, keep_states=False):
    """Run over a stack or sequence of loss matrices, or over :class:`bisons.hermitian.Measurements`.

    Fractional outcomes are reduced with ``rng``; a single stream serves
    the whole run, advanced once per fractional outcome.
    """
    return run_epochs(SPECTRAPLEX, stream, params, rng=rng, keep_states=keep_states)
