"""Hermitian matrix algebra for learning over trace-one PSD matrices.

Everything here treats d x d complex Hermitian matrices as a real vector
space of dimension d^2.  The fixed coordinate map ``vectorize_phi`` lists,
in order: real parts of the strict lower triangle (column major), then the
matching imaginary parts taken from the upper triangle, then the (real)
diagonal.  For d=2 and M = [[a, x+iy], [x-iy, b]] this gives (x, y, a, b).
Under this map <X, W> = Tr(XW) equals phi(X) . phi_dual(W) where phi_dual
doubles the off-diagonal slots; that diagonal rescaling is the only place
the coordinate convention leaks out.  Both maps are one ``np.take``
through a cached index, on single matrices and on stacks alike.

Two-outcome measurements are one columnar value, :class:`Measurements`:
an (n, d, d) stack of effects and an (n,) array of outcomes, checked as a
stack and reduced to loss matrices as a stack.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import InvalidReturnsError, reject_first_failure

HERMITIAN_TOL = 1e-12  # largest entry of M - M^H for a matrix taken as Hermitian
PSD_TOL = 1e-10  # eigenvalue slack: below 0 for a trace-normalised loss matrix, outside [0, 1] for an effect


class ConditioningError(ArithmeticError):
    """Raised when an input is too close to singular for the requested operation."""


class MissingRandomnessError(ValueError):
    """Raised when a randomized reduction is requested without a generator."""


def hermitize(M):
    """The Hermitian part of M, or of each slice of a (..., d, d) stack."""
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def trace_inner(X, Y):
    """Tr(XY) for Hermitian X, Y; always real up to roundoff.

    Over (..., d, d) stacks (either or both), the array of the products.
    """
    X = np.asarray(X)
    Y = np.asarray(Y)
    if X.shape[-2:] != Y.shape[-2:]:
        raise ValueError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    v = np.trace(X @ Y, axis1=-2, axis2=-1)
    residual = np.abs(v.imag).max(initial=0.0) if v.ndim else abs(v.imag)
    if residual > 1e-10:
        raise ArithmeticError(f"trace inner product has imaginary residual {residual}")
    return v.real if v.ndim else float(v.real)


def rebuild(V, w):
    """The Hermitian matrix V diag(w) V^H, or the stack of them over (..., d, d) V and (..., d) w."""
    return hermitize((V * w[..., None, :]) @ V.conj().swapaxes(-1, -2))


def positive_part(M):
    """The positive part of Hermitian M, or of each slice of a (..., d, d) stack.

    Every eigenvalue <= 0 is set to exactly zero and every positive one is
    kept; there is no tolerance.
    """
    w, V = np.linalg.eigh(hermitize(np.asarray(M, dtype=complex)))
    return rebuild(V, np.where(w > 0.0, w, 0.0))


def sqrt_psd(M):
    """The PSD square root of M, or of each slice of a (..., d, d) stack."""
    w, V = np.linalg.eigh(hermitize(np.asarray(M, dtype=complex)))
    return rebuild(V, np.sqrt(np.clip(w, 0.0, None)))


def a_norm(W, A):
    """The seminorms sqrt(Tr(WAWA)) = ||A^{1/2} W A^{1/2}||_F for PSD A, over (..., d, d) stacks W and A."""
    S = sqrt_psd(A)
    return np.linalg.norm(S @ W @ S, axis=(-2, -1))


def min_eig(M):
    """The smallest eigenvalue of Hermitian M, or the array of them over a (..., d, d) stack."""
    w = np.linalg.eigvalsh(hermitize(np.asarray(M, dtype=complex))).min(axis=-1)
    return float(w) if w.ndim == 0 else w


# -- real coordinates -------------------------------------------------------

@functools.cache
def _phi_index(d):
    """The phi layout: slots k and n + k hold Re M[i_k, j_k] and Im M[j_k, i_k]
    for (i, j) over the strict lower triangle column by column; d slots follow."""
    j, i = np.triu_indices(d, 1)
    return i, j


@functools.cache
def _phi_gather(d):
    """Each phi slot's position in the float view of a flattened, C-ordered (d, d) complex matrix."""
    i, j = _phi_index(d)
    return np.concatenate([2 * (i * d + j), 2 * (j * d + i) + 1, 2 * (d + 1) * np.arange(d)])


@functools.cache
def _unphi_gather(d):
    """For each entry of a (d, d) matrix in row-major order, its position among the
    [upper entries, lower entries, diagonal] that :func:`unvectorize_phi` builds."""
    i, j = _phi_index(d)
    return np.argsort(np.concatenate([j * d + i, i * d + j, (d + 1) * np.arange(d)]))


def vectorize_phi(M):
    """phi(M), or the (..., d^2) array of phi over a (..., d, d) stack."""
    M = np.ascontiguousarray(M, dtype=complex)
    # take keeps a stack's rows in C order (fancy indexing would not), and BLAS sums over them follow their layout
    return M.reshape(M.shape[:-2] + (-1,)).view(float).take(_phi_gather(M.shape[-1]), axis=-1)


def unvectorize_phi(v, d):
    """The Hermitian matrix with phi coordinates v, or the (..., d, d) stack of them over a (..., d^2) array."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (d * d,):
        raise ValueError(f"expected {d * d} coordinates, got an array of shape {v.shape}")
    n = d * (d - 1) // 2
    re, im = v[..., :n], 1j * v[..., n:2 * n]
    parts = np.concatenate([re + im, re - im, v[..., 2 * n:]], axis=-1)
    return parts.take(_unphi_gather(d), axis=-1).reshape(v.shape[:-1] + (d, d))


@functools.cache
def trace_slots(d):
    """Coordinate indicator of the trace functional: Tr(X) = trace_slots . phi(X).

    Cached and read-only, like :func:`phi_scale`.
    """
    slots = vectorize_phi(np.eye(d))
    slots.flags.writeable = False
    return slots


@functools.cache
def phi_scale(d):
    """Diagonal of the quadratic form giving <X, W> = phi(X) . (phi_scale * phi(W)).

    Cached and read-only: every caller shares the one array per d.
    """
    scale = 2.0 - trace_slots(d)
    scale.flags.writeable = False
    return scale


def phi_dual(M):
    """phi_scale * phi(M), or its (..., d^2) array over a (..., d, d) stack."""
    M = np.asarray(M)
    return phi_scale(M.shape[-1]) * vectorize_phi(M)


@functools.cache
def hermitian_basis(d):
    """Stacked (d^2, d, d) array with slice k the Hermitian matrix of coordinate k."""
    return unvectorize_phi(np.eye(d * d), d)


# -- quantum measurements ----------------------------------------------------

@dataclass(frozen=True)
class Measurements:
    """n two-outcome measurements as one stack: ``effects`` (n, d, d), Hermitian with
    eigenvalues in [0, 1], and their ``outcomes`` (n,) in [0, 1].

    Other shapes raise :class:`bisons.geometry.InvalidReturnsError` naming
    them.  The whole stack is checked at once, and the first bad measurement
    raises it with its ``index`` and the message of its first failed check,
    as if it were checked alone.  The effects kept are hermitized.
    """

    effects: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        E = np.asarray(self.effects, dtype=complex)
        b = np.asarray(self.outcomes, dtype=float)
        if E.ndim != 3 or b.shape != E.shape[:1] or E.shape[-1] != E.shape[-2]:
            raise InvalidReturnsError(f"need (n, d, d) effects and n outcomes, got shapes {E.shape} and {b.shape}")
        hermitian = np.abs(E - E.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= HERMITIAN_TOL
        H = hermitize(E)
        # the eigenvalue check runs on the effects before the first non-Hermitian one
        w = np.linalg.eigvalsh(H[: int(hermitian.argmin()) if not hermitian.all() else len(H)])
        lo, hi = w.min(axis=-1), w.max(axis=-1)
        reject_first_failure([
            ("effect must be Hermitian", ~hermitian),
            (lambda k: f"effect eigenvalues must lie in [0, 1], got [{lo[k]}, {hi[k]}]",
             (lo < -PSD_TOL) | (hi > 1.0 + PSD_TOL)),
            (lambda k: f"outcome must lie in [0, 1], got {b[k]}", ~((0.0 <= b) & (b <= 1.0))),
        ])
        object.__setattr__(self, "effects", H)
        object.__setattr__(self, "outcomes", b)

    def __len__(self):
        return len(self.outcomes)


def reduce_measurement(meas, rng=None):
    """Turn :class:`Measurements` into the (n, d, d) stack of their PSD loss matrices.

    For outcomes in {0, 1} the reduction R = b E + (1-b)(I - E) is
    deterministic.  For fractional outcomes a Bernoulli(b) sample y gives
    R = (y/b) E + ((1-y)/(1-b))(I - E), whose expected log loss equals the
    KL-style loss of the fractional outcome; the m fractional outcomes draw
    one uniform variate each, in stack order, with one ``rng.random(m)``
    (the same variates, and the same generator state after, as m single
    draws).  Trace normalization is left to the consumer.
    """
    E, b = meas.effects, meas.outcomes
    R = np.eye(E.shape[-1], dtype=complex) - E
    one = b == 1.0
    R[one] = E[one]
    frac = np.flatnonzero((b != 0.0) & ~one)
    if frac.size:
        if rng is None:
            raise MissingRandomnessError("fractional outcome requires an rng for the Bernoulli draw")
        bf = b[frac]
        y = (rng.random(frac.size) < bf).astype(float)
        R[frac] = (y / bf)[:, None, None] * E[frac] + ((1.0 - y) / (1.0 - bf))[:, None, None] * R[frac]
    return R


# -- random generation helpers ----------------------------------------------
# The random matrices draw their unitary, then their spectrum (arguments are evaluated in order).

def random_hermitian(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return hermitize(A)


def random_unitary(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Qm, R = np.linalg.qr(A)
    return Qm * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_pd(rng, d, eig_low=0.1, eig_high=2.0):
    return rebuild(random_unitary(rng, d), rng.uniform(eig_low, eig_high, size=d))


def random_effect(rng, d):
    return rebuild(random_unitary(rng, d), rng.uniform(0.0, 1.0, size=d))


def random_density(rng, d):
    return rebuild(random_unitary(rng, d), rng.dirichlet(np.ones(d)))
