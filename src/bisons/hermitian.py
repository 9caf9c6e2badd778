"""Hermitian matrix algebra for learning over trace-one PSD matrices.

Everything here treats d x d complex Hermitian matrices as a real vector
space of dimension d^2.  The fixed coordinate map ``vectorize_phi`` lists,
in order: real parts of the strict lower triangle (column major), then the
matching imaginary parts taken from the upper triangle, then the (real)
diagonal.  For d=2 and M = [[a, x+iy], [x-iy, b]] this gives (x, y, a, b).
Under this map <X, W> = Tr(XW) equals phi(X) . phi_dual(W) where phi_dual
doubles the off-diagonal slots; that diagonal rescaling is the only place
the coordinate convention leaks out.
"""

import functools
from dataclasses import dataclass

import numpy as np


class ConditioningError(ArithmeticError):
    """Raised when an input is too close to singular for the requested operation."""


class MissingRandomnessError(ValueError):
    """Raised when a randomized reduction is requested without a generator."""


def hermitize(M):
    """The Hermitian part of M, or of each slice of a (..., d, d) stack."""
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def is_hermitian(M):
    M = np.asarray(M)
    return M.shape[0] == M.shape[1] and np.abs(M - M.conj().T).max() <= 1e-12


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


def positive_part(M):
    """Zero out the negative eigenvalues of a Hermitian matrix.

    Eigenvalues in (-1e-12, 0) are treated as exact zeros so roundoff noise
    cannot inflate the rank of M_+ - M.
    """
    w, V = np.linalg.eigh(hermitize(np.asarray(M, dtype=complex)))
    w = np.where(w > 0.0, w, 0.0)
    return hermitize((V * w) @ V.conj().T)


def sqrt_psd(M):
    """The PSD square root of M, or of each slice of a (..., d, d) stack."""
    w, V = np.linalg.eigh(hermitize(np.asarray(M, dtype=complex)))
    w = np.sqrt(np.clip(w, 0.0, None))
    return hermitize((V * w[..., None, :]) @ V.conj().swapaxes(-1, -2))


def a_norm(W, A):
    """The seminorm sqrt(Tr(WAWA)) = ||A^{1/2} W A^{1/2}||_F for PSD A.

    On (..., d, d) stacks, the array of the slices' seminorms; each slice's
    norm is taken alone, so it equals the single-matrix value bit for bit.
    """
    S = sqrt_psd(A)
    H = S @ W @ S
    if H.ndim == 2:
        return float(np.linalg.norm(H))
    return np.array([np.linalg.norm(h) for h in H.reshape((-1,) + H.shape[-2:])]).reshape(H.shape[:-2])


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
    """The phi layout over the flattened matrix: each slot's entry, and whether it takes the imaginary part."""
    i, j = _phi_index(d)
    slots = np.arange(d * d)
    return np.concatenate([i * d + j, j * d + i, slots[:d] * (d + 1)]), (i.size <= slots) & (slots < 2 * i.size)


def vectorize_phi(M):
    """phi(M), or the (..., d^2) array of phi over a (..., d, d) stack."""
    M = np.asarray(M, dtype=complex)
    entries, imag = _phi_gather(M.shape[-1])
    # np.take keeps a stack's rows in C order (fancy indexing would not), and BLAS sums over them follow their layout
    v = np.take(M.reshape(M.shape[:-2] + (-1,)), entries, axis=-1)
    return np.where(imag, v.imag, v.real)


def unvectorize_phi(v, d):
    v = np.asarray(v, dtype=float)
    if v.size != d * d:
        raise ValueError(f"expected {d * d} coordinates, got {v.size}")
    i, j = _phi_index(d)
    n = i.size
    M = np.zeros((d, d), dtype=complex)
    M[j, i] = v[:n] + 1j * v[n:2 * n]
    M[i, j] = v[:n] - 1j * v[n:2 * n]
    M[np.diag_indices(d)] = v[2 * n:]
    return M


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
    eye = np.eye(d * d)
    return np.stack([unvectorize_phi(eye[k], d) for k in range(d * d)])


# -- quantum measurement reductions -----------------------------------------

@dataclass(frozen=True)
class MeasurementEvent:
    """A two-outcome measurement (eigenvalues of ``effect`` in [0, 1]) and its outcome."""

    effect: np.ndarray
    outcome: float

    def __post_init__(self):
        E = np.asarray(self.effect, dtype=complex)
        if not is_hermitian(E):
            raise ValueError("effect must be Hermitian")
        w = np.linalg.eigvalsh(hermitize(E))
        if w.min() < -1e-10 or w.max() > 1.0 + 1e-10:
            raise ValueError(f"effect eigenvalues must lie in [0, 1], got [{w.min()}, {w.max()}]")
        if not 0.0 <= self.outcome <= 1.0:
            raise ValueError(f"outcome must lie in [0, 1], got {self.outcome}")
        object.__setattr__(self, "effect", hermitize(E))


def reduce_measurement(ev, rng=None):
    """Turn a measurement event into a PSD loss matrix.

    For outcomes in {0, 1} the reduction R = b E + (1-b)(I - E) is
    deterministic.  For fractional outcomes a Bernoulli(b) sample y gives
    R = (y/b) E + ((1-y)/(1-b))(I - E), whose expected log loss equals the
    KL-style loss of the fractional outcome; one uniform variate is drawn
    per call.  Trace normalization is left to the consumer.
    """
    b = ev.outcome
    E = ev.effect
    eye = np.eye(E.shape[0], dtype=complex)
    if b == 1.0:
        return E.copy()
    if b == 0.0:
        return eye - E
    if rng is None:
        raise MissingRandomnessError("fractional outcome requires an rng for the Bernoulli draw")
    y = 1.0 if rng.random() < b else 0.0
    return (y / b) * E + ((1.0 - y) / (1.0 - b)) * (eye - E)


# -- random generation helpers ----------------------------------------------

def random_hermitian(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return hermitize(A)


def random_unitary(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Qm, R = np.linalg.qr(A)
    return Qm * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_pd(rng, d, eig_low=0.1, eig_high=2.0):
    V = random_unitary(rng, d)
    w = rng.uniform(eig_low, eig_high, size=d)
    return hermitize((V * w) @ V.conj().T)


def random_effect(rng, d):
    V = random_unitary(rng, d)
    w = rng.uniform(0.0, 1.0, size=d)
    return hermitize((V * w) @ V.conj().T)


def random_density(rng, d):
    V = random_unitary(rng, d)
    w = rng.dirichlet(np.ones(d))
    return hermitize((V * w) @ V.conj().T)
