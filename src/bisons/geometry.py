"""Simplex geometry, log losses and their quadratic surrogates.

The learner's action set is the probability simplex.  Each round the
environment reveals a nonnegative returns vector r and the learner playing
x suffers -log<x, r>.  Multiplicative rescaling of r only shifts the loss
by a constant, so returns are normalized onto the simplex on ingestion and
the shift is discarded.

A round's loss is modelled by the quadratic surrogate anchored at the
played point x_t,

    fhat(x) = f(x_t) + <x - x_t, g> + (beta/2) <x - x_t, g>^2,

with g = -r / <x_t, r>.  In the scalar reward coordinate w = <x, r> the
surrogate becomes a parabola hat_h(w); truncating it to its tangent beyond
the kink w = y_t / beta yields a global lower bound on -log(w), which is
what makes the epoch regret analysis work.
"""

import math
from dataclasses import dataclass

import numpy as np

#: Largest admissible surrogate curvature.
BETA_MAX = math.sqrt(2.0) - 1.0

_SUM_TOL = 1e-12
_TINY_INNER = 1e-300


class InvalidReturnsError(ValueError):
    """Raised for returns vectors, loss matrices or measurements outside their admissible set.

    Raised for a stack of them, ``index`` is the position of the first bad one; otherwise it is None.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def reject_first_failure(checks, stacked):
    """Raise :class:`InvalidReturnsError` for the first item that fails one of ``checks``.

    ``checks`` lists (message, mask) pairs in the order one item is checked,
    each mask flagging the items that fail that check; a mask may cover only
    the items before the first one an earlier check rejects.  A message is a
    string, or a function of the item's index that gives one.  The message is
    that of the item's first failed check, so a stack is rejected as the
    first bad item would be alone.
    """
    first = None
    for message, mask in checks:
        bad = np.flatnonzero(mask)
        if bad.size and (first is None or bad[0] < first[0]):
            first = (int(bad[0]), message)
    if first is not None:
        index, message = first
        raise InvalidReturnsError(message(index) if callable(message) else message,
                                  index=index if stacked else None)


class InfiniteLossError(ArithmeticError):
    """Raised when the realized inner product underflows to (essentially) zero."""


def uniform_portfolio(d):
    return np.full(d, 1.0 / d)


def normalize_returns(raw):
    """Scale a nonnegative returns vector, or each row of an (n, d) stack, onto the simplex.

    The induced loss shift -log(sum(raw)) is constant in the action and is
    dropped; regret against any comparator is unchanged.  A row whose sum is
    already 1 to within 1e-12 is returned as it is.
    """
    raw = np.ascontiguousarray(raw, dtype=float)
    if raw.ndim not in (1, 2):
        raise InvalidReturnsError("returns must be a vector or a stack of vectors")
    rows = raw.reshape(-1, raw.shape[-1])
    finite = np.isfinite(rows).all(axis=-1)
    # the later checks run on the rows before the first non-finite one
    head = rows[: int(finite.argmin()) if not finite.all() else len(rows)]
    s = head.sum(axis=-1)
    reject_first_failure([("returns entries must be finite", ~finite),
                          ("returns entries must be nonnegative", (head < 0.0).any(axis=-1)),
                          ("returns vector must have a positive entry", ~(s > 0.0))], raw.ndim == 2)
    out = rows / s[:, None]
    np.copyto(out, rows, where=np.abs(s - 1.0)[:, None] <= _SUM_TOL)
    return out.reshape(raw.shape)


def neg_log_inner(ip):
    """-log ip for an inner product ip, <x, r> or Tr(X R); raises InfiniteLossError when it vanishes."""
    if ip < _TINY_INNER:
        raise InfiniteLossError("inner product <x, r> is zero to machine precision")
    return -math.log(ip)


def log_loss(x, r):
    """-log<x, r>; raises InfiniteLossError when the inner product vanishes."""
    return neg_log_inner(float(np.dot(x, r)))


def log_loss_and_gradient(x, r):
    """-log<x, r> and its gradient -r / <x, r>, from one inner product; raises as :func:`log_loss` does."""
    ip = float(np.dot(x, r))
    return neg_log_inner(ip), -r / ip


@dataclass(frozen=True)
class SurrogateQuad:
    """Quadratic surrogate of one round's log loss, anchored at the played point.

    anchor_value  f(x_t)
    anchor_reward y_t = <x_t, r>
    curvature     beta in (0, sqrt(2)-1]
    """

    anchor_value: float
    anchor_reward: float
    curvature: float

    @property
    def kink(self):
        """Reward coordinate where the lower surrogate switches to its tangent."""
        return self.anchor_reward / self.curvature

    def hat_h(self, w):
        """The surrogate as a function of the scalar reward w = <x, r>."""
        y = self.anchor_reward
        dw = w - y
        return self.anchor_value - dw / y + 0.5 * self.curvature * (dw / y) ** 2

    def hat_h_prime(self, w):
        y = self.anchor_reward
        return -1.0 / y + self.curvature * (w - y) / (y * y)

    def lower_hat_h(self, w):
        """hat_h truncated to its tangent beyond the kink; lower bounds -log(w)."""
        k = self.kink
        if w <= k:
            return self.hat_h(w)
        return self.hat_h(k) + (w - k) * self.hat_h_prime(k)


def build_surrogate(x_t, r_t, beta):
    """Construct the quadratic surrogate for the round (x_t, r_t)."""
    if not 0.0 < beta <= BETA_MAX + 1e-15:
        raise ValueError(f"curvature must lie in (0, sqrt(2)-1], got {beta}")
    x_t = np.asarray(x_t, dtype=float)
    r_t = np.asarray(r_t, dtype=float)
    y = float(np.dot(x_t, r_t))
    if y < _TINY_INNER:
        raise InfiniteLossError("anchor reward <x_t, r_t> is zero to machine precision")
    return SurrogateQuad(
        anchor_value=-math.log(y),
        anchor_reward=y,
        curvature=float(beta),
    )
