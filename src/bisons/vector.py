"""Epoch-structured FTRL over biased quadratic surrogates (the BISONS algorithm).

Each epoch runs two follow-the-regularized-leader solves per round on
accumulated quadratic objectives with the log barrier: the played point
minimizes the *biased* accumulation (surrogates minus the linear bias
term B <x, p_tau - p_{tau-1}>) and a reference comparator minimizes the
unbiased one.  The two objectives differ only in their linear terms, so
they are the two members of one quadratic objective, which holds their
quadratic part once; a round adds its surrogate to both and solves them as
one stack of two (see :mod:`bisons.solver`).  The
per-asset bias p records the worst inverse weight seen in the epoch,
p_tau,i = max(p_{tau-1,i}, 1/x_tau,i), and the epoch resets once some
coordinate of the comparator crosses the bias-scaled threshold

    2 (1 + 6 eta) beta * u_i * p_i >= 1,

boundary inclusive.  Resets discard all accumulated state, so memory stays
O(d^2) regardless of the horizon.

The first iterate of every epoch is uniform, so the implicit p_1 equals
p_0 = d*1 and the first round carries no bias increment.

The epoch engine here (params, state, round, run loop, stability monitor,
result) also runs Schrodinger's BISONS: it takes a domain, :class:`Simplex`
here or :class:`bisons.quantum.Spectraplex`, that supplies only what
differs.  The monitor's checks are written in the Loewner order, and the
simplex runs them as their diagonal case.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .geometry import BETA_MAX, InvalidReturnsError, log_loss_and_gradient, normalize_returns, uniform_portfolio
from .geometry import log_loss  # noqa: F401  (no longer called here; bench/tracer.py still wraps vector.log_loss)
from .solver import ROUND_ERRORS, QuadraticObjective, default_tol, minimize_simplex, prefixed

ETA_CAP = 1.0 / 63.0
_REL_SLACK = 1.0 + 1e-12


class ParameterError(ValueError):
    """Raised when algorithm parameters violate the admissible region."""


@dataclass(frozen=True)
class BisonsParams:
    """A parameter tuple of the admissible region; building any other raises :class:`ParameterError`."""

    d: int
    T: int
    B: float
    eta: float
    beta: float

    min_d = 2

    def __post_init__(self):
        if self.d < self.min_d:
            raise ParameterError(f"dimension must be at least {self.min_d}, got {self.d}")
        if self.T < 110 * self.d * self.d:
            raise ParameterError(f"horizon too small: T >= 110*d^2 = {110 * self.d * self.d} required")
        if not 0.0 < self.beta <= BETA_MAX * _REL_SLACK:
            raise ParameterError(f"beta must lie in (0, sqrt(2)-1], got {self.beta}")
        if not self.B > 0.0:
            raise ParameterError(f"bias scale B must be positive, got {self.B}")
        cap = min(1.0 / (4.0 * self.B), self.beta / 4.0, ETA_CAP)
        if not 0.0 < self.eta <= cap * _REL_SLACK:
            raise ParameterError(f"eta must lie in (0, min(1/4B, beta/4, 1/63)] = (0, {cap}], got {self.eta}")
        if self.T < max(2 * self.d, 1.0 / self.beta):
            raise ParameterError(f"horizon too small: T >= max(2d, 1/beta) = {max(2 * self.d, 1.0 / self.beta)}")

    @classmethod
    def tuned(cls, d, T, s):
        """The default tuning B = (264/5) d s ln T, eta = 1/(4B), beta = 11 s/(7B), for T >= 110 d^2,
        with s = 1 on the simplex and s = d on the spectraplex."""
        if T < 110 * d * d:
            raise ParameterError(f"T >= 110*d^2 = {110 * d * d} required, got {T}")
        B = (264.0 / 5.0) * d * s * math.log(T)
        return cls(d=d, T=T, B=B, eta=1.0 / (4.0 * B), beta=11.0 * s / (7.0 * B))

    @property
    def reset_factor(self):
        return 2.0 * (1.0 + 6.0 * self.eta) * self.beta


def default_params(d, T):
    """Parameter tuning giving the O(d^2 log^2 T) regret guarantee."""
    return BisonsParams.tuned(d, T, 1)


class Simplex:
    """The probability simplex with the log barrier, the domain of BISONS.

    A domain supplies what the epoch engine does not share.  Its methods
    look their functions up in this module when called, so a module
    attribute replaced at run time takes effect.
    """

    def centre(self, d):
        return uniform_portfolio(d), np.full(d, float(d))

    def ingest(self, stream, rng):
        return normalize_returns(stream)

    def loss(self, x, r):
        loss, g = log_loss_and_gradient(x, r)
        return loss, g, float(np.dot(x, g))

    def bias_coords(self, dp):
        return dp

    def solve(self, obj, warm_starts, tol):
        return minimize_simplex(obj, warm_start=warm_starts, tol=tol)

    def update_bias(self, p, x_next):
        return update_bias(p, x_next)

    def check_reset(self, u_next, p_next, params):
        return check_reset(u_next, p_next, params)

    def monitor(self, params):
        return StabilityMonitor(params)

    def round(self, state, r, params):
        return bisons_round(state, r, params)


SIMPLEX = Simplex()


@dataclass
class EpochState:
    """Mutable per-epoch accumulators; reset wholesale on epoch boundaries.

    ``objective`` has two members: the biased objective (row 0 of its
    ``lin``), whose minimizer is the play, and the unbiased one (row 1),
    whose minimizer is the comparator.
    """

    p: np.ndarray
    p_prev: np.ndarray
    objective: QuadraticObjective
    x_cur: np.ndarray
    u_cur: np.ndarray


def initial_state(params, domain=SIMPLEX):
    """Fresh epoch at the domain's centre; the objective lives in x.size real coordinates."""
    x, p = domain.centre(params.d)
    return EpochState(p=p, p_prev=p.copy(), objective=QuadraticObjective.zeros(x.size, 1.0 / params.eta, 2),
                      x_cur=x, u_cur=x.copy())


#: What a round reports: its loss, whether it ended the epoch, and its solved (x_next, u_next, p_next).
RoundRecord = namedtuple("RoundRecord", "loss reset_triggered solution")


def update_bias(p, x_next):
    """p'_i = max(p_i, 1/x_next_i); the bias never decreases within an epoch."""
    if x_next.min() <= 0.0:
        raise ValueError("bias update needs a strictly interior point")
    return np.maximum(p, 1.0 / x_next)


def check_reset(u_next, p_next, params):
    """True iff some coordinate satisfies 2(1+6eta)beta * u_i * p_i >= 1."""
    return bool((params.reset_factor * u_next * p_next >= 1.0).any())


def bisons_round(state, r_t, params, domain=SIMPLEX):
    """Advance one round: play ``state.x_cur``, suffer the loss, refresh both FTRL solutions, update the bias.

    ``r_t`` must already be ingested by ``domain`` (by default normalized
    onto the simplex); both solves run at ``default_tol(params.T)``.  Returns
    the next state (a fresh epoch state on a reset) and the :class:`RoundRecord`.
    """
    x = state.x_cur
    loss, g, m = domain.loss(x, r_t)

    state.objective.add_surrogate(g, loss, m, params.beta)
    dp = state.p - state.p_prev
    if dp.any():
        state.objective.lin[0] += -params.B * domain.bias_coords(dp)

    x_next, u_next = domain.solve(state.objective, (x, state.u_cur), default_tol(params.T)).minimizer
    p_next = domain.update_bias(state.p, x_next)
    reset = domain.check_reset(u_next, p_next, params)

    record = RoundRecord(loss, reset, (x_next, u_next, p_next))
    if reset:
        return initial_state(params, domain=domain), record
    state.x_cur = x_next
    state.u_cur = u_next
    state.p_prev = state.p
    state.p = p_next
    return state, record


#: Rounds a stability monitor buffers before it checks them all with stacked array calls.
MONITOR_CHUNK = 128


@dataclass
class StabilityMonitor:
    """Checks of the stability guarantees, a chunk of rounds at a time; collects violations.

    The checks are written in the Loewner order, and the simplex is their
    diagonal case.  Within an epoch and at tolerance ``tol`` (1e-9 for the
    inverse play): successive plays stay within a (1+6 eta) ratio of each
    other, the bias grows by at most that ratio and never decreases, the
    comparator at most doubles, the bias dominates the inverse play and
    stays below T^2, and the bias increment's norm at the new play is at
    most the play increment's at the old inverse play.  A domain's monitor
    supplies ``least`` (the least entry; the least eigenvalue), ``inverse``
    and ``a_norm`` (:func:`bisons.hermitian.a_norm`) over stacks of rounds.

    ``observe`` copies a round's arrays into a buffer and checks the
    buffered rounds once it holds ``MONITOR_CHUNK`` of them; ``flush``
    checks the rest, and :func:`run_epochs` calls it before it returns, so
    ``violations`` is complete then.  Messages are ordered by round and,
    within a round, by check, as if each round were checked on arrival.
    """

    params: BisonsParams
    violations: list = field(default_factory=list)
    _t: list = field(default_factory=list, init=False, repr=False, compare=False)
    _buf: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    tol = 1e-8
    dtype = float
    checks = (
        "play ratio outside 1+6eta",
        "bias grew faster than 1+6eta",
        "bias decreased",
        "comparator more than doubled",
        "bias below inverse play",
        "bias above T^2",
        "bias increment norm above play increment norm",
    )

    least = staticmethod(lambda M: M.min(axis=-1))
    inverse = staticmethod(lambda M: 1.0 / M)
    a_norm = staticmethod(lambda W, A: np.sqrt(((A * W) ** 2).sum(axis=-1)))

    def observe(self, t, x_old, u_old, p_old, x_next, u_next, p_next):
        """Buffer round t's arrays; check the buffered rounds once there are MONITOR_CHUNK."""
        arrays = (x_old, u_old, p_old, x_next, u_next, p_next)
        if self._buf is None:
            self._buf = np.empty((len(arrays), MONITOR_CHUNK) + np.shape(x_old), dtype=self.dtype)
        k = len(self._t)
        self._buf[:, k] = arrays
        self._t.append(t)
        if k + 1 == MONITOR_CHUNK:
            self.flush()

    def flush(self):
        """Check the buffered rounds and empty the buffer."""
        if self._t:
            failed = self._failed(*self._buf[:, :len(self._t)])
            self.violations.extend(f"t={self._t[i]}: {self.checks[j]}" for i, j in zip(*np.nonzero(failed)))
            self._t.clear()

    def _failed(self, X_old, U_old, P_old, X_next, U_next, P_next):
        """(rounds, checks) mask of the failed checks, over stacks of rounds."""
        ratio = 1.0 + 6.0 * self.params.eta
        tol = self.tol
        Xinv_next, Xinv_old = np.moveaxis(self.inverse(np.stack([X_next, X_old], axis=1)), 1, 0)
        # each difference's least entry or eigenvalue falls below minus its bound when its check fails
        below = self.least(np.stack([
            ratio * X_next - X_old,
            ratio * X_old - X_next,
            ratio * P_old - P_next,
            P_next - P_old,
            2.0 * U_old - U_next,
            P_next - Xinv_next,
            -P_next,
        ], axis=1)) < -np.array([tol, tol, tol, tol, tol, 1e-9, self.params.T**2 + tol])
        lhs, rhs = np.moveaxis(self.a_norm(np.stack([P_next - P_old, X_next - X_old], axis=1),
                                           np.stack([X_next, Xinv_old], axis=1)), 1, 0)
        return np.column_stack([below[:, 0] | below[:, 1], below[:, 2:], lhs > rhs + tol])


@dataclass
class RunResult:
    """Per-round ``losses``, ``resets``, ``plays`` and ``inputs`` (row t-1 is round t); kept states, violations.

    ``inputs`` is the stack the rounds were played on: the normalized returns
    on the simplex, the trace-one loss matrices on the spectraplex (whose
    reduced measurements are random, so the comparator needs them).
    """

    losses: np.ndarray
    resets: np.ndarray
    plays: np.ndarray
    inputs: np.ndarray
    states: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def reset_times(self):
        return (np.flatnonzero(self.resets) + 1).tolist()


def run_epochs(domain, stream, params, rng=None, keep_states=False):
    """Run the epoch scheme on ``domain`` over a sequence of raw inputs.

    The whole sequence is ingested (with ``rng``, in sequence order) before
    round 1; an input with no length, such as an iterator or a scalar,
    raises :class:`InvalidReturnsError` naming its type, and the first bad
    input of a stack raises it naming its round.  The ingested stack must
    hold one input of the play's shape per round, else
    :class:`InvalidReturnsError` is raised, and at most T of them, else a
    ValueError is.  An error a round raises (a solver
    failure, an arithmetic error such as a vanishing inner product, or a
    ValueError) is raised again as its own type, its message prefixed with
    the round, epoch and internal time, and the original as its cause.  The
    domain's stability monitor checks every round; the result keeps its
    violations.
    """
    mon = domain.monitor(params)
    state = initial_state(params, domain=domain)
    x = state.x_cur
    try:
        n = len(stream)
    except TypeError:
        raise InvalidReturnsError(f"need a stack of inputs, got a {type(stream).__name__} with no length") from None
    try:
        inputs = domain.ingest(stream, rng) if n else np.empty((0,) + x.shape, x.dtype)
    except InvalidReturnsError as exc:
        if exc.index is None:
            raise
        raise prefixed(exc, f"t={exc.index + 1}: ") from exc
    if inputs.shape[1:] != x.shape:
        raise InvalidReturnsError(f"need one input of shape {x.shape} per round, got an array of shape {inputs.shape}")
    n = len(inputs)
    if n > params.T:
        raise ValueError(f"stream longer than the horizon T={params.T}")
    result = RunResult(np.empty(n), np.empty(n, dtype=bool), np.empty((n,) + x.shape, x.dtype), inputs)
    for t, r in enumerate(inputs, start=1):
        x_old, u_old, p_old = state.x_cur, state.u_cur, state.p
        result.plays[t - 1] = x_old
        try:
            state, out = domain.round(state, r, params)
        except ROUND_ERRORS as exc:
            ends = np.flatnonzero(result.resets[:t - 1]) + 1  # the rounds that ended an epoch so far
            tau = t - ends[-1] if ends.size else t
            raise prefixed(exc, f"t={t} (epoch {ends.size + 1}, tau {tau}): ") from exc
        result.losses[t - 1], result.resets[t - 1] = out.loss, out.reset_triggered
        mon.observe(t, x_old, u_old, p_old, *out.solution)
        if keep_states:
            result.states.append(out.solution)
    mon.flush()
    result.violations = mon.violations
    return result


def run_bisons(returns, params, keep_states=False):
    """Run the algorithm over a sequence of returns vectors, normalized before round 1."""
    return run_epochs(SIMPLEX, returns, params, keep_states=keep_states)
