"""Log-barrier FTRL on true log losses and the sequence generator that hurts it.

The player keeps the full returns history (true losses are not quadratic)
and each round plays the barrier-FTRL argmin.  The adversary walks the
player through a fixed list of boundary targets: for every target t_i,
repetition k and layer s it steers the player onto the pulled-in point
t_i^(s) = c_s t_i + (1-c_s) c using small "movement" returns whose
projected norm never exceeds T^{-1/2}, then fires the paired return
o_i^(s) that is (nearly) orthogonal to the target.  Steering is gradient
cancellation: a movement return is chosen parallel to the projected
gradient of the accumulated objective at the target and scaled so the new
gradient either shrinks by the largest amount a movement return allows or
vanishes outright; "the player sits at the target" is exactly
||Pi grad F(target)|| <= 1e-12.

Per-round stability terms ||grad_Pi f_t(x_t)||^2 in the inverse Hessian
norm of the accumulated objective (losses through round t plus barrier)
both lower- and upper-bound the player's regret, which is what the
diagnostics here measure.  Pi is the chart :func:`pi_basis`: its rows are an
orthonormal basis of the directions of the simplex's affine hull, so Pi x
is a point's chart coordinate and Pi^T v + 1/d lifts one back.  A round's
error, one of the shared :data:`~bisons.solver.ROUND_ERRORS`, is raised
again as its own type with ``t=k: `` in front.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from .geometry import log_loss, uniform_portfolio
from .solver import ROUND_ERRORS, LogLossHistory, minimize_simplex, minimize_simplex_history, prefixed

TARGET_GRAD_TOL = 1e-12


class InfeasibleMovementError(ArithmeticError):
    """A movement return left the simplex; surfaced rather than clipped."""


@functools.cache
def pi_basis(d):
    """The chart Pi: (d-1, d) Gram-Schmidt rows over e_i - e_d, orthonormal and orthogonal to the
    all-ones vector, so the centre 1/d maps to 0.  Cached and read-only, like :func:`~bisons.hermitian.trace_slots`."""
    if d < 2:
        raise ValueError("need dimension >= 2")
    rows = []
    for i in range(d - 1):
        v = np.zeros(d)
        v[i], v[-1] = 1.0, -1.0
        for q in rows:
            v = v - np.dot(q, v) * q
        rows.append(v / np.linalg.norm(v))
    U = np.array(rows)
    U.flags.writeable = False
    return U


# -- target sequence ----------------------------------------------------------

def build_target_sequence_exact(d):
    """All 2^d - 2 (target, outcome) pairs in exact rationals.

    Targets enumerate, for k = 1..d-1 in increasing k and lexicographic
    support order within each k, the uniform distributions on k-subsets;
    the outcome is the uniform distribution on the complementary support.
    """
    if not 2 <= d <= 12:
        raise ValueError("target construction supported for 2 <= d <= 12")
    pairs = []
    for k in range(1, d):
        for support in combinations(range(d), k):
            t = tuple(Fraction(1, k) if i in support else Fraction(0) for i in range(d))
            o = tuple(Fraction(0) if i in support else Fraction(1, d - k) for i in range(d))
            pairs.append((t, o))
    return pairs


def validate_target_sequence_exact(pairs, d):
    """Exact-rational validity: <t_i, o_i> = 0 and <t_i, o_j> >= 1/d^2 for j < i.

    Entries are scaled by L, the lcm of their denominators, to Python
    integers, so G[i, j] = <L t_i, L o_j> = L^2 <t_i, o_j> exactly and the
    bound reads G[i, j] d^2 >= L^2.
    """
    L = math.lcm(*(Fraction(v).denominator for pair in pairs for vec in pair for v in vec))
    Ts, Os = (np.array([[int(Fraction(v) * L) for v in pair[k]] for pair in pairs], dtype=object) for k in (0, 1))
    G = Ts @ Os.T
    for i in range(len(pairs)):
        if G[i, i] != 0:
            return False, f"<t_{i}, o_{i}> != 0"
        low = np.flatnonzero(G[i, :i] * (d * d) < L * L)
        if low.size:
            return False, f"<t_{i}, o_{low[0]}> = {Fraction(G[i, low[0]], L * L)} < 1/d^2"
    return True, ""


@dataclass
class AdversaryPlan:
    """Targets, layer scalings and horizon bookkeeping for the bad sequence."""

    d: int
    alpha: float
    T: int
    targets: list
    targets_exact: list
    layer_count: int
    scales: np.ndarray

    @classmethod
    def build(cls, d, T, alpha):
        if T < 1:
            raise ValueError(f"horizon T must be at least 1, got {T}")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        layer_count = int(math.floor((alpha / 3.0) * math.log2(T)))
        scales = 1.0 - 2.0 ** np.arange(layer_count + 1) * T ** (-alpha)
        if scales.min() <= 0.0 or scales.max() >= 1.0:
            raise ValueError("layer scalings left (0, 1); horizon too small for alpha")
        exact = build_target_sequence_exact(d)
        ok, msg = validate_target_sequence_exact(exact, d)
        if not ok:
            raise ValueError(f"invalid target sequence: {msg}")
        pairs = [(np.array(t, dtype=float), np.array(o, dtype=float)) for t, o in exact]
        return cls(d=d, alpha=alpha, T=T, targets=pairs, targets_exact=exact,
                   layer_count=layer_count, scales=scales)

    @property
    def repetitions(self):
        return max(1, int(math.floor(self.T ** self.alpha)))

    def export(self, path):
        """One target/outcome pair per line as exact rationals, pipe separated."""
        with open(path, "w") as fh:
            fh.write(f"# d={self.d} alpha={self.alpha!r} T={self.T} layers={self.layer_count}\n")
            for t, o in self.targets_exact:
                fh.write(",".join(str(v) for v in t) + "|" + ",".join(str(v) for v in o) + "\n")


def pull_to_center(x, s, plan):
    """x^(s) = c_s x + (1 - c_s) c; layer s in 0..layer_count."""
    c_s = plan.scales[s]
    return c_s * x + (1.0 - c_s) / plan.d


# -- the player ---------------------------------------------------------------

def lbftrl_play(history, warm_start=None):
    """Barrier-FTRL argmin of the accumulated true log losses.

    ``history`` is a :class:`LogLossHistory` with barrier weight 1/eta; it
    is solved in place, keeping its cache.
    """
    if history.n == 0:
        return uniform_portfolio(history.dim)
    return minimize_simplex(history, warm_start=warm_start).minimizer


def grad_pi_objective(x, history, barrier_grad, U):
    """Projected gradient of the accumulated objective (losses + barrier) at x.

    ``history`` is an (n, d) array of returns and ``barrier_grad`` the
    barrier's gradient -1/(eta x), which a caller evaluating at one x many
    times computes once.
    """
    return U @ (barrier_grad - history.T @ (1.0 / (history @ x)))


def barrier_pi_hessian(x, eta, U):
    """The barrier part eta^{-1} Pi diag(1/x^2) Pi^T of the projected Hessian; over (n, d) plays, its stack."""
    return (1.0 / eta) * (U / x[..., None, :] ** 2) @ U.T


def assemble_pi_hessian(x, history, eta, U):
    """Projected Hessian sum_s (Pi r_s)(Pi r_s)^T / <x, r_s>^2 + eta^{-1} barrier part; ``history`` is (n, d)."""
    PR = history @ U.T
    return barrier_pi_hessian(x, eta, U) + (PR / (history @ x)[:, None] ** 2).T @ PR


def stability_term(grad_pi, hessian_pi):
    """||g||^2 in the inverse-Hessian norm; the Hessian is PD thanks to the barrier.

    Over stacks of gradients (..., k) and Hessians (..., k, k), the array of the terms.
    """
    g = np.asarray(grad_pi)[..., None]
    term = (np.swapaxes(g, -1, -2) @ np.linalg.solve(hessian_pi, g))[..., 0, 0]
    return term if term.ndim else float(term)


# -- adversarial sequence generation ------------------------------------------

def move_to_x(pi_target, grad_pi, T, U):
    """One movement return steering the player toward the target whose chart point is ``pi_target``.

    The projected gradient g = ``grad_pi`` must be nonzero; the generator
    stops steering once ||g|| <= TARGET_GRAD_TOL.  g is rescaled by
    min(T^{-1/2}/||g||, 1/(d max(1 - <g, Pi target>, 0))) and lifted back to
    the simplex; the first cap keeps ||Pi r|| <= T^{-1/2}, the second makes
    the post-return gradient at the target vanish exactly when it binds (an
    overshooting factor is impossible because the min never exceeds it).  A
    zero denominator means the finishing cap is inactive and the norm cap
    binds.
    """
    d = U.shape[1]
    cap_norm = T ** -0.5 / math.sqrt(float(grad_pi @ grad_pi))  # np.linalg.norm's value, without its dispatch
    denom = d * max(1.0 - float(grad_pi @ pi_target), 0.0)
    cap_finish = math.inf if denom == 0.0 else 1.0 / denom
    r = U.T @ (min(cap_norm, cap_finish) * grad_pi) + 1.0 / d
    if not r.min() >= 0.0:  # a NaN entry is rejected too
        raise InfeasibleMovementError(f"movement return left the simplex (min entry {r.min()})")
    return r


@dataclass
class GeneratedReturns:
    """The adversary's sequence: one row and movement flag per round."""

    returns: np.ndarray
    movement_flags: np.ndarray
    truncated: bool
    completed_visits: int


@dataclass
class LbftrlRun(GeneratedReturns):
    """The player's run over a sequence: its play, loss and stability term per round."""

    plays: np.ndarray
    losses: np.ndarray
    terms: np.ndarray
    eta: float


def _check_eta(eta):
    """The learning rate must be finite and positive; the barrier weight is 1/eta."""
    if not (math.isfinite(eta) and eta > 0.0):
        raise ValueError(f"eta must be finite and positive, got {eta!r}")


def generate_returns(plan, eta):
    """The adversary alone: interleave movement returns and target outcomes.

    Movement is steered by the gradient of the accumulated objective at the
    target, so the sequence depends on the history, not on the player's
    plays.  Visits iterate targets in plan order, repetitions inside targets
    and layers innermost.  Generation stops at the horizon ``plan.T`` with
    ``truncated`` set; nothing wraps around.
    """
    _check_eta(eta)
    T = plan.T
    U = pi_basis(plan.d)
    rows, flags = np.empty((T, plan.d)), np.ones(T, dtype=bool)
    n = 0  # rounds generated so far
    truncated = False
    for i, _, s in product(range(len(plan.targets)), range(plan.repetitions), range(plan.layer_count + 1)):
        tgt, out = plan.targets[i]
        tgt_s = pull_to_center(tgt, s, plan)
        barrier_grad, pi_target = -1.0 / (eta * tgt_s), U @ tgt_s  # fixed through the visit
        while n < T:
            g = grad_pi_objective(tgt_s, rows[:n], barrier_grad, U)
            if math.sqrt(float(g @ g)) <= TARGET_GRAD_TOL:
                break
            try:
                rows[n] = move_to_x(pi_target, g, T, U)
            except ROUND_ERRORS as exc:
                raise prefixed(exc, f"t={n + 1}: ") from exc
            n += 1
        if n >= T:
            truncated = True
            break
        rows[n], flags[n] = pull_to_center(out, s, plan), False
        n += 1
    return GeneratedReturns(returns=rows[:n].copy(), movement_flags=flags[:n], truncated=truncated,
                            completed_visits=int((~flags[:n]).sum()))


def _play(seq, eta):
    """The player over the rows of ``seq``: play, suffer, record stability.

    One :class:`LogLossHistory` holds the whole run.  Each solve starts at
    the previous play, where the history's cache sits, and appending the
    round's return moves the cached Hessian to the stability Hessian's
    loss part in O(d^2).  A round keeps only what depends on its play: the
    solve, the loss and that move.  The stability terms, which depend on
    no later play, are computed after the last round, in one call on the
    stacked projected gradients and Hessians.
    """
    _check_eta(eta)
    R = seq.returns
    T, d = R.shape
    U = pi_basis(d)
    history = LogLossHistory(np.empty((0, d)), 1.0 / eta, capacity=T)
    plays, losses, loss_hessians = np.empty((T, d)), np.empty(T), np.empty((T, d, d))
    x = uniform_portfolio(d)
    for t, r in enumerate(R):
        try:
            x = lbftrl_play(history, warm_start=x)
            plays[t] = x
            losses[t] = log_loss(x, r)
            # A certified solve may stop without the Hessian at x; form it so that
            # append moves it.  An empty history keeps summing its first row afresh.
            if history.n:
                history.smooth_grad_hess(x)
            history.append(r)
            loss_hessians[t] = history.smooth_grad_hess(x)[1]
        except ROUND_ERRORS as exc:
            raise prefixed(exc, f"t={t + 1}: ") from exc
    ips = (R[:, None, :] @ plays[:, :, None])[:, 0]  # <x_t, r_t>, shape (T, 1)
    grads = (U @ (-R / ips)[:, :, None])[..., 0]
    hessians = barrier_pi_hessian(plays, eta, U) + U @ loss_hessians @ U.T
    return LbftrlRun(**vars(seq), plays=plays, losses=losses, terms=stability_term(grads, hessians), eta=eta)


def generate_and_run(plan, eta):
    """The adversary's sequence (:func:`generate_returns`) played by the player."""
    return _play(generate_returns(plan, eta), eta)


def run_lbftrl(returns, eta):
    """Run the plain player over a fixed returns sequence, recording stability."""
    R = np.array(returns, dtype=float)
    return _play(GeneratedReturns(returns=R, movement_flags=np.zeros(len(R), dtype=bool), truncated=False,
                                  completed_visits=0), eta)


def regret_vs_next_iterate(result):
    """Cumulative loss minus the loss of x_{T+1}, the post-horizon FTRL iterate."""
    hist = result.returns
    x_next = minimize_simplex_history(hist, 1.0 / result.eta, warm_start=result.plays[-1]).minimizer
    comparator = float(-np.log(hist @ x_next).sum())
    return float(result.losses.sum()) - comparator, x_next
