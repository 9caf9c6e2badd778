"""Experiment driver: adversaries, hindsight comparators, baselines and traces.

Randomness is one documented scheme throughout: a root seed plus a string
label feed ``numpy.random.SeedSequence([root_seed, sha256(label)[:8]])``,
so every component draws from its own deterministic stream and reruns are
byte-identical.  Returns and measurement files are read by one reader,
which reports a file's first bad row by its row and line.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .geometry import InvalidReturnsError, log_loss, normalize_returns, uniform_portfolio
from .hermitian import Measurements, phi_dual, random_effect, trace_inner
from .quantum import q_default_params, run_qbisons
from .solver import minimize_simplex, minimize_simplex_history, minimize_spectraplex_history
from .vector import default_params, run_bisons

TRACE_HEADER = "t,epoch,internal_time,loss,cum_loss,comparator_cum_loss,regret,reset_flag"


def derive_rng(root_seed, label):
    """Deterministic per-component generator: PCG64 seeded by (root seed, label hash)."""
    h = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(root_seed), h]))


# -- built-in adversaries -----------------------------------------------------

def adversary_returns(name, d, T, seed):
    """Returns matrix (T x d) for a named adversary; pure function of (seed, t)."""
    rng = derive_rng(seed, f"adversary:{name}:d={d}:T={T}")
    if name == "iid-dirichlet":
        return rng.dirichlet(np.ones(d), size=T)
    if name == "single-asset-crash":
        crash_at = T // 2
        pre = np.full(d, 0.05 / max(d - 1, 1))
        pre[0] = 0.95
        post = np.full(d, 0.98 / max(d - 1, 1))
        post[0] = 0.02
        base = np.where(np.arange(T)[:, None] < crash_at, pre, post)
        jitter = 1.0 + 0.05 * rng.random(size=(T, d))
        rows = base * jitter
        return rows / rows.sum(axis=1, keepdims=True)
    if name == "alternating-basis":
        return np.eye(d)[np.arange(T) % d]
    raise ValueError(f"unknown adversary {name!r}")


def measurement_stream(d, T, seed):
    """T random two-outcome measurements with fractional outcomes, as one :class:`Measurements` stack."""
    rng = derive_rng(seed, f"measurements:d={d}:T={T}")
    effects, outcomes = np.empty((T, d, d), dtype=complex), np.empty(T)
    for t in range(T):  # an effect's draws, then its outcome's: the generator's order
        effects[t] = random_effect(rng, d)
        outcomes[t] = rng.uniform(0.05, 0.95)
    return Measurements(effects, outcomes)


# -- hindsight comparators ----------------------------------------------------

def _continuation(solve, x, w, w_min):
    """Barrier continuation: ``x = solve(x, w)`` at w, w/2, w/4, ... until w <= w_min.

    Each stage warm-starts the next, so boundary optima are approached from
    the interior.  Returns the last minimizer.
    """
    while True:
        x = solve(x, w)
        if w <= w_min:
            return x
        w *= 0.5


def best_crp(returns):
    """Best constant-rebalanced portfolio by barrier continuation.

    The barrier weight is halved from 1 until it drops below 1e-9/d.
    Returns the comparator and its cumulative loss.
    """
    R = np.asarray(returns, dtype=float)
    if R.ndim != 2 or R.shape[0] == 0:
        raise ValueError("need a nonempty returns matrix")
    d = R.shape[1]
    x = _continuation(lambda x, w: minimize_simplex_history(R, w, warm_start=x, tol=1e-12).minimizer,
                      uniform_portfolio(d), 1.0, 1e-9 / d)
    return x, float(-np.log(R @ x).sum())


def best_quantum_state(loss_matrices):
    """Spectraplex analogue of :func:`best_crp`, halving the barrier weight until it drops below 1e-8/d.

    ``loss_matrices`` is a sequence or (n, d, d) stack of loss matrices.
    """
    mats = np.asarray(loss_matrices, dtype=complex)
    if mats.ndim != 3 or mats.shape[0] == 0:
        raise ValueError("need a nonempty loss matrix sequence")
    d = mats.shape[-1]
    W = phi_dual(mats)
    X = _continuation(lambda X, w: minimize_spectraplex_history(W, w, warm_start=X, tol=1e-12).minimizer,
                      np.eye(d, dtype=complex) / d, 1.0, 1e-8 / d)
    loss = float(sum(-math.log(v) for v in trace_inner(X, mats)))
    return X, loss


# -- online Newton step baseline ----------------------------------------------

class _Projection:
    """(x - q)' A (x - q) plus ``barrier_weight`` times the barrier, evaluated
    centred on q: the expanded form cancels to noise once tr A is large."""

    def __init__(self, q, A, barrier_weight):
        self.q, self.A, self.barrier_weight, self.dim = q, A, barrier_weight, q.size

    def smooth_value(self, x):
        y = x - self.q
        return float(y @ self.A @ y)

    def smooth_grad_hess(self, x):
        return 2.0 * (self.A @ (x - self.q)), 2.0 * self.A


def _generalized_projection(q, A):
    """argmin over the simplex of (x - q)' A (x - q), by barrier continuation down to weight 1e-9."""
    return _continuation(lambda x, w: minimize_simplex(_Projection(q, A, w), warm_start=x, tol=1e-12).minimizer,
                         uniform_portfolio(q.size), 1e-2, 1e-9)


def ons_baseline(returns):
    """Online Newton step (step 0.1, A_0 = I) with generalized projection; comparison only; (losses, plays)."""
    R = np.asarray(returns, dtype=float)
    n, d = R.shape
    A = np.eye(d)
    x = uniform_portfolio(d)
    losses, plays = np.empty(n), np.empty((n, d))
    for t, r in enumerate(R):
        losses[t], plays[t] = log_loss(x, r), x
        grad = -r / float(np.dot(x, r))
        A = A + np.outer(grad, grad)
        q = x - 0.1 * np.linalg.solve(A, grad)
        x = _generalized_projection(q, A)
    return losses, plays


# -- file formats ---------------------------------------------------------------

def _fmt(v):
    return format(float(v), ".17g")


def save_returns(path, returns):
    with open(path, "w") as fh:
        for row in np.asarray(returns, dtype=float):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _row_fault(vals, width, build):
    """Why a parsed row is rejected, or None: a cell that is not finite, or a count of cells other than
    row 1's ``width``, in ``build``'s words if ``build`` rejects that count on no rows."""
    if not all(map(math.isfinite, vals)):
        return "cells must be finite"
    if len(vals) != width:
        try:
            build(np.empty((0, len(vals))))
        except InvalidReturnsError as exc:
            return str(exc)
        return f"expected {width} cells as in row 1, got {len(vals)}"


def _read_rows(path, what, build):
    """``build(cells)`` of the (n, w) cells of a comma-separated file of numbers; the first bad row is rejected.

    Blank lines are skipped, and so is a first line whose first cell starts
    with ``a`` (a header; no number does).  The kept lines are parsed in one
    ``np.loadtxt`` call, which reads a number as ``float`` does.  Only if
    that fails or a cell is not finite, one ``float`` pass stops at the first
    line that does not parse or that :func:`_row_fault` rejects, after
    ``build`` ran on the rows above it.  Errors name the file and the line,
    and the row once its cells parse (``InvalidReturnsError.index`` for ``build``).
    """
    try:
        with open(path) as fh:
            kept = [(lineno, line) for lineno, raw in enumerate(fh.read().split("\n"), start=1)
                    if (line := raw.strip()) and not (lineno == 1 and line.startswith("a"))]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    if not kept:
        raise ValueError(f"{path}: no {what} rows found")
    lines = [lineno for lineno, _ in kept]

    def built(cells):
        try:
            return build(cells)
        except InvalidReturnsError as exc:
            raise type(exc)(f"{path}: row {exc.index + 1} (line {lines[exc.index]}): {exc}") from exc

    try:
        cells = np.loadtxt([line for _, line in kept], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        cells = None
    if cells is not None and np.isfinite(cells).all():
        del kept  # the lines' text is not needed to build, and would raise the load's peak memory
        return built(cells)
    rows = []
    for k, (lineno, line) in enumerate(kept):
        try:
            vals = [float(c) for c in line.split(",")]
        except ValueError as exc:
            fault = f"parse error at line {lineno}: {exc}"
        else:
            fault = _row_fault(vals, len(rows[0]) if rows else len(vals), build)
            fault = fault and f"row {k + 1} (line {lineno}): {fault}"
        if fault:
            if rows:
                built(np.array(rows))
            raise ValueError(f"{path}: {fault}")
        rows.append(vals)
    return built(np.array(rows))


def load_returns(path):
    """Load and normalize a returns file: one row of d returns per round."""
    return _read_rows(path, "returns", normalize_returns)


def _measurements(cells):
    """The :class:`Measurements` stack of (n, 2*d^2+1) measurement cells."""
    n, w = cells.shape
    d = math.isqrt((w - 1) // 2)
    if d < 1 or 2 * d * d + 1 != w:
        raise InvalidReturnsError(f"expected 2*d^2+1 cells, got {w}", index=0)
    return Measurements((cells[:, :-1:2] + 1j * cells[:, 1:-1:2]).reshape(n, d, d), cells[:, -1])


def load_measurements(path):
    """Measurement rows: d^2 complex entries of the effect (re/im interleaved,
    row-major) followed by the outcome; one :class:`Measurements` stack."""
    return _read_rows(path, "measurement", _measurements)


# -- experiment driver ----------------------------------------------------------

@dataclass
class ExperimentConfig:
    algo: str
    d: int
    T: int
    seed: int = 0
    adversary: str = None
    data: str = None
    out: str = "."
    overrides: dict = field(default_factory=dict)
    alpha: float = 0.5
    eta: float = 1.0
    pad_uniform: bool = False

    @classmethod
    def from_mapping(cls, m):
        """Each field parsed by its declared type; any other key is a parameter override.
        A key the algorithm does not read (see ``READS``), and an override that is not a parameter, are rejected."""
        algo = m.get("algo")
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}")
        reader = algo
        if algo == "lbftrl" and m.get("adversary") == "lbftrl-bad":
            reader = "lbftrl on lbftrl-bad"
        elif "data" in m and f"{algo} on data" in READS:
            reader = f"{algo} on data"
        types = {f.name: f.type for f in fields(cls) if f.name != "overrides"}
        if "overrides" in READS[reader]:
            del types["eta"]  # eta is an algorithm-parameter override there
        kwargs, overrides = {}, {}
        for key, value in m.items():
            try:
                if key not in types:
                    overrides[key] = float(value)
                elif types[key] is bool:  # index raises ValueError for a word that is neither false nor true
                    kwargs[key] = ("0", "false", "no", "1", "true", "yes").index(str(value).lower()) >= 3
                else:
                    kwargs[key] = types[key](value)
            except ValueError:
                expected = (types[key].__name__ if key in types
                            else "float (unknown key or non-numeric parameter override)")
                raise ValueError(f"config key {key!r}: cannot parse {value!r} as {expected}") from None
        for key, least in (("d", 1), ("T", 1), ("seed", 0)):
            if kwargs.get(key, least) < least:
                raise ValueError(f"config key {key!r} must be at least {least}, got {kwargs[key]}")
        unread = [key for key in kwargs if key not in ("algo", "d", "T", "out") and key not in READS[reader]]
        if unread:
            raise ValueError(f"algorithm {reader!r} does not read {', '.join(map(repr, unread))}")
        if overrides and "overrides" not in READS[reader]:
            raise ValueError(f"algorithm {algo!r} takes no parameter overrides, "
                             f"got {', '.join(map(repr, overrides))}")
        for key in overrides:
            if key not in ("B", "eta", "beta"):
                raise ValueError(f"unknown parameter override {key!r}")
        return cls(overrides=overrides, **kwargs)


def parse_config_file(path):
    """Flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed config line {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _apply_overrides(params, overrides):
    return replace(params, **{key: float(value) for key, value in overrides.items()}).validate()


def _read_data(config, load, dim):
    """The data file's rows, rejected unless their dimension ``dim(rows)`` is d and there are at most T.

    Every row has the dimension of row 1, as the reader rejects rows of another width.
    """
    rows = load(config.data)
    if dim(rows) != config.d:
        raise ValueError(f"{config.data}: row 1 has dimension {dim(rows)}, not d={config.d}")
    if len(rows) > config.T:
        raise ValueError(f"{config.data}: {len(rows)} rows, more than T={config.T}")
    return rows


def _get_returns(config):
    if config.data:
        R = _read_data(config, load_returns, lambda R: R.shape[1])
    elif config.adversary:
        R = adversary_returns(config.adversary, config.d, config.T, config.seed)
    else:
        raise ValueError("either a data path or an adversary name is required")
    if config.pad_uniform and R.shape[0] < config.T:
        pad = np.full((config.T - R.shape[0], R.shape[1]), 1.0 / R.shape[1])
        R = np.vstack([R, pad])
    return R


def write_trace(path, losses, resets, comparator_cum):
    """One row per round; a round's epoch and internal time count the resets and rounds before it."""
    epoch, tau = 1, 0
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for t, (loss, cum, comp, reset) in enumerate(zip(losses, np.cumsum(losses), comparator_cum, resets), start=1):
            tau += 1
            fh.write(f"{t},{epoch},{tau},{_fmt(loss)},{_fmt(cum)},{_fmt(comp)},{_fmt(cum - comp)},{int(reset)}\n")
            if reset:
                epoch, tau = epoch + 1, 0


def _crp_cum_loss(R):
    """Round-by-round cumulative loss of the best CRP in hindsight on the returns R."""
    u_star, _ = best_crp(R)
    return np.cumsum(-np.log(R @ u_star))


def _epoch_summary(result, params):
    return {"resets": len(result.reset_times), "monitor_violations": len(result.violations),
            "params": {"B": params.B, "eta": params.eta, "beta": params.beta}}


def _run_bisons(config):
    R = _get_returns(config)
    params = _apply_overrides(default_params(config.d, config.T), config.overrides)
    result = run_bisons(R, params)
    return result.losses, result.resets, _crp_cum_loss(R), _epoch_summary(result, params), None


def _run_qbisons(config):
    if config.data:
        stream = _read_data(config, load_measurements, lambda m: m.effects.shape[-1])
    else:
        stream = measurement_stream(config.d, config.T, config.seed)
    params = _apply_overrides(q_default_params(config.d, config.T), config.overrides)
    result = run_qbisons(stream, params, rng=derive_rng(config.seed, "qbisons:reduction"))
    u_star, _ = best_quantum_state(result.inputs)
    comp_cum = np.cumsum([-math.log(v) for v in trace_inner(u_star, result.inputs)])
    return result.losses, result.resets, comp_cum, _epoch_summary(result, params), None


def _run_lbftrl(config):
    """LB-FTRL on lbftrl-bad (generated against the player) or on given returns; its table is the stability columns."""
    from .lbftrl import AdversaryPlan, generate_and_run, run_lbftrl  # only LB-FTRL runs load it

    if config.adversary == "lbftrl-bad":
        result = generate_and_run(AdversaryPlan.build(config.d, config.T, config.alpha), config.eta)
        extras = {"truncated": result.truncated, "completed_visits": result.completed_visits, "alpha": config.alpha}
    else:
        result = run_lbftrl(_get_returns(config), config.eta)
        extras = {}
    extras.update(eta=config.eta, stability_sum=float(result.terms.sum()))
    return (result.losses, np.zeros(len(result.losses), dtype=bool), _crp_cum_loss(result.returns), extras,
            (result.terms, result.movement_flags))


def _run_ons(config):
    R = _get_returns(config)
    return ons_baseline(R)[0], np.zeros(len(R), dtype=bool), _crp_cum_loss(R), {}, None


#: Runner per algorithm name: config -> (per-round losses and reset flags, comparator cumulative loss,
#: summary entries, stability columns (terms, movement flags) or None).  Runners write no file.
ALGORITHMS = {"bisons": _run_bisons, "qbisons": _run_qbisons, "lbftrl": _run_lbftrl, "ons": _run_ons}

#: Config fields each runner reads besides algo, d, T and out; "overrides" are its parameters B, eta and beta.
#: LB-FTRL generates lbftrl-bad against its own player from alpha alone, and plays any other input without it.
#: A data file replaces the adversary and its seed; Q-BISONS still seeds its measurement reduction.
READS = {
    "bisons": {"seed", "adversary", "pad_uniform", "overrides"},
    "bisons on data": {"data", "pad_uniform", "overrides"},
    "qbisons": {"seed", "data", "overrides"},
    "lbftrl": {"seed", "adversary", "pad_uniform", "eta"},
    "lbftrl on data": {"data", "pad_uniform", "eta"},
    "lbftrl on lbftrl-bad": {"adversary", "alpha", "eta"},
    "ons": {"seed", "adversary", "pad_uniform"},
    "ons on data": {"data", "pad_uniform"},
}


def run_experiment(config):
    """Execute one experiment, then write trace.csv, stability.csv (LB-FTRL) and summary.json.

    Nothing is written unless the runner returns.  Deterministic given
    (config, seed).  Returns the summary dict.
    """
    if config.algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {config.algo!r}")
    losses, resets, comp_cum, extras, stability = ALGORITHMS[config.algo](config)
    os.makedirs(config.out, exist_ok=True)
    write_trace(os.path.join(config.out, "trace.csv"), losses, resets, comp_cum)
    if stability is not None:
        with open(os.path.join(config.out, "stability.csv"), "w") as fh:
            fh.write("t,term,is_movement\n")
            for t, (term, flag) in enumerate(zip(*stability), start=1):
                fh.write(f"{t},{_fmt(term)},{int(flag)}\n")
    cum_loss = float(np.cumsum(losses)[-1])
    summary = {"algo": config.algo, "d": config.d, "T": config.T, "seed": config.seed,
               "adversary": config.adversary, "data": config.data, **extras,
               "rounds": len(losses), "cum_loss": cum_loss, "comparator_loss": float(comp_cum[-1]),
               "final_regret": cum_loss - float(comp_cum[-1])}
    with open(os.path.join(config.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
