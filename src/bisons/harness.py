"""Experiment driver: adversaries, hindsight comparators, baselines and traces.

Randomness is one documented scheme throughout: a root seed plus a string
label feed ``numpy.random.SeedSequence([root_seed, sha256(label)[:8]])``,
so every component draws from its own deterministic stream and reruns are
byte-identical.
"""

import hashlib
import json
import math
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .geometry import InvalidReturnsError, log_loss, normalize_returns, uniform_portfolio
from .hermitian import MeasurementEvent, phi_dual, random_effect, trace_inner
from .lbftrl import AdversaryPlan, generate_and_run, run_lbftrl
from .quantum import q_default_params, run_qbisons
from .solver import minimize_simplex, minimize_simplex_history, minimize_spectraplex_history
from .vector import RoundRecord, default_params, run_bisons

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
    """Random two-outcome measurements with fractional outcomes."""
    rng = derive_rng(seed, f"measurements:d={d}:T={T}")
    return [MeasurementEvent(effect=random_effect(rng, d), outcome=float(rng.uniform(0.05, 0.95)))
            for _ in range(T)]


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


def best_crp(returns, tol=1e-9):
    """Best constant-rebalanced portfolio by barrier continuation.

    The barrier weight is halved from 1 until it drops below tol/d.
    Returns the comparator and its cumulative loss.
    """
    R = np.asarray(returns, dtype=float)
    if R.ndim != 2 or R.shape[0] == 0:
        raise ValueError("need a nonempty returns matrix")
    d = R.shape[1]
    x = _continuation(lambda x, w: minimize_simplex_history(R, w, warm_start=x, tol=1e-12).minimizer,
                      uniform_portfolio(d), 1.0, tol / d)
    return x, float(-np.log(R @ x).sum())


def best_quantum_state(loss_matrices, tol=1e-8):
    """Spectraplex analogue of :func:`best_crp`."""
    mats = list(loss_matrices)
    if not mats:
        raise ValueError("need a nonempty loss matrix sequence")
    d = mats[0].shape[0]
    W = np.array([phi_dual(R) for R in mats])
    X = _continuation(lambda X, w: minimize_spectraplex_history(W, w, warm_start=X, tol=1e-12).minimizer,
                      np.eye(d, dtype=complex) / d, 1.0, tol / d)
    loss = float(sum(-math.log(trace_inner(X, R)) for R in mats))
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


def _generalized_projection(q, A, tol=1e-9):
    """argmin over the simplex of (x - q)' A (x - q), by barrier continuation."""
    return _continuation(lambda x, w: minimize_simplex(_Projection(q, A, w), warm_start=x, tol=1e-12).minimizer,
                         uniform_portfolio(q.size), 1e-2, tol)


def ons_baseline(returns, eta_ons=0.1, epsilon=1.0):
    """Standard online Newton step with generalized projection; comparison only."""
    R = np.asarray(returns, dtype=float)
    d = R.shape[1]
    A = epsilon * np.eye(d)
    x = uniform_portfolio(d)
    records = []
    for t, r in enumerate(R, start=1):
        loss = log_loss(x, r)
        records.append(RoundRecord(t=t, e=1, tau=t, loss=loss, reset_triggered=False, x_played=x))
        grad = -r / float(np.dot(x, r))
        A = A + np.outer(grad, grad)
        q = x - eta_ons * np.linalg.solve(A, grad)
        x = _generalized_projection(q, A)
    return records


# -- file formats ---------------------------------------------------------------

def _fmt(v):
    return format(float(v), ".17g")


def save_returns(path, returns, header=False):
    R = np.asarray(returns, dtype=float)
    with open(path, "w") as fh:
        if header:
            fh.write(",".join(f"a{i + 1}" for i in range(R.shape[1])) + "\n")
        for row in R:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def load_returns(path):
    """Load and normalize a returns file; errors carry the offending row."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if lineno == 1 and parts[0].startswith("a") and not _is_float(parts[0]):
                continue
            try:
                row = np.array([float(p) for p in parts])
            except ValueError as exc:
                raise ValueError(f"{path}: parse error at line {lineno}: {exc}") from exc
            try:
                rows.append(normalize_returns(row))
            except InvalidReturnsError as exc:
                raise InvalidReturnsError(f"{path}: row {len(rows) + 1} (line {lineno}): {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no returns rows found")
    return np.array(rows)


def _is_float(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


def load_measurements(path):
    """Measurement rows: d^2 complex entries of the effect (re/im interleaved,
    row-major) followed by the outcome."""
    events = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                vals = [float(p) for p in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"{path}: parse error at line {lineno}: {exc}") from exc
            n = len(vals) - 1
            d = int(round(math.sqrt(n / 2)))
            if 2 * d * d != n:
                raise ValueError(f"{path}: line {lineno}: expected 2*d^2+1 cells, got {len(vals)}")
            re = np.array(vals[:-1:2])
            im = np.array(vals[1:-1:2])
            E = (re + 1j * im).reshape(d, d)
            try:
                events.append(MeasurementEvent(effect=E, outcome=vals[-1]))
            except ValueError as exc:
                raise ValueError(f"{path}: row {len(events) + 1} (line {lineno}): {exc}") from exc
    if not events:
        raise ValueError(f"{path}: no measurement rows found")
    return events


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
        A key the algorithm does not read (see ``READS``) is rejected."""
        algo = m.get("algo")
        if algo not in READS:
            raise ValueError(f"unknown algorithm {algo!r}")
        types = {f.name: f.type for f in fields(cls) if f.name != "overrides"}
        if "overrides" in READS[algo]:
            del types["eta"]  # eta is an algorithm-parameter override there
        kwargs, overrides = {}, {}
        for key, value in m.items():
            try:
                if key not in types:
                    overrides[key] = float(value)
                elif types[key] is bool:
                    kwargs[key] = str(value).lower() in ("1", "true", "yes")
                else:
                    kwargs[key] = types[key](value)
            except ValueError:
                expected = (types[key].__name__ if key in types
                            else "float (unknown key or non-numeric parameter override)")
                raise ValueError(f"config key {key!r}: cannot parse {value!r} as {expected}") from None
        unread = [key for key in kwargs if key not in ("algo", "d", "T", "out") and key not in READS[algo]]
        if unread:
            raise ValueError(f"algorithm {algo!r} does not read {', '.join(map(repr, unread))}")
        if overrides and "overrides" not in READS[algo]:
            raise ValueError(f"algorithm {algo!r} takes no parameter overrides, "
                             f"got {', '.join(map(repr, overrides))}")
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
    for key in overrides:
        if key not in ("B", "eta", "beta"):
            raise ValueError(f"unknown parameter override {key!r}")
    return replace(params, **{key: float(value) for key, value in overrides.items()}).validate()


def _get_returns(config):
    if config.data:
        R = load_returns(config.data)
    elif config.adversary:
        R = adversary_returns(config.adversary, config.d, config.T, config.seed)
    else:
        raise ValueError("either a data path or an adversary name is required")
    if config.pad_uniform and R.shape[0] < config.T:
        pad = np.full((config.T - R.shape[0], R.shape[1]), 1.0 / R.shape[1])
        R = np.vstack([R, pad])
    return R


def write_trace(path, records, comparator_cum):
    cum = 0.0
    with open(path, "w") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec, comp in zip(records, comparator_cum):
            cum += rec.loss
            fh.write(",".join([
                str(rec.t), str(rec.e), str(rec.tau), _fmt(rec.loss), _fmt(cum),
                _fmt(comp), _fmt(cum - comp), str(int(rec.reset_triggered)),
            ]) + "\n")


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
    result = run_bisons(R, params, monitor=True)
    return result.records, _crp_cum_loss(R), _epoch_summary(result, params)


def _run_qbisons(config):
    stream = load_measurements(config.data) if config.data else measurement_stream(config.d, config.T, config.seed)
    params = _apply_overrides(q_default_params(config.d, config.T), config.overrides)
    result = run_qbisons(stream, params, rng=derive_rng(config.seed, "qbisons:reduction"), monitor=True)
    u_star, _ = best_quantum_state(result.loss_matrices)
    comp_cum = np.cumsum([-math.log(trace_inner(u_star, Rm)) for Rm in result.loss_matrices])
    return result.records, comp_cum, _epoch_summary(result, params)


def _run_lbftrl(config):
    """LB-FTRL on lbftrl-bad (generated against the player) or on given returns; also writes stability.csv."""
    if config.adversary == "lbftrl-bad":
        result = generate_and_run(AdversaryPlan.build(config.d, config.T, config.alpha), config.eta)
        extras = {"truncated": result.truncated, "completed_visits": result.completed_visits, "alpha": config.alpha}
    else:
        result = run_lbftrl(_get_returns(config), config.eta)
        extras = {}
    with open(os.path.join(config.out, "stability.csv"), "w") as fh:
        fh.write("t,term,is_movement\n")
        for t, (term, flag) in enumerate(zip(result.terms, result.movement_flags), start=1):
            fh.write(f"{t},{_fmt(term)},{int(flag)}\n")
    records = [RoundRecord(t=t, e=1, tau=t, loss=loss, reset_triggered=False, x_played=None)
               for t, loss in enumerate(result.losses.tolist(), start=1)]
    extras.update(eta=config.eta, stability_sum=float(result.terms.sum()))
    return records, _crp_cum_loss(result.returns), extras


def _run_ons(config):
    R = _get_returns(config)
    return ons_baseline(R), _crp_cum_loss(R), {}


#: Runner per algorithm name: config -> (round records, comparator cumulative loss, summary entries).
ALGORITHMS = {"bisons": _run_bisons, "qbisons": _run_qbisons, "lbftrl": _run_lbftrl, "ons": _run_ons}

#: Config fields each runner reads besides algo, d, T and out; "overrides" are its parameters B, eta and beta.
READS = {
    "bisons": {"seed", "adversary", "data", "pad_uniform", "overrides"},
    "qbisons": {"seed", "data", "overrides"},
    "lbftrl": {"seed", "adversary", "data", "pad_uniform", "alpha", "eta"},
    "ons": {"seed", "adversary", "data", "pad_uniform"},
}


def run_experiment(config):
    """Execute one experiment; writes trace/summary (and the runner's own) files.

    Deterministic given (config, seed).  Returns the summary dict.
    """
    if config.algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {config.algo!r}")
    os.makedirs(config.out, exist_ok=True)
    records, comp_cum, extras = ALGORITHMS[config.algo](config)
    write_trace(os.path.join(config.out, "trace.csv"), records, comp_cum)
    cum_loss = float(sum(r.loss for r in records))
    summary = {"algo": config.algo, "d": config.d, "T": config.T, "seed": config.seed,
               "adversary": config.adversary, "data": config.data, **extras,
               "rounds": len(records), "cum_loss": cum_loss, "comparator_loss": float(comp_cum[-1]),
               "final_regret": cum_loss - float(comp_cum[-1])}
    with open(os.path.join(config.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
