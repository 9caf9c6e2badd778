"""Acceptance checks runnable from the CLI (``bisons check``) or pytest.

Each criterion is a function returning (passed, detail); ``run_checks``
times each call and fails a criterion that overruns its ``BUDGET_S`` entry.
Criteria 2, 3, 5 and 6 feed their runs' stability-monitor violations to
criterion 7; criterion 12 checks its own.  Criterion 1 also checks the
surrogate that a round builds.  Everything is seeded and deterministic.
"""

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import BETA_MAX, build_surrogate, log_loss
from .harness import adversary_returns, best_crp, best_quantum_state, derive_rng, measurement_stream
from .hermitian import (
    min_eig,
    phi_dual,
    random_density,
    random_effect,
    random_hermitian,
    random_pd,
    trace_inner,
    vectorize_phi,
)
from .lbftrl import AdversaryPlan, generate_and_run, regret_vs_next_iterate, run_lbftrl, validate_target_sequence_exact, build_target_sequence_exact
from .quantum import QBisonsParams, q_default_params, q_update_bias, run_qbisons
from .solver import QuadraticObjective, minimize_simplex, minimize_spectraplex
from .vector import SIMPLEX, BisonsParams, default_params, run_bisons, update_bias

# overridden parameters for the reset-bearing crash runs: the defaults of the
# regret theorem move iterates by O(eta) = O(1/(d log T)) per round, which
# cannot reach the reset threshold at desk horizons; these satisfy the same
# admissibility constraints with a learning rate at its cap
CRASH_OVERRIDE = dict(B=15.75, eta=1.0 / 63.0, beta=0.1)
# wall-time budgets in seconds, by criterion; run_checks times each whole call
BUDGET_S = {1: 10.0, 2: 600.0, 8: 5.0, 11: 10.0, 12: 10.0}
EPOCH_GRID_POINTS = 200


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.criterion:2d} [{self.name}] ({self.seconds:.1f}s): {self.detail}"


def _random_simplex(rng, d, floor=0.0):
    x = rng.dirichlet(np.ones(d))
    return (1.0 - d * floor) * x + floor if floor > 0.0 else x


def _worst_ratio(runs):
    """The worst regret/bound ratio over (run result, comparator loss, bound) triples."""
    return max((float(res.losses.sum()) - best) / bound for res, best, bound in runs)


def _record_violations(ctx, key, results):
    """Record the monitor violations of the runs ``results`` under ``key`` for criterion 7; returns their count."""
    ctx.setdefault("monitor_violations", {})[key] = count = sum(len(res.violations) for res in results)
    return count


# -- criterion 1 ---------------------------------------------------------------

def check_lower_surrogate(ctx):
    rng = derive_rng(101, "accept:lower-surrogate")
    worst_gap = 0.0
    worst_eq = 0.0
    worst_round = 0.0
    for _ in range(10_000):
        d = int(rng.integers(2, 6))
        x_t = _random_simplex(rng, d, floor=1e-4)
        r = _random_simplex(rng, d)
        s = build_surrogate(x_t, r, float(rng.uniform(0.01, BETA_MAX)))
        x = _random_simplex(rng, d, floor=1e-9)
        gap = s.lower_hat_h(float(np.dot(x, r))) - log_loss(x, r)
        worst_gap = max(worst_gap, gap)
        worst_eq = max(worst_eq, abs(s.lower_hat_h(s.anchor_reward) + math.log(s.anchor_reward)))
        loss, g, m = SIMPLEX.loss(x_t, r)  # a round's surrogate, as bisons_round builds it
        obj = QuadraticObjective.zeros(d, 1.0)
        obj.add_surrogate(g, loss, m, s.curvature)
        hat = s.hat_h(float(np.dot(x, r)))
        worst_round = max(worst_round, abs(obj.smooth_value(x) - hat) / max(1.0, abs(hat)))
    passed = worst_gap <= 1e-12 and worst_eq <= 1e-12 and worst_round <= 1e-12
    return passed, (f"10^4 triples: max excess over true loss {worst_gap:.2e}, "
                    f"max anchor equality gap {worst_eq:.2e}, max round surrogate gap {worst_round:.2e}")


# -- criteria 2 and 3 ------------------------------------------------------------

def check_bisons_regret(ctx):
    runs = []
    for d in (2, 3, 5):
        T = max(110 * d * d, 1000)
        params = default_params(d, T)
        for adversary in ("iid-dirichlet", "single-asset-crash"):
            for seed in range(20):
                R = adversary_returns(adversary, d, T, seed)
                runs.append((run_bisons(R, params), best_crp(R)[1], 740.0 * d * d * math.log(T) ** 2))
    worst = _worst_ratio(runs)
    violations = _record_violations(ctx, "bisons-regret", [res for res, _, _ in runs])
    return worst <= 1.0, f"{len(runs)} runs, worst regret/bound ratio {worst:.3e}, monitor violations {violations}"


def epoch_grid_regret(R, losses, resets, T):
    """Worst regret per completed epoch (the rounds up to each reset) against the (min entry >= 1/T) grid."""
    grid_a = np.linspace(1.0 / T, 1.0 - 1.0 / T, EPOCH_GRID_POINTS)
    grid = np.stack([grid_a, 1.0 - grid_a], axis=1)
    ends = np.flatnonzero(resets) + 1
    out = []
    for rows, epoch_losses in zip(np.split(R, ends)[:-1], np.split(losses, ends)[:-1]):
        alg = float(np.cumsum(epoch_losses)[-1])
        comp = -np.log(grid @ rows.T).sum(axis=1)
        out.append(alg - float(comp.min()))
    return out


def check_epoch_nonpositivity(ctx):
    d, T = 2, 1000
    params = BisonsParams(d=d, T=T, **CRASH_OVERRIDE).validate()
    results, epoch_regrets = [], []
    for seed in range(5):
        R = adversary_returns("single-asset-crash", d, T, seed)
        results.append(res := run_bisons(R, params))
        if not res.reset_times:
            return False, f"seed {seed}: crash run triggered no reset"
        epoch_regrets += epoch_grid_regret(R, res.losses, res.resets, T)
    violations = _record_violations(ctx, "epoch-nonpositivity", results)
    worst = max(epoch_regrets)
    return worst <= 1e-6, (f"{len(epoch_regrets)} completed epochs over 5 crash runs, worst grid regret "
                           f"{worst:.3e} (<= 1e-6 required), monitor violations {violations}")


# -- criterion 4 -----------------------------------------------------------------

def check_p_update(ctx):
    rng = derive_rng(104, "accept:p-update")
    worst_mono = math.inf
    worst_dom = math.inf
    worst_cost = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        P = random_pd(rng, d, 0.8, 6.0)
        X = 0.7 * random_density(rng, d) + 0.3 * np.eye(d) / d
        P2 = q_update_bias(P, X)
        worst_mono = min(worst_mono, min_eig(P2 - P))
        worst_dom = min(worst_dom, min_eig(P2 - np.linalg.inv(X)))
        worst_cost = max(worst_cost, abs(trace_inner(X, P2 - P) - trace_inner(np.linalg.inv(P2), P2 - P)))
    diag_exact = True
    for _ in range(200):
        d = int(rng.integers(2, 5))
        p = rng.uniform(1.0, 8.0, size=d)
        x = rng.dirichlet(np.ones(d))
        out = q_update_bias(np.diag(p).astype(complex), np.diag(x).astype(complex))
        if not np.array_equal(np.diagonal(out).real, update_bias(p, x)):
            diag_exact = False
    passed = worst_mono >= -1e-8 and worst_dom >= -1e-8 and worst_cost <= 1e-8 and diag_exact
    return passed, (f"10^3 PD pairs: min-eig(P'-P) {worst_mono:.2e}, min-eig(P'-X^-1) {worst_dom:.2e}, "
                    f"cost identity gap {worst_cost:.2e}, diagonal max-rule exact: {diag_exact}")


# -- criteria 5 and 12 -----------------------------------------------------------

def _diagonal_runs(R, params):
    """BISONS on R and Q-BISONS on its diagonal embedding, with the same parameters, and over all
    rounds the largest gap between the diagonals of their plays and the largest off-diagonal modulus."""
    res_v = run_bisons(R, params)
    res_q = run_qbisons([np.diag(r).astype(complex) for r in R], QBisonsParams(**asdict(params)).validate())
    diagonals = np.diagonal(res_q.plays, axis1=1, axis2=2)
    off_diagonal = res_q.plays - diagonals[:, :, None] * np.eye(params.d)
    return res_v, res_q, float(np.abs(diagonals.real - res_v.plays).max()), float(np.abs(off_diagonal).max())


def check_diagonal_equivalence(ctx):
    d, T = 3, 990
    R = derive_rng(105, "accept:diag-equivalence").dirichlet(np.ones(d), size=T)
    res_v, res_q, gap, off = _diagonal_runs(R, default_params(d, T))
    worst = max(gap, off)
    same_resets = res_v.reset_times == res_q.reset_times
    violations = _record_violations(ctx, "diagonal-equivalence", (res_v, res_q))
    passed = worst <= 1e-6 and same_resets
    return passed, (f"d=3 T=990: max per-round iterate gap {worst:.2e}, reset times equal: {same_resets} "
                    f"({res_v.reset_times} vs {res_q.reset_times}), monitor violations {violations}")


def check_diagonal_equivalence_resets(ctx):
    R = adversary_returns("single-asset-crash", 2, 1000, 0)
    res_v, res_q, gap, off = _diagonal_runs(R, BisonsParams(d=2, T=1000, **CRASH_OVERRIDE).validate())
    violations = len(res_v.violations) + len(res_q.violations)
    passed = (res_v.reset_times == res_q.reset_times and len(res_v.reset_times) > 0 and gap <= 1e-12 and off == 0.0
              and violations == 0)
    return passed, (f"d=2 T=1000 crash run: reset times {res_v.reset_times} vs {res_q.reset_times} (equal, nonempty "
                    f"required), max diagonal gap {gap:.2e} (<= 1e-12), max off-diagonal modulus {off:.2e} "
                    f"(0 required), monitor violations {violations}")


# -- criterion 6 -----------------------------------------------------------------

def check_qbisons_regret(ctx):
    d, T = 2, 440
    params = q_default_params(d, T)
    runs = []
    for seed in range(20):
        res = run_qbisons(measurement_stream(d, T, seed), params, rng=derive_rng(seed, "accept:qbisons:reduction"))
        runs.append((res, best_quantum_state(res.inputs)[1], 740.0 * d**3 * math.log(T) ** 2))
    worst = _worst_ratio(runs)
    violations = _record_violations(ctx, "qbisons-regret", [res for res, _, _ in runs])
    return worst <= 1.0, (f"20 measurement streams, worst regret/bound ratio {worst:.3e}, "
                          f"monitor violations {violations}")


# -- criterion 7 -----------------------------------------------------------------

def check_run_monitors(ctx):
    counts = ctx.get("monitor_violations", {})
    if not counts:
        return False, "no monitored runs executed (run criteria 2/3/5/6 first)"
    total = sum(counts.values())
    detail = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    return total == 0, f"per-round stability monitors over all acceptance runs ({detail})"


# -- criterion 8 -----------------------------------------------------------------

def check_sequence_validity(ctx):
    for d in range(3, 9):
        pairs = build_target_sequence_exact(d)
        if len(pairs) != 2**d - 2:
            return False, f"d={d}: length {len(pairs)} != 2^d-2"
        ok, msg = validate_target_sequence_exact(pairs, d)
        if not ok:
            return False, f"d={d}: {msg}"
    return True, "d=3..8 exact-rational validity and lengths 2^d-2"


# -- criterion 9 -----------------------------------------------------------------

def check_regret_stability(ctx):
    results = []
    plan = AdversaryPlan.build(3, 10_000, 0.5)
    eta = 1.0
    gen = generate_and_run(plan, eta)
    results.append(("generated d=3 alpha=0.5", gen))
    rng_root = 109
    for seed in range(3):
        rng = derive_rng(rng_root, f"accept:stability:{seed}")
        R = rng.dirichlet(np.ones(3), size=800)
        results.append((f"random seed {seed}", run_lbftrl(R, eta)))
    worst_slack = math.inf
    details = []
    for name, res in results:
        regret, _ = regret_vs_next_iterate(res)
        lower = res.terms.sum() / (2.0 * (1.0 + res.eta) ** 2)
        slack = regret - (lower - 1e-6 * len(res.losses))
        worst_slack = min(worst_slack, slack)
        details.append(f"{name}: regret {regret:.3f} >= {lower:.3f} - tol (slack {slack:.3f})")
    passed = worst_slack >= 0.0
    truncated = "truncated" if gen.truncated else "completed"
    return passed, (f"{'; '.join(details)}; generated run {truncated} with "
                    f"{int(gen.movement_flags.sum())} movement rounds")


# -- criterion 10 ----------------------------------------------------------------

def _neg_logdet(Y):
    """-log det Y, through the Cholesky factor of Y."""
    return -2.0 * float(np.log(np.diagonal(np.linalg.cholesky(Y)).real).sum())


def check_calculus(ctx):
    rng = derive_rng(110, "accept:calculus")

    def unit_trace_zero(d):
        D = random_hermitian(rng, d)
        D -= np.trace(D).real / d * np.eye(d)
        return D / np.linalg.norm(D)

    h = 1e-6
    worst_grad = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 5))
        X = 0.5 * random_density(rng, d) + 0.5 * np.eye(d) / d
        R = random_effect(rng, d)
        R = R / np.trace(R).real
        D = unit_trace_zero(d)
        f = lambda Y: -math.log(trace_inner(Y, R))
        fd = (f(X + h * D) - f(X)) / h
        exact = trace_inner(D, -R / trace_inner(X, R))
        worst_grad = max(worst_grad, abs(fd - exact) / max(1.0, abs(exact)))

    worst_logdet = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 5))
        X = random_pd(rng, d, 0.5, 2.0)
        D = unit_trace_zero(d)
        fd = (_neg_logdet(X + h * D) - _neg_logdet(X)) / h
        exact = trace_inner(D, -np.linalg.inv(X))
        worst_logdet = max(worst_logdet, abs(fd - exact) / max(1.0, abs(exact)))

    h2 = 1e-4
    worst_hess = 0.0
    for _ in range(300):
        d = int(rng.integers(2, 5))
        X = random_pd(rng, d, 0.5, 2.0)
        D = random_hermitian(rng, d)
        D /= np.linalg.norm(D)
        fd2 = (_neg_logdet(X + h2 * D) - 2.0 * _neg_logdet(X) + _neg_logdet(X - h2 * D)) / (h2 * h2)
        Xi = np.linalg.inv(X)
        exact = trace_inner(D @ Xi @ D, Xi)
        worst_hess = max(worst_hess, abs(fd2 - exact) / max(1.0, abs(exact)))

    worst_lb = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        X = 0.9 * random_density(rng, d) + 0.1 * np.eye(d) / d
        D = random_hermitian(rng, d)
        Xi = np.linalg.inv(X)
        quad = trace_inner(D @ Xi @ D, Xi)
        worst_lb = max(worst_lb, float(np.linalg.norm(D)) ** 2 - quad)

    passed = worst_grad <= 1e-5 and worst_logdet <= 1e-5 and worst_hess <= 1e-4 and worst_lb <= 1e-8
    return passed, (f"grad rel err {worst_grad:.2e} (<=1e-5), logdet grad {worst_logdet:.2e} (<=1e-5), "
                    f"hessian rel err {worst_hess:.2e} (<=1e-4), hessian lower-bound defect "
                    f"{worst_lb:.2e} over 10^3 samples")


# -- criterion 11 ----------------------------------------------------------------

def check_solver_oracles(ctx):
    # simplex quadratic vs dense grid
    obj = QuadraticObjective(3, 0.01 * np.eye(3), np.array([-1.0, 0.0, 0.0]), 0.0, 1.0)
    rep = minimize_simplex(obj, tol=1e-12)
    step = 1e-3
    a = np.arange(step, 1.0, step)
    A, B = np.meshgrid(a, a, indexing="ij")
    mask = A + B < 1.0 - step / 2
    grid = np.stack([A[mask], B[mask], 1.0 - A[mask] - B[mask]], axis=1)
    vals = (0.5 * np.einsum("ij,jk,ik->i", grid, obj.quad, grid) + grid @ obj.lin
            - np.log(grid).sum(axis=1))
    arg_gap = float(np.abs(rep.minimizer - grid[np.argmin(vals)]).max())
    obj_gap = (0.5 * rep.minimizer @ obj.quad @ rep.minimizer + obj.lin @ rep.minimizer
               - np.log(rep.minimizer).sum()) - float(vals.min())

    # spectraplex linear objective vs a sweep of U diag(a, 1 - a) U^H over eigenvalues a (the steps of the
    # simplex grid) and rotation angles, as one stacked product per eigenvalue
    obj_q = QuadraticObjective.zeros(4, 1.0)
    obj_q.lin += phi_dual(np.diag([-1.0, 0.0]).astype(complex))
    rep_q = minimize_spectraplex(obj_q, tol=1e-12)

    def qval(X):
        return np.vecdot(vectorize_phi(X), obj_q.lin) - np.linalg.slogdet(X)[1].real

    cos_sin = [(math.cos(theta), math.sin(theta)) for theta in np.arange(0.0, math.pi, 2e-3)]
    U = np.array([[[c, -s], [s, c]] for c, s in cos_sin], dtype=complex)
    D = np.zeros((a.size, 2, 2), dtype=complex)
    D[:, 0, 0], D[:, 1, 1] = a, 1.0 - a
    q_vals = np.stack([qval(U @ Da @ U.conj().swapaxes(1, 2)) for Da in D])
    i, j = np.unravel_index(np.argmin(q_vals), q_vals.shape)  # the first minimum in (eigenvalue, angle) order
    q_arg_gap = float(np.abs(rep_q.minimizer - U[j] @ D[i] @ U[j].conj().T).max())
    q_obj_gap = qval(rep_q.minimizer) - q_vals[i, j]

    # hindsight comparator vs grid
    rng = derive_rng(111, "accept:best-crp-grid")
    R = rng.dirichlet(np.ones(3), size=50)
    _, loss = best_crp(R)
    crp_vals = -np.log(grid @ R.T).sum(axis=1)
    crp_gap = loss - float(crp_vals.min())

    passed = (arg_gap <= 5e-3 and obj_gap <= 1e-6 and q_arg_gap <= 5e-3 and q_obj_gap <= 1e-6
              and crp_gap <= 5e-3)
    return passed, (f"simplex arg gap {arg_gap:.1e} obj gap {obj_gap:.1e}; spectraplex arg gap "
                    f"{q_arg_gap:.1e} obj gap {q_obj_gap:.1e}; best-CRP loss gap {crp_gap:.1e}")


CHECKS = [
    (1, "lower-surrogate", check_lower_surrogate, {"lemmas"}),
    (2, "bisons-regret", check_bisons_regret, {"bisons"}),
    (3, "epoch-nonpositivity", check_epoch_nonpositivity, {"bisons"}),
    (4, "p-update", check_p_update, {"lemmas", "qbisons"}),
    (5, "diagonal-equivalence", check_diagonal_equivalence, {"qbisons"}),
    (6, "qbisons-regret", check_qbisons_regret, {"qbisons"}),
    (7, "run-monitors", check_run_monitors, {"bisons", "qbisons"}),
    (8, "sequence-validity", check_sequence_validity, {"lemmas", "lbftrl"}),
    (9, "regret-stability", check_regret_stability, {"lbftrl"}),
    (10, "calculus", check_calculus, {"lemmas"}),
    (11, "solver-oracles", check_solver_oracles, {"lemmas"}),
    (12, "diagonal-equivalence-resets", check_diagonal_equivalence_resets, {"qbisons"}),
]


def run_checks(suite="all"):
    """Run the selected acceptance criteria; returns CheckResult list in order."""
    ctx = {}
    results = []
    for number, name, fn, tags in CHECKS:
        if suite != "all" and suite not in tags:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn(ctx)
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if seconds >= BUDGET_S.get(number, math.inf):
            passed, detail = False, f"{detail}; over its {BUDGET_S[number]:g}s budget"
        results.append(CheckResult(number, name, passed, detail, seconds))
    return results
