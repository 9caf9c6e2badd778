import math
import re

import numpy as np
import pytest

import bisons.quantum as quantum
import bisons.vector as vector
from bisons.geometry import InfiniteLossError, InvalidReturnsError
from bisons.hermitian import ConditioningError, random_unitary
from bisons.harness import adversary_returns
from bisons.quantum import SPECTRAPLEX, QBisonsParams, run_qbisons
from bisons.solver import SolverFailure
from bisons.vector import (
    MONITOR_CHUNK,
    SIMPLEX,
    BisonsParams,
    ParameterError,
    bisons_round,
    check_reset,
    default_params,
    initial_state,
    run_bisons,
    update_bias,
)

CRASH_PARAMS = dict(B=15.75, eta=1.0 / 63.0, beta=0.1)


def crash_params(T=1000):
    return BisonsParams(d=2, T=T, **CRASH_PARAMS).validate()


class ReferenceBisons2D:
    """Independent two-asset reference: the FTRL solves use scalar bisection.

    State and update rules are written from scratch against the algorithm
    description; only numpy scalars and the bisection root finder are used.
    """

    def __init__(self, params):
        self.params = params
        self.reset_state()

    def reset_state(self):
        self.grads = np.zeros((0, 2))      # surrogate anchor gradients
        self.anchor_dots = np.zeros(0)     # <x_t, g_t>
        self.bias_lin = np.zeros(2)        # accumulated -B * dp
        self.p = np.array([2.0, 2.0])
        self.p_prev = np.array([2.0, 2.0])
        self.x = np.array([0.5, 0.5])
        self.u = np.array([0.5, 0.5])

    def _argmin(self, biased):
        beta = self.params.beta
        w = 1.0 / self.params.eta
        gdiff = self.grads[:, 0] - self.grads[:, 1]

        def deriv(a):
            s = self.grads[:, 0] * a + self.grads[:, 1] * (1.0 - a) - self.anchor_dots
            total = w * (-1.0 / a + 1.0 / (1.0 - a)) + float(((1.0 + beta * s) * gdiff).sum())
            if biased:
                total += self.bias_lin[0] - self.bias_lin[1]
            return total

        lo, hi = 1e-15, 1.0 - 1e-15
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if deriv(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        a = 0.5 * (lo + hi)
        return np.array([a, 1.0 - a])

    def round(self, r):
        x = self.x
        ip = float(x @ r)
        loss = -math.log(ip)
        g = -r / ip
        self.grads = np.vstack([self.grads, g])
        self.anchor_dots = np.append(self.anchor_dots, float(x @ g))
        dp = self.p - self.p_prev
        self.bias_lin = self.bias_lin - self.params.B * dp
        x_next = self._argmin(biased=True)
        u_next = self._argmin(biased=False)
        p_next = np.maximum(self.p, 1.0 / x_next)
        reset = bool((self.params.reset_factor * u_next * p_next >= 1.0).any())
        if reset:
            self.reset_state()
        else:
            self.x, self.u = x_next, u_next
            self.p_prev, self.p = self.p, p_next
        return loss, reset


class TestDefaultParams:
    def test_formula_instantiation(self):
        p = default_params(2, 440)
        assert p.B == pytest.approx((264.0 / 5.0) * 2 * math.log(440))
        assert p.eta * 4.0 * p.B == 1.0
        assert p.beta * 7.0 * p.B == pytest.approx(11.0, rel=1e-15)

    def test_exact_couplings_for_valid_pairs(self):
        for d, T in [(2, 440), (3, 1000), (5, 2750)]:
            p = default_params(d, T)
            assert p.eta * 4.0 * p.B == 1.0
            p.validate()

    def test_horizon_too_small(self):
        with pytest.raises(ParameterError):
            default_params(3, 500)

    @staticmethod
    def literal(tuning, d, T):
        """The tuning written out for each domain: its params, or the message of the error it raises."""
        if T < 110 * d * d:
            return f"T >= 110*d^2 = {110 * d * d} required, got {T}"
        if tuning is default_params:
            cls, B = BisonsParams, (264.0 / 5.0) * d * math.log(T)
            beta = 11.0 / (7.0 * B)
        else:
            cls, B = QBisonsParams, (264.0 / 5.0) * d * d * math.log(T)
            beta = 11.0 * d / (7.0 * B)
        try:
            return cls(d=d, T=T, B=B, eta=1.0 / (4.0 * B), beta=beta).validate()
        except ParameterError as exc:
            return str(exc)

    @pytest.mark.parametrize("tuning, dims", [(default_params, range(2, 13)), (quantum.q_default_params, range(1, 13))],
                             ids=["simplex", "spectraplex"])
    def test_default_tunings_equal_the_literal_formulas(self, tuning, dims):
        for d in dims:
            for T in (1, 110 * d * d - 1, 110 * d * d, 990, 2750, 11_000, 10**6):
                expected = self.literal(tuning, d, T)
                if isinstance(expected, str):
                    with pytest.raises(ParameterError, match=f"^{re.escape(expected)}$"):
                        tuning(d, T)
                else:
                    got = tuning(d, T)
                    assert type(got) is type(expected) and vars(got) == vars(expected), (d, T)

    def test_override_validation(self):
        with pytest.raises(ParameterError):
            BisonsParams(d=2, T=1000, B=10.0, eta=0.1, beta=0.1).validate()  # eta > beta/4
        with pytest.raises(ParameterError):
            BisonsParams(d=2, T=1000, B=10.0, eta=0.001, beta=0.6).validate()  # beta too big
        with pytest.raises(ParameterError):
            BisonsParams(d=2, T=100, B=10.0, eta=0.001, beta=0.1).validate()  # T < 110 d^2

    @pytest.mark.parametrize("cls", [BisonsParams, QBisonsParams])
    def test_zero_bias_scale_rejected(self, cls):
        with pytest.raises(ParameterError):
            cls(d=2, T=1000, B=0.0, eta=0.01, beta=0.1).validate()


class TestUpdateBias:
    def test_max_rule(self):
        assert np.allclose(update_bias(np.array([1.0, 3.0]), np.array([0.5, 0.5])), [2.0, 3.0])

    def test_no_increase(self):
        assert np.allclose(update_bias(np.array([4.0, 4.0]), np.array([0.5, 0.5])), [4.0, 4.0])

    def test_uniform_first_step_is_identity(self):
        d = 3
        p0 = np.full(d, float(d))
        assert np.array_equal(update_bias(p0, np.full(d, 1.0 / d)), p0)

    def test_interiority_required(self):
        with pytest.raises(ValueError):
            update_bias(np.array([2.0, 2.0]), np.array([1.0, 0.0]))


class TestCheckReset:
    def test_uniform_start_no_reset(self):
        p = default_params(2, 440)
        u = np.array([0.5, 0.5])
        bias = np.array([2.0, 2.0])
        assert p.reset_factor * 0.5 * 2.0 < 1.0
        assert not check_reset(u, bias, p)

    def test_boundary_inclusive(self):
        p = default_params(2, 440)
        bias = np.array([10.0, 10.0])
        u_exact = 1.0 / (p.reset_factor * 10.0)
        assert check_reset(np.array([u_exact, 1e-9]), bias, p)

    def test_vanishing_product_no_reset(self):
        p = default_params(2, 440)
        assert not check_reset(np.array([1e-12, 1e-12]), np.array([2.0, 2.0]), p)


class TestBisonsRound:
    def test_first_round_plays_uniform(self):
        params = default_params(3, 1000)
        state = initial_state(params)
        assert np.allclose(state.x_cur, 1.0 / 3.0)
        assert np.allclose(state.u_cur, 1.0 / 3.0)
        state, rec = bisons_round(state, np.array([0.2, 0.3, 0.5]), params)
        assert rec.loss == pytest.approx(math.log(3.0)) and not rec.reset_triggered  # played the uniform x_cur

    def test_uniform_returns_are_stationary(self):
        params = default_params(2, 440)
        r = np.array([0.5, 0.5])
        res = run_bisons([r] * 100, params)
        assert np.allclose(res.losses, math.log(2.0), atol=1e-12)
        assert res.reset_times == []
        assert res.violations == []
        assert res.plays.shape == (100, 2)
        assert np.abs(res.plays - 0.5).max() <= 1e-7

    def test_matches_independent_reference_loop(self):
        params = default_params(2, 440)
        rng = np.random.default_rng(42)
        R = rng.dirichlet(np.ones(2), size=30)
        ref = ReferenceBisons2D(params)
        res = run_bisons(R, params, tol=1e-12, keep_states=True)
        for t, row in enumerate(R):
            loss_ref, reset_ref = ref.round(row)
            assert res.losses[t] == pytest.approx(loss_ref, abs=1e-10)
            assert res.resets[t] == reset_ref
            x_next = res.states[t][0]
            if not reset_ref:
                assert np.abs(x_next - ref.x).max() <= 1e-7
                assert np.abs(res.states[t][1] - ref.u).max() <= 1e-7

    def test_reference_loop_agreement_through_resets(self):
        params = crash_params()
        R = adversary_returns("single-asset-crash", 2, 1000, 0)[:780]
        ref = ReferenceBisons2D(params)
        res = run_bisons(R, params, tol=1e-12, keep_states=True)
        resets_ref = []
        for t, row in enumerate(R):
            _, reset_ref = ref.round(row)
            if reset_ref:
                resets_ref.append(t + 1)
        assert res.reset_times == resets_ref
        assert len(resets_ref) >= 1

    def test_crash_sequence_triggers_reset(self):
        params = crash_params()
        R = adversary_returns("single-asset-crash", 2, 1000, 0)
        res = run_bisons(R, params)
        assert len(res.reset_times) >= 1
        assert res.reset_times[0] < 1000
        assert res.violations == []

    def test_epoch_restart_state(self):
        params = crash_params()
        R = adversary_returns("single-asset-crash", 2, 1000, 0)
        res = run_bisons(R, params, keep_states=True)
        t_reset = res.reset_times[0]
        assert res.resets[t_reset - 1]  # row t-1 is round t
        assert np.allclose(res.plays[t_reset], 0.5)  # round t_reset+1 starts the new epoch


class TestRunBisons:
    def test_empty_sequence(self):
        params = default_params(2, 440)
        res = run_bisons([], params)
        assert res.losses.shape == res.resets.shape == (0,) and res.plays.shape == (0, 2)
        assert res.reset_times == []

    def test_single_round_uniform_loss(self):
        params = default_params(2, 440)
        r = np.array([0.8, 0.2])
        res = run_bisons([r], params)
        assert len(res.losses) == 1
        assert res.losses[0] == pytest.approx(-math.log(0.5 * 0.8 + 0.5 * 0.2))

    def test_returns_normalized_on_ingestion(self):
        params = default_params(2, 440)
        res_scaled = run_bisons([np.array([8.0, 2.0])], params)
        res_plain = run_bisons([np.array([0.8, 0.2])], params)
        assert res_scaled.losses[0] == pytest.approx(res_plain.losses[0], abs=1e-15)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_row_rejected(self, bad):
        params = default_params(2, 440)
        with pytest.raises(InvalidReturnsError, match="finite"):
            run_bisons([np.array([0.5, 0.5]), np.array([bad, 1.0])], params)

    def test_rejected_row_names_its_round(self):
        params = default_params(2, 440)
        with pytest.raises(InvalidReturnsError, match=r"t=2: returns entries must be finite"):
            run_bisons([np.array([0.5, 0.5]), np.array([math.inf, 1.0])], params)

    @pytest.mark.parametrize("rows, message", [
        ([[0.5, 0.5], [math.inf, 1.0], [-1.0, 1.0]], "t=2: returns entries must be finite"),
        ([[0.5, 0.5], [-1.0, 1.0], [math.nan, 1.0]], "t=2: returns entries must be nonnegative"),
        ([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0], [math.inf, 1.0]], "t=3: returns vector must have a positive entry"),
    ], ids=["finite", "nonnegative-before-a-nan", "zero-before-an-inf"])
    def test_first_rejected_row_names_its_round(self, rows, message):
        with pytest.raises(InvalidReturnsError, match=f"^{re.escape(message)}$"):
            run_bisons(np.array(rows), default_params(2, 440))

    def test_solver_failure_names_its_round(self, fail_solve):
        # the solves of t=735, the sixth round of the epoch that the t=729 reset opens; the biased one fails first
        failing = fail_solve(vector, "minimize_simplex", 735)
        R = adversary_returns("single-asset-crash", 2, 1000, 0)
        with pytest.raises(SolverFailure, match=r"^t=735 \(epoch 2, tau 6\): no convergence in 0 iterations") as exc_info:
            run_bisons(R, crash_params())
        assert exc_info.value.__cause__ is failing[0]
        assert exc_info.value.report is failing[0].report

    def test_longer_than_horizon_rejected(self):
        params = default_params(2, 440)
        with pytest.raises(ValueError):
            run_bisons([np.array([0.5, 0.5])] * 441, params)

    @pytest.mark.parametrize("run, stream, message", [
        ("qbisons", np.tile(np.eye(2, dtype=complex) / 2, (1, 500, 1, 1)),
         "need a (d, d) loss matrix or an (n, d, d) stack, got shape (1, 500, 2, 2)"),
        ("qbisons", np.eye(2, dtype=complex) / 2,
         "need one input of shape (2, 2) per round, got an array of shape (2, 2)"),
        ("bisons", np.array([0.3, 0.7]), "need one input of shape (2,) per round, got an array of shape (2,)"),
        ("bisons", np.full((2, 2, 2), 0.5), "returns must be a vector or a stack of vectors"),
        ("bisons", np.full((5, 3), 1.0 / 3.0), "need one input of shape (2,) per round, got an array of shape (5, 3)"),
        ("bisons", np.float64(1.0), "need a stack of inputs, got a float64 with no length"),
        ("bisons", iter([[0.3, 0.7]] * 3), "need a stack of inputs, got a list_iterator with no length"),
        ("bisons", (row for row in [[0.3, 0.7]] * 3), "need a stack of inputs, got a generator with no length"),
        ("qbisons", iter([np.eye(2) / 2] * 3), "need a stack of inputs, got a list_iterator with no length"),
    ], ids=["4-d-loss-matrices", "one-loss-matrix", "one-returns-vector", "3-d-returns", "wide-rows",
            "scalar-returns", "iterator-of-rows", "generator-of-rows", "iterator-of-loss-matrices"])
    def test_non_stack_rejected_before_round_1(self, monkeypatch, run, stream, message):
        domain, params = {"bisons": (SIMPLEX, default_params(2, 440)),
                          "qbisons": (SPECTRAPLEX, quantum.q_default_params(2, 440))}[run]
        monkeypatch.setattr(domain, "round", lambda *args, **kwargs: pytest.fail("a round was played"))
        with pytest.raises(InvalidReturnsError, match=f"^{re.escape(message)}$"):
            {"bisons": run_bisons, "qbisons": run_qbisons}[run](stream, params)

    def test_monitors_clean_on_random_run(self):
        params = default_params(3, 990)
        R = adversary_returns("iid-dirichlet", 3, 300, 7)
        res = run_bisons(R, params)
        assert res.violations == []

    def test_bias_range_and_monotonicity(self):
        params = crash_params()
        R = adversary_returns("single-asset-crash", 2, 1000, 1)
        res = run_bisons(R, params, keep_states=True)
        prev_p = np.array([2.0, 2.0])
        prev_reset = False
        for reset, (x_next, u_next, p_next) in zip(res.resets, res.states):
            if prev_reset:
                prev_p = np.array([2.0, 2.0])
            assert (p_next >= prev_p - 1e-12).all()
            assert (p_next <= params.T**2 + 1e-8).all()
            assert (p_next >= 1.0 / x_next - 1e-9).all()
            prev_p = p_next
            prev_reset = reset

    def test_cost_of_bias_telescoping(self):
        # per completed epoch: sum_tau <x_tau, p_tau - p_{tau-1}> <= sum_i log(p_L,i / d)
        params = crash_params()
        R = adversary_returns("single-asset-crash", 2, 1000, 0)
        res = run_bisons(R, params, keep_states=True)
        t_reset = res.reset_times[0]
        cost = 0.0
        p_prev = np.array([2.0, 2.0])  # p_1 = p_0
        for t in range(1, t_reset):  # x_{tau+1} = states[t-1][0], p_{tau+1} = states[t-1][2]
            x_next, _, p_next = res.states[t - 1]
            cost += float(x_next @ (p_next - p_prev))
            p_prev = p_next
        p_final = res.states[t_reset - 1][2]
        assert cost <= float(np.log(p_final / 2.0).sum()) + 1e-8

    def test_regret_under_epoch_bound_smoke(self):
        params = default_params(2, 1000)
        R = adversary_returns("iid-dirichlet", 2, 1000, 3)
        res = run_bisons(R, params)
        from bisons.harness import best_crp

        _, best = best_crp(R)
        bound = 740.0 * 4 * math.log(1000) ** 2
        assert res.losses.sum() - best <= bound


OBSERVED = ("x_old", "u_old", "p_old", "x_next", "u_next", "p_next")


X_MOVED = 0.5 / 1.09  # diag(X_MOVED, 1 - X_MOVED) stays within the 1+6eta ratio of I/2


class TestStabilityMonitor:
    @pytest.mark.parametrize("domain_name", ["simplex", "spectraplex"])
    @pytest.mark.parametrize("changes, message", [
        ({"x_next": [0.7, 0.3], "p_old": [4.0, 4.0], "p_next": [4.0, 4.0]}, "play ratio outside 1+6eta"),
        ({"x_next": [X_MOVED, 1 - X_MOVED], "p_old": [2.2, 2.2], "p_next": [2.42, 2.2]},
         "bias grew faster than 1+6eta"),
        ({"x_next": [X_MOVED, 1 - X_MOVED], "p_old": [2.2, 2.2], "p_next": [2.2, 2.1]}, "bias decreased"),
        ({"u_old": [0.3, 0.7], "u_next": [0.7, 0.3]}, "comparator more than doubled"),
        ({"p_old": [2.0, 1.9], "p_next": [2.0, 1.9]}, "bias below inverse play"),
        ({"p_old": [2.0, 2.0 - 5e-9], "p_next": [2.0, 2.0 - 5e-9]}, "bias below inverse play"),  # its 1e-9 bound
        ({"p_old": [1e6 + 1.0, 2.0], "p_next": [1e6 + 1.0, 2.0]}, "bias above T^2"),
        ({"p_next": [2.1, 2.0]}, "bias increment norm above play increment norm"),
    ])
    def test_each_check_fires_alone(self, changes, message, domain_name):
        # a maximally mixed round passes every check; each case breaks exactly one, given as
        # eigenvalues: the arrays themselves on the simplex, matrices in a rotated basis on the spectraplex
        eigs = {"x_old": [0.5, 0.5], "u_old": [0.5, 0.5], "p_old": [2.0, 2.0],
                "x_next": [0.5, 0.5], "u_next": [0.5, 0.5], "p_next": [2.0, 2.0], **changes}
        if domain_name == "simplex":
            domain, params, arrays = SIMPLEX, crash_params(), (np.array(eigs[k]) for k in OBSERVED)
        else:
            V = random_unitary(np.random.default_rng(0), 2)
            domain, params = SPECTRAPLEX, QBisonsParams(d=2, T=1000, **CRASH_PARAMS).validate()
            arrays = ((V * eigs[k]) @ V.conj().T for k in OBSERVED)
        mon = domain.monitor(params)
        mon.observe(7, *arrays)
        mon.flush()
        assert mon.violations == [f"t=7: {message}"]


def observed_rounds(domain, res, d):
    """The (t, x_old, u_old, p_old, x_next, u_next, p_next) that ``run_epochs`` hands its monitor,
    rebuilt from a ``keep_states`` run: an epoch starts from the domain's centre."""
    x0, p0 = domain.centre(d)
    rounds, old = [], (x0, x0, p0)
    for t, (reset, new) in enumerate(zip(res.resets, res.states), start=1):
        rounds.append([t, *old, *new])
        old = (x0, x0, p0) if reset else new
    return rounds


# round -> (index into OBSERVED, how that array is spoiled)
FAULTS = {
    128: (5, lambda a: 1.2 * a),   # the last round of the first chunk
    129: (3, np.flip),             # the first round of the second
    730: (4, lambda a: 3.0 * a),   # the first round after the t=729 reset
    999: (5, lambda a: 0.5 * a),
    1000: (5, lambda a: 1e7 * a),  # the final, partial chunk
}

# messages of the monitor that checked each round on arrival, on the same inputs, on either domain
FAULT_MESSAGES = [
    "t=128: bias grew faster than 1+6eta",
    "t=128: bias increment norm above play increment norm",
    "t=129: play ratio outside 1+6eta",
    "t=129: bias below inverse play",
    "t=730: comparator more than doubled",
    "t=999: bias decreased",
    "t=999: bias below inverse play",
    "t=999: bias increment norm above play increment norm",
    "t=1000: bias grew faster than 1+6eta",
    "t=1000: bias above T^2",
    "t=1000: bias increment norm above play increment norm",
]


def crash_run(domain_name, T, **kwargs):
    """BISONS, or Q-BISONS on the diagonal embedding, over the first T rows of the d=2 crash
    sequence; returns the domain, a fresh monitor for the run's parameters and the run."""
    R = adversary_returns("single-asset-crash", 2, 1000, 0)[:T]
    if domain_name == "simplex":
        domain, params, run, stream = SIMPLEX, crash_params(), run_bisons, R
    else:
        domain, params, run = SPECTRAPLEX, QBisonsParams(d=2, T=1000, **CRASH_PARAMS).validate(), run_qbisons
        stream = [np.diag(r).astype(complex) for r in R]
    return domain, domain.monitor(params), run(stream, params, **kwargs)


class TestMonitorChunks:
    @pytest.mark.parametrize("domain_name", ["simplex", "spectraplex"])
    def test_messages_across_chunks_and_a_reset(self, domain_name):
        assert 128 % MONITOR_CHUNK == 0 and 1000 % MONITOR_CHUNK != 0  # faults straddle a boundary
        domain, mon, res = crash_run(domain_name, 1000, keep_states=True)
        assert res.reset_times == [729]
        rounds = observed_rounds(domain, res, 2)
        for t, (k, spoil) in FAULTS.items():
            rounds[t - 1][1 + k] = spoil(rounds[t - 1][1 + k])
        for args in rounds:
            mon.observe(*args)
        mon.flush()
        assert mon.violations == FAULT_MESSAGES

    @pytest.mark.parametrize("domain_name, module, name", [
        ("simplex", vector, "update_bias"),
        ("spectraplex", quantum, "q_update_bias"),
    ])
    def test_run_reports_its_final_partial_chunk(self, monkeypatch, domain_name, module, name):
        assert 300 % MONITOR_CHUNK != 0
        update, calls = getattr(module, name), [0]

        def spoil_last(P, X):
            calls[0] += 1
            return 1e7 * update(P, X) if calls[0] == 300 else update(P, X)

        monkeypatch.setattr(module, name, spoil_last)
        _, _, res = crash_run(domain_name, 300)
        assert res.violations == ["t=300: bias grew faster than 1+6eta", "t=300: bias above T^2",
                                  "t=300: bias increment norm above play increment norm"]


SINGULAR_PLAY = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)  # not diagonal, so no simplex shortcut


class TestRoundErrors:
    """An error raised inside a round leaves ``run_epochs`` as its own type, prefixed with the round, its
    epoch and internal time, and with the original as its cause.  Each is raised by the real function,
    handed a bad argument on its 731st call (one call a round): round 731 is the second round of the epoch
    that the t=729 reset opens."""

    @pytest.mark.parametrize("domain_name, owner, name, spoil, error", [
        ("simplex", vector, "log_loss_and_gradient", lambda x, r: (x, 0.0 * r), InfiniteLossError),
        ("simplex", vector, "update_bias", lambda p, x: (p, 0.0 * x), ValueError),
        ("spectraplex", quantum.Spectraplex, "loss", lambda self, X, R: (self, X, 0.0 * R), InfiniteLossError),
        ("spectraplex", quantum, "q_update_bias", lambda P, X: (P, SINGULAR_PLAY), ConditioningError),
    ], ids=["infinite-loss", "bias-update", "trace-product", "conditioning"])
    def test_error_names_its_round(self, monkeypatch, domain_name, owner, name, spoil, error):
        fn, calls, raised = getattr(owner, name), [0], []

        def spoiled(*args):
            calls[0] += 1
            if calls[0] != 731:
                return fn(*args)
            try:
                return fn(*spoil(*args))
            except Exception as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(owner, name, spoiled)
        with pytest.raises(error) as exc_info:
            crash_run(domain_name, 731)
        assert type(exc_info.value) is type(raised[0]) is error
        assert str(exc_info.value) == f"t=731 (epoch 2, tau 2): {raised[0]}"
        assert exc_info.value.__cause__ is raised[0]
