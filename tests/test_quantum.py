import hashlib
import math

import numpy as np
import pytest

import bisons.quantum as quantum
from bisons.checks import CRASH_OVERRIDE
from bisons.geometry import InfiniteLossError, InvalidReturnsError
from bisons.harness import adversary_returns, derive_rng, load_measurements, measurement_stream
from bisons.hermitian import (
    ConditioningError,
    Measurements,
    MissingRandomnessError,
    hermitize,
    min_eig,
    positive_part,
    random_density,
    random_effect,
    random_hermitian,
    random_pd,
    random_unitary,
    sqrt_psd,
    trace_inner,
)
from bisons.quantum import (
    SPECTRAPLEX,
    QBisonsParams,
    ingest_loss_matrix,
    q_check_reset,
    q_default_params,
    q_update_bias,
    qbisons_round,
    run_qbisons,
)
from bisons.solver import SolverFailure
from bisons.vector import SIMPLEX, BisonsParams, check_reset, default_params, initial_state, run_bisons, update_bias


class TestQDefaultParams:
    def test_couplings(self):
        p = q_default_params(2, 440)
        assert p.B == pytest.approx((264.0 / 5.0) * 4 * math.log(440))
        assert p.eta * 4.0 * p.B == 1.0
        assert p.beta * 7.0 * p.B == pytest.approx(11.0 * 2, rel=1e-15)

    def test_horizon_too_small(self):
        with pytest.raises(Exception):
            q_default_params(3, 900)

    def test_d1_degenerates_to_zero_regret(self):
        p = q_default_params(1, 200)
        mats = [np.array([[2.0]], dtype=complex) for _ in range(20)]
        res = run_qbisons(mats, p)
        # normalized loss matrices are [[1.0]], the only state is [[1.0]]
        assert np.allclose(res.losses, 0.0, atol=1e-12)


class TestQUpdateBias:
    def test_uniform_start_fixed_point(self):
        d = 3
        P = float(d) * np.eye(d, dtype=complex)
        X = np.eye(d, dtype=complex) / d
        assert np.abs(q_update_bias(P, X) - P).max() <= 1e-12

    def test_diagonal_matches_vector_rule(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = int(rng.integers(2, 5))
            p = rng.uniform(1.0, 6.0, size=d)
            x = rng.dirichlet(np.ones(d))
            P = np.diag(p).astype(complex)
            X = np.diag(x).astype(complex)
            out = q_update_bias(P, X)
            expected = update_bias(p, x)
            assert np.array_equal(np.diagonal(out).real, expected)
            assert not np.count_nonzero(out - np.diag(np.diagonal(out)))

    def test_loewner_postconditions_and_cost_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = 3
            P = random_pd(rng, d, 1.0, 5.0)
            X = random_density(rng, d)
            X = 0.7 * X + 0.3 * np.eye(d) / d
            P2 = q_update_bias(P, X)
            assert min_eig(P2 - P) >= -1e-9
            assert min_eig(P2 - np.linalg.inv(X)) >= -1e-8
            lhs = trace_inner(X, P2 - P)
            rhs = trace_inner(np.linalg.inv(P2), P2 - P)
            assert abs(lhs - rhs) <= 1e-8

    def test_near_singular_play_raises(self):
        rng = np.random.default_rng(3)
        V = random_unitary(rng, 2)
        X = (V * np.array([1.0, 1e-14])) @ V.conj().T  # not diagonal, so the matrix rule runs
        with pytest.raises(ConditioningError):
            q_update_bias(random_pd(rng, 2, 1.0, 5.0), X)


class TestSpectralRebuildBits:
    """The bits of every spectral rebuild V diag(w) V^H at d = 3 and 5, which the golden runs (d = 2) and
    the benchmark (d = 4) miss: sha256 over C-order bytes, recorded with numpy 2.4.6 and Python 3.11.7 on
    x86-64.  On another numpy build a mismatch asks for the digests to be recomputed from a known-good
    commit, not for the code to change."""

    @staticmethod
    def digest(arrays):
        return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()

    def test_q_update_bias_on_non_diagonal_pairs(self):
        rng = np.random.default_rng(31)
        out = []
        for k in range(50):
            d = (3, 5)[k % 2]
            P = random_pd(rng, d, 1.0, 5.0)
            out.append(q_update_bias(P, 0.7 * random_density(rng, d) + 0.3 * np.eye(d) / d))
        assert self.digest(out) == "8ae07a4d74078adf174f38bc51c9f700eeece8940c16d1b040c20636080c9868"

    def test_sqrt_psd_and_positive_part_on_a_stack(self):
        rng = np.random.default_rng(32)
        H = np.array([random_hermitian(rng, 3) for _ in range(50)])
        assert self.digest([sqrt_psd(H), [positive_part(M) for M in H]]) == \
            "fea320c92072cc38ea42cf15ce68aa22bafbc0cad5033ca87aaa2f59ef5c1af2"

    def test_random_matrices_and_generator_state(self):
        rng = np.random.default_rng(33)
        out = [f(rng, 3) for _ in range(10) for f in (random_pd, random_effect, random_density)]
        assert self.digest(out + [rng.random(4)]) == "ca563b862dd4935f88da43e4506193128b4f4959885ca2249e90178cd08b606d"


class TestQCheckReset:
    def test_diagonal_agreement(self):
        params = q_default_params(2, 440)
        rng = np.random.default_rng(2)
        for _ in range(40):
            u = rng.uniform(0.0, 1.0, size=2)
            u = u / u.sum()
            p = rng.uniform(1.0, 600.0, size=2)
            got = q_check_reset(np.diag(u).astype(complex), np.diag(p).astype(complex), params)
            assert got == check_reset(u, p, params)

    def test_tiny_comparator_no_reset(self):
        params = q_default_params(3, 1000)
        U = 1e-9 * np.eye(3, dtype=complex)
        P = 3.0 * np.eye(3, dtype=complex)
        assert not q_check_reset(U, P, params)

    def test_rank_one_perturbation_triggers(self):
        params = q_default_params(2, 440)
        p = 5.0
        P = p * np.eye(2, dtype=complex)
        v = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
        U0 = (1.0 / (params.reset_factor * p)) * np.eye(2, dtype=complex)
        assert q_check_reset(U0 + 1e-6 * (v @ v.T), P, params)


class TestQBisonsRound:
    def test_first_round_plays_maximally_mixed(self):
        params = q_default_params(2, 440)
        state = initial_state(params, domain=SPECTRAPLEX)
        R = np.diag([0.7, 0.3]).astype(complex)
        assert np.abs(state.x_cur - np.eye(2) / 2).max() <= 1e-12
        state, rec = qbisons_round(state, R, params)
        assert rec.loss == pytest.approx(-math.log(0.5)) and not rec.reset_triggered

    def test_maximally_mixed_stream_is_stationary(self):
        params = q_default_params(2, 440)
        mats = [np.eye(2, dtype=complex) / 2] * 100
        res = run_qbisons(mats, params)
        assert np.allclose(res.losses, math.log(2.0), atol=1e-12)
        assert res.reset_times == []
        assert res.violations == []
        assert res.plays.shape == (100, 2, 2)
        assert np.abs(res.plays - np.eye(2) / 2).max() <= 1e-7

    def test_diagonal_stream_matches_vector_algorithm(self):
        d, T, n = 2, 440, 40
        params_v = default_params(d, T)
        params_q = QBisonsParams(d=d, T=T, B=params_v.B, eta=params_v.eta, beta=params_v.beta).validate()
        rng = np.random.default_rng(3)
        R = rng.dirichlet(np.ones(d), size=n)
        res_v = run_bisons(R, params_v, keep_states=True)
        res_q = run_qbisons([np.diag(r).astype(complex) for r in R], params_q, keep_states=True)
        for t in range(n):
            xv = res_v.states[t][0]
            Xq = res_q.states[t][0]
            assert np.abs(np.diagonal(Xq).real - xv).max() <= 1e-6
            assert np.abs(Xq - np.diag(np.diagonal(Xq))).max() <= 1e-10
        assert np.array_equal(res_v.resets, res_q.resets)


class TestRunQBisons:
    def test_empty_stream(self):
        params = q_default_params(2, 440)
        res = run_qbisons([], params)
        assert res.losses.shape == res.resets.shape == (0,) and res.plays.shape == (0, 2, 2)

    def test_single_projector_measurement(self):
        # trace-one effect: recorded loss is -log <I/d, E>
        params = q_default_params(2, 440)
        E = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        res = run_qbisons(Measurements(E, 1.0), params)
        assert res.losses[0] == pytest.approx(-math.log(trace_inner(np.eye(2) / 2, E)))

    def test_scaling_invariance_of_iterates(self):
        params = q_default_params(2, 440)
        rng = np.random.default_rng(4)
        mats = [random_density(rng, 2) + 0.05 * np.eye(2) for _ in range(15)]
        res_a = run_qbisons(mats, params, keep_states=True)
        res_b = run_qbisons([3.7 * R for R in mats], params, keep_states=True)
        for sa, sb in zip(res_a.states, res_b.states):
            assert np.abs(sa[0] - sb[0]).max() <= 1e-8

    def test_monitors_clean_on_measurement_stream(self):
        params = q_default_params(2, 440)
        stream = measurement_stream(2, 120, seed=5)
        res = run_qbisons(stream, params, rng=derive_rng(5, "reduction"))
        assert res.violations == []
        assert len(res.losses) == len(res.plays) == 120

    def test_comparator_dominated_by_scaled_plays(self):
        # while no reset occurred: U_tau <= beta^{-1} X_s for all s <= tau in the epoch
        params = q_default_params(2, 440)
        stream = measurement_stream(2, 60, seed=6)
        res = run_qbisons(stream, params, rng=derive_rng(6, "reduction"), keep_states=True)
        assert res.reset_times == []
        plays = [np.eye(2, dtype=complex) / 2] + [s[0] for s in res.states]
        comps = [np.eye(2, dtype=complex) / 2] + [s[1] for s in res.states]
        for tau in range(len(comps)):
            for s in range(tau + 1):
                assert min_eig(plays[s] / params.beta - comps[tau]) >= -1e-8

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_loss_matrix_rejected(self, bad):
        R = np.array([[bad, 0.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(InvalidReturnsError, match="finite"):
            ingest_loss_matrix(R)
        params = q_default_params(2, 440)
        with pytest.raises(InvalidReturnsError, match="finite"):
            run_qbisons([np.eye(2, dtype=complex), R], params)

    def test_vanishing_loss_raises_as_on_the_simplex(self):
        # <x, r> = 1e-301 lies below the simplex's 1e-300 floor; the spectraplex applies the same rule
        x, r = np.array([1e-301, 1.0]), np.array([1.0, 0.0])
        with pytest.raises(InfiniteLossError) as simplex:
            SIMPLEX.loss(x, r)
        with pytest.raises(InfiniteLossError) as spectraplex:
            SPECTRAPLEX.loss(np.diag(x).astype(complex), np.diag(r).astype(complex))
        assert type(spectraplex.value) is type(simplex.value)
        assert str(spectraplex.value) == str(simplex.value)

    def test_rejected_matrix_names_its_round(self):
        R = np.array([[math.inf, 0.0], [0.0, 1.0]], dtype=complex)
        params = q_default_params(2, 440)
        with pytest.raises(InvalidReturnsError, match=r"t=2: loss matrix entries must be finite"):
            run_qbisons([np.eye(2, dtype=complex), R], params)

    def test_solver_failure_names_its_round(self, crash_diagonal_runs, fail_solve):
        # the solves of t=731, the second round of the epoch that the t=729 reset opens; the biased one fails first
        R, params_q, _, _ = crash_diagonal_runs
        failing = fail_solve(quantum, "minimize_spectraplex", 731)
        with pytest.raises(SolverFailure, match=r"^t=731 \(epoch 2, tau 2\): no convergence in 0 iterations") as exc_info:
            run_qbisons([np.diag(r).astype(complex) for r in R], params_q)
        assert exc_info.value.__cause__ is failing[0]
        assert exc_info.value.report is failing[0].report

    def test_fractional_outcomes_need_rng(self):
        params = q_default_params(2, 440)
        ev = Measurements(np.eye(2) * 0.5, 0.4)
        with pytest.raises(MissingRandomnessError):
            run_qbisons(ev, params)


def ingest_alone(E, b, gen):
    """One measurement's trace-one loss matrix, reduced on its own with one draw from ``gen`` if b is fractional."""
    eye = np.eye(E.shape[0], dtype=complex)
    if b == 1.0:
        R = E.copy()
    elif b == 0.0:
        R = eye - E
    else:
        y = 1.0 if gen.random() < b else 0.0
        R = (y / b) * E + ((1.0 - y) / (1.0 - b)) * (eye - E)
    R = hermitize(R)
    return R / float(np.trace(R).real)


class TestIngestLossMatrix:
    @staticmethod
    def assert_equals_each_event_alone(meas):
        """The stack of ``meas`` and the generator's state after it are those of its events reduced
        and normalized one at a time in stream order."""
        gen_stack, gen_alone = np.random.default_rng(5), np.random.default_rng(5)
        stack = ingest_loss_matrix(meas, rng=gen_stack)
        alone = [ingest_alone(E, float(b), gen_alone) for E, b in zip(meas.effects, meas.outcomes)]
        assert stack.shape == meas.effects.shape
        assert stack.tobytes() == np.array(alone).tobytes()
        assert gen_stack.bit_generator.state == gen_alone.bit_generator.state

    def test_sequence_equals_each_item_alone(self):
        """Measurements with outcomes 0, 1 and fractional, ingested as one stack, and raw matrices
        ingested as one sequence, equal their items reduced and normalized one at a time."""
        rng = np.random.default_rng(21)
        effects = np.array([random_effect(rng, 3) for _ in range(60)])
        outcomes = np.choose(np.arange(60) % 3, [0.0, 1.0, rng.uniform(0.05, 0.95, size=60)])
        self.assert_equals_each_event_alone(Measurements(effects, outcomes))
        mats = [2.5 * random_density(rng, 3) for _ in range(15)]
        stack = ingest_loss_matrix(mats)
        assert stack.tobytes() == np.array([ingest_loss_matrix(R) for R in mats]).tobytes()
        assert stack.tobytes() == np.array([ingest_alone(R, 1.0, None) for R in mats]).tobytes()

    def test_generated_stream_equals_each_event_alone(self):
        self.assert_equals_each_event_alone(measurement_stream(3, 200, seed=7))

    def test_loaded_file_equals_each_event_alone(self, tmp_path):
        meas = measurement_stream(4, 150, seed=8)
        cells = np.empty((150, 33))
        cells[:, 0:-1:2] = meas.effects.reshape(150, -1).real
        cells[:, 1:-1:2] = meas.effects.reshape(150, -1).imag
        cells[:, -1] = np.choose(np.arange(150) % 3, [0.0, 1.0, meas.outcomes])
        np.savetxt(tmp_path / "m.csv", cells, fmt="%.17g", delimiter=",")
        loaded = load_measurements(str(tmp_path / "m.csv"))
        assert loaded.effects.tobytes() == meas.effects.tobytes()
        self.assert_equals_each_event_alone(loaded)

    def test_stack_of_one_draws_once(self):
        gen_one, gen_alone = np.random.default_rng(9), np.random.default_rng(9)
        E = random_effect(np.random.default_rng(10), 2)
        assert ingest_loss_matrix(Measurements(E, 0.3), rng=gen_one)[0].tobytes() == \
            ingest_alone(hermitize(E), 0.3, gen_alone).tobytes()
        assert gen_one.bit_generator.state == gen_alone.bit_generator.state

    @pytest.mark.parametrize("bad, index, message", [
        (["inf", "indefinite"], 1, "loss matrix entries must be finite"),
        (["indefinite", "nan"], 1, "loss matrix must be PSD"),
        (["identity", "zero", "inf"], 2, "loss matrix must have positive trace"),
    ], ids=["finite", "psd-before-a-nan", "trace-before-an-inf"])
    def test_sequence_rejects_its_first_bad_item(self, bad, index, message):
        mats = {"identity": np.eye(2), "zero": np.zeros((2, 2)), "indefinite": np.diag([1.0, -1.0]),
                "inf": np.diag([math.inf, 1.0]), "nan": np.diag([math.nan, 1.0])}
        items = [np.eye(2)] + [mats[name] for name in bad]
        with pytest.raises(InvalidReturnsError, match=f"^{message}$") as err:
            ingest_loss_matrix(items)
        assert err.value.index == index
        with pytest.raises(InvalidReturnsError, match=f"^{message}$") as err:
            ingest_loss_matrix(items[index])
        assert err.value.index is None
        with pytest.raises(InvalidReturnsError, match=f"^t={index + 1}: {message}$"):
            run_qbisons(items, q_default_params(2, 440))


@pytest.fixture(scope="module")
def crash_diagonal_runs():
    """BISONS and Q-BISONS on the diagonal embedding of a crash sequence that resets."""
    d, T = 2, 1000
    R = adversary_returns("single-asset-crash", d, T, 0)
    res_v = run_bisons(R, BisonsParams(d=d, T=T, **CRASH_OVERRIDE).validate())
    params_q = QBisonsParams(d=d, T=T, **CRASH_OVERRIDE).validate()
    res_q = run_qbisons([np.diag(r).astype(complex) for r in R], params_q)
    return R, params_q, res_v, res_q


class TestQBisonsResets:
    def test_diagonal_equivalence_through_reset(self, crash_diagonal_runs):
        _, _, res_v, res_q = crash_diagonal_runs
        assert res_v.reset_times == [729]
        assert res_q.reset_times == [729]
        assert res_v.violations == [] and res_q.violations == []
        diagonals = np.diagonal(res_q.plays, axis1=1, axis2=2)
        assert np.abs(diagonals.real - res_v.plays).max() <= 1e-12
        assert not np.count_nonzero(res_q.plays - diagonals[:, :, None] * np.eye(2))

    def test_unitary_covariance_through_reset(self, crash_diagonal_runs, monkeypatch):
        R, params_q, _, res_diag = crash_diagonal_runs
        V = random_unitary(np.random.default_rng(0), 2)
        diagonal_plays = []
        update = quantum.q_update_bias

        def spy(P, X):
            diagonal_plays.append(not np.count_nonzero(X - np.diag(np.diagonal(X))))
            return update(P, X)

        monkeypatch.setattr(quantum, "q_update_bias", spy)
        res = run_qbisons([V @ np.diag(r).astype(complex) @ V.conj().T for r in R], params_q)
        assert len(diagonal_plays) == len(R) and not any(diagonal_plays)
        assert res.reset_times == [729]
        assert res.violations == []
        assert np.abs(V.conj().T @ res.plays @ V - res_diag.plays).max() <= 1e-10
