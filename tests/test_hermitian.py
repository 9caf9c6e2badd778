import math
import re

import numpy as np
import pytest

from bisons.geometry import InvalidReturnsError
from bisons.hermitian import (
    Measurements,
    MissingRandomnessError,
    a_norm,
    hermitian_basis,
    hermitize,
    min_eig,
    phi_dual,
    phi_scale,
    positive_part,
    random_density,
    random_effect,
    random_hermitian,
    random_pd,
    random_unitary,
    reduce_measurement,
    sqrt_psd,
    trace_inner,
    trace_slots,
    unvectorize_phi,
    vectorize_phi,
)


class TestTraceInner:
    def test_identity_gives_trace(self):
        rng = np.random.default_rng(0)
        X = random_hermitian(rng, 4)
        assert trace_inner(np.eye(4), X) == pytest.approx(np.trace(X).real, abs=1e-12)

    def test_zero(self):
        rng = np.random.default_rng(1)
        X = random_hermitian(rng, 3)
        assert trace_inner(X, np.zeros((3, 3))) == 0.0

    def test_against_entrywise_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = rng.integers(2, 6)
            X = random_hermitian(rng, d)
            Y = random_hermitian(rng, d)
            direct = sum(X[i, j] * Y[j, i] for i in range(d) for j in range(d))
            assert abs(direct.imag) <= 1e-10
            assert trace_inner(X, Y) == pytest.approx(direct.real, abs=1e-10)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            trace_inner(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("d", range(1, 6))
    def test_stack_equals_each_product_alone(self, d):
        rng = np.random.default_rng(20 + d)
        X = random_density(rng, d)
        mats = np.array([random_pd(rng, d) for _ in range(40)])
        alone = np.array([float(np.trace(X @ R).real) for R in mats])
        assert trace_inner(X, mats).tobytes() == alone.tobytes()
        assert np.array([trace_inner(X, R) for R in mats]).tobytes() == alone.tobytes()

    def test_stack_rejects_an_imaginary_residual(self):
        mats = np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]], dtype=complex)
        with pytest.raises(ArithmeticError, match="imaginary residual 1.0"):
            trace_inner(np.array([[0.0, 0.0], [1j, 0.0]]), mats)


class TestPositivePart:
    def test_diagonal(self):
        out = positive_part(np.diag([2.0, -1.0]).astype(complex))
        assert np.allclose(out, np.diag([2.0, 0.0]), atol=1e-14)

    def test_psd_fixed_point(self):
        rng = np.random.default_rng(3)
        M = random_pd(rng, 3)
        assert np.abs(positive_part(M) - M).max() <= 1e-10

    def test_against_independent_eigendecomposition(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = rng.integers(2, 5)
            M = random_hermitian(rng, d)
            out = positive_part(M)
            # oracle: rebuild from scratch with a separate eigendecomposition
            w, V = np.linalg.eigh(M)
            oracle = (V * np.maximum(w, 0.0)) @ V.conj().T
            assert np.abs(out - oracle).max() <= 1e-9
            # M_+ >= M, and the defect has rank = number of negative eigenvalues
            assert min_eig(out - M) >= -1e-10
            defect = out - M
            rank = int((np.linalg.eigvalsh(defect) > 1e-9).sum())
            assert rank == int((w < -1e-9).sum())


class TestANorm:
    def test_identity_weight_is_frobenius(self):
        rng = np.random.default_rng(5)
        W = random_hermitian(rng, 4)
        assert a_norm(W, np.eye(4)) == pytest.approx(np.linalg.norm(W), rel=1e-10)

    def test_zero(self):
        assert a_norm(np.zeros((3, 3)), np.eye(3)) == 0.0

    def test_diagonal_closed_form(self):
        w = np.array([1.5, -2.0, 0.25])
        a = np.array([0.5, 2.0, 3.0])
        expected = math.sqrt(float(((w * a) ** 2).sum()))
        assert a_norm(np.diag(w).astype(complex), np.diag(a).astype(complex)) == pytest.approx(expected, rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = rng.integers(2, 5)
            A = random_pd(rng, d)
            V = random_hermitian(rng, d)
            W = random_hermitian(rng, d)
            assert a_norm(V + W, A) <= a_norm(V, A) + a_norm(W, A) + 1e-10


class TestStackedHelpers:
    """The helpers on (..., d, d) stacks equal their per-matrix calls bit for bit."""

    @staticmethod
    def stacks(d):
        rng = np.random.default_rng(d)
        M = rng.normal(size=(3, 4, d, d)) + 1j * rng.normal(size=(3, 4, d, d))
        A = M @ M.conj().swapaxes(-1, -2) + 0.1 * np.eye(d)  # PD
        return M, A

    @pytest.mark.parametrize("d", range(1, 7))
    def test_stack_equals_per_matrix_calls(self, d):
        M, A = self.stacks(d)
        H = hermitize(M)
        eigs, roots, invs, norms = min_eig(H), sqrt_psd(A), np.linalg.inv(A), a_norm(H, A)
        parts = positive_part(H)
        assert eigs.shape == norms.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert np.array_equal(H[idx], hermitize(M[idx]))
            assert eigs[idx] == min_eig(H[idx])
            assert np.array_equal(roots[idx], sqrt_psd(A[idx]))
            assert np.array_equal(parts[idx], positive_part(H[idx]))
            assert np.array_equal(invs[idx], np.linalg.inv(A[idx]))
            assert norms[idx] == a_norm(H[idx], A[idx])

    @pytest.mark.parametrize("d", range(1, 7))
    def test_matrix_results_match_transpose_forms(self, d):
        # the single-matrix forms the stacked helpers replaced, written with .T
        M, A = self.stacks(d)
        M, A = M[1, 2], A[1, 2]
        H = 0.5 * (M + M.conj().T)
        w, V = np.linalg.eigh(0.5 * (A + A.conj().T))
        S = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
        S = 0.5 * (S + S.conj().T)
        assert np.array_equal(hermitize(M), H)
        assert min_eig(H) == float(np.linalg.eigvalsh(0.5 * (H + H.conj().T)).min())
        assert type(min_eig(H)) is float and type(a_norm(H, A)) is float
        assert np.array_equal(sqrt_psd(A), S)
        assert a_norm(H, A) == float(np.linalg.norm(S @ H @ S))


class TestPhi:
    def test_zero(self):
        assert np.all(vectorize_phi(np.zeros((3, 3))) == 0.0)

    def test_d2_ordering(self):
        M = np.array([[1.0, 2.0 + 3.0j], [2.0 - 3.0j, 4.0]])
        assert np.allclose(vectorize_phi(M), [2.0, 3.0, 1.0, 4.0])

    def test_d4_ordering(self):
        # strict lower triangle column by column: (2,1) precedes (3,2) here,
        # where row-major order would swap slots 2 and 3
        lower = [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1), (3, 2)]
        M = np.diag([21.0, 22.0, 23.0, 24.0]).astype(complex)
        for k, (i, j) in enumerate(lower):
            M[i, j] = (k + 1) - 1j * (k + 11)
            M[j, i] = (k + 1) + 1j * (k + 11)
        v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 21.0, 22.0, 23.0, 24.0]
        assert vectorize_phi(M).tolist() == v
        assert np.array_equal(unvectorize_phi(v, 4), M)

    def test_maps_bit_identical_to_loop_oracle(self):
        def lower(d):
            return [(i, j) for j in range(d) for i in range(j + 1, d)]

        def phi_loop(M):
            d = M.shape[0]
            n = d * (d - 1) // 2
            out = np.empty(d * d)
            for k, (i, j) in enumerate(lower(d)):
                out[k] = M[i, j].real
                out[n + k] = M[j, i].imag
            out[2 * n:] = np.diagonal(M).real
            return out

        def unphi_loop(v, d):
            n = d * (d - 1) // 2
            M = np.zeros((d, d), dtype=complex)
            for k, (i, j) in enumerate(lower(d)):
                M[j, i] = v[k] + 1j * v[n + k]
                M[i, j] = v[k] - 1j * v[n + k]
            M[np.diag_indices(d)] = v[2 * n:]
            return M

        rng = np.random.default_rng(14)
        for d in range(1, 9):
            mats, vecs = [], []
            for _ in range(50):
                M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                v = rng.normal(size=d * d)
                M[rng.random((d, d)) < 0.2] = -0.0
                M.imag[rng.random((d, d)) < 0.2] = -0.0
                v[rng.random(d * d) < 0.2] = -0.0
                v[rng.random(d * d) < 0.1] = 0.0
                assert vectorize_phi(M).tobytes() == phi_loop(M).tobytes()
                assert unvectorize_phi(v, d).tobytes() == unphi_loop(v, d).tobytes()
                mats.append(M)
                vecs.append(v)
            # stacks, also in Fortran order, map slice by slice into C-ordered results
            M, v = np.array(mats).reshape(5, 10, d, d), np.array(vecs).reshape(5, 10, d * d)
            phis = np.array([phi_loop(m) for m in mats]).reshape(5, 10, d * d)
            for stack, coords in ((M, v), (np.asfortranarray(M), np.asfortranarray(v))):
                for f, expected in ((vectorize_phi, phis), (phi_dual, phi_scale(d) * phis)):
                    assert f(stack).tobytes() == expected.tobytes() and f(stack).flags.c_contiguous
                back = unvectorize_phi(coords, d)
                assert back.tobytes() == np.array([unphi_loop(u, d) for u in vecs]).tobytes()
                assert back.shape == (5, 10, d, d) and back.flags.c_contiguous

    def test_trace_slots_and_scale(self):
        for d in range(1, 7):
            n = d * (d - 1) // 2
            assert trace_slots(d).tobytes() == np.concatenate([np.zeros(2 * n), np.ones(d)]).tobytes()
            assert phi_scale(d).tobytes() == np.concatenate([np.full(2 * n, 2.0), np.ones(d)]).tobytes()

    @pytest.mark.parametrize("table", [trace_slots, phi_scale])
    def test_tables_are_cached_and_read_only(self, table):
        for d in range(1, 5):
            assert table(d) is table(d)
            assert not table(d).flags.writeable
            with pytest.raises(ValueError):
                table(d)[0] = 5.0

    @pytest.mark.parametrize("d", range(1, 6))
    def test_phi_over_a_stack_equals_each_matrix_alone(self, d):
        rng = np.random.default_rng(30 + d)
        mats = np.array([random_hermitian(rng, d) for _ in range(2 * 3 * 5)])
        for f in (vectorize_phi, phi_dual):
            alone = np.array([f(M) for M in mats])
            assert f(mats).tobytes() == alone.tobytes()
            assert f(mats).flags.c_contiguous  # a BLAS product over the rows sums in the order of their layout
            assert f(mats.reshape(2, 15, d, d)).tobytes() == alone.tobytes()

    def test_round_trip(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            d = rng.integers(1, 6)
            M = random_hermitian(rng, d)
            back = unvectorize_phi(vectorize_phi(M), d)
            assert np.abs(back - M).max() <= 1e-14

    def test_inner_product_quadratic_form(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = rng.integers(2, 5)
            X = random_hermitian(rng, d)
            Y = random_hermitian(rng, d)
            via_phi = float(vectorize_phi(X) @ (phi_scale(d) * vectorize_phi(Y)))
            assert via_phi == pytest.approx(trace_inner(X, Y), abs=1e-10)
            assert float(vectorize_phi(X) @ phi_dual(Y)) == pytest.approx(trace_inner(X, Y), abs=1e-10)

    def test_basis_matches_coordinates(self):
        basis = hermitian_basis(3)
        for k in range(9):
            e = np.zeros(9)
            e[k] = 1.0
            assert np.abs(basis[k] - unvectorize_phi(e, 3)).max() == 0.0


class TestReduceMeasurement:
    def test_outcome_one(self):
        rng = np.random.default_rng(12)
        E = random_effect(rng, 3)
        ev = Measurements(E, 1.0)
        assert np.abs(reduce_measurement(ev)[0] - E).max() <= 1e-14

    def test_outcome_zero(self):
        rng = np.random.default_rng(13)
        E = random_effect(rng, 3)
        ev = Measurements(E, 0.0)
        assert np.abs(reduce_measurement(ev)[0] - (np.eye(3) - E)).max() <= 1e-14

    def test_fractional_needs_rng(self):
        ev = Measurements(np.eye(2) * 0.5, 0.3)
        with pytest.raises(MissingRandomnessError):
            reduce_measurement(ev)

    def test_invalid_effect_rejected(self):
        with pytest.raises(ValueError):
            Measurements(np.diag([1.5, 0.0]).astype(complex), 0.5)
        with pytest.raises(ValueError):
            Measurements(np.eye(2) * 0.5, 1.2)

    def test_monte_carlo_matches_kl_form(self):
        # E = I/2 makes <X, R> independent of X; the average loss over the
        # Bernoulli draw must match b log(2b) + (1-b) log(2(1-b)).
        rng = np.random.default_rng(14)
        d = 2
        b = 0.3
        n = 100_000
        ev = Measurements(np.broadcast_to(np.eye(d) * 0.5, (n, d, d)), np.full(n, b))
        X = random_density(rng, d)
        losses = -np.log(trace_inner(X, reduce_measurement(ev, rng)))
        expected = b * math.log(2 * b) + (1 - b) * math.log(2 * (1 - b))
        se = losses.std(ddof=1) / math.sqrt(n)
        assert abs(losses.mean() - expected) <= 3.0 * se

    def test_reduction_is_psd(self):
        rng = np.random.default_rng(15)
        effects = np.array([random_effect(rng, 3) for _ in range(20)])
        R = reduce_measurement(Measurements(effects, rng.uniform(0.05, 0.95, size=20)), rng)
        assert np.linalg.eigvalsh(hermitize(R)).min() >= -1e-10

    def test_one_draw_call_equals_single_draws(self):
        # the stacked reduction draws its m uniforms with one rng.random(m)
        for m in (1, 2, 7, 1000):
            one, single = np.random.default_rng(16), np.random.default_rng(16)
            assert one.random(m).tobytes() == np.array([single.random() for _ in range(m)]).tobytes()
            assert one.bit_generator.state == single.bit_generator.state


class TestMeasurements:
    @staticmethod
    def stack(n=6, d=3):
        rng = np.random.default_rng(17)
        return np.array([random_effect(rng, d) for _ in range(n)]), rng.uniform(0.05, 0.95, size=n)

    def test_a_single_event_is_a_stack_of_one(self):
        E, b = self.stack()
        one = Measurements(E[2], b[2])
        assert len(one) == 1 and one.effects.shape == (1, 3, 3) and one.outcomes.shape == (1,)
        assert one.effects.tobytes() == Measurements(E, b).effects[2:3].tobytes()

    def test_effects_kept_hermitized(self):
        E, b = self.stack()
        E[1, 0, 1] += 1e-13
        m = Measurements(E, b)
        assert m.effects.tobytes() == np.array([hermitize(e) for e in E]).tobytes()

    @pytest.mark.parametrize("effects, outcomes", [
        (np.zeros((2, 2, 3)), np.zeros(2)),
        (np.zeros((2, 2, 2)), np.zeros(3)),
        (np.zeros((2, 2)), np.zeros(1)),
    ], ids=["not-square", "count-mismatch", "scalar-outcome-for-one"])
    def test_shapes_checked(self, effects, outcomes):
        with pytest.raises(ValueError, match="^need \\(n, d, d\\) effects and n outcomes"):
            Measurements(effects, outcomes)

    @pytest.mark.parametrize("first, later", [
        ("hermitian", "eigenvalues-low"),
        ("eigenvalues-high", "outcome"),
        ("eigenvalues-low", "hermitian"),
        ("outcome", "hermitian"),
        ("outcome-nan", "eigenvalues-high"),
    ])
    def test_stack_rejects_its_first_bad_item(self, first, later):
        """Item 2 fails one check and item 4 another: item 2's message wins, as when it is checked alone."""
        effects, outcomes = np.tile(np.eye(2) * 0.5, (6, 1, 1)).astype(complex), np.full(6, 0.5)
        effects[2], outcomes[2], message = BAD_MEASUREMENTS[first]
        effects[4], outcomes[4], _ = BAD_MEASUREMENTS[later]
        with pytest.raises(InvalidReturnsError, match=f"^{re.escape(message)}$") as err:
            Measurements(effects, outcomes)
        assert err.value.index == 2
        with pytest.raises(InvalidReturnsError, match=f"^{re.escape(message)}$") as err:
            Measurements(effects[2], outcomes[2])
        assert err.value.index == 0


#: name -> effect and outcome of a measurement that fails one check, and the message it is rejected with
BAD_MEASUREMENTS = {
    "hermitian": (np.array([[0.5, 0.3], [0.0, 0.5]]), 0.5, "effect must be Hermitian"),
    "eigenvalues-high": (np.diag([1.5, 0.5]), 0.5, "effect eigenvalues must lie in [0, 1], got [0.5, 1.5]"),
    "eigenvalues-low": (np.diag([0.5, -0.25]), 0.5, "effect eigenvalues must lie in [0, 1], got [-0.25, 0.5]"),
    "outcome": (np.eye(2) * 0.5, 1.25, "outcome must lie in [0, 1], got 1.25"),
    "outcome-nan": (np.eye(2) * 0.5, math.nan, "outcome must lie in [0, 1], got nan"),
}


class TestMatrixCalculus:
    """Finite-difference checks of the gradient/Hessian identities used throughout."""

    @staticmethod
    def _unit_trace_zero_direction(rng, d):
        D = random_hermitian(rng, d)
        D -= np.trace(D).real / d * np.eye(d)
        return D / np.linalg.norm(D)

    def test_log_trace_gradient(self):
        rng = np.random.default_rng(16)
        h = 1e-6
        for _ in range(25):
            d = rng.integers(2, 5)
            X = 0.5 * random_density(rng, d) + 0.5 * np.eye(d) / d
            R = random_effect(rng, d)
            R = R / np.trace(R).real
            D = self._unit_trace_zero_direction(rng, d)
            f = lambda Y: -math.log(trace_inner(Y, R))
            fd = (f(X + h * D) - f(X)) / h
            exact = trace_inner(D, -R / trace_inner(X, R))
            assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))

    def test_log_det_gradient(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(25):
            d = rng.integers(2, 5)
            X = random_pd(rng, d, 0.5, 2.0)
            D = self._unit_trace_zero_direction(rng, d)
            f = lambda Y: -2.0 * float(np.log(np.diagonal(np.linalg.cholesky(Y)).real).sum())
            fd = (f(X + h * D) - f(X)) / h
            exact = trace_inner(D, -np.linalg.inv(X))
            assert abs(fd - exact) <= 1e-5 * max(1.0, abs(exact))

    def test_log_det_hessian_quadratic_form(self):
        rng = np.random.default_rng(18)
        h = 1e-4
        for _ in range(25):
            d = rng.integers(2, 5)
            X = random_pd(rng, d, 0.5, 2.0)
            D = random_hermitian(rng, d)
            D /= np.linalg.norm(D)
            f = lambda Y: -2.0 * float(np.log(np.diagonal(np.linalg.cholesky(Y)).real).sum())
            fd2 = (f(X + h * D) - 2.0 * f(X) + f(X - h * D)) / (h * h)
            Xi = np.linalg.inv(X)
            exact = trace_inner(D @ Xi @ D, Xi)
            assert abs(fd2 - exact) <= 1e-4 * max(1.0, abs(exact))

    def test_hessian_lower_bound_small_trace(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            d = rng.integers(2, 5)
            X = random_density(rng, d)
            X = 0.9 * X + 0.1 * np.eye(d) / d  # PD with trace <= 1
            D = random_hermitian(rng, d)
            Xi = np.linalg.inv(X)
            quad = trace_inner(D @ Xi @ D, Xi)
            assert quad >= float(np.linalg.norm(D)) ** 2 - 1e-8

    def test_telescoping_log_det(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            d = rng.integers(2, 5)
            chain = [random_pd(rng, d, 0.5, 1.0)]
            for _ in range(6):
                chain.append(chain[-1] + 0.3 * (random_pd(rng, d, 0.0, 0.5) + 1e-3 * np.eye(d)))
            total = 0.0
            for A, B in zip(chain, chain[1:]):
                total += trace_inner(np.linalg.inv(B), B - A)
            logdet = lambda M: float(np.linalg.slogdet(M)[1])
            assert total <= logdet(chain[-1]) - logdet(chain[0]) + 1e-8

    def test_interval_eigenvalue_ratio(self):
        # ||A - B||_{B^{-1}} <= lam forces eig(B^{-1/2} A B^{-1/2}) into [1-lam, 1+lam]
        rng = np.random.default_rng(21)
        for _ in range(20):
            d = rng.integers(2, 5)
            B = random_pd(rng, d, 0.5, 2.0)
            A = B + 0.1 * random_hermitian(rng, d)
            if np.linalg.eigvalsh(A).min() <= 0:
                continue
            lam = a_norm(A - B, np.linalg.inv(B))
            S = sqrt_psd(np.linalg.inv(B))
            evs = np.linalg.eigvalsh(S @ A @ S)
            assert evs.min() >= 1.0 - lam - 1e-9
            assert evs.max() <= 1.0 + lam + 1e-9

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(22)
        U = random_unitary(rng, 4)
        assert np.abs(U @ U.conj().T - np.eye(4)).max() <= 1e-12
