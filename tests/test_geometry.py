import math

import numpy as np
import pytest

from bisons.geometry import (
    BETA_MAX,
    InfiniteLossError,
    InvalidReturnsError,
    build_surrogate,
    log_loss,
    normalize_returns,
    uniform_portfolio,
)
from bisons.solver import QuadraticObjective
from bisons.vector import SIMPLEX


def random_simplex(rng, d, floor=0.0):
    x = rng.dirichlet(np.ones(d))
    if floor > 0.0:
        x = (1.0 - d * floor) * x + floor
    return x


class TestNormalizeReturns:
    def test_uniform_scaling(self):
        assert np.allclose(normalize_returns([2.0, 2.0]), [0.5, 0.5])

    def test_already_normalized(self):
        assert np.allclose(normalize_returns([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])

    def test_hand_arithmetic(self):
        assert np.allclose(normalize_returns([3.0, 1.0]), [0.75, 0.25], atol=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidReturnsError):
            normalize_returns([0.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(InvalidReturnsError):
            normalize_returns([1.0, -0.5])

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidReturnsError, match="finite"):
            normalize_returns([bad, 1.0, 1.0])

    @pytest.mark.parametrize("d", range(2, 13))
    def test_stack_equals_each_row_alone(self, d):
        # d up to 12 takes the row sums past numpy's 8-way unrolled summation
        rng = np.random.default_rng(d)
        R = rng.dirichlet(np.ones(d), size=300) * rng.uniform(0.1, 10.0, size=(300, 1))
        R[:200] /= R[:200].sum(axis=1, keepdims=True)  # rows whose sums are 1 to within the 1e-12 tolerance
        R[100:200] *= 1.0 + 2e-12  # rows just off it

        def alone(r):
            s = r.sum()
            return r if abs(s - 1.0) <= 1e-12 else r / s

        kept = [abs(r.sum() - 1.0) <= 1e-12 for r in R]
        assert 0 < sum(kept) < len(R)
        assert normalize_returns(R).tobytes() == np.array([alone(r) for r in R]).tobytes()
        assert np.array([normalize_returns(r) for r in R]).tobytes() == normalize_returns(R).tobytes()

    @pytest.mark.parametrize("rows, index, message", [
        ([[1.0, 0.0], [math.inf, 1.0], [-1.0, 2.0]], 1, "returns entries must be finite"),
        ([[1.0, 0.0], [-1.0, 2.0], [math.nan, 1.0]], 1, "returns entries must be nonnegative"),
        ([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0], [math.inf, -1.0]], 2, "returns vector must have a positive entry"),
        ([[math.nan, -1.0], [0.0, 0.0]], 0, "returns entries must be finite"),
    ], ids=["finite", "nonnegative-before-a-nan", "zero-before-an-inf", "first-row"])
    def test_stack_rejects_its_first_bad_row(self, rows, index, message):
        with pytest.raises(InvalidReturnsError, match=f"^{message}$") as err:
            normalize_returns(rows)
        assert err.value.index == index
        with pytest.raises(InvalidReturnsError, match=f"^{message}$") as err:
            normalize_returns(rows[index])
        assert err.value.index is None


class TestLogLoss:
    def test_half_support(self):
        assert log_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == pytest.approx(math.log(2))

    def test_uniform_uniform(self):
        c = uniform_portfolio(4)
        assert log_loss(c, c) == pytest.approx(math.log(4))

    def test_exact_half_inner(self):
        assert log_loss(np.array([0.2, 0.8]), np.array([0.5, 0.5])) == pytest.approx(math.log(2))

    def test_zero_inner_raises(self):
        with pytest.raises(InfiniteLossError):
            log_loss(np.array([0.0, 1.0]), np.array([1.0, 0.0]))


def accumulated_surrogate(x_t, r, beta):
    """The round's surrogate as BISONS accumulates it: SIMPLEX.loss into QuadraticObjective.add_surrogate."""
    loss, g, m = SIMPLEX.loss(x_t, r)
    obj = QuadraticObjective.zeros(x_t.size, 1.0)
    obj.add_surrogate(g, loss, m, beta)
    return obj


class TestSurrogate:
    def test_anchor_identity(self):
        # f(x_t) at the anchor, f(x_t) + s + (beta/2) s^2 with s = <x - x_t, g> elsewhere
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = rng.integers(2, 6)
            x = random_simplex(rng, d, floor=1e-3)
            r = random_simplex(rng, d)
            obj = accumulated_surrogate(x, r, 0.2)
            assert obj.smooth_value(x) == pytest.approx(log_loss(x, r), abs=1e-12)
            y = random_simplex(rng, d)
            s = float((y - x) @ (-r / np.dot(x, r)))
            assert obj.smooth_value(y) == pytest.approx(log_loss(x, r) + s + 0.1 * s * s, abs=1e-12)

    def test_anchor_gradient(self):
        rng = np.random.default_rng(8)
        x = random_simplex(rng, 3, floor=1e-2)
        r = random_simplex(rng, 3)
        assert np.allclose(accumulated_surrogate(x, r, 0.3).smooth_grad_hess(x)[0], -r / np.dot(x, r), atol=1e-12)

    def test_hand_evaluation(self):
        # g = (-2, 0), <x - x_t, g> = 0.5, value = log 2 + 0.5 + 0.0125
        obj = accumulated_surrogate(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.1)
        expected = math.log(2.0) + 0.5 + 0.1 / 2.0 * 0.25
        assert obj.smooth_value(np.array([0.25, 0.75])) == pytest.approx(expected, abs=1e-14)

    def test_beta_range_enforced(self):
        x = np.array([0.5, 0.5])
        r = np.array([0.5, 0.5])
        for bad in (0.0, -0.1, BETA_MAX + 1e-6):
            with pytest.raises(ValueError):
                build_surrogate(x, r, bad)

    def test_convex_along_segments(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = rng.integers(2, 6)
            x_t = random_simplex(rng, d, floor=1e-3)
            r = random_simplex(rng, d)
            obj = accumulated_surrogate(x_t, r, rng.uniform(0.01, BETA_MAX))
            a = random_simplex(rng, d)
            b = random_simplex(rng, d)
            f0 = obj.smooth_value(0.25 * a + 0.75 * b)
            f1 = obj.smooth_value(0.5 * a + 0.5 * b)
            f2 = obj.smooth_value(0.75 * a + 0.25 * b)
            assert f0 - 2.0 * f1 + f2 >= -1e-10

    def test_gradient_matches_finite_differences(self):
        # at the anchor the surrogate's gradient is the true loss's; elsewhere it is its own value's
        rng = np.random.default_rng(10)
        x = random_simplex(rng, 4, floor=0.05)
        r = random_simplex(rng, 4)
        obj = accumulated_surrogate(x, r, 0.2)
        y = random_simplex(rng, 4, floor=0.05)
        h = 1e-7
        # directional derivatives along simplex directions
        for _ in range(10):
            v = rng.normal(size=4)
            v -= v.mean()
            v /= np.linalg.norm(v)
            fd = (log_loss(x + h * v, r) - log_loss(x - h * v, r)) / (2 * h)
            assert fd == pytest.approx(float(obj.smooth_grad_hess(x)[0] @ v), rel=1e-6)
            fd = (obj.smooth_value(y + h * v) - obj.smooth_value(y - h * v)) / (2 * h)
            assert fd == pytest.approx(float(obj.smooth_grad_hess(y)[0] @ v), rel=1e-6)


class TestLowerSurrogate:
    def test_equality_at_anchor_reward(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = rng.integers(2, 6)
            x_t = random_simplex(rng, d, floor=1e-3)
            r = random_simplex(rng, d)
            s = build_surrogate(x_t, r, rng.uniform(0.01, BETA_MAX))
            assert s.lower_hat_h(s.anchor_reward) == pytest.approx(-math.log(s.anchor_reward), abs=1e-12)

    def test_matches_surrogate_before_kink(self):
        rng = np.random.default_rng(12)
        x_t = random_simplex(rng, 3, floor=0.05)
        r = random_simplex(rng, 3)
        s = build_surrogate(x_t, r, 0.25)
        for w in np.linspace(1e-3, s.kink, 40):
            assert s.lower_hat_h(w) == pytest.approx(s.hat_h(w), abs=1e-12)

    def test_three_curve_ordering_beyond_kink(self):
        # lower <= surrogate and lower <= -log on a dense reward sweep
        rng = np.random.default_rng(13)
        x_t = random_simplex(rng, 3, floor=0.05)
        r = random_simplex(rng, 3)
        s = build_surrogate(x_t, r, 0.3)
        for w in np.geomspace(1e-4, 50.0 * s.kink, 300):
            low = s.lower_hat_h(w)
            assert low <= s.hat_h(w) + 1e-12
            assert low <= -math.log(w) + 1e-12

    def test_lower_bounds_true_loss_at_points(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            d = rng.integers(2, 6)
            x_t = random_simplex(rng, d, floor=1e-3)
            r = random_simplex(rng, d)
            s = build_surrogate(x_t, r, rng.uniform(0.01, BETA_MAX))
            x = random_simplex(rng, d, floor=1e-6)
            assert s.lower_hat_h(float(np.dot(x, r))) <= log_loss(x, r) + 1e-12
