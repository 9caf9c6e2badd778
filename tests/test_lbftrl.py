import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisons import lbftrl
from bisons.geometry import InfiniteLossError, uniform_portfolio
from bisons.lbftrl import (
    AdversaryPlan,
    InfeasibleMovementError,
    assemble_pi_hessian,
    build_target_sequence_exact,
    generate_and_run,
    generate_returns,
    grad_pi_objective,
    lbftrl_play,
    move_to_x,
    pi_basis,
    pull_to_center,
    regret_vs_next_iterate,
    run_lbftrl,
    stability_term,
    validate_target_sequence_exact,
)
from bisons.solver import LogLossHistory, minimize_simplex_history


class TestPiBasis:
    def test_rows_orthonormal_and_orthogonal_to_ones(self):
        for d in (2, 3, 6):
            U = pi_basis(d)
            assert U.shape == (d - 1, d)
            assert np.abs(U @ U.T - np.eye(d - 1)).max() <= 1e-10
            assert np.abs(U @ np.ones(d)).max() <= 1e-12

    def test_center_maps_to_zero(self):
        for d in (2, 3, 5, 8):
            assert np.abs(pi_basis(d) @ uniform_portfolio(d)).max() <= 1e-12

    def test_lift_of_projection_is_identity_on_the_simplex(self):
        rng = np.random.default_rng(15)
        for d in (2, 3, 5):
            U = pi_basis(d)
            X = rng.dirichlet(np.ones(d), size=100)
            assert np.abs((X @ U.T) @ U + 1.0 / d - X).max() <= 1e-10

    def test_cached_and_read_only(self):
        assert pi_basis(4) is pi_basis(4)
        with pytest.raises(ValueError, match="read-only"):
            pi_basis(4)[0, 0] = 1.0

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError, match="^need dimension >= 2$"):
            pi_basis(1)


class TestLbftrlPlay:
    def test_empty_history_is_uniform(self):
        assert np.allclose(lbftrl_play(LogLossHistory(np.empty((0, 4)), 1.0)), 0.25)

    def test_single_asset_drift_matches_bisection_oracle(self):
        # history of k copies of e_1, d = 2: root of (k + w)/a = w/(1-a)
        eta = 0.5
        w = 1.0 / eta
        prev = 0.5
        for k in (1, 3, 10, 50):
            R = np.tile(np.array([1.0, 0.0]), (k, 1))
            x = lbftrl_play(LogLossHistory(R, 1.0 / eta), tol=1e-13)
            lo, hi = 1e-12, 1.0 - 1e-12
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if -(k + w) / mid + w / (1.0 - mid) > 0.0:
                    hi = mid
                else:
                    lo = mid
            assert x[0] == pytest.approx(0.5 * (lo + hi), abs=1e-9)
            assert x[0] > prev  # drifts monotonically toward the winning asset
            prev = x[0]

    def test_symmetric_history_is_uniform(self):
        R = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(lbftrl_play(LogLossHistory(R, 0.5)), 0.5, atol=1e-9)


class TestTargetSequence:
    def test_length_2_to_the_d_minus_2(self):
        for d in range(2, 9):
            assert len(build_target_sequence_exact(d)) == 2**d - 2

    def test_first_target_outcome(self):
        t0, o0 = build_target_sequence_exact(3)[0]
        assert t0 == (1, 0, 0) and o0 == (0, Fraction(1, 2), Fraction(1, 2))

    def test_plan_targets_are_the_exact_pairs_as_floats(self):
        plan = AdversaryPlan.build(3, 10_000, 0.5)
        assert len(plan.targets) == len(plan.targets_exact) == 6
        for (t, o), (te, oe) in zip(plan.targets, plan.targets_exact):
            assert t.dtype == o.dtype == float
            assert t.tolist() == [float(v) for v in te] and o.tolist() == [float(v) for v in oe]

    def test_exact_validity_d3_to_d8(self):
        for d in range(3, 9):
            ok, msg = validate_target_sequence_exact(build_target_sequence_exact(d), d)
            assert ok, msg

    def test_reverse_direction_fails(self):
        # <t_j, o_i> for j < i can vanish: t_1 = e_1 against the outcome of the
        # {1,2}-supported target is exactly zero, so only the j < i ordering of
        # the validity condition is checkable.
        pairs = build_target_sequence_exact(3)
        t_first = pairs[0][0]
        o_later = pairs[3][1]
        assert pairs[3][0] == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        assert sum(a * b for a, b in zip(t_first, o_later)) == 0

    def test_corrupted_sequences_rejected_with_their_first_violation(self):
        pairs = build_target_sequence_exact(3)
        small = (pairs[0][0], (Fraction(0), Fraction(1, 10), Fraction(9, 10)))
        shifted = (pairs[-1][0], tuple(v + Fraction(1, 7) for v in pairs[-1][1]))
        cases = [
            (pairs[::-1], "<t_3, o_0> = 0 < 1/d^2"),
            (pairs[:2] + [(pairs[2][0], pairs[1][1])] + pairs[3:], "<t_2, o_2> != 0"),
            ([small] + pairs[1:], "<t_1, o_0> = 1/10 < 1/d^2"),
            (pairs[:-1] + [shifted], "<t_5, o_5> != 0"),
        ]
        for corrupted, message in cases:
            assert validate_target_sequence_exact(corrupted, 3) == (False, message)

    def test_outcomes_complement_supports(self):
        for d in (3, 5):
            for t, o in build_target_sequence_exact(d):
                for ti, oi in zip(t, o):
                    assert (ti == 0) != (oi == 0)
                assert sum(t) == 1 and sum(o) == 1

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            build_target_sequence_exact(1)
        with pytest.raises(ValueError):
            build_target_sequence_exact(13)


class TestPullToCenter:
    def test_center_fixed_point(self):
        plan = AdversaryPlan.build(3, 10_000, 0.5)
        c = uniform_portfolio(3)
        for s in range(plan.layer_count + 1):
            assert np.allclose(pull_to_center(c, s, plan), c, atol=1e-15)

    def test_unit_scale_identity(self):
        plan = AdversaryPlan.build(2, 10_000, 0.5)
        plan.scales = np.array([1.0])
        plan.layer_count = 0
        x = np.array([0.3, 0.7])
        assert np.allclose(pull_to_center(x, 0, plan), x, atol=1e-15)

    def test_affine_arithmetic(self):
        plan = AdversaryPlan.build(2, 10_000, 0.5)
        plan.scales = np.array([0.9])
        plan.layer_count = 0
        out = pull_to_center(np.array([1.0, 0.0]), 0, plan)
        assert np.allclose(out, [0.95, 0.05], atol=1e-15)

    def test_on_target_inner_products(self):
        # <t^(s), o^(s')> = (1 - c_s c_s') / d for every layer pair
        plan = AdversaryPlan.build(3, 10_000, 0.5)
        for t, o in plan.targets:
            for s in range(plan.layer_count + 1):
                for s2 in range(plan.layer_count + 1):
                    ip = float(pull_to_center(t, s, plan) @ pull_to_center(o, s2, plan))
                    expected = (1.0 - plan.scales[s] * plan.scales[s2]) / plan.d
                    assert ip == pytest.approx(expected, abs=1e-12)


class TestMoveToX:
    def test_projected_norm_cap(self):
        rng = np.random.default_rng(0)
        U = pi_basis(3)
        T = 10_000
        for _ in range(100):
            g = rng.normal(size=2) * 10.0 ** rng.integers(-3, 4)
            tgt = rng.dirichlet(np.ones(3))
            r = move_to_x(U @ tgt, g, T, U)
            assert (r >= 0.0).all()
            assert np.linalg.norm(U @ r) <= T**-0.5 + 1e-15

    @settings(max_examples=200, deadline=None, database=None)
    @given(d=st.integers(2, 6), T=st.integers(1, 10**5), data=st.data())
    def test_return_is_a_capped_simplex_point_or_raises(self, d, T, data):
        U = pi_basis(d)
        weights = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=d, max_size=d))
        tgt = np.array(weights) / sum(weights)
        g = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=d - 1, max_size=d - 1)))
        if not np.linalg.norm(g) > 1e-12:
            g[0] = 1e-6
        try:
            r = move_to_x(U @ tgt, g, T, U)
        except InfeasibleMovementError:
            return
        assert (r >= 0.0).all()
        assert abs(r.sum() - 1.0) <= 1e-12
        assert np.linalg.norm(U @ r) <= T**-0.5 + 1e-15

    def test_finishing_cap_zeroes_target_gradient(self):
        # small gradient: the finishing factor binds and one movement return
        # cancels the accumulated gradient at the target exactly
        U = pi_basis(3)
        eta = 1.0
        T = 10_000
        tgt = np.array([0.5, 0.3, 0.2])
        hist = np.empty((0, 3))
        g0 = grad_pi_objective(tgt, hist, -1.0 / (eta * tgt), U)
        scaled = g0 * 1e-3 / np.linalg.norm(g0)  # pretend a small residual gradient
        r = move_to_x(U @ tgt, scaled, T, U)
        # post-return gradient contribution: -Pi r / <tgt, r> must equal -scaled
        contrib = -(U @ r) / float(tgt @ r)
        assert np.abs(contrib + scaled).max() <= 1e-12

    def test_return_leaving_the_simplex_raises(self):
        # T = 1 lets the norm cap allow a unit projected step, longer than the
        # sqrt(2/3) from the centre to a vertex; <g, Pi target> >= 1 leaves
        # the finishing cap inactive
        U = pi_basis(3)
        u = U @ np.array([1.0, 0.0, 0.0])
        g = 2.0 * u / np.linalg.norm(u)
        with pytest.raises(InfeasibleMovementError, match="left the simplex"):
            move_to_x(u, g, 1, U)

    def test_a_nan_return_raises(self):
        U = pi_basis(3)
        with pytest.raises(InfeasibleMovementError, match=r"left the simplex \(min entry nan\)"):
            move_to_x(U @ uniform_portfolio(3), np.array([math.nan, 1.0]), 10_000, U)

    def test_termination_bound_on_instrumented_pin(self):
        # steer a fresh objective (barrier only) onto a pulled-in target and
        # count movement steps against 2 sqrt(T) ||grad|| / d + 1
        d, T, eta = 3, 10_000, 1.0
        plan = AdversaryPlan.build(d, T, 0.5)
        U = pi_basis(d)
        tgt = pull_to_center(plan.targets[0][0], 0, plan)
        barrier_grad = -1.0 / (eta * tgt)
        hist = []
        g0 = grad_pi_objective(tgt, np.empty((0, d)), barrier_grad, U)
        bound = 2.0 * math.sqrt(T) * float(np.linalg.norm(g0)) / d + 1.0
        steps = 0
        while True:
            g = grad_pi_objective(tgt, np.array(hist) if hist else np.empty((0, d)), barrier_grad, U)
            if float(np.linalg.norm(g)) <= 1e-12:
                break
            hist.append(move_to_x(U @ tgt, g, T, U))
            steps += 1
            assert steps <= bound + 1
        assert steps <= bound


class TestStabilityTerm:
    def test_uniform_return_gives_zero(self):
        U = pi_basis(3)
        x = np.array([0.2, 0.5, 0.3])
        grad = U @ (-uniform_portfolio(3) / float(x @ uniform_portfolio(3)))
        H = assemble_pi_hessian(x, np.array([uniform_portfolio(3)]), 1.0, U)
        assert stability_term(grad, H) <= 1e-20

    def test_matches_finite_difference_hessian(self):
        # t = 1, d = 2: Hessian of the chart objective by central differences
        U = pi_basis(2)
        eta = 0.7
        r = np.array([0.8, 0.2])
        x = np.array([0.45, 0.55])
        hist = np.array([r])

        def chart_value(v):
            y = U.T @ v + 0.5
            return float(-np.log(hist @ y).sum() - (1.0 / eta) * np.log(y).sum())

        v0 = U @ x
        h = 1e-5
        fd = (chart_value(v0 + h) - 2.0 * chart_value(v0) + chart_value(v0 - h)) / (h * h)
        H = assemble_pi_hessian(x, hist, eta, U)
        assert H[0, 0] == pytest.approx(fd, rel=1e-6)
        grad = U @ (-r / float(x @ r))
        assert stability_term(grad, H) == pytest.approx(float(grad @ grad) / fd, rel=1e-6)

    def test_invariant_to_basis_rotation(self):
        rng = np.random.default_rng(1)
        d = 4
        U = pi_basis(d)
        theta = 0.6
        rot = np.eye(d - 1)
        rot[:2, :2] = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        U_rot = rot @ U
        hist = rng.dirichlet(np.ones(d), size=6)
        x = rng.dirichlet(np.ones(d)) * 0.9 + 0.025
        r = hist[-1]
        t1 = stability_term(U @ (-r / float(x @ r)), assemble_pi_hessian(x, hist, 1.3, U))
        t2 = stability_term(U_rot @ (-r / float(x @ r)), assemble_pi_hessian(x, hist, 1.3, U_rot))
        assert abs(t1 - t2) <= 1e-10

    @pytest.mark.parametrize("d", range(2, 6))
    def test_stack_equals_each_term_alone(self, d):
        rng = np.random.default_rng(40 + d)
        U = pi_basis(d)
        hist = rng.dirichlet(np.ones(d), size=50)
        X = rng.dirichlet(np.ones(d), size=50) * 0.9 + 0.1 / d
        grads = np.array([U @ (-r / float(x @ r)) for x, r in zip(X, hist)])
        hessians = np.array([assemble_pi_hessian(x, hist[: t + 1], 0.7, U) for t, x in enumerate(X)])
        alone = np.array([float(g @ np.linalg.solve(H, g)) for g, H in zip(grads, hessians)])
        assert stability_term(grads, hessians).tobytes() == alone.tobytes()
        assert np.array([stability_term(g, H) for g, H in zip(grads, hessians)]).tobytes() == alone.tobytes()


@pytest.fixture(scope="module")
def d2_bad_run():
    plan = AdversaryPlan.build(2, 10_000, 0.5)
    return plan, generate_and_run(plan, eta=1.0)


class TestGenerateAndRun:
    def test_d2_smoke_terminates_with_flags(self, d2_bad_run):
        plan, res = d2_bad_run
        assert len(res.returns) <= 10_000
        # every round is a movement return or a pulled outcome, nothing else
        T = 10_000
        U = pi_basis(2)
        # visits run over targets, repetitions inside targets and layers innermost
        visits = product(range(len(plan.targets)), range(plan.repetitions), range(plan.layer_count + 1))
        for r, flag in zip(res.returns, res.movement_flags):
            if flag:
                assert np.linalg.norm(U @ r) <= T**-0.5 + 1e-15
            else:
                i, _, s = next(visits)
                expected = pull_to_center(plan.targets[i][1], s, plan)
                assert np.abs(r - expected).max() <= 1e-12
        assert res.completed_visits >= 1
        # at this pull-in exponent the movement budget dominates the horizon
        assert res.truncated
        assert res.movement_flags.sum() + res.completed_visits == len(res.returns)

    def test_movement_hessian_contribution_bound(self, d2_bad_run):
        # movement rounds contribute at most d^2/T/(1 - d T^{-1/2})^2 each to
        # the Hessian trace at any fixed target, so their total stays O(d^2)
        plan, res = d2_bad_run
        U = pi_basis(2)
        d, T = 2, 10_000
        cap = d * d / T / (1.0 - d * T**-0.5) ** 2
        movement = res.returns[res.movement_flags]
        for t, _ in plan.targets:
            tgt = pull_to_center(t, 0, plan)
            g = (movement @ U.T) / (movement @ tgt)[:, None]
            contributions = (g * g).sum(axis=1)
            assert contributions.max() <= cap * (1.0 + 1e-9)
            assert contributions.sum() <= cap * len(movement) * (1.0 + 1e-9)

    def test_regret_stability_sandwich_random_run(self):
        rng = np.random.default_rng(2)
        d, T, eta = 3, 60, 1.0
        R = rng.dirichlet(np.ones(d), size=T)
        res = run_lbftrl(R, eta)
        reg, x_next = regret_vs_next_iterate(res)
        c2 = 1.0 / (1.0 + eta) ** 2
        terms = res.terms
        assert reg >= 0.5 * c2 * terms.sum() - 1e-6 * T

        # upper side with the measured curvature ratio along the trajectory
        U = pi_basis(d)
        plays = np.vstack([res.plays, x_next])
        c1_hat = 1.0
        for t in range(T):
            H_t = assemble_pi_hessian(plays[t], R[: t + 1], eta, U)
            L = np.linalg.cholesky(H_t)
            Li = np.linalg.inv(L)
            for lam in (0.25, 0.5, 0.75, 1.0):
                xbar = (1.0 - lam) * plays[t] + lam * plays[t + 1]
                Hbar = assemble_pi_hessian(xbar, R[: t + 1], eta, U)
                c1_hat = max(c1_hat, float(np.linalg.eigvalsh(Li @ Hbar @ Li.T).max()))
        barrier = lambda x: -float(np.log(x).sum())
        upper = 0.5 * c1_hat * terms.sum() + (1.0 / eta) * (barrier(x_next) - barrier(res.plays[0]))
        assert reg <= upper + 1e-6 * T

    def test_truncation_never_wraps(self):
        plan = AdversaryPlan.build(2, 300, 0.5)
        res = generate_and_run(plan, eta=1.0)
        assert res.truncated
        assert len(res.returns) == len(res.losses) == len(res.terms) == 300


class TestGenerateReturns:
    @pytest.mark.parametrize("d, T, alpha, truncated", [(3, 2000, 0.15, False), (2, 300, 0.5, True)])
    def test_adversary_alone_matches_generate_and_run(self, d, T, alpha, truncated):
        plan = AdversaryPlan.build(d, T, alpha)
        gen = generate_returns(plan, eta=1.0)
        res = generate_and_run(plan, eta=1.0)
        assert gen.returns.shape == res.returns.shape
        assert gen.returns.tobytes() == res.returns.tobytes()
        assert np.array_equal(gen.movement_flags, res.movement_flags)
        assert gen.truncated == res.truncated == truncated
        assert gen.completed_visits == res.completed_visits
        # the player's columns are those of the plain player on the same rows
        plain = run_lbftrl(gen.returns, 1.0)
        for column in ("plays", "losses", "terms"):
            assert getattr(res, column).tobytes() == getattr(plain, column).tobytes()


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf])
def test_generator_and_player_reject_a_bad_eta(eta):
    message = f"^eta must be finite and positive, got {eta!r}$"
    with pytest.raises(ValueError, match=message):
        generate_returns(AdversaryPlan.build(2, 300, 0.5), eta)
    with pytest.raises(ValueError, match=message):
        run_lbftrl(np.full((3, 2), 0.5), eta)


def failing_on_call(function, call, error):
    """``function``, except that its ``call``-th call raises ``error("spoiled")``; the raised errors are collected."""
    calls, raised = [0], []

    def fail_or_call(*args, **kwargs):
        calls[0] += 1
        if calls[0] != call:
            return function(*args, **kwargs)
        raised.append(error("spoiled"))
        raise raised[-1]

    return fail_or_call, raised


def test_generator_and_player_errors_name_their_round(monkeypatch):
    plan = AdversaryPlan.build(2, 300, 0.5)
    t = int(np.flatnonzero(generate_returns(plan, 1.0).movement_flags)[2]) + 1  # the third movement row's round
    spoiled, raised = failing_on_call(lbftrl.move_to_x, 3, InfeasibleMovementError)
    monkeypatch.setattr(lbftrl, "move_to_x", spoiled)
    with pytest.raises(InfeasibleMovementError, match=f"^t={t}: spoiled$") as err:
        generate_returns(plan, 1.0)
    assert err.value.__cause__ is raised[0]
    spoiled, raised = failing_on_call(lbftrl.log_loss, 2, InfiniteLossError)
    monkeypatch.setattr(lbftrl, "log_loss", spoiled)
    with pytest.raises(InfiniteLossError, match="^t=2: spoiled$") as err:
        run_lbftrl(np.full((3, 2), 0.5), 1.0)
    assert err.value.__cause__ is raised[0]


@pytest.mark.parametrize("T", [0, -3])
def test_plan_rejects_a_horizon_below_one(T):
    with pytest.raises(ValueError, match=f"^horizon T must be at least 1, got {T}$"):
        AdversaryPlan.build(2, T, 0.5)


def _assert_matches_one_shot(monkeypatch, play, eta):
    """Every play of ``play()`` equals the one-shot solve over the rounds before
    it (from the previous play), and every stability Hessian, caught in the
    stack that the run's one ``stability_term`` call takes, the full-history
    assembly."""
    calls = []

    def recording_stability_term(grad_pi, hessian_pi):
        calls.append(hessian_pi.copy())
        return stability_term(grad_pi, hessian_pi)

    monkeypatch.setattr(lbftrl, "stability_term", recording_stability_term)
    res = play()
    R = res.returns
    d = R.shape[1]
    assert len(calls) == 1
    hessians = calls[0]
    assert hessians.shape == (len(R), d - 1, d - 1)
    U = pi_basis(d)
    prev = None
    for t in range(1, len(R) + 1):
        x = res.plays[t - 1]
        ref = minimize_simplex_history(R[: t - 1], 1.0 / eta, warm_start=prev).minimizer
        assert np.abs(x - ref).max() <= 1e-9
        H_ref = assemble_pi_hessian(x, R[:t], eta, U)
        H = hessians[t - 1]
        assert np.abs(H - H_ref).max() <= 1e-10 * np.abs(H_ref).max()
        prev = x
    return res


class TestIncrementalPlayer:
    def test_dirichlet_run_matches_one_shot_references(self, monkeypatch):
        R = np.random.default_rng(11).dirichlet(np.ones(3), size=200)
        _assert_matches_one_shot(monkeypatch, lambda: run_lbftrl(R, 0.8), 0.8)

    def test_generated_run_matches_one_shot_references(self, monkeypatch):
        plan = AdversaryPlan.build(3, 2000, 0.15)
        res = _assert_matches_one_shot(monkeypatch, lambda: generate_and_run(plan, eta=1.0), 1.0)
        assert not res.truncated


class TestPlanExport:
    def test_exact_rational_lines(self, tmp_path):
        from fractions import Fraction

        plan = AdversaryPlan.build(3, 10_000, 0.5)
        path = tmp_path / "plan.txt"
        plan.export(str(path))
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == len(plan.targets_exact)
        for line, (t, o) in zip(lines, plan.targets_exact):
            t_txt, o_txt = line.split("|")
            assert tuple(Fraction(v) for v in t_txt.split(",")) == t
            assert tuple(Fraction(v) for v in o_txt.split(",")) == o
