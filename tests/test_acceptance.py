"""Acceptance gate: every criterion runs at its stated tolerance.

The underlying runners live in ``bisons.checks`` so the CLI ``check``
subcommand exercises exactly the same code.  One pass/fail line prints per
criterion.  Each criterion's detail string (its line without the timing) is
pinned in ``DETAILS``, recorded from a known-good commit with numpy 2.4.6
and Python 3.11.7 on x86-64.  numpy's exp/log kernels can differ between
builds, so on another numpy a mismatch there asks for the strings to be
re-recorded from a known-good commit, not for the code to change.
"""

import math
import time
from types import SimpleNamespace

import pytest

from bisons import checks
from bisons.checks import run_checks
from bisons.solver import QuadraticObjective
from bisons.vector import MONITOR_CHUNK, StabilityMonitor

_RESULTS = None

DETAILS = {
    1: "10^4 triples: max excess over true loss 0.00e+00, max anchor equality gap 0.00e+00, "
       "max round surrogate gap 2.66e-15",
    2: "120 runs, worst regret/bound ratio 5.228e-04, monitor violations 0",
    3: "5 completed epochs over 5 crash runs, worst grid regret -7.577e+01 (<= 1e-6 required), monitor violations 0",
    4: "10^3 PD pairs: min-eig(P'-P) -3.44e-15, min-eig(P'-X^-1) -3.57e-14, cost identity gap 3.55e-15, "
       "diagonal max-rule exact: True",
    5: "d=3 T=990: max per-round iterate gap 6.11e-16, reset times equal: True ([] vs []), monitor violations 0",
    6: "20 measurement streams, worst regret/bound ratio 1.698e-05, monitor violations 0",
    7: "per-round stability monitors over all acceptance runs (bisons-regret: 0, diagonal-equivalence: 0, "
       "epoch-nonpositivity: 0, qbisons-regret: 0)",
    8: "d=3..8 exact-rational validity and lengths 2^d-2",
    9: "generated d=3 alpha=0.5: regret 7.191 >= 0.017 - tol (slack 7.184); random seed 0: regret 4.094 >= 0.996 "
       "- tol (slack 3.099); random seed 1: regret 4.088 >= 1.006 - tol (slack 3.082); random seed 2: regret 4.249 "
       ">= 1.041 - tol (slack 3.209); generated run truncated with 9999 movement rounds",
    10: "grad rel err 5.90e-07 (<=1e-5), logdet grad 1.44e-06 (<=1e-5), hessian rel err 1.56e-07 (<=1e-4), "
        "hessian lower-bound defect 0.00e+00 over 10^3 samples",
    11: "simplex arg gap 1.1e-04 obj gap -7.0e-08; spectraplex arg gap 3.4e-05 obj gap -5.5e-09; "
        "best-CRP loss gap -9.1e-06",
    12: "d=2 T=1000 crash run: reset times [729] vs [729] (equal, nonempty required), max diagonal gap 1.67e-15 "
        "(<= 1e-12), max off-diagonal modulus 0.00e+00 (0 required), monitor violations 0",
    13: "9999 movement rows of criterion 9's generated run (d=3, T=10000): max ||Pi r_t|| sqrt(T) = 1 + 4.4e-15 "
        "(<= 1 + 1e-12)",
    14: "7 rounds per domain, the k-th breaking monitor check k alone by 2x its tolerance, fire their own check: "
        "simplex 7/7 (0 other), spectraplex 7/7 (0 other)",
}


def _results():
    global _RESULTS
    if _RESULTS is None:
        _RESULTS = {res.criterion: res for res in run_checks("all")}
    return _RESULTS


@pytest.mark.parametrize("criterion", list(range(1, 15)))
def test_acceptance_criterion(criterion):
    res = _results()[criterion]
    print(res.line())
    assert res.passed, res.line()


@pytest.mark.parametrize("criterion", list(range(1, 15)))
def test_acceptance_detail_is_pinned(criterion):
    assert _results()[criterion].detail == DETAILS[criterion]


def test_suite_membership_covers_all_criteria():
    from bisons.checks import CHECKS

    numbers = [n for n, _, _, _ in CHECKS]
    assert numbers == list(range(1, 15))
    tagged = set()
    for _, _, _, tags in CHECKS:
        assert tags <= {"lemmas", "bisons", "qbisons", "lbftrl"}
        tagged |= tags
    assert tagged == {"lemmas", "bisons", "qbisons", "lbftrl"}


def test_criterion_over_its_budget_fails(monkeypatch):
    def slow(ctx):
        time.sleep(0.05)
        return True, "slow but correct"

    monkeypatch.setattr(checks, "CHECKS", [(1, "slow", slow, {"lemmas"})])
    monkeypatch.setattr(checks, "BUDGET_S", {1: 0.01})
    (res,) = run_checks("all")
    assert not res.passed
    assert res.detail == "slow but correct; over its 0.01s budget"


def test_criterion_1_sees_a_round_surrogate_with_the_wrong_linear_term(monkeypatch):
    # the linear term (1 - beta <x_t, g>) g of the surrogate a round accumulates becomes (1 + beta <x_t, g>) g
    add = QuadraticObjective.add_surrogate

    def mutant(self, w, anchor_value, anchor_inner, beta):
        add(self, w, anchor_value, anchor_inner, beta)
        self.lin += 2.0 * beta * anchor_inner * w

    monkeypatch.setattr(QuadraticObjective, "add_surrogate", mutant)
    passed, detail = checks.check_lower_surrogate({})
    assert not passed
    assert float(detail.rsplit(" ", 1)[1]) > 1.0, detail


def test_criterion_12_fails_when_its_runs_monitor_fires(monkeypatch):
    # each chunk's first round fails its first check, on both the simplex and the spectraplex run
    failed = StabilityMonitor._failed

    def mutant(self, *stacks):
        mask = failed(self, *stacks)
        mask[0, 0] = True
        return mask

    monkeypatch.setattr(StabilityMonitor, "_failed", mutant)
    passed, detail = checks.check_diagonal_equivalence_resets({})
    assert passed is False
    assert detail.endswith(f", monitor violations {2 * math.ceil(1000 / MONITOR_CHUNK)}"), detail


def test_criterion_13_names_the_run_it_needs():
    assert checks.check_movement_norm_cap({}) == (False, "no generated run (run criterion 9 first)")


def test_criterion_13_sees_a_doubled_norm_cap(monkeypatch):
    # the generator's movement returns may reach 2 T^-1/2 (move_to_x asked for a quarter of the horizon)
    from bisons import lbftrl

    move = lbftrl.move_to_x
    monkeypatch.setattr(lbftrl, "move_to_x", lambda pi_target, grad_pi, T, U: move(pi_target, grad_pi, T / 4, U))
    gen = lbftrl.generate_and_run(lbftrl.AdversaryPlan.build(3, 2000, 0.5), 1.0)
    passed, detail = checks.check_movement_norm_cap({"generated": (2000, gen.returns, gen.movement_flags)})
    assert not passed
    assert float(detail.split("= 1 + ")[1].split()[0]) > 0.9, detail


def test_criterion_14_sees_a_loosened_play_ratio(monkeypatch):
    # the monitor reads 1 + 60 eta for 1 + 6 eta: the two ratio checks go silent on both domains
    failed = StabilityMonitor._failed

    def mutant(self, *stacks):
        params, self.params = self.params, SimpleNamespace(eta=10.0 * self.params.eta, T=self.params.T)
        try:
            return failed(self, *stacks)
        finally:
            self.params = params

    monkeypatch.setattr(StabilityMonitor, "_failed", mutant)
    passed, detail = checks.check_monitors_fire({})
    assert not passed
    assert detail.endswith("simplex 5/7 (0 other), spectraplex 5/7 (0 other)"), detail
