"""Acceptance gate: every criterion runs at its stated tolerance.

The underlying runners live in ``bisons.checks`` so the CLI ``check``
subcommand exercises exactly the same code.  One pass/fail line prints per
criterion.
"""

import math
import time

import pytest

from bisons import checks
from bisons.checks import run_checks
from bisons.solver import QuadraticObjective
from bisons.vector import MONITOR_CHUNK, StabilityMonitor

_RESULTS = None


def _results():
    global _RESULTS
    if _RESULTS is None:
        _RESULTS = {res.criterion: res for res in run_checks("all")}
    return _RESULTS


@pytest.mark.parametrize("criterion", list(range(1, 13)))
def test_acceptance_criterion(criterion):
    res = _results()[criterion]
    print(res.line())
    assert res.passed, res.line()


def test_suite_membership_covers_all_criteria():
    from bisons.checks import CHECKS

    numbers = [n for n, _, _, _ in CHECKS]
    assert numbers == list(range(1, 13))
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

    def mutant(self, w, anchor_value, anchor_inner, beta, *sharing):
        add(self, w, anchor_value, anchor_inner, beta, *sharing)
        for obj in (self, *sharing):
            obj.lin += 2.0 * beta * anchor_inner * w

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
