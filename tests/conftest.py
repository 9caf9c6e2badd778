import pytest

from bisons.solver import SolverFailure


@pytest.fixture
def fail_solve(monkeypatch):
    """``fail_solve(module, name, call)`` makes the ``call``-th call through
    ``module.name`` fail before any Newton step and returns the list that
    collects that failure.  A round makes one call, which solves its
    biased and unbiased objectives as one stack."""

    def install(module, name, call):
        solve = getattr(module, name)
        calls, failures = [0], []

        def solve_or_fail(obj, warm_start=None, tol=1e-10):
            calls[0] += 1
            if calls[0] != call:
                return solve(obj, warm_start=warm_start, tol=tol)
            try:
                return solve(obj, warm_start=warm_start, tol=tol, max_iter=0)
            except SolverFailure as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(module, name, solve_or_fail)
        return failures

    return install
