import pytest

from bisons import solver
from bisons.solver import SolverFailure


@pytest.fixture
def fail_solve(monkeypatch):
    """``fail_solve(module, name, call)`` makes the ``call``-th call through
    ``module.name`` fail before any Newton step, with ``solver.DEFAULT_MAX_ITER``
    set to 0 for that call alone, and returns the list that collects that
    failure.  A round makes one call, which solves its biased and unbiased
    objectives as one stack."""

    def install(module, name, call):
        solve = getattr(module, name)
        calls, failures = [0], []

        def solve_or_fail(obj, warm_start=None, tol=1e-10):
            calls[0] += 1
            if calls[0] != call:
                return solve(obj, warm_start=warm_start, tol=tol)
            try:
                with monkeypatch.context() as m:
                    m.setattr(solver, "DEFAULT_MAX_ITER", 0)
                    return solve(obj, warm_start=warm_start, tol=tol)
            except SolverFailure as exc:
                failures.append(exc)
                raise

        monkeypatch.setattr(module, name, solve_or_fail)
        return failures

    return install
