"""Layer-cost probe: per-call times of the simplex hot paths, for comparing commits.

    PYTHONPATH=<checkout>/src python3 tests/perf_probe.py [--repeats N]

Prints, per item, the median and quartiles over N repeats (default 21).
The items are timed interleaved, one repeat of each in turn, so that drift
in the machine's load spreads over all of them alike:

- ``history solve``: a warm LB-FTRL history solve, d=3, 400 rows, started
  at the minimizer over the first 399 rows (two Newton steps);
- ``bisons pair``: the biased and unbiased solves of a BISONS round at
  d=10, T=11000, over rounds 901..1000 of seeded Dirichlet(1) returns,
  per round;
- ``bisons round``: a whole BISONS round over the same rounds;
- ``criterion-9 play``: the LB-FTRL player over criterion 9's four
  sequences (the generated d=3, alpha=0.5 one and three 800-row ones);
- ``generate_returns``: the adversary at d=3, alpha=0.5, T=10^4;
- ``run_lbftrl 800``: the player over 800 seeded Dirichlet(1) rows at d=3.

It calls public functions only, so the same file times any commit whose
``bisons`` package it is pointed at.  The file has no ``test_`` prefix, so
pytest does not collect it.
"""

import argparse
import copy
import statistics
import time

import numpy as np

from bisons.lbftrl import AdversaryPlan, generate_returns, run_lbftrl
from bisons.solver import default_tol, minimize_simplex, minimize_simplex_history
from bisons.vector import Simplex, bisons_round, default_params, initial_state

ROUNDS_BEFORE, ROUNDS_TIMED = 900, 100


class _Recording(Simplex):
    """The simplex domain, keeping a copy of every solve's arguments."""

    def __init__(self):
        self.calls = []

    def solve(self, objs, warm_starts, tol):
        self.calls.append(copy.deepcopy((objs, warm_starts)))
        return super().solve(objs, warm_starts, tol)


def _history_solve():
    rows = np.random.default_rng(5).dirichlet(np.ones(3), size=400)
    x = minimize_simplex_history(rows[:-1], 1.0).minimizer
    calls = 200

    def run():
        for _ in range(calls):
            minimize_simplex_history(rows, 1.0, warm_start=x)

    return run, calls


def _bisons():
    params = default_params(10, 11_000)
    tol = default_tol(params.T)
    rows = np.random.default_rng(11).dirichlet(np.ones(10), size=ROUNDS_BEFORE + ROUNDS_TIMED)
    state = initial_state(params)
    for r in rows[:ROUNDS_BEFORE]:
        state, _ = bisons_round(state, r, params, tol=tol)
    recording = _Recording()
    after = copy.deepcopy(state)
    for r in rows[ROUNDS_BEFORE:]:
        after, _ = bisons_round(after, r, params, tol=tol, domain=recording)

    def pair():
        for objs, warm_starts in recording.calls:
            minimize_simplex(objs, warm_start=warm_starts, tol=tol)

    def rounds():
        s = copy.deepcopy(state)
        start = time.perf_counter()
        for r in rows[ROUNDS_BEFORE:]:
            s, _ = bisons_round(s, r, params, tol=tol)
        return time.perf_counter() - start

    return (pair, ROUNDS_TIMED), (rounds, ROUNDS_TIMED)


def _lbftrl():
    plan = AdversaryPlan.build(3, 10_000, 0.5)
    seqs = [generate_returns(plan, 1.0).returns]
    seqs += [np.random.default_rng(100 + seed).dirichlet(np.ones(3), size=800) for seed in range(3)]

    def play():
        for R in seqs:
            run_lbftrl(R, 1.0)

    return (play, 1), (lambda: generate_returns(plan, 1.0), 1), (lambda: run_lbftrl(seqs[1], 1.0), 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeats", type=int, default=21)
    args = parser.parse_args(argv)
    items = dict(zip(["history solve", "bisons pair", "bisons round", "criterion-9 play", "generate_returns",
                      "run_lbftrl 800"], [_history_solve(), *_bisons(), *_lbftrl()]))
    times = {name: [] for name in items}
    for _ in range(args.repeats):
        for name, (fn, per) in items.items():
            start = time.perf_counter()
            inner = fn()  # a function that times itself returns its own seconds
            elapsed = inner if isinstance(inner, float) else time.perf_counter() - start
            times[name].append(elapsed / per)
    print(f"{'item':<18} {'unit':>4} {'median':>10} {'q1':>10} {'q3':>10}")
    for name, ts in times.items():
        scale, unit = (1e6, "us") if statistics.median(ts) < 1e-3 else (1e3, "ms")
        q1, med, q3 = statistics.quantiles(ts, n=4)
        print(f"{name:<18} {unit:>4} {med * scale:>10.2f} {q1 * scale:>10.2f} {q3 * scale:>10.2f}")


if __name__ == "__main__":
    main()
