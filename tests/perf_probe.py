"""Layer-cost probe: per-call times of the simplex and spectraplex hot paths, for comparing commits.

    PYTHONPATH=<checkout>/src python3 tests/perf_probe.py [--repeats N]

Prints, per item, the median and quartiles over N >= 2 repeats (default 21).
The items are timed interleaved, one repeat of each in turn, so that drift
in the machine's load spreads over all of them alike:

- ``history solve``: a warm LB-FTRL history solve, d=3, 400 rows, started
  at the minimizer over the first 399 rows (two Newton steps);
- ``bisons pair``: the biased and unbiased solves of a BISONS round at
  d=10, T=11000, over rounds 901..1000 of seeded Dirichlet(1) returns,
  per round;
- ``bisons round``: a whole BISONS round over the same rounds;
- ``qbisons pair``: the stacked biased and unbiased solves of a Q-BISONS
  round at d=4, T=11000, over rounds 901..1000 of seeded measurements,
  per round;
- ``criterion-9 play``: the LB-FTRL player over criterion 9's four
  sequences (the generated d=3, alpha=0.5 one and three 800-row ones);
- ``generate_returns``: the adversary at d=3, alpha=0.5, T=10^4;
- ``run_lbftrl 800``: the player over 800 seeded Dirichlet(1) rows at d=3;
- ``bisons monitor`` and ``qbisons monitor``: a stability monitor
  observing and checking one chunk of MONITOR_CHUNK rounds, the first
  rounds of the ``bisons pair`` and ``qbisons pair`` runs, per chunk;
- ``load_returns``: an 11,000 x 10 returns file (the shape of the
  benchmark's simplex input) that ``save_returns`` wrote from seeded
  Dirichlet(1) rows into a temporary directory.

It calls public functions only, so the same file times any commit whose
``bisons`` package it is pointed at.  The file has no ``test_`` prefix, so
pytest does not collect it.
"""

import argparse
import copy
import os
import statistics
import tempfile
import time

import numpy as np

from bisons.harness import load_returns, measurement_stream, save_returns
from bisons.lbftrl import AdversaryPlan, generate_returns, run_lbftrl
from bisons.quantum import SPECTRAPLEX, ingest_loss_matrix, q_default_params, run_qbisons
from bisons.solver import minimize_simplex, minimize_simplex_history, minimize_spectraplex
from bisons.vector import MONITOR_CHUNK, SIMPLEX, bisons_round, default_params, initial_state, run_bisons

ROUNDS_BEFORE, ROUNDS_TIMED = 900, 100


def _recorded_rounds(domain, params, rows):
    """The state after the first ROUNDS_BEFORE rounds on ``domain``, and a copy of the arguments
    (objectives, warm starts, tolerance) of each stacked solve of the ROUNDS_TIMED rounds after them."""
    calls = []

    class Recording(type(domain)):
        def solve(self, objs, warm_starts, tol):
            calls.append(copy.deepcopy((objs, warm_starts, tol)))
            return super().solve(objs, warm_starts, tol)

    state = initial_state(params, domain)
    for r in rows[:ROUNDS_BEFORE]:
        state, _ = bisons_round(state, r, params, domain=domain)
    after = copy.deepcopy(state)
    for r in rows[ROUNDS_BEFORE:]:
        after, _ = bisons_round(after, r, params, domain=Recording())
    return state, calls


def _pair(solve, calls):
    def run():
        for objs, warm_starts, tol in calls:
            solve(objs, warm_start=warm_starts, tol=tol)

    return run, ROUNDS_TIMED


def _monitor(domain, run, rows, params):
    """A fresh monitor of ``domain`` observing the first MONITOR_CHUNK rounds of ``run`` over ``rows``."""
    res = run(rows[:MONITOR_CHUNK], params, keep_states=True)
    assert not res.resets.any()
    x0, p0 = domain.centre(params.d)
    olds = [(x0, x0, p0)] + res.states[:-1]
    rounds = [(t, *old, *new) for t, (old, new) in enumerate(zip(olds, res.states), start=1)]

    def run_chunk():
        mon = domain.monitor(params)
        for args in rounds:
            mon.observe(*args)

    return run_chunk, 1


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
    rows = np.random.default_rng(11).dirichlet(np.ones(10), size=ROUNDS_BEFORE + ROUNDS_TIMED)
    state, calls = _recorded_rounds(SIMPLEX, params, rows)

    def rounds():
        s = copy.deepcopy(state)
        start = time.perf_counter()
        for r in rows[ROUNDS_BEFORE:]:
            s, _ = bisons_round(s, r, params)
        return time.perf_counter() - start

    return _pair(minimize_simplex, calls), (rounds, ROUNDS_TIMED), _monitor(SIMPLEX, run_bisons, rows, params)


def _qbisons():
    params = q_default_params(4, 11_000)
    rows = ingest_loss_matrix(measurement_stream(4, ROUNDS_BEFORE + ROUNDS_TIMED, seed=12),
                              rng=np.random.default_rng(12))
    _, calls = _recorded_rounds(SPECTRAPLEX, params, rows)
    return _pair(minimize_spectraplex, calls), _monitor(SPECTRAPLEX, run_qbisons, rows, params)


def _lbftrl():
    plan = AdversaryPlan.build(3, 10_000, 0.5)
    seqs = [generate_returns(plan, 1.0).returns]
    seqs += [np.random.default_rng(100 + seed).dirichlet(np.ones(3), size=800) for seed in range(3)]

    def play():
        for R in seqs:
            run_lbftrl(R, 1.0)

    return (play, 1), (lambda: generate_returns(plan, 1.0), 1), (lambda: run_lbftrl(seqs[1], 1.0), 1)


def _load_returns(directory):
    path = os.path.join(directory, "returns.csv")
    save_returns(path, np.random.default_rng(13).dirichlet(np.ones(10), size=11_000))
    return (lambda: load_returns(path)), 1


def _at_least_two(text):
    """A repeat count; quartiles need two repeats."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {n}")
    return n


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeats", type=_at_least_two, default=21)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        items = dict(zip(["history solve", "bisons pair", "bisons round", "bisons monitor", "qbisons pair",
                          "qbisons monitor", "criterion-9 play", "generate_returns", "run_lbftrl 800",
                          "load_returns"],
                         [_history_solve(), *_bisons(), *_qbisons(), *_lbftrl(), _load_returns(directory)]))
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
