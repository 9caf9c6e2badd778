"""The benchmark's workloads: seeded inputs, the CLI steps of one job, and the
correctness gate applied to every step's outputs.

A job is a fixed list of ``bisons`` CLI invocations.  Steps name their
files relative to the checkout root and jobs run with the root as working
directory, so ``summary.json`` and every other output is byte-comparable
between jobs, between the traced and untraced run, and between commits.
"""

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass

import numpy as np

# Paper regret bounds used by the gate: 740 d^2 ln^2 T (BISONS), 740 d^3 ln^2 T (Q-BISONS).
BOUND_CONST = 740.0


def derive_rng(seed, label):
    h = int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")
    return np.random.default_rng(np.random.SeedSequence([int(seed), h]))


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_tree(top):
    """sha256 of every file under ``top``, keyed by path relative to ``top``."""
    out = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, top)] = sha256_file(path)
    return dict(sorted(out.items()))


def write_returns(path, rng, d, T):
    """I.i.d. Dirichlet(1) return rows."""
    np.savetxt(path, rng.dirichlet(np.ones(d), size=T), fmt="%.17g", delimiter=",")


def write_measurements(path, rng, d, T):
    """Random two-outcome effects E = V diag(w) V^H, w in [0.02, 0.98], with
    fractional outcomes in [0.05, 0.95]; the row layout of ``bisons`` is the
    d^2 entries of E row-major with real and imaginary parts interleaved,
    then the outcome."""
    G = rng.standard_normal((T, d, d)) + 1j * rng.standard_normal((T, d, d))
    V, _ = np.linalg.qr(G)
    w = rng.uniform(0.02, 0.98, size=(T, 1, d))
    E = (V * w) @ V.conj().transpose(0, 2, 1)
    E = 0.5 * (E + E.conj().transpose(0, 2, 1))  # exactly Hermitian
    flat = E.reshape(T, d * d)
    cells = np.empty((T, 2 * d * d + 1))
    cells[:, 0:-1:2] = flat.real
    cells[:, 1:-1:2] = flat.imag
    cells[:, -1] = rng.uniform(0.05, 0.95, size=T)
    np.savetxt(path, cells, fmt="%.17g", delimiter=",")


@dataclass
class Item:
    """One gated outcome: a ``run`` or ``gen-lbftrl`` step, one acceptance
    criterion, or a check of the whole run (reruns, reference, tracer)."""

    label: str
    ok: bool
    reason: str = ""


@dataclass(frozen=True)
class Run:
    """``bisons run`` of BISONS or Q-BISONS on the workload's input file
    ``data``, or on the returns generated by the ``gen-lbftrl`` step ``gen``."""

    label: str
    algo: str
    d: int
    T: int
    data: str = None
    gen: str = None

    @property
    def regret_bound(self):
        return BOUND_CONST * self.d ** (2 if self.algo == "bisons" else 3) * math.log(self.T) ** 2

    def argv(self, inputs, job_dir, seed):
        data = os.path.join(job_dir, self.gen, "returns.csv") if self.gen else os.path.join(inputs, self.data)
        argv = ["run", "--algo", self.algo, "--d", str(self.d), "--T", str(self.T)]
        if self.algo == "qbisons":
            argv += ["--seed", str(seed)]
        return argv + ["--data", data, "--out", os.path.join(job_dir, self.label)]

    def gate(self, job_dir, log, code, rounds):
        """Summary present, every round written (``rounds``, or T), no monitor
        violation, regret within the paper bound."""
        path = os.path.join(job_dir, self.label, "summary.json")
        if code != 0 or not os.path.exists(path):
            return [Item(self.label, False, f"exit status {code}, summary.json present: {os.path.exists(path)}")], None
        with open(path) as fh:
            summary = json.load(fh)
        regret = summary.get("final_regret")
        expected = rounds if rounds is not None else self.T
        if summary.get("rounds") != expected:
            return [Item(self.label, False, f"rounds {summary.get('rounds')} != {expected}")], regret
        if summary.get("monitor_violations", 0) != 0:
            return [Item(self.label, False, f"monitor_violations {summary['monitor_violations']}")], regret
        if regret is None or not math.isfinite(regret) or regret > self.regret_bound:
            return [Item(self.label, False, f"regret {regret} above bound {self.regret_bound:.4g}")], regret
        return [Item(self.label, True)], regret


@dataclass(frozen=True)
class GenLbftrl:
    """``bisons adversary gen-lbftrl``; must finish every visit without truncation."""

    label: str
    d: int
    T: int
    alpha: float

    @property
    def visits(self):
        layers = int(math.floor(self.alpha / 3.0 * math.log2(self.T)))
        return (2**self.d - 2) * max(1, int(math.floor(self.T**self.alpha))) * (layers + 1)

    def argv(self, inputs, job_dir, seed):
        return ["adversary", "gen-lbftrl", "--d", str(self.d), "--T", str(self.T),
                "--alpha", str(self.alpha), "--out", os.path.join(job_dir, self.label)]

    def rounds(self, log):
        m = re.search(r"generated (\d+) rounds \((\d+) movement\), truncated=(\w+)", log)
        return (int(m.group(1)), int(m.group(2)), m.group(3)) if m else None

    def gate(self, job_dir, log, code, rounds):
        report = self.rounds(log)
        if code != 0 or report is None:
            return [Item(self.label, False, f"exit status {code}, report found: {report is not None}")], None
        total, movement, truncated = report
        if truncated != "False":
            return [Item(self.label, False, f"truncated={truncated}")], None
        if total - movement != self.visits:
            return [Item(self.label, False, f"{total - movement} visits != {self.visits}")], None
        return [Item(self.label, True)], None


@dataclass(frozen=True)
class Check:
    """``bisons check --suite <suite>``; each criterion is one gated item."""

    label: str
    suite: str

    def argv(self, inputs, job_dir, seed):
        return ["check", "--suite", self.suite]

    def gate(self, job_dir, log, code, rounds):
        items = [Item(m.group(2), m.group(1) == "PASS", line)
                 for line in log.splitlines()
                 for m in [re.match(r"(PASS|FAIL) criterion\s+\d+ \[([\w-]+)\]", line)] if m]
        if not items:
            return [Item(self.label, False, f"exit status {code}, no criterion reported")], None
        if code != 0 and all(it.ok for it in items):
            items.append(Item(self.label, False, f"exit status {code}"))
        return items, None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: tuple
    inputs: dict  # input file name -> (writer, d, T)
    steps: tuple

    def make_inputs(self, inputs_dir, seed):
        for name, (writer, d, T) in self.inputs.items():
            writer(os.path.join(inputs_dir, name), derive_rng(seed, f"{self.name}:{name}:d={d}:T={T}"), d, T)

    def argvs(self, inputs_dir, job_dir, seed):
        return [step.argv(inputs_dir, job_dir, seed) for step in self.steps]

    def gate(self, job_dir, logs, codes):
        """Items and regrets (by step label) from each step's output files, log and exit status."""
        items, regrets, generated = [], {}, {}
        for step, log, code in zip(self.steps, logs, codes):
            step_items, regret = step.gate(job_dir, log, code, generated.get(getattr(step, "gen", None)))
            items += step_items
            if regret is not None:
                regrets[step.label] = regret
            if isinstance(step, GenLbftrl) and step.rounds(log):
                generated[step.label] = step.rounds(log)[0]
        return items, regrets


WORKLOADS = {w.name: w for w in [
    Workload(
        "simplex",
        "BISONS d=10 T=11000 on seeded Dirichlet(1) returns; gen-lbftrl d=3 T=10^4 alpha=0.15 and BISONS "
        "on it; check --suite lbftrl. No spectraplex code runs",
        ("solver.simplex", "solver.simplex_history", "vector", "lbftrl", "checks", "geometry", "harness"),
        {"returns.csv": (write_returns, 10, 11000)},
        (Run("bisons", "bisons", 10, 11000, data="returns.csv"),
         GenLbftrl("gen", 3, 10000, 0.15),
         Run("bisons-on-gen", "bisons", 3, 10000, gen="gen"),
         Check("check-lbftrl", "lbftrl"))),
    Workload(
        "spectraplex",
        "Q-BISONS d=4 T=1760 on seeded random effects with fractional outcomes: log-det KKT solves, "
        "Hermitian coordinate maps, matrix bias update. No simplex solver runs",
        ("solver.spectraplex", "quantum", "hermitian", "harness"),
        {"measurements.csv": (write_measurements, 4, 1760)},
        (Run("qbisons", "qbisons", 4, 1760, data="measurements.csv"),)),
]}
