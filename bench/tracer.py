"""Traced in-process run of one benchmark job.

    python3 bench/tracer.py REPORT.json SPANS.csv '[["run", "--algo", ...], ...]' '["step0.log", ...]'

Wraps the package's public functions at the module attribute their caller
looks up (the package binds names with ``from .x import y``), calls
``bisons.cli.main`` once per step (its output going to that step's log),
restores every attribute, and writes the spans (name, parent, start, end,
extra) and the per-layer metrics.
A span's layer is the module named before the first dot; its self time is
its duration minus that of its child spans.  Helpers that are not wrapped
count toward the span that calls them.  An attribute the package no longer
has is skipped and listed under ``missing`` in the report.
"""

import contextlib
import functools
import importlib
import json
import os
import sys
import time
import traceback

import numpy as np

LAYERS = ("cli", "harness", "vector", "quantum", "lbftrl", "solver", "hermitian", "geometry", "checks")
SOLVER_GROUPS = ("simplex", "spectraplex", "simplex_history", "spectraplex_history")
CRITERIA = ("sequence-validity", "regret-stability")


def _iterations(args, kwargs, out):
    return out.iterations


def _history(args, kwargs, out):
    rows = np.asarray(args[0])
    return (out.iterations, rows.shape[0] if rows.ndim == 2 else 1)


def _path_bytes(args, kwargs, out):
    return os.path.getsize(args[0])


def _reset(args, kwargs, out):
    return int(out[1].reset_triggered)


def _visits(args, kwargs, out):
    return (int(np.sum(out.movement_flags)), int(out.completed_visits))


def _criteria(args, kwargs, out):
    return {res.name: res.seconds for res in out}


# (module, attribute or Class.method, span name, extractor of the span's extra value)
TARGETS = [
    ("bisons.cli", "main", "cli.main", None),
    ("bisons.cli", "run_experiment", "harness.run_experiment", None),
    ("bisons.harness", "best_crp", "harness.comparator", None),
    ("bisons.harness", "best_quantum_state", "harness.comparator", None),
    ("bisons.harness", "load_returns", "harness.load", _path_bytes),
    ("bisons.harness", "load_measurements", "harness.load", _path_bytes),
    ("bisons.harness", "write_trace", "harness.write_trace", _path_bytes),
    ("bisons.harness", "save_returns", "harness.save_returns", None),
    ("bisons.harness", "run_bisons", "vector.run", None),
    ("bisons.harness", "run_qbisons", "quantum.run", None),
    ("bisons.harness", "minimize_simplex_history", "solver.simplex_history", _history),
    ("bisons.harness", "minimize_spectraplex_history", "solver.spectraplex_history", _history),
    ("bisons.harness", "phi_dual", "hermitian.phi_dual", None),
    ("bisons.vector", "bisons_round", "vector.round", _reset),
    ("bisons.vector", "update_bias", "vector.update_bias", None),
    ("bisons.vector", "check_reset", "vector.check_reset", None),
    ("bisons.vector", "StabilityMonitor.observe", "vector.monitor", None),
    ("bisons.vector", "minimize_simplex", "solver.simplex", _iterations),
    ("bisons.vector", "normalize_returns", "geometry.normalize_returns", None),
    ("bisons.vector", "log_loss", "geometry.log_loss", None),
    ("bisons.harness", "normalize_returns", "geometry.normalize_returns", None),
    ("bisons.quantum", "qbisons_round", "quantum.round", _reset),
    ("bisons.quantum", "q_update_bias", "quantum.update_bias", None),
    ("bisons.quantum", "q_check_reset", "quantum.check_reset", None),
    ("bisons.quantum", "QStabilityMonitor.observe", "quantum.monitor", None),
    ("bisons.quantum", "ingest_loss_matrix", "quantum.ingest", None),
    ("bisons.quantum", "minimize_spectraplex", "solver.spectraplex", _iterations),
    ("bisons.quantum", "phi_dual", "hermitian.phi_dual", None),
    ("bisons.solver", "unvectorize_phi", "hermitian.unvectorize_phi", None),
    ("bisons.solver", "vectorize_phi", "hermitian.vectorize_phi", None),
    ("bisons.solver", "phi_dual", "hermitian.phi_dual", None),
    ("bisons.lbftrl", "generate_and_run", "lbftrl.generate", _visits),
    ("bisons.lbftrl", "lbftrl_play", "lbftrl.play", None),
    ("bisons.lbftrl", "assemble_pi_hessian", "lbftrl.hessian", None),
    ("bisons.lbftrl", "grad_pi_objective", "lbftrl.grad_pi", None),
    ("bisons.lbftrl", "move_to_x", "lbftrl.move", None),
    ("bisons.lbftrl", "stability_term", "lbftrl.stability_term", None),
    ("bisons.lbftrl", "minimize_simplex_history", "solver.simplex_history", _history),
    ("bisons.lbftrl", "log_loss", "geometry.log_loss", None),
    ("bisons.checks", "run_checks", "checks.run", _criteria),
    ("bisons.checks", "generate_and_run", "lbftrl.generate", _visits),
    ("bisons.checks", "run_lbftrl", "lbftrl.run", None),
    ("bisons.checks", "regret_vs_next_iterate", "lbftrl.regret_vs_next_iterate", None),
    ("bisons.checks", "build_target_sequence_exact", "lbftrl.targets", None),
    ("bisons.checks", "validate_target_sequence_exact", "lbftrl.targets", None),
]


def unit_of(name):
    """Unit of a per-layer metric, from the last part of its name."""
    leaf = name.rsplit(".", 1)[-1]
    return {"s": "s", "self_s": "s", "bytes": "bytes", "us_p50": "us", "us_p99": "us"}.get(leaf, "count")


class Tracer:
    """In-memory spans; ``stack`` holds the indices of the open spans."""

    def __init__(self, failure):
        self.failure = failure
        self.name, self.parent, self.start, self.end, self.extra = [], [], [], [], []
        self.failed = []
        self.stack = [-1]
        self.installed = []  # (owner, attr, original)
        self.missing = []

    def wrap(self, fn, span, extract):
        failure = self.failure

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(span)
            self.parent.append(self.stack[-1])
            self.start.append(0.0)
            self.end.append(0.0)
            self.extra.append(None)
            self.failed.append(False)
            self.stack.append(i)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except failure:
                self.failed[i] = True
                raise
            finally:
                self.end[i] = time.perf_counter()
                self.start[i] = t0
                self.stack.pop()
            if extract is not None:
                self.extra[i] = extract(args, kwargs, out)
            return out

        return traced

    def install(self):
        # Import every module before wrapping anything: a module imported later
        # would bind an already wrapped function and nest its spans twice.
        modules = {}
        for module in dict.fromkeys(t[0] for t in TARGETS):
            try:
                modules[module] = importlib.import_module(module)
            except ImportError:
                pass
        for module, attr, span, extract in TARGETS:
            try:
                owner = modules[module]
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (AttributeError, KeyError):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(original, span, extract))
            self.installed.append((owner, leaf, original))

    def restore(self):
        """Put every original back; returns the attributes that did not come back."""
        for owner, leaf, original in reversed(self.installed):
            setattr(owner, leaf, original)
        return [f"{getattr(owner, '__name__', owner)}.{leaf}" for owner, leaf, original in self.installed
                if (owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)) is not original]

    def write_spans(self, path):
        base = min(self.start) if self.start else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_us,end_us,failed,extra\n")
            for i, name in enumerate(self.name):
                extra = self.extra[i]
                extra = "" if extra is None else json.dumps(extra).replace(",", ";")
                fh.write(f"{i},{self.parent[i]},{name},{(self.start[i] - base) * 1e6:.3f},"
                         f"{(self.end[i] - base) * 1e6:.3f},{int(self.failed[i])},{extra}\n")

    def metrics(self):
        """Per-layer metrics from the spans; every metric is present, zero when unexercised."""
        names = np.array(self.name, dtype=object)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=int)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        extra = self.extra

        def sel(span):
            return np.flatnonzero(names == span) if len(names) else np.array([], dtype=int)

        def pct(idx, q):
            return float(np.percentile(dur[idx], q)) * 1e6 if idx.size else 0.0

        m = {}
        for layer in LAYERS:
            in_layer = [i for i, n in enumerate(self.name) if n.split(".", 1)[0] == layer]
            m[f"{layer}.self_s"] = float(self_s[in_layer].sum())
        for group in SOLVER_GROUPS:
            idx = sel(f"solver.{group}")
            iters = [extra[i][0] if isinstance(extra[i], tuple) else extra[i] for i in idx]
            m[f"solver.{group}.calls"] = int(idx.size)
            m[f"solver.{group}.self_s"] = float(self_s[idx].sum())
            m[f"solver.{group}.us_p50"] = pct(idx, 50)
            m[f"solver.{group}.us_p99"] = pct(idx, 99)
            m[f"solver.{group}.newton_iters"] = int(sum(v for v in iters if v is not None))
        m["solver.simplex_history.rows"] = int(sum(extra[i][1] for i in sel("solver.simplex_history")
                                                   if extra[i] is not None))
        m["solver.failures"] = int(sum(self.failed[i] for i, n in enumerate(self.name) if n.startswith("solver.")))
        for dom in ("vector", "quantum"):
            idx = sel(f"{dom}.round")
            m[f"{dom}.round.calls"] = int(idx.size)
            m[f"{dom}.round.self_s"] = float(self_s[idx].sum())
            m[f"{dom}.round.us_p50"] = pct(idx, 50)
            m[f"{dom}.round.us_p99"] = pct(idx, 99)
            for phase in ("update_bias", "check_reset", "monitor") + (("ingest",) if dom == "quantum" else ()):
                m[f"{dom}.{phase}.s"] = float(dur[sel(f"{dom}.{phase}")].sum())
        m["vector.resets"] = int(sum(extra[i] for i in sel("vector.round") if extra[i] is not None))
        for fn in ("unvectorize_phi", "vectorize_phi", "phi_dual"):
            idx = sel(f"hermitian.{fn}")
            m[f"hermitian.{fn}.calls"] = int(idx.size)
            m[f"hermitian.{fn}.s"] = float(dur[idx].sum())
        for phase in ("play", "hessian", "grad_pi", "move", "stability_term"):
            m[f"lbftrl.{phase}.s"] = float(dur[sel(f"lbftrl.{phase}")].sum())
        gens = [extra[i] for i in sel("lbftrl.generate") if extra[i] is not None]
        m["lbftrl.movement_rounds"] = int(sum(g[0] for g in gens))
        m["lbftrl.completed_visits"] = int(sum(g[1] for g in gens))
        comp = sel("harness.comparator")
        comp_ids = set(comp.tolist())
        m["harness.comparator.s"] = float(dur[comp].sum())
        m["harness.comparator.solver_calls"] = sum(
            1 for i, n in enumerate(self.name) if n.startswith("solver.") and parent[i] in comp_ids)
        for op in ("load", "write_trace"):
            idx = sel(f"harness.{op}")
            m[f"harness.{op}.s"] = float(dur[idx].sum())
            m[f"harness.{op}.bytes"] = int(sum(extra[i] for i in idx if extra[i] is not None))
        for fn in ("normalize_returns", "log_loss"):
            idx = sel(f"geometry.{fn}")
            m[f"geometry.{fn}.calls"] = int(idx.size)
            m[f"geometry.{fn}.s"] = float(dur[idx].sum())
        reported = {}
        for i in sel("checks.run"):
            reported.update(extra[i] or {})
        for name in CRITERIA:
            m[f"checks.{name}.s"] = float(reported.get(name, 0.0))
        return m


def main(report_path, spans_path, steps_json, logs_json):
    steps, logs = json.loads(steps_json), json.loads(logs_json)
    cli = importlib.import_module("bisons.cli")
    tracer = Tracer(getattr(importlib.import_module("bisons.solver"), "SolverFailure", ()))
    tracer.install()
    codes = []
    try:
        for argv, log in zip(steps, logs):
            with open(log, "w") as fh, contextlib.redirect_stdout(fh), contextlib.redirect_stderr(fh):
                try:
                    codes.append(int(cli.main(argv) or 0))
                except SystemExit as exc:
                    codes.append(exc.code if isinstance(exc.code, int) else 1)
                except Exception:  # the untraced CLI would exit 1 with this traceback
                    traceback.print_exc()
                    codes.append(1)
    finally:
        unrestored = tracer.restore()
    tracer.write_spans(spans_path)
    report = {"exit_codes": codes, "spans": len(tracer.name), "missing": tracer.missing,
              "unrestored": unrestored,
              "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(tracer.metrics().items())}}
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return 3 if unrestored else max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:5]))
