"""The benchmark's tracer (bench/tracer.py) finds every span target in the package
and reads what it expects from the traced calls.

The tracer skips a target it cannot find and lists it only in its report,
so a refactor that drops a traced function or method, or changes what a
traced call takes or returns, would otherwise surface first in a traced
benchmark run.
"""

import importlib
import importlib.util
import json
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    missing = []
    for module, attr, span, extract in load_tracer().TARGETS:
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        # as Tracer.install does: a method is wrapped in its own class's __dict__, not inherited
        target = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
        if not callable(target):
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_traced_jobs_keep_the_contracts_the_tracer_reads(tmp_path):
    # The tracer reads a round's reset flag as out[1].reset_triggered and the bytes
    # written by write_trace from its first argument, the path.
    from bisons.checks import CRASH_OVERRIDE
    from bisons.cli import main
    from bisons.solver import SolverFailure

    crash_set = [arg for key, value in CRASH_OVERRIDE.items() for arg in ("--set", f"{key}={value!r}")]
    jobs = {
        "bisons": ["--algo", "bisons", "--d", "2", "--T", "1000", "--adversary", "single-asset-crash", *crash_set],
        "qbisons": ["--algo", "qbisons", "--d", "2", "--T", "440", "--seed", "3"],
    }
    tracer = load_tracer().Tracer(SolverFailure)
    tracer.install()
    try:
        codes = [main(["run", *argv, "--out", str(tmp_path / name)]) for name, argv in jobs.items()]
    finally:
        unrestored = tracer.restore()
    metrics = tracer.metrics()
    summaries = {name: json.loads((tmp_path / name / "summary.json").read_text()) for name in jobs}
    assert codes == [0, 0] and tracer.missing == [] and unrestored == []
    assert metrics["vector.resets"] == summaries["bisons"]["resets"] >= 1
    assert metrics["vector.round.calls"] == summaries["bisons"]["rounds"] == 1000
    assert metrics["quantum.round.calls"] == summaries["qbisons"]["rounds"] == 440
    assert metrics["harness.write_trace.bytes"] == sum((tmp_path / name / "trace.csv").stat().st_size for name in jobs)
