"""Every span target of the benchmark's tracer (bench/tracer.py) exists in the package.

The tracer skips a target it cannot find and lists it only in its report,
so a refactor that drops a traced function or method would otherwise
surface first in a traced benchmark run.
"""

import importlib
import importlib.util
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
