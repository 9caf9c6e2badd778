"""Line trace of the package: the statements of src/bisons that no command reaches.

    PYTHONPATH=<checkout>/src python3 tests/line_trace.py

Starts ``sys.settrace`` on the frames of the package's files before it
imports ``bisons``, so module bodies count too.  Then it runs, in process
(as ``python -m bisons`` would) and in a temporary directory:

- ``run`` for each of the four algorithms, on an adversary and on a data
  file (a returns file for ``bisons``, ``lbftrl`` and ``ons``, a
  measurements file for ``qbisons``), and ``lbftrl`` on ``lbftrl-bad``;
- ``run`` of ``bisons`` on the crash sequence with the ``CRASH_OVERRIDE``
  parameters given by ``--set``, which resets at t=729; of ``bisons`` on
  the generated returns file at a horizon T past its last row; and of
  ``ons`` on ``alternating-basis``;
- ``adversary gen-lbftrl``;
- ``best-crp`` on the generated returns file;
- ``check --suite all``.

Each command's exit status and arguments go to stderr; the whole trace takes
about four minutes on 2 vCPUs.  Then it prints, file by file, each statement
that none of them reached, as ``file:line  source``.  A statement is an AST statement other than a
docstring whose first line has bytecode.  The file has no ``test_`` prefix,
so pytest does not collect it.
"""

import ast
import contextlib
import importlib.util
import io
import os
import pathlib
import runpy
import sys
import tempfile

PACKAGE = pathlib.Path(importlib.util.find_spec("bisons").origin).resolve().parent  # found, not imported


def trace_package():
    """Start tracing the lines of the package's frames; returns {file name: set of the line numbers reached}."""
    hits = {}
    seen = {}  # code file name -> its set in ``hits``, or None outside the package

    def trace_lines(frame, event, arg):
        if event == "line":
            seen[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            path = pathlib.Path(name).resolve()
            seen[name] = hits.setdefault(path.name, set()) if path.parent == PACKAGE else None
        if seen[name] is None:
            return None
        seen[name].add(frame.f_lineno)
        return trace_lines

    sys.settrace(trace_calls)
    return hits


def _code_lines(code):
    """The line numbers that have bytecode in ``code`` and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path):
    """The first line of every statement in ``path`` that compiles to bytecode, docstrings left out."""
    source = path.read_text()
    with_code = _code_lines(compile(source, str(path), "exec"))
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        if node.lineno in with_code:
            lines.add(node.lineno)
    return lines


def _bisons(argv):
    """``python -m bisons`` with ``argv``, in process and with its stdout dropped; its exit status."""
    sys.argv = ["bisons", *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("bisons", run_name="__main__")
    except SystemExit as exc:
        return exc.code


def _run_commands(tmp):
    import numpy as np

    from bisons.checks import CRASH_OVERRIDE
    from bisons.harness import measurement_stream, save_returns

    gen = os.path.join(tmp, "gen")
    returns = os.path.join(gen, "returns.csv")
    measurements = os.path.join(tmp, "measurements.csv")
    stream = measurement_stream(2, 440, 5)  # each effect's entries re/im interleaved, row-major, then the outcome
    save_returns(measurements, np.column_stack([stream.effects.view(float).reshape(440, -1), stream.outcomes]))
    crash_set = [arg for key, value in CRASH_OVERRIDE.items() for arg in ("--set", f"{key}={value!r}")]
    commands = [
        ["adversary", "gen-lbftrl", "--d", "3", "--T", "2000", "--alpha", "0.15", "--out", gen],
        ["best-crp", "--data", returns],
        ["run", "--algo", "lbftrl", "--d", "3", "--T", "2000", "--adversary", "lbftrl-bad", "--alpha", "0.15"],
    ]
    for algo in ("bisons", "lbftrl", "ons"):
        commands += [["run", "--algo", algo, "--d", "2", "--T", "440", "--adversary", "iid-dirichlet"],
                     ["run", "--algo", algo, "--d", "3", "--T", "2000", "--data", returns]]
    commands += [["run", "--algo", "bisons", "--d", "2", "--T", "1000", "--adversary", "single-asset-crash", *crash_set],
                 ["run", "--algo", "bisons", "--d", "3", "--T", "2100", "--data", returns],
                 ["run", "--algo", "ons", "--d", "2", "--T", "440", "--adversary", "alternating-basis"],
                 ["run", "--algo", "qbisons", "--d", "2", "--T", "440", "--seed", "3"],
                 ["run", "--algo", "qbisons", "--d", "2", "--T", "440", "--data", measurements],
                 ["check", "--suite", "all"]]
    for i, argv in enumerate(commands):
        if argv[0] == "run":
            argv = argv + ["--out", os.path.join(tmp, f"run{i}")]
        print(f"{_bisons(argv)}  bisons {' '.join(argv)}", file=sys.stderr)


def main():
    hits = trace_package()
    with tempfile.TemporaryDirectory() as tmp:
        _run_commands(tmp)
    sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        for line in sorted(_statements(path) - hits.get(path.name, set())):
            print(f"{path.name}:{line}  {source[line - 1].strip()}")


if __name__ == "__main__":
    main()
