"""Every function, method and defaulted parameter in src/bisons is used by the package itself.

A definition that only tests reach is test code living in the package; it
moves into the tests or goes.  Names are matched without their class, so a
method counts as used when any attribute of that name is read.  Likewise a
defaulted parameter that no call in the package passes is a constant in
disguise, unless a test needs to set it.
"""

import ast
import os
import pathlib
import subprocess
import sys

import bisons

# name -> why it stays although the package never calls it
ALLOWED = {
    "assemble_pi_hessian": "one-shot reference for the incremental LB-FTRL player's stability Hessian",
}


# function.parameter (Class.parameter for __init__) -> why a test sets it although the package never does
ALLOWED_PARAMETERS = {
    "run_bisons.tol": "tests solve at tol=1e-12 to compare near-exact states",
    "run_bisons.keep_states": "tests compare the kept (x, u, p) states of a run",
    "run_qbisons.keep_states": "tests compare the kept (X, U, P) states of a run",
    "minimize_simplex.max_iter": "tests force a solver failure with max_iter=0",
    "minimize_spectraplex.max_iter": "tests force a solver failure with max_iter=0",
    "lbftrl_play.tol": "tests replay the player at tol=1e-13",
    "main.argv": "tests drive the CLI in process",
}


def _trees():
    for path in sorted(pathlib.Path(bisons.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text())


def _definitions_and_references():
    defs, refs = {}, set()
    for path, tree in _trees():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs[node.name] = path.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        defs[f"{node.name}.{item.name}"] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return defs, refs


def test_every_definition_is_referenced_in_the_package():
    defs, refs = _definitions_and_references()
    unused = sorted(f"{defs[name]}: {name}" for name in defs
                    if name.rsplit(".", 1)[-1] not in refs and name not in ALLOWED)
    assert unused == []


def test_allowlist_names_live_definitions():
    defs, refs = _definitions_and_references()
    for name, reason in ALLOWED.items():
        assert name in defs and reason
        assert name.rsplit(".", 1)[-1] not in refs  # an entry the package now uses is stale


def test_importing_the_package_loads_no_module():
    src = str(pathlib.Path(bisons.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", "import sys, bisons; print(sorted(m for m in sys.modules "
                          "if m.startswith('bisons.')))"], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_importing_the_cli_leaves_lbftrl_unloaded():
    # only an LB-FTRL run or check loads it, with fractions and decimal
    src = str(pathlib.Path(bisons.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", "import sys, bisons.cli; print(sorted(m for m in sys.modules "
                          "if m in ('bisons.lbftrl', 'bisons.checks', 'fractions', 'decimal')))"],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _defaulted_parameters():
    """{callee name: [(qualified name, name, index among the call's positional arguments or None)]};
    a method's index skips self or cls, and a class's __init__ is listed under the class name,
    which is what its callers call."""
    params = {}
    for _, tree in _trees():
        owned = [(None, node) for node in tree.body if isinstance(node, ast.FunctionDef)]
        owned += [(cls.name, item) for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for item in cls.body if isinstance(item, ast.FunctionDef)]
        for owner, fn in owned:
            a = fn.args
            positional = a.posonlyargs + a.args
            skip = 0 if owner is None else 1  # the package has no staticmethod
            callee = owner if fn.name == "__init__" else fn.name
            first = len(positional) - len(a.defaults)
            entries = [(f"{callee}.{p.arg}", p.arg, i - skip) for i, p in enumerate(positional) if i >= first]
            entries += [(f"{callee}.{p.arg}", p.arg, None) for p, default in zip(a.kwonlyargs, a.kw_defaults)
                        if default is not None]
            params.setdefault(callee, []).extend(entries)
    return params


def _calls():
    """{called name: [ast.Call]} over the package; a method call is listed under the attribute name."""
    calls = {}
    for _, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, name, index):
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return (index is not None and len(call.args) > index) or any(k.arg == name for k in call.keywords)


def _unset_parameters():
    calls = _calls()
    return sorted(qual for callee, entries in _defaulted_parameters().items() for qual, name, index in entries
                  if not any(_passes(call, name, index) for call in calls.get(callee, [])))


def test_every_defaulted_parameter_is_set_in_the_package():
    assert [qual for qual in _unset_parameters() if qual not in ALLOWED_PARAMETERS] == []


def test_parameter_allowlist_names_unset_parameters():
    unset = _unset_parameters()
    for qual, reason in ALLOWED_PARAMETERS.items():
        assert qual in unset and reason  # an entry the package now sets, or that no longer exists, is stale


def test_only_the_cli_entry_point_turns_an_error_into_an_exit_message():
    # every other function lets its error reach cli.main, which ends the command with the message
    boundaries = []
    for path, tree in _trees():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for handler in ast.walk(func):
                if isinstance(handler, ast.ExceptHandler) and any(
                        isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                        and isinstance(node.exc.func, ast.Name) and node.exc.func.id == "SystemExit"
                        for node in ast.walk(handler)):
                    boundaries.append(f"{path.stem}.{func.name}")
    assert boundaries == ["cli.main"]
