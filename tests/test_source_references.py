"""Every function and method in src/bisons is used by the package itself.

A definition that only tests reach is test code living in the package; it
moves into the tests or goes.  Names are matched without their class, so a
method counts as used when any attribute of that name is read.
"""

import ast
import pathlib

import bisons

# name -> why it stays although the package never calls it
ALLOWED = {
    "assemble_pi_hessian": "one-shot reference for the incremental LB-FTRL player's stability Hessian",
}


def _definitions_and_references():
    defs, refs = {}, set()
    for path in sorted(pathlib.Path(bisons.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
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
