"""Mutation probe of the acceptance gate: the criteria that fail when the program is broken on purpose.

    python3 tests/mutants.py

Each mutant replaces one piece of text, which must occur exactly once, in
one file of a temporary copy of ``src``.  The unmutated copy and then each
mutant run all 12 criteria in order, in one subprocess, because criterion 7
reads what criteria 2, 3, 5 and 6 report.  The script prints a table of
each mutant, the criteria it was last seen to fail and those it fails now.
It exits 1 if the unmutated copy fails a criterion or a mutant survives,
that is, fails none.  A run of the gate takes about 30 s on 2 vCPUs.  The
file has no ``test_`` prefix, so pytest does not collect it.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
CRITERIA = tuple(range(1, 13))

# name -> (file in src/bisons, old text, new text, criteria it failed when last recorded)
MUTANTS = {
    "M1": ("vector.py", "if dp.any():", "if False:", ()),
    "M2": ("vector.py", "return bool((params.reset_factor * u_next * p_next >= 1.0).any())", "return False", (3, 12)),
    "M3": ("vector.py", "return 2.0 * (1.0 + 6.0 * self.eta) * self.beta", "return (1.0 + 6.0 * self.eta) * self.beta",
           (3, 12)),
    "M4": ("solver.py", "lin = (1.0 - beta * anchor_inner) * w", "lin = (1.0 + beta * anchor_inner) * w", (1,)),
    "M5": ("vector.py", "p_next = domain.update_bias(state.p, x_next)", "p_next = domain.update_bias(state.p, u_next)",
           (7, 12)),
    "M6": ("quantum.py", "return hermitize(P + Si @ inner @ Si)", "return hermitize(P + 0.5 * (Si @ inner @ Si))",
           (4, 7)),
    "M7": ("quantum.py", "return phi_dual(dP)", "return 0.5 * phi_dual(dP)", (5, 12)),
    "M8": ("vector.py", "ratio = 1.0 + 6.0 * self.params.eta", "ratio = 1.0 + 60.0 * self.params.eta", ()),
    "M9": ("lbftrl.py", "min(cap_norm, cap_finish)", "min(2.0 * cap_norm, cap_finish)", ()),
    "M10": ("vector.py", "QuadraticObjective.zeros(x.size, 1.0 / params.eta)",
            "QuadraticObjective.zeros(x.size, 0.5 / params.eta)", ()),
    "M11": ("solver.py", "_FULL_STEP = 1.0 / 3.0", "_FULL_STEP = 0.9", ()),
    "M12": ("quantum.py", "inner = positive_part(np.eye(P.shape[0]) - S @ P @ S)",
            "inner = np.eye(P.shape[0]) - S @ P @ S", (4, 7)),
    "M13": ("solver.py", "return min(DEFAULT_TOL, float(T) ** -2)", "return 1e-6", ()),
}

# runs in the subprocess: the criteria of CRITERIA in order, one context; prints the failed ones
GATE = f"""
import json
from bisons import checks
checks.CHECKS = [entry for entry in checks.CHECKS if entry[0] in {CRITERIA}]
print(json.dumps([res.criterion for res in checks.run_checks() if not res.passed]))
"""


def failed_criteria(edit=None):
    """The criteria that fail on a temporary copy of ``src`` with ``edit`` = (file, old, new) applied."""
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if edit is not None:
            name, old, new = edit
            path = src / "bisons" / name
            text = path.read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times, not once")
            path.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run([sys.executable, "-c", GATE], env=env, cwd=tmp, capture_output=True, text=True,
                             check=True)
        return tuple(json.loads(out.stdout.splitlines()[-1]))


def show(criteria):
    return ", ".join(map(str, criteria)) or "none"


def main():
    base = failed_criteria()
    print(f"{'mutant':8}{'last recorded':16}failed now")
    print(f"{'none':8}{'none':16}{show(base)}", flush=True)
    survivors = []
    for name, (path, old, new, recorded) in MUTANTS.items():
        failed = failed_criteria((path, old, new))
        print(f"{name:8}{show(recorded):16}{show(failed)}", flush=True)
        if not failed:
            survivors.append(name)
    if base or survivors:
        print(f"unmutated tree fails: {show(base)}; surviving mutants: {', '.join(survivors) or 'none'}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
