"""The bytes of ``trace.csv`` and ``summary.json`` stay fixed across refactors.

Each run goes through the CLI and its two files are compared by sha256 with
digests recorded from a known-good commit with numpy 2.4.6 and Python 3.11.7
on x86-64.  The ``bisons-crash`` run resets at t=729, so it pins the epoch,
internal-time and reset-flag columns across an epoch boundary.  The
``qbisons-file`` run reads a measurement file that the test writes from a
fixed seed, with outcomes exactly 0, exactly 1 and fractional; it runs in
the file's directory with a relative ``--data``, so ``summary.json``, which
holds that path, is the same on every machine.  numpy's
exp/log kernels can differ between builds, so on another numpy a mismatch
here asks for the digests to be recomputed from a known-good commit, not for
the code to change.
"""

import hashlib

import numpy as np
import pytest

from bisons.checks import CRASH_OVERRIDE
from bisons.cli import main

CRASH_SET = [arg for key, value in CRASH_OVERRIDE.items() for arg in ("--set", f"{key}={value!r}")]

# name -> (argv after "run", sha256 of trace.csv, sha256 of summary.json)
GOLDEN = {
    "bisons": (
        ["--algo", "bisons", "--d", "2", "--T", "440", "--adversary", "iid-dirichlet", "--seed", "1"],
        "631d83e360c0181f269e5700f4a525ff49cd940d06ac9150436067158019aba5",
        "4355218fc6472c4a34f7de21bd1b71cf654ed0cb4bfa4498931ac8982f34196f"),
    "qbisons": (
        ["--algo", "qbisons", "--d", "2", "--T", "440", "--seed", "3"],
        "470fc03d5e08ef8b0b2eeba0d04d9aff9b8f0f906b28ce06b1f2dd24ebb696e6",
        "6f5eff54abe803e0e9a801339d7b3fa99e71074922f138dc7fc86fec051a8342"),
    "qbisons-file": (
        ["--algo", "qbisons", "--d", "2", "--T", "440", "--seed", "5", "--data", "measurements.csv"],
        "d665c1ad7f642d9a6f8287c68d57e1f4371ff70c8bfaeda3036a53c33afbefb3",
        "824cdef2d908d694990b5a8bdfa9d1e00882fd3c8be8e3f931e8432201d161ab"),
    "ons": (
        ["--algo", "ons", "--d", "2", "--T", "100", "--adversary", "iid-dirichlet", "--seed", "2"],
        "16551b23ee69568e266076d19204814ffa40f17e94a6a7b5b297d6f5db1c1020",
        "426688340f20c0ddd60ab09c38ef7265c16cea8cdd135bc048746e7022c3b87b"),
    "lbftrl-iid": (
        ["--algo", "lbftrl", "--d", "2", "--T", "100", "--adversary", "iid-dirichlet", "--seed", "4"],
        "891d07d3e9573d02334c15f002195e1d21ce5b507f975fdd5bee367b3252fae4",
        "9965e771a2c7ce33eb256070b873287d6e0a2e3226d6b53b0de8c6ce01c81775"),
    "lbftrl-bad": (
        ["--algo", "lbftrl", "--d", "2", "--T", "400", "--adversary", "lbftrl-bad", "--alpha", "0.15"],
        "657a262a37afe43cf42723201e1bf9cf013a87a4052b0070f349a282338c0903",
        "86421029c95513eed5dfb5b993da4a12d2b303f98d8271a2a3ee13a560c673d9"),
    "bisons-crash": (
        ["--algo", "bisons", "--d", "2", "--T", "1000", "--adversary", "single-asset-crash", *CRASH_SET],
        "b735426b19b58a4ce128bae2c53dbcd8d7727748d2c9e64aaf0d1dc986e43292",
        "96120dd62f0bdaf967b0630480cfd8d9aec0e88340ab6485a7ac0bc9260d6751"),
}


def write_measurement_file(path, d=2, n=440):
    """n rows of random d x d effects (eigenvalues in [0, 1)) from seed 12, in the
    ``--data`` layout; the outcomes cycle through exactly 0, exactly 1 and a fraction."""
    rng = np.random.default_rng(12)
    V, _ = np.linalg.qr(rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d)))
    E = (V * rng.uniform(0.0, 1.0, size=(n, 1, d))) @ V.conj().swapaxes(1, 2)
    E = 0.5 * (E + E.conj().swapaxes(1, 2))
    cells = np.empty((n, 2 * d * d + 1))
    cells[:, 0:-1:2] = E.reshape(n, -1).real
    cells[:, 1:-1:2] = E.reshape(n, -1).imag
    cells[:, -1] = np.choose(np.arange(n) % 3, [0.0, 1.0, rng.uniform(0.05, 0.95, size=n)])
    np.savetxt(path, cells, fmt="%.17g", delimiter=",")


@pytest.mark.parametrize("name", list(GOLDEN))
def test_outputs_match_recorded_digests(tmp_path, monkeypatch, name):
    argv, trace_sha, summary_sha = GOLDEN[name]
    if "--data" in argv:
        monkeypatch.chdir(tmp_path)
        write_measurement_file(tmp_path / argv[argv.index("--data") + 1])
    assert main(["run", *argv, "--out", str(tmp_path)]) == 0
    digests = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("trace.csv", "summary.json")]
    assert digests == [trace_sha, summary_sha]


def test_crash_run_crosses_an_epoch_boundary(tmp_path):
    assert main(["run", *GOLDEN["bisons-crash"][0], "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in (tmp_path / "trace.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows if row[7] == "1"] == [729]
    assert rows[728][1:3] == ["1", "729"] and rows[729][1:3] == ["2", "1"]
