import hashlib
import json
import math
import re
import time

import numpy as np
import pytest

from bisons import harness, lbftrl
from bisons.geometry import InvalidReturnsError
from bisons.harness import (
    ALGORITHMS,
    TRACE_HEADER,
    ExperimentConfig,
    adversary_returns,
    best_crp,
    best_quantum_state,
    derive_rng,
    load_measurements,
    load_returns,
    measurement_stream,
    ons_baseline,
    run_experiment,
    save_returns,
)
from bisons.hermitian import trace_inner
from bisons.solver import SolverFailure


#: 200 bytes that are not UTF-8 text: 0xc0 at offset 24 never starts a UTF-8 sequence
BINARY = b"0.5,0.5\n0.25,0.75\n1,0,0\n" + bytes([0xc0]) + bytes(range(1, 176))


def write_measurements(path, meas):
    """One row per measurement: the effect's entries, re/im interleaved and row major, then the outcome."""
    lines = []
    for effect, outcome in zip(meas.effects, meas.outcomes):
        cells = [v for z in effect.reshape(-1) for v in (z.real, z.imag)] + [outcome]
        lines.append(",".join(format(float(v), ".17g") for v in cells))
    path.write_text("\n".join(lines) + "\n")


class TestBestCrp:
    def test_single_asset_history(self):
        R = np.tile(np.array([1.0, 0.0, 0.0]), (30, 1))
        u, loss = best_crp(R)
        assert u[0] >= 0.999
        assert loss <= 0.05

    def test_alternating_basis_closed_form(self):
        T = 40
        R = np.eye(2)[np.arange(T) % 2]
        u, loss = best_crp(R)
        assert np.abs(u - 0.5).max() <= 1e-4
        assert loss == pytest.approx(T * math.log(2.0), abs=1e-4)

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(0)
        R = rng.dirichlet(np.ones(3), size=50)
        u, loss = best_crp(R)
        step = 1e-3
        a = np.arange(step, 1.0, step)
        A, B = np.meshgrid(a, a, indexing="ij")
        mask = A + B < 1.0 - step / 2
        grid = np.stack([A[mask], B[mask], 1.0 - A[mask] - B[mask]], axis=1)
        vals = -np.log(grid @ R.T).sum(axis=1)
        assert loss <= vals.min() + 5e-3

    def test_scaling_invariance_of_argmin(self):
        rng = np.random.default_rng(1)
        R = rng.dirichlet(np.ones(3), size=25)
        scales = rng.uniform(0.1, 9.0, size=25)
        u1, _ = best_crp(R)
        u2, _ = best_crp(R * scales[:, None] / (R * scales[:, None]).sum(axis=1, keepdims=True))
        assert np.abs(u1 - u2).max() <= 1e-6


class TestBestQuantumState:
    def test_fixed_rank_one_effect(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        E = np.outer(v, v.conj())
        X, _ = best_quantum_state([E] * 25)
        assert trace_inner(X, E) >= 0.999

    def test_diagonal_stream_matches_best_crp(self):
        rng = np.random.default_rng(3)
        R = rng.dirichlet(np.ones(3), size=20)
        u, loss_v = best_crp(R)
        X, loss_q = best_quantum_state([np.diag(r).astype(complex) for r in R])
        assert np.abs(np.diagonal(X).real - u).max() <= 1e-4
        assert loss_q == pytest.approx(loss_v, abs=1e-6)

    def test_maximally_mixed_stream(self):
        d, T = 3, 15
        mats = [np.eye(d, dtype=complex) / d] * T
        X, loss = best_quantum_state(mats)
        assert loss == pytest.approx(T * math.log(d), abs=1e-9)


class TestOnsBaseline:
    def test_first_iterate_uniform(self):
        R = np.array([[0.9, 0.1]])
        losses, plays = ons_baseline(R)
        assert np.allclose(plays[0], 0.5)
        assert losses[0] == pytest.approx(-math.log(0.5))

    def test_uniform_stream_stays_uniform(self):
        R = np.tile(np.array([0.5, 0.5]), (20, 1))
        _, plays = ons_baseline(R)
        assert plays.shape == (20, 2)
        assert np.abs(plays - 0.5).max() <= 1e-6

    def test_three_assets_long_run_converges(self):
        # tr A reaches ~1e4 here; the projection's Newton solves must still
        # certify their 1e-12 tolerance
        R = np.random.default_rng(0).dirichlet(np.ones(3), size=1500)
        losses, plays = ons_baseline(R)
        assert losses.shape == (1500,) and plays.shape == (1500, 3)
        assert plays.min() > 0.0 and np.abs(plays.sum(axis=1) - 1.0).max() <= 1e-12

    def test_crash_comparison_report_only(self):
        R = adversary_returns("single-asset-crash", 2, 60, 0)
        losses, _ = ons_baseline(R)
        assert losses.shape == (60,)
        assert np.isfinite(losses).all()


class TestFiles:
    def test_returns_two_column_example(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,0\n0,1\n")
        R = load_returns(str(path))
        assert np.array_equal(R, np.eye(2))

    def test_zero_row_reports_index(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,0\n0,0\n")
        with pytest.raises(InvalidReturnsError) as err:
            load_returns(str(path))
        assert "row 2" in str(err.value)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,0\n1,zebra\n")
        with pytest.raises(ValueError) as err:
            load_returns(str(path))
        assert "line 2" in str(err.value)

    def test_header_allowed(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("a1,a2\n1,1\n")
        assert np.allclose(load_returns(str(path)), [[0.5, 0.5]])

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(4)
        R = rng.dirichlet(np.ones(4), size=1000)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_returns(str(p1), R)
        R2 = load_returns(str(p1))
        save_returns(str(p2), R2)
        assert p1.read_bytes() == p2.read_bytes()
        assert np.array_equal(load_returns(str(p2)), R2)

    def test_measurements_round_trip(self, tmp_path):
        events = measurement_stream(2, 10, seed=5)
        p1 = tmp_path / "m.csv"
        write_measurements(p1, events)
        loaded = load_measurements(str(p1))
        assert len(loaded) == 10
        assert loaded.effects.tobytes() == events.effects.tobytes()
        assert loaded.outcomes.tobytes() == events.outcomes.tobytes()

    @pytest.mark.parametrize("text, message", [
        ("0.5,0,0,0,0,0,0.5,0,0.5\n0.5,0,zebra,0,0,0,0.5,0,0.5\n", "parse error at line 2"),
        ("0.5,0,0,0,0,0,0.5,0,0.5\n\n0.5,0,0,0,0.5\n", "row 2 (line 3): expected 2*d^2+1 cells, got 5"),
        ("0.5,0,0,0,0,0,0.5,0,0.5\n0.5,0,0.3,0,0,0,0.5,0,0.5\n", "row 2 (line 2): effect must be Hermitian"),
        ("\n\n", "no measurement rows found"),
    ], ids=["unparsable-cell", "cell-count", "non-hermitian", "empty"])
    def test_measurements_rejections_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_measurements(str(path))
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value)

    @pytest.mark.parametrize("load, text, message", [
        (load_returns, "1,0\n0,1,0\n", "row 2 (line 2): expected 2 cells as in row 1, got 3"),
        (load_returns, "1,0\n\n0,1,0,0\n", "row 2 (line 3): expected 2 cells as in row 1, got 4"),
        (load_measurements, "1,0,0,0,0,0,1,0,0.5\n1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1,0,0.5\n",
         "row 2 (line 2): expected 9 cells as in row 1, got 19"),
        (load_returns, "1,0\nnan,1\n", "row 2 (line 2): cells must be finite"),
        (load_returns, "inf,1\n", "row 1 (line 1): cells must be finite"),
        (load_measurements, "0.5,0,0,0,0,0,nan,0,0.5\n", "row 1 (line 1): cells must be finite"),
        (load_measurements, "0.5,0,0,0,0,0,0.5,0,0.5\n0.5,0,0,0,0,0,0.5,0,inf\n",
         "row 2 (line 2): cells must be finite"),
        (load_returns, "1,0\na1,a2\n", "parse error at line 2: could not convert string to float: 'a1'"),
        (load_returns, "1,0\n# a comment\n", "parse error at line 2: could not convert string to float: '# a comment'"),
        (load_returns, "1,0,\n", "parse error at line 1: could not convert string to float: ''"),
        (load_returns, "a1,a2\n1,1\n-1,1\n", "row 2 (line 3): returns entries must be nonnegative"),
        (load_returns, "\n1,3\n\n\n-1,1\n", "row 2 (line 5): returns entries must be nonnegative"),
        (load_returns, "1,1\r\n\r\n-1,1\r\n", "row 2 (line 3): returns entries must be nonnegative"),
        (load_returns, "1,1\r\n\r\nzebra,1\r\n", "parse error at line 3: could not convert string to float: 'zebra'"),
    ], ids=["ragged-returns", "ragged-after-blank", "ragged-measurements", "returns-nan", "returns-inf",
            "effect-nan", "outcome-inf", "header-below-line-1", "comment-line", "trailing-comma", "after-a-header",
            "after-blank-lines", "after-crlf", "parse-error-after-crlf"])
    def test_reader_rejections_name_the_row(self, tmp_path, load, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            load(str(path))

    @pytest.mark.parametrize("text, expected", [
        ("1_0,5\n", [[10 / 15, 5 / 15]]),
        (" 2 ,2\n", [[0.5, 0.5]]),
        ("-0,1\n", [[-0.0, 1.0]]),
        ("1e-320,1\n", [[1e-320, 1.0]]),
        ("a1,a2\n1,1\n", [[0.5, 0.5]]),
        ("\n1,3\n\n\n1,1\n", [[0.25, 0.75], [0.5, 0.5]]),
        ("1,3\r\n1,1\r\n", [[0.25, 0.75], [0.5, 0.5]]),
    ], ids=["underscore", "spaces", "negative-zero", "subnormal", "header", "blank-lines", "crlf"])
    def test_reader_cells(self, tmp_path, text, expected):
        # each cell reads as float() reads it, numpy's parser or not (it rejects 1_0), down to the sign of zero
        path = tmp_path / "r.csv"
        path.write_bytes(text.encode())
        assert load_returns(str(path)).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("underscored", [False, True], ids=["one-call", "float-pass"])
    def test_reader_keeps_cells_and_lines(self, tmp_path, underscored):
        rng = np.random.default_rng(12)
        rows = rng.dirichlet(np.ones(10), size=300) * 10.0 ** rng.integers(-300, 300, size=(300, 1))
        cells = [[format(float(v), ".17g") for v in row] for row in rows]
        if underscored:  # float() reads 1_0 as 10 and np.loadtxt rejects it, so the float pass reads the file
            cells[100][3], rows[100, 3] = "1_0", 10.0
        text = "\r\n".join(",".join(row) for row in cells)
        path = tmp_path / "r.csv"
        path.write_bytes(("a1\r\n\r\n" + text.replace("\r\n", "\r\n\r\n", 5) + "\r\n").encode())
        assert harness._read_rows(str(path), "returns", lambda c: c).tobytes() == rows.tobytes()

        def line_of(k):
            def reject(c):
                raise InvalidReturnsError("rejected", index=k)
            with pytest.raises(InvalidReturnsError) as err:
                harness._read_rows(str(path), "returns", reject)
            found = re.fullmatch(rf"{re.escape(str(path))}: row {k + 1} \(line (\d+)\): rejected", str(err.value))
            return int(found[1])

        assert [line_of(k) for k in range(300)] == [3, 5, 7, 9, 11] + list(range(13, 308))

    @pytest.mark.parametrize("later", ["0.3,abc", "0.3,nan", "0.3,0.3,0.4", "0,0"],
                             ids=["parse-error", "nan", "cell-count", "no-positive-entry"])
    def test_returns_first_bad_row_wins(self, tmp_path, later):
        """Row 2 (line 2) is negative, and row 4 (line 4) is bad in another way: row 2's message wins."""
        path = tmp_path / "r.csv"
        path.write_text("\n".join(["0.5,0.5", "-1,2", "0.2,0.8", later]) + "\n")
        with pytest.raises(InvalidReturnsError,
                           match=f"^{re.escape(f'{path}: row 2 (line 2): returns entries must be nonnegative')}$"):
            load_returns(str(path))

    @pytest.mark.parametrize("first, later, message", [
        ("0.5,0,0.3,0,0,0,0.5,0,0.5", "1.5,0,0,0,0,0,0.5,0,0.5", "effect must be Hermitian"),
        ("1.5,0,0,0,0,0,0.5,0,0.5", "0.5,0,0,0,0,0,0.5,0,2", "effect eigenvalues must lie in [0, 1], got [0.5, 1.5]"),
        ("0.5,0,0,0,0,0,-0.25,0,0.5", "0.5,0,0.3,0,0,0,0.5,0,0.5",
         "effect eigenvalues must lie in [0, 1], got [-0.25, 0.5]"),
        ("0.5,0,0,0,0,0,0.5,0,1.25", "0.5,0,0,0.1,0,0,0.5,0,0.5", "outcome must lie in [0, 1], got 1.25"),
        ("0.5,0,0,0,0.5", "0.5,0,0.3,0,0,0,0.5,0,0.5", "expected 2*d^2+1 cells, got 5"),
        ("0.5,0,0.3,0,0,0,0.5,0,0.5", "0.5,0,0,0,0.5", "effect must be Hermitian"),
        ("0.5,0,0,0,0,0,0.5,0,-1", "0.5,0,zebra,0,0,0,0.5,0,0.5", "outcome must lie in [0, 1], got -1.0"),
        ("1,0,0,0,0,0,1,0,-0.5", "0.5,0,0,0,0,0,0.5,0,nan", "outcome must lie in [0, 1], got -0.5"),
    ], ids=["hermitian", "eigenvalues-high", "eigenvalues-low", "outcome", "cell-count",
            "hermitian-before-cell-count", "outcome-before-a-parse-error", "outcome-before-a-nan"])
    def test_measurements_first_bad_row_wins(self, tmp_path, first, later, message):
        """Row 3 (line 4) is bad, and so is row 5 (line 6) in another way: row 3's message wins."""
        good = "0.5,0,0,0,0,0,0.5,0,0.5"
        path = tmp_path / "m.csv"
        path.write_text("\n".join([good, good, "", first, good, later, good]) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: row 3 (line 4): {message}')}$"):
            load_measurements(str(path))

    def test_measurement_header_allowed(self, tmp_path):
        events = measurement_stream(2, 5, seed=5)
        plain, headed = tmp_path / "plain.csv", tmp_path / "headed.csv"
        write_measurements(plain, events)
        headed.write_text("a11re,a11im,a12re,a12im,a21re,a21im,a22re,a22im,outcome\n" + plain.read_text())
        a, b = load_measurements(str(plain)), load_measurements(str(headed))
        assert a.effects.tobytes() == b.effects.tobytes() and a.outcomes.tobytes() == b.outcomes.tobytes()


class TestAdversaries:
    def test_pure_function_of_seed(self):
        for name in ("iid-dirichlet", "single-asset-crash", "alternating-basis"):
            A = adversary_returns(name, 3, 50, 11)
            B = adversary_returns(name, 3, 50, 11)
            assert np.array_equal(A, B)
            C = adversary_returns(name, 3, 50, 12)
            if name != "alternating-basis":
                assert not np.array_equal(A, C)

    def test_rows_are_simplex_points(self):
        for name in ("iid-dirichlet", "single-asset-crash", "alternating-basis"):
            R = adversary_returns(name, 4, 30, 0)
            assert (R >= 0.0).all()
            assert np.abs(R.sum(axis=1) - 1.0).max() <= 1e-12

    def test_derive_rng_label_separation(self):
        a = derive_rng(0, "alpha").random(4)
        b = derive_rng(0, "beta").random(4)
        a2 = derive_rng(0, "alpha").random(4)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)


class TestRunExperiment:
    def test_deterministic_traces(self, tmp_path):
        cfgs = []
        for sub in ("one", "two"):
            cfgs.append(ExperimentConfig(algo="bisons", d=2, T=440, seed=3,
                                         adversary="iid-dirichlet", out=str(tmp_path / sub)))
        s1 = run_experiment(cfgs[0])
        s2 = run_experiment(cfgs[1])
        t1 = (tmp_path / "one" / "trace.csv").read_bytes()
        t2 = (tmp_path / "two" / "trace.csv").read_bytes()
        assert t1 == t2
        assert s1["final_regret"] == s2["final_regret"]

    def test_summary_matches_trace(self, tmp_path):
        out = tmp_path / "exp"
        cfg = ExperimentConfig(algo="bisons", d=2, T=440, seed=1,
                               adversary="single-asset-crash", out=str(out))
        summary = run_experiment(cfg)
        lines = (out / "trace.csv").read_text().strip().splitlines()
        last = lines[-1].split(",")
        assert float(last[6]) == pytest.approx(summary["final_regret"], abs=1e-9)
        # regret recomputed from the loss columns agrees with the emitted series
        cum = 0.0
        for row in lines[1:]:
            cells = row.split(",")
            cum += float(cells[3])
            assert float(cells[4]) == pytest.approx(cum, abs=1e-9)
            assert float(cells[6]) == pytest.approx(cum - float(cells[5]), abs=1e-9)

    def test_bisons_smoke_runtime(self, tmp_path):
        start = time.time()
        cfg = ExperimentConfig(algo="bisons", d=3, T=1000, seed=0,
                               adversary="iid-dirichlet", out=str(tmp_path))
        run_experiment(cfg)
        assert time.time() - start < 60.0

    def test_lbftrl_stability_file(self, tmp_path):
        cfg = ExperimentConfig(algo="lbftrl", d=2, T=60, seed=0,
                               adversary="iid-dirichlet", out=str(tmp_path))
        summary = run_experiment(cfg)
        stab = (tmp_path / "stability.csv").read_text().strip().splitlines()
        assert len(stab) == 61
        total = sum(float(row.split(",")[1]) for row in stab[1:])
        assert total == pytest.approx(summary["stability_sum"], rel=1e-12)

    def test_qbisons_experiment(self, tmp_path):
        cfg = ExperimentConfig(algo="qbisons", d=2, T=440, seed=0, out=str(tmp_path))
        summary = run_experiment(cfg)
        assert summary["rounds"] == 440
        assert summary["monitor_violations"] == 0

    def test_ons_experiment(self, tmp_path):
        cfg = ExperimentConfig(algo="ons", d=2, T=50, seed=0,
                               adversary="alternating-basis", out=str(tmp_path))
        summary = run_experiment(cfg)
        assert summary["rounds"] == 50

    def test_parameter_overrides_respected(self, tmp_path):
        cfg = ExperimentConfig(algo="bisons", d=2, T=1000, seed=0,
                               adversary="single-asset-crash", out=str(tmp_path),
                               overrides={"B": 15.75, "eta": 1.0 / 63.0, "beta": 0.1})
        summary = run_experiment(cfg)
        assert summary["params"]["B"] == 15.75
        assert summary["resets"] >= 1

    def test_invalid_overrides_rejected(self, tmp_path):
        cfg = ExperimentConfig(algo="bisons", d=2, T=440, seed=0,
                               adversary="iid-dirichlet", out=str(tmp_path),
                               overrides={"beta": 0.9})
        with pytest.raises(Exception):
            run_experiment(cfg)


COMMON_SUMMARY_KEYS = {"algo", "d", "T", "seed", "adversary", "data", "rounds", "cum_loss", "comparator_loss",
                       "final_regret"}
EPOCH_KEYS = {"resets", "monitor_violations", "params"}
# algorithm -> (config fields, the summary keys of its own)
ALGORITHM_CASES = {
    "bisons": ({"d": 2, "T": 440, "adversary": "iid-dirichlet"}, EPOCH_KEYS),
    "qbisons": ({"d": 2, "T": 440}, EPOCH_KEYS),
    "lbftrl": ({"d": 2, "T": 400, "adversary": "lbftrl-bad", "alpha": 0.15},
               {"eta", "stability_sum", "truncated", "completed_visits", "alpha"}),
    "ons": ({"d": 2, "T": 50, "adversary": "alternating-basis"}, set()),
}


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_every_algorithm_writes_trace_and_summary(tmp_path, algo):
    fields, own_keys = ALGORITHM_CASES[algo]
    summary = run_experiment(ExperimentConfig(algo=algo, out=str(tmp_path), **fields))
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert len(trace) == 1 + summary["rounds"]
    assert json.loads((tmp_path / "summary.json").read_text()) == summary
    assert set(summary) == COMMON_SUMMARY_KEYS | own_keys
    if algo == "lbftrl":
        assert summary["alpha"] == 0.15 and summary["completed_visits"] >= 1 and summary["truncated"] is False
        assert len((tmp_path / "stability.csv").read_text().splitlines()) == 1 + summary["rounds"]


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_runners_write_nothing(tmp_path, algo):
    fields, _ = ALGORITHM_CASES[algo]
    out = tmp_path / "out"
    ALGORITHMS[algo](ExperimentConfig(algo=algo, out=str(out), **fields))
    assert not out.exists()


class TestFromFlags:
    def test_typed_fields_and_overrides_kept(self):
        cfg = ExperimentConfig.from_flags({"algo": "bisons", "d": 2, "T": 440, "seed": 10,
                                           "adversary": "iid-dirichlet"}, {"B": 20.0})
        assert (cfg.algo, cfg.d, cfg.T, cfg.seed, cfg.adversary) == ("bisons", 2, 440, 10, "iid-dirichlet")
        assert cfg.overrides == {"B": 20.0}

    def test_fields_not_given_take_their_defaults(self):
        cfg = ExperimentConfig.from_flags({"algo": "lbftrl", "d": 2, "T": 400, "adversary": "lbftrl-bad"}, {})
        assert (cfg.seed, cfg.data, cfg.out, cfg.alpha, cfg.eta, cfg.overrides) == (0, None, ".", 0.5, 1.0, {})


class TestCli:
    def test_run_and_best_crp(self, tmp_path):
        from bisons.cli import main

        out = tmp_path / "run"
        rc = main(["run", "--algo", "bisons", "--d", "2", "--T", "440",
                   "--adversary", "iid-dirichlet", "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "trace.csv").exists()
        assert (out / "summary.json").exists()
        data = json.loads((out / "summary.json").read_text())
        assert data["rounds"] == 440

        returns_path = tmp_path / "r.csv"
        save_returns(str(returns_path), np.eye(2)[np.arange(20) % 2])
        assert main(["best-crp", "--data", str(returns_path)]) == 0



    def test_run_with_set_overrides(self, tmp_path):
        from bisons.cli import main

        out = tmp_path / "crash"
        rc = main(["run", "--algo", "bisons", "--d", "2", "--T", "1000",
                   "--adversary", "single-asset-crash", "--seed", "0",
                   "--set", "B=15.75", "--set", "eta=0.015873015873015872",
                   "--set", "beta=0.1", "--out", str(out)])
        assert rc == 0
        data = json.loads((out / "summary.json").read_text())
        assert data["resets"] >= 1
        assert data["params"]["beta"] == 0.1


    @pytest.mark.parametrize("argv, message", [
        (["--d", "2", "--set", "B=abc"],
         "bisons run: error: argument --set: expected KEY=VALUE with a numeric VALUE, got 'B=abc'"),
        (["--d", "2", "--set", "B"],
         "bisons run: error: argument --set: expected KEY=VALUE with a numeric VALUE, got 'B'"),
        (["--d", "2", "--set", "eta="],
         "bisons run: error: argument --set: expected KEY=VALUE with a numeric VALUE, got 'eta='"),
        (["--d", "2", "--T", "4.5e2"], "bisons run: error: argument --T: invalid int value: '4.5e2'"),
        (["--d", "2", "--config", "exp.cfg"], "bisons: error: unrecognized arguments: --config exp.cfg"),
        (["--d", "2", "--pad-uniform"], "bisons: error: unrecognized arguments: --pad-uniform"),
        ([], "bisons run: error: the following arguments are required: --d"),
    ], ids=["set-not-a-number", "set-without-value", "set-empty-value", "T-not-an-int", "config-file",
            "pad-uniform", "no-d"])
    def test_run_usage_errors_exit_with_status_2(self, tmp_path, capsys, argv, message):
        from bisons.cli import main

        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "bisons", "--T", "440", "--adversary", "iid-dirichlet", *argv, "--out", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"\n{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("algo, adversary", [("ons", "iid-dirichlet"), ("lbftrl", "lbftrl-bad")])
    def test_run_rejects_overrides_the_algorithm_has_no_use_for(self, tmp_path, algo, adversary):
        from bisons.cli import main

        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=rf"^algorithm '{algo}' takes no parameter overrides, got 'B', 'seeed'$"):
            main(["run", "--algo", algo, "--d", "2", "--T", "400", "--adversary", adversary,
                  "--set", "B=20", "--set", "seeed=3", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("algo, argv, message", [
        ("bisons", ["--adversary", "iid-dirichlet", "--eta", "0.0003"], "'eta'"),
        ("qbisons", ["--eta", "0.0003"], "'eta'"),
        ("qbisons", ["--adversary", "iid-dirichlet"], "'adversary'"),
        ("ons", ["--adversary", "iid-dirichlet", "--alpha", "0.9", "--eta", "5"], "'alpha', 'eta'"),
    ], ids=["bisons-eta", "qbisons-eta", "qbisons-adversary", "ons-flags"])
    def test_run_rejects_keys_the_algorithm_does_not_read(self, tmp_path, algo, argv, message):
        from bisons.cli import main

        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=rf"^algorithm '{algo}' does not read {message}$"):
            main(["run", "--algo", algo, "--d", "2", "--T", "50", *argv, "--out", str(out)])
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--adversary", "lbftrl-bad", "--seed", "5"], "algorithm 'lbftrl on lbftrl-bad' does not read 'seed'"),
        (["--adversary", "iid-dirichlet", "--alpha", "0.9"], "algorithm 'lbftrl' does not read 'alpha'"),
    ], ids=["lbftrl-bad-seed", "iid-dirichlet-alpha"])
    def test_lbftrl_rejects_keys_its_adversary_does_not_read(self, tmp_path, argv, message):
        # lbftrl-bad is generated from alpha alone; any other input is played without alpha
        from bisons.cli import main

        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^{message}$"):
            main(["run", "--algo", "lbftrl", "--d", "2", "--T", "400", *argv, "--out", str(out)])
        assert not (out / "trace.csv").exists()

    def test_a_run_that_fails_in_its_solver_exits_with_one_line(self, tmp_path, capsys):
        # at eta = 1e300 the barrier weighs nothing and LB-FTRL's line search stalls
        from bisons.cli import main

        path, out = tmp_path / "r.csv", tmp_path / "out"
        save_returns(str(path), np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--algo", "lbftrl", "--d", "2", "--T", "4", "--data", str(path), "--eta", "1e300",
                  "--out", str(out)])
        assert exc.value.code == "t=2: line search stalled"  # printed to stderr, exit status 1
        assert capsys.readouterr().out == ""
        assert not out.exists()
        cause = exc.value.__cause__
        assert isinstance(cause, SolverFailure) and isinstance(cause.__cause__, SolverFailure)
        assert cause.report is cause.__cause__.report and str(cause.__cause__) == "line search stalled"

    @pytest.mark.parametrize("algo, owner, name, error", [
        ("bisons", harness, "run_bisons", ZeroDivisionError),
        ("lbftrl", lbftrl, "run_lbftrl", lbftrl.InfeasibleMovementError),
    ], ids=["arithmetic", "infeasible-movement"])
    def test_run_errors_exit_with_their_message(self, tmp_path, monkeypatch, algo, owner, name, error):
        from bisons.cli import main

        def fail(*args, **kwargs):
            raise error("spoiled")

        monkeypatch.setattr(owner, name, fail)
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match="^spoiled$"):
            main(["run", "--algo", algo, "--d", "2", "--T", "440", "--adversary", "iid-dirichlet", "--out", str(out)])
        assert not out.exists()

    def test_set_eta_writes_what_the_eta_override_wrote(self, tmp_path):
        # sha256 of trace.csv and summary.json that this run wrote when --eta also set BISONS's eta
        from bisons.cli import main

        assert main(["run", "--algo", "bisons", "--d", "2", "--T", "440", "--adversary", "iid-dirichlet",
                     "--set", "eta=0.0003", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["params"]["eta"] == 0.0003
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("trace.csv", "summary.json")]
        assert digests == ["fa01fe19815c5f41fc6b1b9aaa88ad6560f4a9c361e0f68ff76bb894442a6d04",
                           "97cdb3b04e2d3635c7bb0a97eda75c5bb44f098c426c03167850a3b1e036bf13"]

    def test_the_last_set_of_a_parameter_wins(self, tmp_path):
        from bisons.cli import main

        assert main(["run", "--algo", "bisons", "--d", "2", "--T", "440", "--adversary", "iid-dirichlet",
                     "--set", "B=10", "--set", "B=20", "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["params"]["B"] == 20.0

    def test_lbftrl_alpha_and_eta_flags_kept(self, tmp_path):
        from bisons.cli import main

        args = ["run", "--algo", "lbftrl", "--d", "2", "--T", "400", "--adversary", "lbftrl-bad"]
        assert main(args + ["--out", str(tmp_path / "default")]) == 0
        assert main(args + ["--alpha", "0.15", "--eta", "0.25", "--out", str(tmp_path / "flags")]) == 0
        kept = {name: json.loads((tmp_path / name / "summary.json").read_text()) for name in ("default", "flags")}
        assert {name: (data["alpha"], data["eta"]) for name, data in kept.items()} == {
            "default": (0.5, 1.0), "flags": (0.15, 0.25)}

    def test_seed_kept_and_out_defaults_to_the_working_directory(self, tmp_path, monkeypatch):
        from bisons.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["run", "--algo", "ons", "--d", "2", "--T", "50", "--adversary", "iid-dirichlet",
                     "--seed", "9"]) == 0
        assert json.loads((tmp_path / "summary.json").read_text())["seed"] == 9

    def test_a_data_file_shorter_than_T_runs_its_rows_only(self, tmp_path):
        from bisons.cli import main

        path = tmp_path / "r.csv"
        save_returns(str(path), adversary_returns("iid-dirichlet", 2, 100, 1))
        assert main(["run", "--algo", "bisons", "--d", "2", "--T", "440", "--data", str(path),
                     "--out", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["rounds"] == 100
        assert len((tmp_path / "out" / "trace.csv").read_text().splitlines()) == 101

    @pytest.mark.parametrize("argv, message", [
        (["run", "--algo", "lbftrl", "--adversary", "iid-dirichlet", "--eta", "0"],
         "eta must be finite and positive, got 0.0"),
        (["run", "--algo", "lbftrl", "--adversary", "iid-dirichlet", "--eta", "-1"],
         "eta must be finite and positive, got -1.0"),
        (["run", "--algo", "lbftrl", "--adversary", "iid-dirichlet", "--eta", "nan"],
         "eta must be finite and positive, got nan"),
        (["adversary", "gen-lbftrl", "--eta", "0"], "eta must be finite and positive, got 0.0"),
        (["run", "--algo", "lbftrl", "--adversary", "lbftrl-bad", "--alpha", "0"], r"alpha must lie in \(0, 1\)"),
    ], ids=["eta-0", "eta-negative", "eta-nan", "gen-eta-0", "alpha-0"])
    def test_lbftrl_input_errors_exit_with_a_message(self, tmp_path, argv, message):
        from bisons.cli import main

        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^{message}$"):
            main([*argv, "--d", "2", "--T", "50", "--out", str(out)])
        assert not (out / "trace.csv").exists() and not (out / "returns.csv").exists()

    @pytest.mark.parametrize("algo, argv, message", [
        ("bisons", ["--d", "3", "--T", "1000"], "row 1 has dimension 2, not d=3"),
        ("qbisons", ["--d", "3", "--T", "1000"], "row 1 has dimension 2, not d=3"),
        ("lbftrl", ["--d", "2", "--T", "100"], "440 rows, more than T=100"),
        ("ons", ["--d", "5", "--T", "100"], "row 1 has dimension 2, not d=5"),
    ])
    def test_run_rejects_a_data_file_that_does_not_match_d_and_T(self, tmp_path, algo, argv, message):
        from bisons.cli import main

        path = tmp_path / "data.csv"
        if algo == "qbisons":
            write_measurements(path, measurement_stream(2, 440, seed=5))
        else:
            save_returns(str(path), adversary_returns("iid-dirichlet", 2, 440, 1))
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^{path}: {message}$"):
            main(["run", "--algo", algo, *argv, "--data", str(path), "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("algo, argv, message", [
        ("bisons", ["--adversary", "single-asset-crash", "--seed", "9"], "'adversary', 'seed'"),
        ("ons", ["--seed", "4"], "'seed'"),
        ("lbftrl", ["--adversary", "iid-dirichlet"], "'adversary'"),
    ])
    def test_run_on_data_rejects_adversary_and_seed(self, tmp_path, algo, argv, message):
        from bisons.cli import main

        path = tmp_path / "r.csv"
        save_returns(str(path), adversary_returns("iid-dirichlet", 2, 440, 1))
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^algorithm '{algo} on data' does not read {message}$"):
            main(["run", "--algo", algo, "--d", "2", "--T", "440", "--data", str(path), *argv, "--out", str(out)])
        assert not out.exists()

    def test_qbisons_on_data_reads_its_seed(self, tmp_path):
        # the seed drives the Bernoulli reduction of fractional outcomes
        from bisons.cli import main

        path = tmp_path / "m.csv"
        write_measurements(path, measurement_stream(2, 440, seed=5))
        traces = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["run", "--algo", "qbisons", "--d", "2", "--T", "440", "--data", str(path),
                         "--seed", seed, "--out", str(out)]) == 0
            assert json.loads((out / "summary.json").read_text())["seed"] == int(seed)
            traces.append((out / "trace.csv").read_bytes())
        assert traces[0] != traces[1]

    @pytest.mark.parametrize("algo, key", [("bisons", "foo"), ("bisons", "seed"), ("bisons", "alpha"),
                                           ("qbisons", "seed"), ("qbisons", "d")])
    def test_unknown_override_rejected_before_any_output(self, tmp_path, algo, key):
        # --set names a parameter only: a config field given this way is rejected, not taken as the flag
        from bisons.cli import main

        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=rf"^unknown parameter override '{key}'$"):
            main(["run", "--algo", algo, "--d", "2", "--T", "440", "--set", f"{key}=3", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--algo", "bisons", "--d", "2", "--T", "440", "--data", "{tmp}/ragged.csv"],
         "{tmp}/ragged.csv: row 2 (line 2): expected 2 cells as in row 1, got 3"),
        (["--algo", "bisons", "--d", "2", "--T", "440", "--data", "{tmp}/missing.csv"],
         "[Errno 2] No such file or directory: '{tmp}/missing.csv'"),
        (["--algo", "bisons", "--d", "2", "--T", "440", "--adversary", "nosuch"], "unknown adversary 'nosuch'"),
        (["--algo", "bisons", "--d", "2", "--T", "440", "--adversary", "iid-dirichlet", "--set", "beta=0.9"],
         "beta must lie in (0, sqrt(2)-1], got 0.9"),
        (["--algo", "bisons", "--d", "0", "--T", "440", "--adversary", "iid-dirichlet"],
         "config key 'd' must be at least 1, got 0"),
        (["--algo", "ons", "--d", "0", "--T", "440", "--adversary", "iid-dirichlet"],
         "config key 'd' must be at least 1, got 0"),
        (["--algo", "qbisons", "--d", "0", "--T", "440"], "config key 'd' must be at least 1, got 0"),
        (["--algo", "lbftrl", "--d", "2", "--T", "0", "--adversary", "lbftrl-bad"],
         "config key 'T' must be at least 1, got 0"),
        (["--algo", "ons", "--d", "2", "--T", "-5", "--adversary", "iid-dirichlet"],
         "config key 'T' must be at least 1, got -5"),
        (["--algo", "qbisons", "--d", "2", "--T", "440", "--data", "{tmp}/nan.csv"],
         "{tmp}/nan.csv: row 1 (line 1): cells must be finite"),
        (["--algo", "bisons", "--d", "2", "--T", "440", "--adversary", "iid-dirichlet", "--seed", "-1"],
         "config key 'seed' must be at least 0, got -1"),
        (["--algo", "qbisons", "--d", "2", "--T", "440", "--seed", "-7"],
         "config key 'seed' must be at least 0, got -7"),
        (["--algo", "bisons", "--d", "2", "--T", "440", "--data", "{tmp}/binary.csv"],
         "{tmp}/binary.csv: not UTF-8 text: 'utf-8' codec can't decode byte 0xc0 in position 24: invalid start byte"),
        (["--algo", "qbisons", "--d", "2", "--T", "440", "--data", "{tmp}/binary.csv"],
         "{tmp}/binary.csv: not UTF-8 text: 'utf-8' codec can't decode byte 0xc0 in position 24: invalid start byte"),
    ], ids=["ragged", "missing-data", "unknown-adversary", "bad-beta", "bisons-d-0", "ons-d-0", "qbisons-d-0",
            "lbftrl-T-0", "negative-T", "nan-effect", "bisons-negative-seed",
            "qbisons-negative-seed", "bisons-binary-data", "qbisons-binary-data"])
    def test_rejected_run_exits_with_its_message_and_writes_nothing(self, tmp_path, argv, message):
        from bisons.cli import main

        (tmp_path / "ragged.csv").write_text("1,0\n0,1,0\n")
        (tmp_path / "nan.csv").write_text("0.5,0,0,0,0,0,nan,0,0.5\n")
        (tmp_path / "binary.csv").write_bytes(BINARY)
        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=f"^{re.escape(message.format(tmp=tmp_path))}$"):
            main(["run", *[arg.format(tmp=tmp_path) for arg in argv], "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("1,0\n0,0\n", "{path}: row 2 (line 2): returns vector must have a positive entry"),
        ("1,0\n0,0\n-1,2\n", "{path}: row 2 (line 2): returns vector must have a positive entry"),
        ("a,b\n\n1,0\n\n1,-1\n0,0\n", "{path}: row 2 (line 5): returns entries must be nonnegative"),
        (None, "[Errno 2] No such file or directory: '{path}'"),
        (BINARY, "{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xc0 in position 24: invalid start byte"),
    ], ids=["zero-row", "zero-row-before-a-negative-row", "row-after-header-and-blanks", "missing-file", "binary"])
    def test_best_crp_exits_with_the_input_error(self, tmp_path, text, message):
        from bisons.cli import main

        path = tmp_path / "r.csv"
        if isinstance(text, bytes):
            path.write_bytes(text)
        elif text is not None:
            path.write_text(text)
        with pytest.raises(SystemExit, match=f"^{re.escape(message.format(path=path))}$"):
            main(["best-crp", "--data", str(path)])

    def test_gen_lbftrl_rejects_a_horizon_below_one(self, tmp_path):
        from bisons.cli import main

        out = tmp_path / "g"
        with pytest.raises(SystemExit, match="^horizon T must be at least 1, got 0$"):
            main(["adversary", "gen-lbftrl", "--d", "2", "--T", "0", "--out", str(out)])
        assert not out.exists()

    def test_gen_lbftrl(self, tmp_path):
        from bisons.cli import main

        out = tmp_path / "bad"
        rc = main(["adversary", "gen-lbftrl", "--d", "2", "--T", "400",
                   "--alpha", "0.5", "--out", str(out)])
        assert rc == 0
        assert (out / "plan.txt").exists()
        R = load_returns(str(out / "returns.csv"))
        assert R.shape[1] == 2
