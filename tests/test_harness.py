import json
import math
import time

import numpy as np
import pytest

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
    parse_config_file,
    run_experiment,
    save_returns,
)
from bisons.hermitian import trace_inner


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
        recs = ons_baseline(R)
        assert np.allclose(recs[0].x_played, 0.5)

    def test_uniform_stream_stays_uniform(self):
        R = np.tile(np.array([0.5, 0.5]), (20, 1))
        recs = ons_baseline(R)
        for rec in recs:
            assert np.abs(rec.x_played - 0.5).max() <= 1e-6

    def test_three_assets_long_run_converges(self):
        # tr A reaches ~1e4 here; the projection's Newton solves must still
        # certify their 1e-12 tolerance
        R = np.random.default_rng(0).dirichlet(np.ones(3), size=1500)
        recs = ons_baseline(R)
        assert len(recs) == 1500
        assert all(rec.x_played.min() > 0.0 and abs(rec.x_played.sum() - 1.0) <= 1e-12 for rec in recs)

    def test_crash_comparison_report_only(self):
        R = adversary_returns("single-asset-crash", 2, 60, 0)
        recs = ons_baseline(R)
        assert len(recs) == 60
        assert all(np.isfinite(rec.loss) for rec in recs)


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
        lines = []
        for ev in events:
            cells = [v for z in ev.effect.reshape(-1) for v in (z.real, z.imag)] + [ev.outcome]
            lines.append(",".join(format(float(v), ".17g") for v in cells))
        p1.write_text("\n".join(lines) + "\n")
        loaded = load_measurements(str(p1))
        assert len(loaded) == 10
        for a, b in zip(events, loaded):
            assert np.array_equal(a.effect, b.effect)
            assert a.outcome == b.outcome


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


class TestConfigFile:
    def test_parse_and_overrides(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("algo = bisons\nd = 2\nT = 440  # horizon\nseed = 9\nadversary = iid-dirichlet\n")
        mapping = parse_config_file(str(cfg_path))
        mapping["seed"] = "10"  # simulate a --set override
        cfg = ExperimentConfig.from_mapping(mapping)
        assert cfg.seed == 10
        assert cfg.algo == "bisons"
        assert cfg.T == 440

    def test_unknown_keys_become_param_overrides(self):
        cfg = ExperimentConfig.from_mapping({"algo": "bisons", "d": "2", "T": "440", "B": "20"})
        assert cfg.overrides == {"B": 20.0}

    @pytest.mark.parametrize("key, value, expected", [
        ("B", "abc", "float (unknown key or non-numeric parameter override)"),
        ("adversry", "iid-dirichlet", "float (unknown key or non-numeric parameter override)"),
        ("T", "4.5e2", "int"),
    ])
    def test_unparsable_value_names_key_value_and_type(self, key, value, expected):
        mapping = {"algo": "bisons", "d": "2", "T": "440", "adversary": "iid-dirichlet", key: value}
        with pytest.raises(ValueError) as exc_info:
            ExperimentConfig.from_mapping(mapping)
        assert str(exc_info.value) == f"config key {key!r}: cannot parse {value!r} as {expected}"


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


    def test_run_exits_with_the_config_error(self, tmp_path):
        from bisons.cli import main

        args = ["run", "--algo", "bisons", "--d", "2", "--T", "440", "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit, match=r"config key 'B': cannot parse 'abc' as float"):
            main(args + ["--adversary", "iid-dirichlet", "--set", "B=abc"])
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("adversry = iid-dirichlet\n")
        with pytest.raises(SystemExit, match=r"config key 'adversry': cannot parse 'iid-dirichlet'"):
            main(args + ["--config", str(cfg)])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("algo, adversary", [("ons", "iid-dirichlet"), ("lbftrl", "lbftrl-bad")])
    def test_run_rejects_overrides_the_algorithm_has_no_use_for(self, tmp_path, algo, adversary):
        from bisons.cli import main

        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=rf"^algorithm '{algo}' takes no parameter overrides, got 'B', 'seeed'$"):
            main(["run", "--algo", algo, "--d", "2", "--T", "400", "--adversary", adversary,
                  "--set", "B=20", "--set", "seeed=3", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize("algo, argv, message", [
        ("ons", ["--adversary", "iid-dirichlet", "--set", "eta=5", "--set", "alpha=0.9"], "'eta', 'alpha'"),
        ("bisons", ["--adversary", "iid-dirichlet", "--set", "alpha=0.9"], "'alpha'"),
        ("qbisons", ["--adversary", "iid-dirichlet"], "'adversary'"),
        ("ons", ["--adversary", "iid-dirichlet", "--alpha", "0.9", "--eta", "5"], "'alpha', 'eta'"),
    ], ids=["ons-set", "bisons-set-alpha", "qbisons-adversary", "ons-flags"])
    def test_run_rejects_keys_the_algorithm_does_not_read(self, tmp_path, algo, argv, message):
        from bisons.cli import main

        out = tmp_path / "out"
        with pytest.raises(SystemExit, match=rf"^algorithm '{algo}' does not read {message}$"):
            main(["run", "--algo", algo, "--d", "2", "--T", "50", *argv, "--out", str(out)])
        assert not (out / "trace.csv").exists()

    def test_eta_flag_means_the_eta_config_key(self, tmp_path):
        from bisons.cli import main

        args = ["run", "--algo", "bisons", "--d", "2", "--T", "440", "--adversary", "iid-dirichlet"]
        assert main(args + ["--eta", "0.0003", "--out", str(tmp_path / "flag")]) == 0
        assert main(args + ["--set", "eta=0.0003", "--out", str(tmp_path / "set")]) == 0
        assert json.loads((tmp_path / "flag" / "summary.json").read_text())["params"]["eta"] == 0.0003
        for name in ("trace.csv", "summary.json"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "set" / name).read_bytes()

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

    def test_config_values_kept_unless_a_flag_is_given(self, tmp_path):
        from bisons.cli import main

        cfg = tmp_path / "lb.cfg"
        cfg.write_text("d = 2\nT = 400\nadversary = lbftrl-bad\nalpha = 0.15\neta = 0.5\n")
        assert main(["run", "--config", str(cfg), "--algo", "lbftrl", "--out", str(tmp_path / "file")]) == 0
        data = json.loads((tmp_path / "file" / "summary.json").read_text())
        assert (data["alpha"], data["eta"]) == (0.15, 0.5)
        assert main(["run", "--config", str(cfg), "--algo", "lbftrl", "--eta", "0.25",
                     "--out", str(tmp_path / "flag")]) == 0
        data = json.loads((tmp_path / "flag" / "summary.json").read_text())
        assert (data["alpha"], data["eta"]) == (0.15, 0.25)

    def test_config_seed_and_out_kept(self, tmp_path, monkeypatch):
        from bisons.cli import main

        cfg = tmp_path / "ons.cfg"
        out = tmp_path / "from-config"
        cfg.write_text(f"d = 2\nT = 50\nadversary = iid-dirichlet\nseed = 9\nout = {out}\n")
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert main(["run", "--config", str(cfg), "--algo", "ons"]) == 0
        assert json.loads((out / "summary.json").read_text())["seed"] == 9

    def test_gen_lbftrl(self, tmp_path):
        from bisons.cli import main

        out = tmp_path / "bad"
        rc = main(["adversary", "gen-lbftrl", "--d", "2", "--T", "400",
                   "--alpha", "0.5", "--out", str(out)])
        assert rc == 0
        assert (out / "plan.txt").exists()
        R = load_returns(str(out / "returns.csv"))
        assert R.shape[1] == 2
