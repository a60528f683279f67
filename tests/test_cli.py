"""CLI harness: exit codes, trace emission, audits, grids, rate fits,
comparisons, config hashing, and byte-level determinism."""
import dataclasses
import json

import numpy as np
import pytest

from smgopt.cli import (
    EXIT_ABORT,
    EXIT_OK,
    EXIT_REFUSAL,
    EXIT_USAGE,
    ExperimentConfig,
    UsageError,
    build_problem,
    gamma_for_initial_step,
    main,
    paper_grids,
)
from smgopt.dataio import read_trace
from smgopt.optimizers import adam_run
from smgopt.shuffling import ShufflingStrategy


def run_cli(*args):
    return main(list(args))


def config_from_dict(data: dict) -> ExperimentConfig:
    """A validated config from a dict of its fields, refusing unknown keys."""
    unknown = set(data) - {f.name for f in dataclasses.fields(ExperimentConfig)}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    cfg = ExperimentConfig(**data)
    cfg.validate()
    return cfg


class TestConfig:
    def test_hash_stable_under_key_reorder(self):
        d = ExperimentConfig(algo="smg", gamma=0.25, T=10).to_dict()
        shuffled = dict(reversed(list(d.items())))
        assert config_from_dict(d).hash() == config_from_dict(shuffled).hash()

    def test_distinct_configs_distinct_hashes(self):
        a = ExperimentConfig(gamma=0.25)
        b = ExperimentConfig(gamma=0.26)
        assert a.hash() != b.hash()

    def test_unknown_keys_rejected(self):
        with pytest.raises(UsageError):
            config_from_dict({"algo": "smg", "warp_factor": 9})

    def test_per_algo_momentum_defaults(self):
        assert ExperimentConfig(algo="smg").resolved_beta == 0.5
        assert ExperimentConfig(algo="sgdm").resolved_beta == 0.9
        assert ExperimentConfig(algo="smg", beta=0.2).resolved_beta == 0.2


class TestRunCommand:
    def test_smoke_produces_trace(self, tmp_path, capsys):
        rc = run_cli("run", "--algo", "smg", "--synth-n", "32", "--synth-d", "5",
                     "--T", "50", "--beta", "0.5", "--strategy", "rr",
                     "--out", str(tmp_path))
        assert rc == EXIT_OK
        traces = list(tmp_path.glob("trace_smg_*.csv"))
        assert len(traces) == 1
        data = read_trace(traces[0])
        assert data["epoch"].size == 50
        assert np.isfinite(data["loss"]).all()
        assert "final loss" in capsys.readouterr().out

    def test_invalid_beta_is_usage_error(self, tmp_path):
        rc = run_cli("run", "--beta", "1.5", "--out", str(tmp_path))
        assert rc == EXIT_USAGE

    def test_audited_incremental_run_satisfies_bound(self, tmp_path, capsys):
        rc = run_cli("run", "--algo", "smg", "--strategy", "inc", "--T", "16",
                     "--gamma", "0.01", "--enforce-cap", "--audit",
                     "--out", str(tmp_path))
        assert rc == EXIT_OK
        sidecar = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert sidecar["bound_report"]["theorem"] == "T1"
        assert sidecar["bound_report"]["satisfied"] is True
        assert "bound holds" in capsys.readouterr().out

    def test_enforce_cap_refuses_oversized_rate(self, tmp_path):
        rc = run_cli("run", "--algo", "smg", "--strategy", "inc", "--T", "16",
                     "--gamma", "50.0", "--enforce-cap", "--out", str(tmp_path))
        assert rc == EXIT_REFUSAL

    def test_baseline_audit_refused(self, tmp_path):
        rc = run_cli("run", "--algo", "adam", "--T", "4", "--gamma", "0.001",
                     "--audit", "--out", str(tmp_path))
        assert rc == EXIT_REFUSAL

    def test_beta_reaches_adam(self, tmp_path):
        rc = run_cli("run", "--algo", "adam", "--beta", "0.5", "--T", "4",
                     "--gamma", "0.01", "--seed", "3", "--out", str(tmp_path))
        assert rc == EXIT_OK
        sidecar = json.loads(next(tmp_path.glob("*.json")).read_text())
        assert sidecar["beta"] == sidecar["config"]["beta"] == 0.5
        expected = adam_run(build_problem(ExperimentConfig()), 0.01, 4,
                            ShufflingStrategy("rr", 3), beta1=0.5)
        data = read_trace(next(tmp_path.glob("*.csv")))
        np.testing.assert_array_equal(data["loss"], expected.losses)

    def test_repeats_write_one_trace_per_seed(self, tmp_path):
        rc = run_cli("run", "--T", "5", "--repeats", "3", "--seed", "10",
                     "--out", str(tmp_path))
        assert rc == EXIT_OK
        assert len(list(tmp_path.glob("trace_*.csv"))) == 3

    def test_repeats_of_wide_seeds_equal_single_runs(self, tmp_path):
        # seeds of two 32-bit words take the per-seed permutation path
        seed = 5_000_000_000
        assert run_cli("run", "--T", "3", "--seed", str(seed), "--repeats", "2",
                       "--out", str(tmp_path / "both")) == EXIT_OK
        for s in (seed, seed + 1):
            assert run_cli("run", "--T", "3", "--seed", str(s),
                           "--out", str(tmp_path / str(s))) == EXIT_OK
            single = json.loads(next((tmp_path / str(s)).glob("*.json")).read_text())
            member = json.loads(next((tmp_path / "both").glob(f"*_s{s}.json")).read_text())
            for key in ("config", "config_hash"):
                del single[key], member[key]
            assert member == single
            rows = [next(tmp_path.glob(f"{d}/*_s{s}.csv")).read_text().splitlines()[1:]
                    for d in ("both", str(s))]
            assert rows[0] == rows[1]

    def test_determinism_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ("run", "--algo", "smg", "--T", "20", "--seed", "4",
                "--schedule", "cosine", "--gamma", "0.5")
        assert run_cli(*args, "--out", str(out1)) == EXIT_OK
        assert run_cli(*args, "--out", str(out2)) == EXIT_OK
        c1 = next(out1.glob("*.csv")).read_bytes()
        c2 = next(out2.glob("*.csv")).read_bytes()
        assert c1 == c2


class TestAuditCommand:
    def test_rr_expectation_audit_report(self, tmp_path, capsys):
        rc = run_cli("audit", "--algo", "smg", "--strategy", "rr", "--T", "8",
                     "--gamma", "0.005", "--repeats", "10", "--out", str(tmp_path))
        assert rc == EXIT_OK
        report_path = next(tmp_path.glob("bound_report_*.json"))
        report = json.loads(report_path.read_text())
        assert report["theorem"] == "T2"
        assert report["satisfied"] is True
        assert report["extras"]["n_runs"] == 10
        assert "T2" in capsys.readouterr().out

    def test_ssmg_audit_is_t3(self, tmp_path):
        rc = run_cli("audit", "--algo", "ssmg", "--strategy", "once", "--T", "8",
                     "--gamma", "0.05", "--out", str(tmp_path))
        assert rc == EXIT_OK
        report = json.loads(next(tmp_path.glob("bound_report_*.json")).read_text())
        assert report["theorem"] == "T3"
        assert report["satisfied"] is True


class TestGridCommand:
    def test_single_point_grid(self, tmp_path, capsys):
        rc = run_cli("grid", "--algo", "sgd", "--T", "6",
                     "--gamma-grid", "0.05", "--out", str(tmp_path))
        assert rc == EXIT_OK
        rows = (tmp_path / "grid_results.csv").read_text().strip().splitlines()
        assert rows[0].startswith("# config_hash=")
        assert len(rows) == 3  # stamp + header + one point
        assert "best: step=0.05" in capsys.readouterr().out

    def test_divergent_point_ranked_last_with_flag(self, tmp_path):
        rc = run_cli("grid", "--algo", "sgd", "--T", "6",
                     "--gamma-grid", "0.05,1e160", "--out", str(tmp_path))
        assert rc == EXIT_OK
        rows = (tmp_path / "grid_results.csv").read_text().strip().splitlines()
        last = rows[-1].split(",")
        assert last[1] == "1e+160"
        assert "aborted" in rows[-1]
        assert ",ok," in rows[2]

    def test_paper_grid_values(self):
        smg = paper_grids("smg", "constant")
        assert smg["coarse"] == [1.0, 0.1, 0.01]
        assert smg["fine"] == [0.5, 0.4, 0.2, 0.1, 0.08, 0.06, 0.05]
        sgd = paper_grids("sgd", "constant")
        assert sgd["coarse"] == [0.1, 0.01, 0.001]
        adam = paper_grids("adam", "constant")
        assert adam["coarse"] == [0.01, 0.001, 0.0001]
        assert adam["fine"] == [0.002, 0.001, 0.0005]
        dim = paper_grids("smg", "diminishing")
        assert dim["lam"] == [1.0, 2.0, 4.0, 8.0]
        exp = paper_grids("smg", "exponential")
        assert exp["rho"] == [0.99, 0.995, 0.999]
        cos = paper_grids("smg", "cosine")
        assert cos["coarse"] == [1.0, 0.1, 0.01, 0.001]
        assert paper_grids("ssmg", "constant")["beta"] == [0.1, 0.5, 0.9]

    def test_paper_grids_execute(self, tmp_path):
        rc = run_cli("grid", "--algo", "adam", "--T", "3", "--synth-n", "8",
                     "--paper-grids", "--out", str(tmp_path))
        assert rc == EXIT_OK
        rows = (tmp_path / "grid_results.csv").read_text().strip().splitlines()
        assert len(rows) == 2 + 5  # stamp, header, union of coarse and fine

    def test_parallel_jobs_agree_with_serial(self, tmp_path):
        a, b = tmp_path / "serial", tmp_path / "par"
        args = ("grid", "--algo", "sgd", "--T", "5", "--gamma-grid", "0.2,0.02")
        assert run_cli(*args, "--out", str(a)) == EXIT_OK
        assert run_cli(*args, "--jobs", "2", "--out", str(b)) == EXIT_OK
        assert (a / "grid_results.csv").read_text() == (b / "grid_results.csv").read_text()

    def test_exponential_grid_sets_initial_step(self):
        gamma = gamma_for_initial_step("exponential", 0.1, n=32, T=10, rho=0.99)
        from smgopt.schedules import Schedule
        sch = Schedule("exponential", gamma=gamma, horizon=10, rho=0.99)
        assert sch.eta(1) / 32 == pytest.approx(0.1, rel=1e-12)


class TestRateCommand:
    def test_two_horizons_low_confidence(self, tmp_path, capsys):
        rc = run_cli("rate", "--horizons", "8,16", "--gamma", "1.0",
                     "--out", str(tmp_path))
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "low confidence" in out
        assert (tmp_path / "rate.csv").exists()
        assert (tmp_path / "rate.gnuplot").exists()

    def test_rate_csv_has_one_row_per_horizon(self, tmp_path):
        rc = run_cli("rate", "--horizons", "8,16,32,64", "--gamma", "2.0",
                     "--repeats", "2", "--out", str(tmp_path))
        assert rc == EXIT_OK
        rows = (tmp_path / "rate.csv").read_text().strip().splitlines()
        assert rows[0].startswith("# config_hash=")
        assert rows[1] == "T,metric"
        assert len(rows) == 6



@pytest.mark.parametrize("flags", [
    ["--algo", "adam", "--schedule", "cosine"],
    ["--algo", "ssmg"],
    ["--algo", "sgdm"],
    ["--algo", "sgd", "--beta", "0.5"],
    ["--schedule", "diminishing"],
    ["--lambda", "1.0"],
    ["--rho", "0.9"],
    ["--rr-scaling"],
    ["--enforce-cap"],
])
def test_rate_refuses_flags_it_would_ignore(flags, tmp_path, capsys):
    # fit_rate only runs smg (or sgd, its beta = 0 case) on a constant schedule
    rc = run_cli("rate", "--horizons", "4,8", *flags, "--out", str(tmp_path))
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "rate.csv").exists()


class TestCompareCommand:
    def test_shared_initialization_and_sgd_reduction(self, tmp_path):
        rc = run_cli("compare", "--methods", "smg,sgd,sgdm,adam", "--T", "6",
                     "--gamma", "0.02", "--beta", "0.0", "--algo", "smg",
                     "--out", str(tmp_path))
        assert rc == EXIT_OK
        rows = (tmp_path / "compare.csv").read_text().strip().splitlines()
        header = rows[1].split(",")
        assert header == ["epoch", "loss_smg", "loss_sgd", "loss_sgdm", "loss_adam"]
        first = rows[2].split(",")
        # same seed means the same starting point, hence equal epoch-1 losses
        assert len(set(first[1:])) == 1
        # anchored momentum with beta = 0 is exactly shuffling SGD
        for row in rows[2:]:
            cells = row.split(",")
            assert cells[1] == cells[2]

    def test_multi_seed_mean_std_columns(self, tmp_path):
        rc = run_cli("compare", "--methods", "smg,sgd", "--T", "4",
                     "--gamma", "0.02", "--repeats", "10", "--out", str(tmp_path))
        assert rc == EXIT_OK
        rows = (tmp_path / "compare.csv").read_text().strip().splitlines()
        assert rows[1] == "epoch,smg_mean,smg_std,sgd_mean,sgd_std"
        assert len(rows) == 6
        assert (tmp_path / "compare.gnuplot").exists()

    def test_unknown_method_usage_error(self, tmp_path):
        rc = run_cli("compare", "--methods", "smg,newton", "--out", str(tmp_path))
        assert rc == EXIT_USAGE


@pytest.mark.parametrize("command", ["grid", "compare"])
def test_cosine_single_epoch_is_usage_error(command, tmp_path, capsys):
    # eta_1 = 0 at T = 1, so no schedule parameter gives the requested step
    rc = run_cli(command, "--schedule", "cosine", "--T", "1", "--out", str(tmp_path))
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("argv", [
    # infinite rates would give NaN output-selection weights
    ["run", "--gamma", "inf", "--T", "2"],
    # a negative base has a complex cube root in the initial-step gamma
    ["grid", "--schedule", "diminishing", "--lambda-grid", "-5", "--T", "2"],
    # rho = 0 divides by zero and rho < 0 has a complex root in the initial-step gamma
    ["grid", "--schedule", "exponential", "--rho", "0.5", "--rho-grid", "0", "--T", "2"],
    ["grid", "--schedule", "exponential", "--rho", "0.5", "--rho-grid", "-1", "--T", "2"],
    # a non-finite regularizer weight gives non-finite certified constants
    ["run", "--T", "2", "--reg", "nan"],
    ["run", "--T", "2", "--reg", "inf"],
])
def test_edge_values_are_one_line_usage_errors(argv, tmp_path, capsys):
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


class TestParseCommand:
    def test_parse_reports_counts(self, tmp_path, capsys):
        path = tmp_path / "tiny.libsvm"
        path.write_text("+1 1:1.0 3:0.5\n-1 2:2.0\n+1 1:0.1\n")
        rc = run_cli("parse", str(path))
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "3 samples" in out and "dimension 3" in out
        assert "2 positive / 1 negative" in out

    def test_malformed_file_is_runtime_error(self, tmp_path):
        path = tmp_path / "bad.libsvm"
        path.write_text("+1 3:1.0 2:0.5\n")
        assert run_cli("parse", str(path)) == EXIT_ABORT

    def test_missing_dataset_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("SMG_DATA_DIR", raising=False)
        rc = run_cli("run", "--dataset", "nonexistent.libsvm", "--out", str(tmp_path))
        assert rc == EXIT_USAGE

    def test_dataset_resolved_via_env(self, tmp_path, monkeypatch):
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        (data_dir / "toy.libsvm").write_text(
            "\n".join(f"{'+1' if i % 2 else '-1'} 1:{i / 7.0} 2:1.0"
                      for i in range(1, 9)) + "\n")
        monkeypatch.setenv("SMG_DATA_DIR", str(data_dir))
        rc = run_cli("run", "--dataset", "toy.libsvm", "--T", "3",
                     "--out", str(tmp_path / "out"))
        assert rc == EXIT_OK
