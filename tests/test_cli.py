"""CLI harness: exit codes, trace emission, audits, grids, rate fits,
comparisons, config hashing, and byte-level determinism."""
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from smgopt import cli
from smgopt.cli import (
    EXIT_ABORT,
    EXIT_OK,
    EXIT_REFUSAL,
    EXIT_USAGE,
    ExperimentConfig,
    UsageError,
    build_problem,
    main,
    paper_grids,
)
from smgopt.dataio import read_trace
from smgopt.optimizers import adam_run
from smgopt.schedules import Schedule, cap_general, cap_rr, gamma_for_initial_step
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

    @pytest.mark.parametrize("gamma, rc", [("0.3", EXIT_OK), ("0.8", EXIT_REFUSAL)])
    def test_enforce_cap_takes_ssmg_cap_from_theorem3(self, gamma, rc, tmp_path):
        # T3's cap is 1/L = 0.347 on the default problem, and eta_1 = gamma / 2
        assert run_cli("run", "--algo", "ssmg", "--strategy", "once", "--T", "8",
                       "--gamma", gamma, "--enforce-cap", "--out", str(tmp_path)) == rc

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
        sch = Schedule("exponential", gamma=gamma, horizon=10, rho=0.99)
        assert sch.eta(1) / 32 == pytest.approx(0.1, rel=1e-12)

    @pytest.mark.parametrize("grid, rhos", [
        (["--paper-grids"], {0.99, 0.995, 0.999}),
        (["--rho-grid", "0.9,0.99"], {0.9, 0.99}),
    ])
    def test_exponential_grid_takes_rho_from_the_grid(self, grid, rhos, tmp_path):
        rc = run_cli("grid", "--schedule", "exponential", *grid, "--T", "2",
                     "--out", str(tmp_path))
        assert rc == EXIT_OK
        rows = (tmp_path / "grid_results.csv").read_text().strip().splitlines()[2:]
        assert {float(row.split(",")[4]) for row in rows} == rhos


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
    # rate fits the bounds' setting: smg (or sgd, its beta = 0 case) on a constant schedule
    rc = run_cli("rate", "--horizons", "4,8", *flags, "--out", str(tmp_path))
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")
    assert not (tmp_path / "rate.csv").exists()


@pytest.mark.parametrize("horizons, message", [
    ("8", "need at least two horizons to fit a slope"),
    ("2000,8", "horizons must be strictly increasing"),
    ("2000,0", "horizons must be strictly increasing"),
    ("16,16", "horizons must be strictly increasing"),
    ("0,8", "horizon must be >= 1, got 0"),
])
def test_rate_checks_horizons_before_running(horizons, message, tmp_path, capsys,
                                            monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(cli, "ensemble_run", unreachable)
    assert run_cli("rate", "--horizons", horizons, "--out", str(tmp_path)) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not tmp_path.joinpath("rate.csv").exists()


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

    def test_method_named_twice_usage_error(self, tmp_path, capsys):
        rc = run_cli("compare", "--methods", "sgd,smg,sgd", "--out", str(tmp_path))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: method 'sgd' is named twice in --methods\n")
        assert not tmp_path.joinpath("compare.csv").exists()

    @pytest.mark.parametrize("algo", ["sgd", "sgdm", "adam"])
    def test_beta_refused_without_smg_or_ssmg_algo(self, algo, tmp_path, capsys):
        # --beta sets smg's and ssmg's weight only; sgd, sgdm and adam keep theirs
        rc = run_cli("compare", "--algo", algo, "--beta", "0.1", "--T", "3",
                     "--out", str(tmp_path))
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: compare gives --beta to smg and ssmg, under --algo smg or ssmg; "
            f"it does not take --beta with --algo {algo}\n")
        assert not tmp_path.joinpath("compare.csv").exists()


@pytest.mark.parametrize("argv", [
    ["grid", "--algo", "smg", "--T", "4", "--gamma-grid", "50,0.01"],
    ["compare", "--T", "3", "--gamma", "5"],
], ids=["grid", "compare"])
def test_grid_and_compare_refuse_enforce_cap(argv, tmp_path, capsys):
    assert run_cli(*argv, "--enforce-cap", "--out", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {argv[0]} ")
    assert err.endswith("; it does not take --enforce-cap\n")
    assert not any(tmp_path.iterdir())


def spy_first_steps(monkeypatch) -> list:
    """The first per-inner-step rate of each ensemble the CLI starts."""
    first = []

    def spy(run):
        def spied(algo, problem, etas, *args, **kwargs):
            first.append(float(np.asarray(etas).flat[0]) / problem.n)
            return run(algo, problem, etas, *args, **kwargs)
        return spied
    monkeypatch.setattr(cli, "ensemble_outcomes", spy(cli.ensemble_outcomes))
    monkeypatch.setattr(cli, "ensemble_run", spy(cli.ensemble_run))
    return first


@pytest.mark.parametrize("rr", [[], ["--rr-scaling"]], ids=["plain", "rr-scaling"])
@pytest.mark.parametrize("schedule", [
    ["--schedule", "constant"],
    ["--schedule", "diminishing", "--lambda", "2"],
    ["--schedule", "exponential", "--rho", "0.9"],
    ["--schedule", "cosine"],
], ids=lambda flags: flags[1])
def test_grid_and_compare_take_gamma_as_the_first_inner_step(schedule, rr, tmp_path,
                                                             monkeypatch):
    first = spy_first_steps(monkeypatch)
    flags = [*schedule, *rr, "--T", "5", "--synth-n", "64"]
    assert run_cli("grid", "--gamma-grid", "0.01", *flags,
                   "--out", str(tmp_path / "grid")) == EXIT_OK
    assert run_cli("compare", "--methods", "smg", "--gamma", "0.01", *flags,
                   "--out", str(tmp_path / "compare")) == EXIT_OK
    assert first == pytest.approx([0.01, 0.01], rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["run", "--gamma", "1e-320", "--T", "2", "--audit", "--strategy", "inc"],
    ["audit", "--gamma", "1e-320", "--T", "2", "--repeats", "3"],
    ["run", "--algo", "ssmg", "--gamma", "1e-320", "--T", "2", "--audit",
     "--strategy", "once"],
], ids=["T1", "T2", "T3"])
def test_vacuous_bound_is_refused_and_writes_nothing(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == EXIT_REFUSAL
    assert capsys.readouterr().err == (
        "audit refusal: premises unmet: the bound is vacuous: its right-hand side is inf\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["audit", "--algo", "sgd", "--repeats", "200"],
    ["run", "--algo", "sgdm", "--audit"],
    # --enforce-cap checks the cap of the bound a method has, so these have none
    ["run", "--algo", "sgd", "--enforce-cap"],
    ["run", "--algo", "sgdm", "--enforce-cap"],
    ["run", "--algo", "adam", "--gamma", "0.2", "--enforce-cap"],
])
def test_command_without_a_bound_refuses_before_running(argv, tmp_path, capsys,
                                                        monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a run started")
    monkeypatch.setattr(cli, "ensemble_run", unreachable)
    assert run_cli(*argv, "--T", "4", "--out", str(tmp_path)) == EXIT_REFUSAL
    algo = argv[argv.index("--algo") + 1]
    assert capsys.readouterr().err == (
        f"audit refusal: premises unmet: no convergence bound is audited for {algo!r}\n")


@pytest.mark.parametrize("factor, rc", [(1 + 5e-10, EXIT_OK), (1 + 2e-9, EXIT_REFUSAL)])
@pytest.mark.parametrize("check", ["--enforce-cap", "--audit"])
@pytest.mark.parametrize("argv, cap", [
    (["--strategy", "inc"], lambda c, n: cap_general(0.5, c.theta, c.L).max_eta),
    (["--strategy", "rr"], lambda c, n: cap_rr(0.5, c.theta, n, c.L).max_eta),
    (["--algo", "ssmg", "--strategy", "once"], lambda c, n: 1.0 / c.L),
], ids=["T1", "T2", "T3"])
def test_enforce_cap_and_audit_share_one_cap_tolerance(argv, cap, check, factor, rc,
                                                       tmp_path, capsys):
    problem = build_problem(ExperimentConfig())
    eta1 = cap(problem.constants, problem.n) * factor
    # over T = 1 epoch a constant schedule's one rate is gamma itself
    assert run_cli("run", *argv, "--T", "1", "--gamma", repr(eta1), check,
                   "--out", str(tmp_path)) == rc
    assert ("exceeds cap" in capsys.readouterr().err) == (rc == EXIT_REFUSAL)


@pytest.mark.parametrize("command", ["grid", "compare"])
def test_cosine_single_epoch_is_usage_error(command, tmp_path, capsys):
    # eta_1 = 0 at T = 1, so no schedule parameter gives the requested step
    rc = run_cli(command, "--schedule", "cosine", "--T", "1", "--out", str(tmp_path))
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error: ")


NON_FINITE_LAMBDA = [
    ["run", "--schedule", "diminishing", "--lambda", "nan", "--T", "2"],
    ["run", "--schedule", "diminishing", "--lambda", "inf", "--T", "2"],
    ["run", "--schedule", "constant", "--lambda", "nan", "--T", "2"],
    ["grid", "--schedule", "diminishing", "--lambda-grid", "nan", "--T", "2"],
    ["grid", "--schedule", "diminishing", "--lambda-grid", "inf", "--T", "2"],
]


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
    # a negative seed is refused before any command seeds numpy with it
    ["run", "--T", "2", "--seed", "-1"],
    ["audit", "--T", "2", "--seed", "-5", "--repeats", "3"],
    ["grid", "--T", "2", "--seed", "-1"],
    ["compare", "--T", "2", "--seed", "-1"],
    # a non-finite lambda is refused as itself, under every schedule
    *NON_FINITE_LAMBDA,
    # rates whose sum passes the float range are refused with no numpy warning
    ["run", "--algo", "sgdm", "--gamma", "1e308", "--T", "3"],
])
def test_edge_values_are_one_line_usage_errors(argv, tmp_path, capsys):
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    # the rates' cubes pass the float range before the cap refuses the first rate
    (["audit", "--T", "1", "--synth-n", "1", "--gamma", "1e308"], EXIT_REFUSAL),
    # the rate-weighted sum of squared gradient norms passes the float range
    (["run", "--T", "1", "--synth-n", "2", "--reg", "1e154", "--gamma", "1e154"], EXIT_OK),
    # a row's squared norm, and the seeds' squared loss deviations, pass it too
    (["compare", "--T", "1", "--repeats", "2", "--methods", "smg", "--dataset", "big"],
     EXIT_OK),
])
def test_values_past_the_float_range_raise_no_warning(argv, code, tmp_path, capsys):
    # pytest turns a RuntimeWarning into an error (pyproject.toml)
    (tmp_path / "big").write_text("+1 1:1e300 3:1\n-1 2:1e-300\n+1 1:1e308 2:0.25\n"
                                  "-1 3:-1e308\n")
    argv = [str(tmp_path / "big") if arg == "big" else arg for arg in argv]
    assert run_cli(*argv, "--out", str(tmp_path / "out")) == code
    assert len(capsys.readouterr().err.splitlines()) == (code != EXIT_OK)


@pytest.mark.parametrize("argv", NON_FINITE_LAMBDA)
def test_non_finite_lambda_names_lambda(argv, tmp_path, capsys):
    assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_USAGE
    value = float(argv[4])   # the --lambda or --lambda-grid value
    assert capsys.readouterr().err == (
        f"usage error: lam must be finite and nonnegative, got {value}\n")


@pytest.mark.parametrize("argv", [["run"], ["audit", "--repeats", "3"], ["grid"], ["compare"]])
def test_negative_seed_has_one_message(argv, tmp_path, capsys):
    assert run_cli(*argv, "--T", "2", "--seed", "-5", "--out", str(tmp_path)) == EXIT_USAGE
    assert capsys.readouterr().err == "usage error: seed must be nonnegative, got -5\n"


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

    def test_undecodable_file_is_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "bad.libsvm"
        path.write_bytes(b"+1 1:0.5 2:\xff\n")
        assert run_cli("parse", str(path)) == EXIT_ABORT
        assert capsys.readouterr().err == "runtime error: line 1: undecodable byte 0xff\n"

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


def _dataset_text() -> str:
    rows = []
    for i in range(24):
        cols = [j for j in range(1, 7) if (i + j) % 3]
        rows.append(" ".join([("+1", "-1", "0")[i % 3]]
                             + [f"{j}:{(i - 2 * j) / 7!r}" for j in cols]))
    return "\n".join(rows) + "\n"


def _tree(out: Path) -> tuple:
    """The names of the files under out, and the sha256 of names and bytes."""
    files = sorted(p for p in out.rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for p in files:
        digest.update(p.relative_to(out).as_posix().encode() + b"\0" + p.read_bytes() + b"\0")
    return [p.relative_to(out).as_posix() for p in files], digest.hexdigest()


# the output tree of `run --dataset data.libsvm --T 2 --repeats 2` as the code
# before the parse cache wrote it
DATASET_RUN_TREE = (
    ["trace_smg_21d4a2c8f8ce0c48_s0.csv", "trace_smg_21d4a2c8f8ce0c48_s0.json",
     "trace_smg_21d4a2c8f8ce0c48_s1.csv", "trace_smg_21d4a2c8f8ce0c48_s1.json"],
    "6c4d74832ca8e55f6bc06f9225a1ee2db7320ecd2e6b8edf779203ddd4b7310d")


def test_dataset_run_is_byte_identical_cold_and_warm(tmp_path, monkeypatch):
    """A run on a LIBSVM file writes the same tree whether it parses the file
    (cold) or loads the parse cache entry (warm), and the entry sits beside
    the file, not under --out."""
    monkeypatch.chdir(tmp_path)
    Path("data.libsvm").write_text(_dataset_text())
    for out in ("cold", "warm"):
        assert run_cli("run", "--dataset", "data.libsvm", "--T", "2", "--repeats", "2",
                       "--out", out) == EXIT_OK
        assert _tree(Path(out)) == DATASET_RUN_TREE
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cold", "data.libsvm", "data.libsvm.smgopt.npz", "warm"]
