"""Acceptance suite.

Each test enforces one acceptance criterion at its stated tolerance and
prints a PASS/FAIL line (run with `pytest -s` to see them inline).
"""
import os
import time
from pathlib import Path

import numpy as np
import pytest

from smgopt.audit import (
    audit_runs,
    cosine_sum_deviation,
    fit_power_law,
    identity_suite,
)
from smgopt.cli import main as cli_main
from smgopt.dataio import parse_libsvm, synth_binary_dataset
from smgopt.optimizers import smg_run, shuffling_sgd_run, ssmg_run
from smgopt.problems import logistic_problem, quadratic_mean_problem
from smgopt.schedules import Schedule, cap_general, cap_rr
from smgopt.shuffling import ShufflingStrategy, init_point


def report(number, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} failed: {detail}"


def quadratic_fixture():
    centers = np.random.default_rng(0).standard_normal((8, 3))
    return quadratic_mean_problem(centers, np.diag([1.0, 2.0, 4.0]))


def logistic_toy():
    samples = synth_binary_dataset(32, 5, seed=7, separability=0.8)
    return logistic_problem(samples, lam=0.01)


def test_01_theorem1_deterministic_audit():
    prob = quadratic_fixture()
    worst_slack = np.inf
    start = time.time()
    for beta in (0.0, 0.5):
        for T in (16, 64):
            t0 = time.time()
            cap = cap_general(beta, prob.constants.theta, prob.constants.L)
            sch = Schedule("constant", gamma=0.9 * cap.max_eta * T ** (1 / 3),
                           horizon=T)
            rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), beta)
            [rep] = audit_runs([rec], prob)
            elapsed = time.time() - t0
            assert elapsed < 1.0, f"audit took {elapsed:.2f}s"
            assert rep.lhs <= rep.rhs * (1 + 1e-9)
            worst_slack = min(worst_slack, rep.slack / rep.rhs)
    report(1, "theorem-1 deterministic audit", worst_slack >= 0,
           f"min relative slack {worst_slack:.3e}, {time.time() - start:.2f}s total")


def test_02_theorem2_expectation_audit():
    prob = quadratic_fixture()
    beta, T, n = 0.5, 32, 8
    start = time.time()
    cap = cap_rr(beta, prob.constants.theta, n, prob.constants.L)
    gamma = 0.9 * cap.max_eta * T ** (1 / 3) / n ** (1 / 3)
    sch = Schedule("constant", gamma=gamma, horizon=T, rr_scale=n)
    w0 = init_point(prob.d, 0)
    records = [smg_run(prob, sch, ShufflingStrategy("rr", s), beta, w0)
               for s in range(200)]
    [rep] = audit_runs(records, prob)
    elapsed = time.time() - start
    se = rep.extras["std_error"]
    ok = rep.lhs <= rep.rhs + 3 * se and elapsed < 30
    report(2, "theorem-2 expectation audit over 200 seeds", ok,
           f"mean lhs {rep.lhs:.3e} vs rhs {rep.rhs:.3e}, {elapsed:.1f}s")


def test_03_theorem3_deterministic_audit():
    prob = logistic_toy()
    nu, T, n = 0.1, 64, prob.n
    beta = (nu / T ** (2 / 3)) ** (1 / n)
    start = time.time()
    sch = Schedule("constant", gamma=0.9 / prob.constants.L * T ** (1 / 3),
                   horizon=T)
    rec = ssmg_run(prob, sch, ShufflingStrategy("once", 0), beta)
    [rep] = audit_runs([rec], prob)
    elapsed = time.time() - start
    ok = rep.lhs <= rep.rhs * (1 + 1e-9) and elapsed < 5
    report(3, "theorem-3 deterministic audit", ok,
           f"lhs {rep.lhs:.3e} vs rhs {rep.rhs:.3e}, {elapsed:.1f}s")


def test_04_beta_zero_reduction():
    prob = quadratic_fixture()
    sch = Schedule("constant", gamma=0.2, horizon=10)
    worst = 0.0
    for kind in ("rr", "once", "inc"):
        strat = ShufflingStrategy(kind, seed=5)
        a = smg_run(prob, sch, strat, beta=0.0, inner_trace=True)
        b = shuffling_sgd_run(prob, sch, strat, inner_trace=True)
        for wa, wb in zip([e.start_w for e in a.epochs] + [a.final_w],
                          [e.start_w for e in b.epochs] + [b.final_w]):
            worst = max(worst, float(np.max(np.abs(wa - wb))))
    report(4, "beta=0 reduction to shuffling SGD", worst <= 1e-12,
           f"max coordinate gap {worst:.2e}")


def test_05_identity_suite():
    start = time.time()
    quad = quadratic_mean_problem(
        np.random.default_rng(3).standard_normal((8, 3)), np.eye(3))
    toy = logistic_toy()  # finite gradient bound for the momentum-norm check
    deviations = {}
    for chk in identity_suite(quad, beta=0.5, T=8, seed=1):
        deviations[f"quad/{chk.name}"] = chk.max_deviation
    for chk in identity_suite(toy, beta=0.5, T=6, seed=2):
        deviations[f"toy/{chk.name}"] = chk.max_deviation
    deviations["cosine_sum_2_1000"] = cosine_sum_deviation(1000)
    elapsed = time.time() - start
    worst = max(deviations.values())
    ok = worst <= 1e-10 and elapsed < 5
    report(5, "update-rule identity suite", ok,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_06_gradient_correctness():
    prob = logistic_problem(synth_binary_dataset(25, 5, seed=4, separability=0.7),
                            lam=0.01)
    step = 1e-5
    rng = np.random.default_rng(6)
    start = time.time()
    worst = 0.0
    for k in range(100):
        w = rng.standard_normal(5)
        i = k % prob.n
        analytic = prob.component_grad(w, i)
        fd = np.zeros(5)
        for j in range(5):
            wp, wm = w.copy(), w.copy()
            wp[j] += step
            wm[j] -= step
            fd[j] = (prob.component_value(wp, i)
                     - prob.component_value(wm, i)) / (2 * step)
        err = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, err)
    elapsed = time.time() - start
    ok = worst <= 1e-6 and elapsed < 1
    report(6, "analytic gradients vs central differences", ok,
           f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_07_empirical_rate(tmp_path):
    start = time.time()
    # the CLI's synthetic data at seed 7 is logistic_toy()'s
    assert cli_main(["rate", "--horizons", "8,16,32,64,128,256,512", "--gamma", "2.0",
                     "--beta", "0.5", "--strategy", "rr", "--seed", "0", "--repeats", "5",
                     "--synth-seed", "7", "--out", str(tmp_path)]) == 0
    rows = [row.split(",") for row in (tmp_path / "rate.csv").read_text().splitlines()[2:]]
    fit = fit_power_law([int(T) for T, _ in rows], [float(m) for _, m in rows])
    elapsed = time.time() - start
    ok = fit.slope <= -0.5 and elapsed < 120
    report(7, "empirical decay exponent over T=8..512", ok,
           f"slope {fit.slope:.3f}, {elapsed:.1f}s")


def test_08_step_cap_formulas():
    # independently coded closed forms
    k_formula = lambda b, th: max(5 / 2, (45 - 27 * b) * (th + 1) / (1 - b))
    d_formula = lambda b, th, n: max(5 / 3, (30 - 18 * b) * (th + n) / (n * (1 - b)))
    checks = [
        (cap_general(0.0, 0.0, 1.0).constant, k_formula(0.0, 0.0), 45.0),
        (cap_general(0.5, 1.0, 1.0).constant, k_formula(0.5, 1.0), 126.0),
        (cap_rr(0.0, 0.0, 7, 1.0).constant, d_formula(0.0, 0.0, 7), 30.0),
        (cap_rr(0.5, 0.0, 1, 1.0).constant, d_formula(0.5, 0.0, 1), 42.0),
    ]
    ok = all(impl == indep == frozen for impl, indep, frozen in checks)
    report(8, "step-cap closed forms (45, 126, 30, 42)", ok,
           ", ".join(str(c[0]) for c in checks))


def test_09_dataset_ingestion():
    root = os.environ.get("SMG_DATA_DIR", "")
    w8a = Path(root) / "w8a" if root else Path("w8a")
    ijcnn1 = Path(root) / "ijcnn1" if root else Path("ijcnn1")
    if not (w8a.exists() and ijcnn1.exists()):
        print("ACCEPTANCE 09 dataset ingestion: SKIP (datasets absent)")
        pytest.skip("w8a / ijcnn1 not present; run scripts/fetch_datasets.py")
    n_w8a = len(parse_libsvm(w8a)[0])
    n_ijcnn1 = len(parse_libsvm(ijcnn1)[0])
    ok = n_w8a == 49_749 and n_ijcnn1 == 91_701
    report(9, "dataset ingestion counts", ok,
           f"w8a {n_w8a}, ijcnn1 {n_ijcnn1}")


def test_10_cli_determinism(tmp_path):
    args = ["run", "--algo", "smg", "--T", "25", "--seed", "3",
            "--schedule", "diminishing", "--gamma", "0.4", "--lambda", "2"]
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    b1 = next(out1.glob("trace_*.csv")).read_bytes()
    b2 = next(out2.glob("trace_*.csv")).read_bytes()
    report(10, "repeated CLI runs byte-identical", b1 == b2,
           f"{len(b1)} bytes")
