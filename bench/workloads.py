"""The workloads and the checks on their outputs.

BENCHMARK.json lists the workloads the benchmark runs; ijcnn1-compare is
defined here too and runs by hand (README.md says why it is left out).
Each workload is one real CLI invocation.  Its inputs come from the
benchmark seed: the seed picks the generated LIBSVM file (or the synthetic
dataset seed) and is passed as the CLI --seed.  Every check re-derives what
it can from the generated data with numpy alone, independently of smgopt.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import gen

METHODS = ("smg", "ssmg", "sgd", "sgdm", "adam")
REG = 0.01          # the CLI's default --reg
LOSS_RTOL = 1e-10   # first-epoch loss against the numpy reference


class CheckFailed(AssertionError):
    """An invocation's outputs are missing, malformed or wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    # shape of the generated LIBSVM file; None when the CLI synthesises data
    shape: Optional[gen.Shape]
    # (seed, dataset path or None, pool) -> CLI arguments without --out; pool
    # is False for the in-process traced run, which must stay in one process
    argv: Callable[[int, Optional[str], bool], list]
    steps: int      # component-gradient steps per invocation
    check: Callable[[Path, "Reference"], None]
    # seed -> the data the program sees, as arrays, for checks and nnz counts
    data: Callable[[int], gen.SparseData]


@dataclass
class Reference:
    """What the checks compare against: the seed and the data as arrays."""

    seed: int
    data: gen.SparseData

    def first_loss(self) -> float:
        """F at init_point(d, seed): mean logistic loss plus regularizer."""
        w = 0.01 * np.random.default_rng((self.seed, 1)).standard_normal(self.data.d)
        x = self.data
        rows = np.repeat(np.arange(x.n), np.diff(x.indptr))
        margins = np.bincount(rows, weights=x.values * w[x.indices], minlength=x.n)
        wsq = w * w
        return float(np.mean(np.logaddexp(0.0, -x.labels * margins))
                     + REG * 0.5 * np.sum(wsq / (1.0 + wsq)))


def synth_data(n: int, d: int, seed: int, separability: float = 0.8) -> gen.SparseData:
    """The CLI's planted-hyperplane synthetic dataset, rebuilt as dense CSR."""
    rng = np.random.default_rng(seed)
    normal = rng.standard_normal(d)
    X = rng.standard_normal((n, d))
    labels = np.where(X @ normal >= 0, 1, -1)
    flips = rng.random(n) < (1.0 - separability) / 2.0
    labels = np.where(flips, -labels, labels)
    return gen.SparseData(np.arange(0, n * d + 1, d), np.tile(np.arange(d), n),
                          X.ravel(), labels, d)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _require(ok: bool, detail: str):
    if not ok:
        raise CheckFailed(detail)


def _floats(cells, where: str) -> list:
    try:
        values = [float(c) for c in cells]
    except ValueError:
        raise CheckFailed(f"{where}: unparsable number in {cells}") from None
    _require(all(math.isfinite(v) for v in values), f"{where}: non-finite value")
    return values


def _csv_rows(path: Path, header: str) -> list:
    _require(path.is_file(), f"missing {path.name}")
    lines = path.read_text().splitlines()
    _require(len(lines) >= 2 and lines[0].startswith("# config_hash=")
             and lines[1] == header, f"{path.name}: bad stamp or header")
    return [line.split(",") for line in lines[2:]]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= LOSS_RTOL * abs(b)


def check_traces(out: Path, ref: Reference, count: int, T: int):
    """count traces of T epochs each, finite, starting at the reference loss."""
    csvs = sorted(out.glob("trace_*.csv"))
    _require(len(csvs) == count, f"expected {count} traces, found {len(csvs)}")
    expected = ref.first_loss()
    for path in csvs:
        rows = _csv_rows(path, "epoch,eta,loss,grad_norm_sq")
        _require(len(rows) == T, f"{path.name}: {len(rows)} rows, expected {T}")
        for t, row in enumerate(rows, start=1):
            _require(row[0] == str(t), f"{path.name}: epoch {row[0]} at row {t}")
            _floats(row[1:], path.name)
        loss = float(rows[0][2])
        _require(_close(loss, expected),
                 f"{path.name}: epoch-1 loss {loss!r}, reference {expected!r}")
        sidecar = path.with_suffix(".json")
        _require(sidecar.is_file(), f"missing {sidecar.name}")
        meta = json.loads(sidecar.read_text())
        _floats(meta["selected_w"] + [meta["final_loss"], meta["weighted_grad_avg"]],
                sidecar.name)


def check_compare(out: Path, ref: Reference, T: int):
    header = "epoch," + ",".join(f"loss_{m}" for m in METHODS)
    rows = _csv_rows(out / "compare.csv", header)
    _require(len(rows) == T, f"compare.csv: {len(rows)} rows, expected {T}")
    for row in rows:
        _floats(row[1:], "compare.csv")
    first = [float(c) for c in rows[0][1:]]
    _require(len(set(first)) == 1,
             f"compare.csv: epoch-1 losses differ across methods: {first}")
    expected = ref.first_loss()
    _require(_close(first[0], expected),
             f"compare.csv: epoch-1 loss {first[0]!r}, reference {expected!r}")
    _require((out / "compare.gnuplot").is_file(), "missing compare.gnuplot")


def check_audit(out: Path, ref: Reference, T: int, repeats: int):
    check_traces(out, ref, repeats, T)
    reports = list(out.glob("bound_report_*.json"))
    _require(len(reports) == 1, f"expected one bound report, found {len(reports)}")
    report = json.loads(reports[0].read_text())
    _require(report["theorem"] == "T2", f"theorem {report['theorem']}, expected T2")
    _require(report["satisfied"] is True, "T2 bound not satisfied")
    _require(report["extras"]["n_runs"] == repeats,
             f"n_runs {report['extras']['n_runs']}, expected {repeats}")
    _floats([report["lhs"], report["rhs"], report["slack"]], reports[0].name)


def check_grid(out: Path, ref: Reference, points: int):
    header = ("rank,step,gamma,lam,rho,beta,final_loss,weighted_grad_avg,"
              "status,abort_epoch,hash")
    rows = _csv_rows(out / "grid_results.csv", header)
    _require(len(rows) == points, f"grid_results.csv: {len(rows)} rows, expected {points}")
    losses = []
    for rank, row in enumerate(rows, start=1):
        _require(row[0] == str(rank), f"grid_results.csv: rank {row[0]} at row {rank}")
        _require(row[8] == "ok", f"grid_results.csv: point {rank} status {row[8]}")
        losses.append(_floats([row[1], row[2], row[5], row[6], row[7]],
                              "grid_results.csv")[3])
    _require(losses == sorted(losses), "grid_results.csv: not ranked by final_loss")


# ---------------------------------------------------------------------------
# Workload table
# ---------------------------------------------------------------------------

def workloads(smoke: bool = False) -> dict:
    """Full-size workloads, or the same commands at tiny sizes for smoke runs."""
    w8a = dataclasses.replace(gen.W8A, n=400) if smoke else gen.W8A
    ijcnn1 = dataclasses.replace(gen.IJCNN1, n=600) if smoke else gen.IJCNN1
    run_T, cmp_T, audit_T = 2, 1, 32
    repeats = 6 if smoke else 200
    grid_n, grid_d, grid_T, grid_points = (40 if smoke else 400), 20, 4, 27

    def run_argv(seed, data, pool):
        return ["run", "--algo", "smg", "--strategy", "rr", "--T", str(run_T),
                "--gamma", "500", "--seed", str(seed), "--dataset", data]

    def compare_argv(seed, data, pool):
        return ["compare", "--methods", ",".join(METHODS), "--T", str(cmp_T),
                "--gamma", "0.01", "--seed", str(seed), "--dataset", data]

    def audit_argv(seed, data, pool):
        return ["audit", "--algo", "smg", "--strategy", "rr", "--T", str(audit_T),
                "--gamma", "0.005", "--repeats", str(repeats), "--seed", str(seed)]

    def grid_argv(seed, data, pool):
        return ["grid", "--algo", "ssmg", "--paper-grids", "--synth-n", str(grid_n),
                "--synth-d", str(grid_d), "--synth-seed", str(seed), "--T", str(grid_T),
                "--jobs", "2" if pool else "1", "--seed", str(seed)]

    table = [
        Workload("w8a-run",
                 w8a, run_argv, run_T * w8a.n,
                 lambda out, ref: check_traces(out, ref, 1, run_T),
                 lambda seed: gen.generate(w8a, seed)),
        Workload("ijcnn1-compare",
                 ijcnn1, compare_argv, len(METHODS) * cmp_T * ijcnn1.n,
                 lambda out, ref: check_compare(out, ref, cmp_T),
                 lambda seed: gen.generate(ijcnn1, seed)),
        Workload("audit-200",
                 None, audit_argv, repeats * audit_T * 32,
                 lambda out, ref: check_audit(out, ref, audit_T, repeats),
                 # the CLI's default synthetic problem: n=32, d=5, seed 0
                 lambda seed: synth_data(32, 5, 0)),
        Workload("ssmg-grid",
                 None, grid_argv, grid_points * grid_T * grid_n,
                 lambda out, ref: check_grid(out, ref, grid_points),
                 lambda seed: synth_data(grid_n, grid_d, seed)),
    ]
    return {w.name: w for w in table}

