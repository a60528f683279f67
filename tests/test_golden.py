"""Golden outputs: the five optimizers and the CLI tables, locked by hash.

Every case below is recomputed and compared with `golden_manifest.json`:

  * optimizer cases (5 algorithms x 3 strategies x {quadratic, logistic})
    lock the sha256 of the trace CSV bytes and of the JSON sidecar bytes,
    the selected output index, the raw bytes of the final iterate and of
    the epoch-start snapshots, and, for the methods with an inner trace,
    the raw bytes of every recorded inner-loop array;
  * CLI cases lock the sha256 of every file (name and bytes) a small
    fixed `run`, `audit`, `grid`, `rate` or `compare` invocation writes,
    which covers `grid_results.csv`, `rate.csv` and `compare.csv`.

The hashes are per-platform: outputs are byte-stable on a single platform
(see the README), but float rounding in numpy and libm may differ between
platforms and builds.  After a deliberate output change, or on a new
platform, regenerate the manifest with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of the manifest before committing it.
"""
import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from smgopt.cli import main as cli_main
from smgopt.dataio import synth_binary_dataset, write_trace
from smgopt.optimizers import (
    adam_run,
    sgdm_run,
    shuffling_sgd_run,
    smg_run,
    ssmg_run,
)
from smgopt.problems import logistic_problem, quadratic_mean_problem
from smgopt.schedules import Schedule
from smgopt.shuffling import STRATEGY_KINDS, ShufflingStrategy

MANIFEST = Path(__file__).with_name("golden_manifest.json")
ALGOS = ("smg", "ssmg", "sgd", "sgdm", "adam")
FIXTURES = ("quadratic", "logistic")
SEED = 11
T = 6


def _problem(fixture):
    if fixture == "quadratic":
        centers = np.random.default_rng(0).standard_normal((8, 3))
        return quadratic_mean_problem(centers, np.diag([1.0, 2.0, 4.0]))
    samples = synth_binary_dataset(24, 4, seed=3, separability=0.8)
    return logistic_problem(samples, lam=0.01)


def _run(algo, problem, strategy, inner_trace=False):
    schedule = Schedule("diminishing", gamma=0.3, horizon=T, lam=1.0)
    traced = {"inner_trace": True} if inner_trace else {}
    if algo == "smg":
        return smg_run(problem, schedule, strategy, 0.5, **traced)
    if algo == "ssmg":
        return ssmg_run(problem, schedule, strategy, 0.5, **traced)
    if algo == "sgd":
        return shuffling_sgd_run(problem, schedule, strategy, **traced)
    if algo == "sgdm":
        return sgdm_run(problem, schedule, strategy, 0.8)
    return adam_run(problem, 0.01, T, strategy)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def optimizer_case(fixture, algo, kind, workdir: Path) -> dict:
    problem = _problem(fixture)
    strategy = ShufflingStrategy(kind, SEED)
    record = _run(algo, problem, strategy)
    csv_path = workdir / f"trace_{fixture}_{algo}_{kind}.csv"
    sidecar_path = write_trace(record, csv_path,
                               config={"fixture": fixture, "algo": algo})
    entry = {
        "csv_sha256": _sha(csv_path.read_bytes()),
        "sidecar_sha256": _sha(sidecar_path.read_bytes()),
        "selected_index": record.selected_index,
        "iterates_sha256": _sha(record.final_w.tobytes(),
                                *(w.tobytes() for w in record.snapshots)),
    }
    if algo in ("smg", "ssmg", "sgd"):
        traced = _run(algo, problem, strategy, inner_trace=True)
        chunks = []
        for epoch in traced.epochs:
            for name in ("permutation", "gradients", "start_w", "end_w",
                         "inner_iterates", "anchor", "momenta"):
                value = getattr(epoch, name)
                chunks.append(name.encode())
                chunks.append(b"-" if value is None else value.tobytes())
        entry["inner_sha256"] = _sha(*chunks)
    return entry


CLI_CASES = {
    "run_ssmg_once_audit": ["run", "--algo", "ssmg", "--strategy", "once",
                            "--T", "6", "--gamma", "0.05", "--repeats", "2",
                            "--audit"],
    "run_sgd_diminishing": ["run", "--algo", "sgd", "--schedule", "diminishing",
                            "--lambda", "1.0", "--T", "5", "--seed", "3"],
    "run_adam_inc": ["run", "--algo", "adam", "--strategy", "inc", "--T", "4",
                     "--gamma", "0.01", "--repeats", "2"],
    "audit_smg_rr": ["audit", "--algo", "smg", "--strategy", "rr", "--T", "6",
                     "--gamma", "0.005", "--repeats", "4"],
    "audit_smg_inc": ["audit", "--algo", "smg", "--strategy", "inc", "--T", "8",
                      "--gamma", "0.01", "--enforce-cap"],
    "grid_ssmg": ["grid", "--algo", "ssmg", "--T", "4", "--synth-n", "12",
                  "--synth-d", "3", "--gamma-grid", "0.1,0.01",
                  "--beta-grid", "0.1,0.5", "--repeats", "2"],
    "grid_adam_paper": ["grid", "--algo", "adam", "--T", "3", "--synth-n", "8",
                        "--paper-grids"],
    "grid_sgd_abort": ["grid", "--algo", "sgd", "--T", "4",
                       "--gamma-grid", "0.05,1e160"],
    "rate": ["rate", "--horizons", "4,8,16", "--gamma", "1.0", "--repeats", "2",
             "--synth-n", "16"],
    "compare_one_seed": ["compare", "--T", "5", "--gamma", "0.02",
                         "--synth-n", "16"],
    "compare_three_seeds": ["compare", "--methods", "smg,ssmg,sgdm", "--T", "4",
                            "--gamma", "0.02", "--repeats", "3", "--algo", "ssmg",
                            "--beta", "0.3", "--schedule", "exponential",
                            "--rho", "0.9"],
}


def cli_case(name, workdir: Path) -> dict:
    out = workdir / name
    assert cli_main(CLI_CASES[name] + ["--out", str(out)]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    chunks = []
    for path in files:
        chunks.append(path.relative_to(out).as_posix().encode())
        chunks.append(path.read_bytes())
    return {"files": [p.relative_to(out).as_posix() for p in files],
            "tree_sha256": _sha(*chunks)}


OPTIMIZER_KEYS = [f"{f}-{a}-{k}" for f in FIXTURES for a in ALGOS
                  for k in STRATEGY_KINDS]


def _manifest():
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("key", OPTIMIZER_KEYS)
def test_optimizer_golden(key, tmp_path):
    expected = _manifest()["optimizers"][key]
    assert optimizer_case(*key.split("-"), tmp_path) == expected


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name, tmp_path):
    expected = _manifest()["cli"][name]
    assert cli_case(name, tmp_path) == expected


def regenerate():
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        manifest = {
            "optimizers": {key: optimizer_case(*key.split("-"), workdir)
                           for key in OPTIMIZER_KEYS},
            "cli": {name: cli_case(name, workdir) for name in sorted(CLI_CASES)},
        }
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")


if __name__ == "__main__":
    regenerate()
