"""Golden outputs: the five optimizers and the CLI tables.

Every case below is recomputed and compared with `golden_manifest.json`.

Quadratic cases are locked bitwise, by sha256: for 5 algorithms x 3
strategies the manifest holds the hash of the trace CSV bytes and of the
JSON sidecar bytes, the selected output index, the hash of the raw bytes of
the final iterate and of the epoch-start iterates (read from the inner
trace), and, for smg, ssmg and sgd, the hash of the raw bytes of every
recorded inner-loop array.

Logistic cases are locked by value, because the logistic oracles may sum in
another order than the code that stored them.  The manifest holds the same
outputs as numbers: the tokens of the trace CSV, the parsed sidecar, the
selected index, the iterates and the inner-trace arrays for the optimizer
cases, and, for the CLI cases (every one runs on logistic data), the name
and the parsed contents of every file a small fixed `run`, `audit`, `grid`,
`rate` or `compare` invocation writes.  JSON files are parsed as JSON; every
other file is split into text and numeric tokens.  Floats match within
RTOL = 1e-12 relative, taken against the largest magnitude of the list a
float sits in when it sits in a list of numbers; everything else (text,
headers, file names, config hashes, seeds, epochs, ranks, selected_index,
status and abort_epoch) must be equal exactly.

Outputs are byte-stable on a single platform (see the README), but float
rounding in numpy and libm may differ between platforms and builds.  After a
deliberate output change, or on a new platform, regenerate the manifest with

    PYTHONPATH=src python tests/test_golden.py

and review the diff of the manifest before committing it.
"""
import hashlib
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from smgopt.cli import main as cli_main
from smgopt.dataio import synth_binary_dataset, write_trace
from smgopt.optimizers import (
    adam_run,
    ensemble_outcomes,
    records_of,
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
INNER = ("permutation", "gradients", "start_w", "end_w", "inner_iterates",
         "anchor", "momenta")
SEED = 11
T = 6
RTOL = 1e-12
# a number standing alone, not part of a word such as a config hash
NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)(?![\w.])")


def _problem(fixture):
    if fixture == "quadratic":
        centers = np.random.default_rng(0).standard_normal((8, 3))
        return quadratic_mean_problem(centers, np.diag([1.0, 2.0, 4.0]))
    samples = synth_binary_dataset(24, 4, seed=3, separability=0.8)
    return logistic_problem(samples, lam=0.01)


SCHEDULE = Schedule("diminishing", gamma=0.3, horizon=T, lam=1.0)
BETA = {"smg": 0.5, "ssmg": 0.5, "sgd": 0.0, "sgdm": 0.8, "adam": 0.9}
ADAM_LR = 0.01


def _run(algo, problem, strategy):
    if algo == "smg":
        return smg_run(problem, SCHEDULE, strategy, BETA[algo])
    if algo == "ssmg":
        return ssmg_run(problem, SCHEDULE, strategy, BETA[algo])
    if algo == "sgd":
        return shuffling_sgd_run(problem, SCHEDULE, strategy)
    if algo == "sgdm":
        return sgdm_run(problem, SCHEDULE, strategy, BETA[algo])
    return adam_run(problem, ADAM_LR, T, strategy)


def _inner_trace(algo, problem, strategy) -> list:
    """The epochs of algo's run with its inner trace, which ensemble_outcomes
    records for every method."""
    etas = np.full(T, ADAM_LR) if algo == "adam" else SCHEDULE.etas()
    return records_of(ensemble_outcomes(algo, problem, etas, [strategy], BETA[algo],
                                        inner_trace=True))[0].epochs


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _tokens(text: str) -> list:
    """Text split into strings and the ints and floats standing between them."""
    parts = NUMBER.split(text)
    for k in range(1, len(parts), 2):
        token = parts[k]
        parts[k] = int(token) if token.lstrip("+-").isdigit() else float(token)
    return parts


def _contents(path: Path):
    text = path.read_text()
    return json.loads(text) if path.suffix == ".json" else _tokens(text)


def _array(value):
    return None if value is None else value.tolist()


def optimizer_case(fixture, algo, kind, workdir: Path) -> dict:
    problem = _problem(fixture)
    strategy = ShufflingStrategy(kind, SEED)
    record = _run(algo, problem, strategy)
    csv_path = workdir / f"trace_{fixture}_{algo}_{kind}.csv"
    sidecar_path = write_trace(record, csv_path,
                               config={"fixture": fixture, "algo": algo})
    traced = _inner_trace(algo, problem, strategy)
    iterates = [record.final_w] + [epoch.start_w for epoch in traced]
    epochs = traced if algo in ("smg", "ssmg", "sgd") else []
    if fixture == "logistic":
        entry = {
            "trace": _contents(csv_path),
            "sidecar": _contents(sidecar_path),
            "selected_index": record.selected_index,
            "iterates": [w.tolist() for w in iterates],
        }
        if epochs:
            entry["inner"] = [{name: _array(getattr(epoch, name)) for name in INNER}
                              for epoch in epochs]
        return entry
    entry = {
        "csv_sha256": _sha(csv_path.read_bytes()),
        "sidecar_sha256": _sha(sidecar_path.read_bytes()),
        "selected_index": record.selected_index,
        "iterates_sha256": _sha(*(w.tobytes() for w in iterates)),
    }
    if epochs:
        chunks = []
        for epoch in epochs:
            for name in INNER:
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
    "grid_smg_diminishing_lambda": ["grid", "--algo", "smg", "--schedule",
                                    "diminishing", "--T", "4", "--synth-n", "12",
                                    "--synth-d", "3", "--gamma-grid", "0.1,0.01",
                                    "--lambda-grid", "1,4"],
    "grid_sgdm_exponential_rho": ["grid", "--algo", "sgdm", "--schedule",
                                  "exponential", "--T", "4", "--synth-n", "12",
                                  "--gamma-grid", "0.05,0.01", "--rho-grid", "0.9,0.99",
                                  "--repeats", "2"],
    "grid_ssmg_cosine_paper": ["grid", "--algo", "ssmg", "--schedule", "cosine",
                               "--T", "3", "--synth-n", "8", "--paper-grids"],
    # seeds 1 and 2 abort at epochs (5, -), (3, 4), (3, 2) and (2, 2) in
    # turn: a row reports its first aborting seed, not its earliest abort
    "grid_smg_abort_epochs": ["grid", "--algo", "smg", "--T", "5", "--seed", "1",
                              "--repeats", "2", "--gamma-grid",
                              "0.05,4e153,4.5e153,1e154,2e154"],
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
    """Names and contents of every file one CLI case writes (all logistic)."""
    out = workdir / name
    assert cli_main(CLI_CASES[name] + ["--out", str(out)]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    return {"files": [p.relative_to(out).as_posix() for p in files],
            "contents": [_contents(p) for p in files]}


def assert_matches(actual, expected, where="case"):
    """Floats within RTOL, everything else exactly (see the module docstring)."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and sorted(actual) == sorted(expected), where
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        scale = _scale(expected)
        for k, (a, e) in enumerate(zip(actual, expected)):
            if isinstance(e, float):
                _assert_float(a, e, f"{where}[{k}]", scale)
            else:
                assert_matches(a, e, f"{where}[{k}]")
    elif isinstance(expected, float):
        _assert_float(actual, expected, where, 0.0)
    else:
        assert type(actual) is type(expected) and actual == expected, \
            f"{where}: {actual!r} != {expected!r}"


def _scale(values: list) -> float:
    """Largest finite magnitude of a list of numbers; 0 for any other list."""
    if not all(type(v) in (int, float) for v in values):
        return 0.0
    return max((abs(v) for v in values if math.isfinite(v)), default=0.0)


def _assert_float(actual, expected: float, where: str, scale: float):
    assert type(actual) is float, f"{where}: {actual!r} != {expected!r}"
    if math.isfinite(expected):
        same = abs(actual - expected) <= RTOL * max(abs(expected), scale)
    else:
        same = actual == expected or (math.isnan(actual) and math.isnan(expected))
    assert same, f"{where}: {actual!r} != {expected!r}"


OPTIMIZER_KEYS = [f"{f}-{a}-{k}" for f in FIXTURES for a in ALGOS
                  for k in STRATEGY_KINDS]


def _manifest():
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("key", OPTIMIZER_KEYS)
def test_optimizer_golden(key, tmp_path):
    expected = _manifest()["optimizers"][key]
    assert_matches(optimizer_case(*key.split("-"), tmp_path), expected, key)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_golden(name, tmp_path):
    expected = _manifest()["cli"][name]
    assert_matches(cli_case(name, tmp_path), expected, name)


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
