#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees, byte for byte.

    python scripts/compare_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository (a directory holding src/smgopt).
A fixed list of argv lists runs through `python -m smgopt` from each tree's
src/, each in a fresh working directory with `--out out`:

  * the CLI cases of tests/test_golden.py (read from this script's checkout)
  * T1, T2 and T3 audits and each audit refusal: step caps, a vacuous bound,
    methods without a bound
  * --enforce-cap for each method, and in grid and compare, which refuse it
  * grid and compare under --rr-scaling with each schedule
  * edge usage errors: non-finite --lambda and bad --horizons
  * rate with sgd, each strategy, a dataset and a diverging --gamma
  * compare --beta under an --algo other than smg or ssmg, which it refuses
  * the benchmark's three commands at tiny sizes

A difference is any change in exit code, stdout or stderr (the tree and the
working directory are replaced by placeholders), in the names of the files
under out/, or in any such file's bytes.  Each differing case is printed
with what differs; the exit code is 0 when no case differs and 1 otherwise.
Runs take about a second per case pair on one core.
"""
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "test_golden.py"
DATASET = "tiny.libsvm"

CASES = {
    # audits: T1, T2 and T3, as audit and as run --audit
    "audit-T1": ["audit", "--algo", "smg", "--strategy", "inc", "--T", "8",
                 "--gamma", "0.01", "--repeats", "2"],
    "audit-T2": ["audit", "--algo", "smg", "--strategy", "rr", "--T", "6",
                 "--gamma", "0.005", "--repeats", "4"],
    "audit-T3": ["audit", "--algo", "ssmg", "--strategy", "once", "--T", "6",
                 "--gamma", "0.05", "--repeats", "2"],
    "run-audit-T1": ["run", "--algo", "smg", "--strategy", "once", "--T", "5",
                     "--gamma", "0.01", "--audit"],
    "run-audit-T2": ["run", "--algo", "smg", "--T", "5", "--gamma", "0.005",
                     "--repeats", "3", "--audit"],
    "run-audit-T3": ["run", "--algo", "ssmg", "--strategy", "rr", "--T", "4",
                     "--gamma", "0.05", "--audit"],
    # refusals
    "refuse-cap-T1": ["audit", "--algo", "smg", "--strategy", "inc", "--T", "4",
                      "--gamma", "50"],
    "refuse-cap-T2": ["audit", "--algo", "smg", "--T", "4", "--gamma", "50",
                      "--repeats", "2"],
    "refuse-cap-T3": ["audit", "--algo", "ssmg", "--T", "4", "--gamma", "50"],
    "refuse-enforce-cap": ["run", "--algo", "smg", "--strategy", "inc", "--T", "16",
                           "--gamma", "50.0", "--enforce-cap"],
    # --enforce-cap checks the cap of the method's bound; grid and compare refuse it
    "enforce-cap-ssmg": ["run", "--algo", "ssmg", "--strategy", "once", "--T", "8",
                         "--gamma", "0.3", "--enforce-cap"],
    "refuse-enforce-cap-ssmg": ["run", "--algo", "ssmg", "--strategy", "once", "--T", "8",
                                "--gamma", "0.8", "--enforce-cap"],
    "enforce-cap-adam": ["run", "--algo", "adam", "--T", "8", "--gamma", "0.2",
                         "--enforce-cap"],
    "enforce-cap-sgd": ["run", "--algo", "sgd", "--T", "4", "--enforce-cap"],
    "enforce-cap-sgdm": ["run", "--algo", "sgdm", "--T", "4", "--enforce-cap"],
    "enforce-cap-grid": ["grid", "--algo", "smg", "--T", "4", "--gamma-grid", "50,0.01",
                         "--enforce-cap"],
    "enforce-cap-compare": ["compare", "--T", "3", "--gamma", "5", "--enforce-cap"],
    "compare-method-twice": ["compare", "--methods", "smg,smg", "--T", "3"],
    "refuse-vacuous-T1": ["run", "--gamma", "1e-320", "--T", "2", "--audit",
                          "--strategy", "inc"],
    "refuse-vacuous-T2": ["audit", "--gamma", "1e-320", "--T", "2", "--repeats", "3"],
    "refuse-vacuous-T3": ["run", "--algo", "ssmg", "--gamma", "1e-320", "--T", "2",
                          "--audit", "--strategy", "once"],
    "refuse-sgd": ["audit", "--algo", "sgd", "--T", "4", "--repeats", "200"],
    "refuse-sgdm": ["run", "--algo", "sgdm", "--T", "4", "--audit"],
    "refuse-adam": ["run", "--algo", "adam", "--T", "4", "--gamma", "0.001", "--audit"],
    # edge usage errors
    "lambda-nan-diminishing": ["run", "--schedule", "diminishing", "--lambda", "nan",
                               "--T", "2"],
    "lambda-inf-diminishing": ["run", "--schedule", "diminishing", "--lambda", "inf",
                               "--T", "2"],
    "lambda-nan-constant": ["run", "--schedule", "constant", "--lambda", "nan", "--T", "2"],
    "lambda-negative": ["run", "--schedule", "diminishing", "--lambda", "-1", "--T", "2"],
    "lambda-grid-nan": ["grid", "--schedule", "diminishing", "--lambda-grid", "nan",
                        "--T", "2"],
    "lambda-grid-inf": ["grid", "--schedule", "diminishing", "--lambda-grid", "inf",
                        "--T", "2"],
    "lambda-grid-negative": ["grid", "--schedule", "diminishing", "--lambda-grid", "-5",
                             "--T", "2"],
    "horizons-one": ["rate", "--horizons", "8"],
    "horizons-decreasing": ["rate", "--horizons", "200,8"],
    "horizons-zero-last": ["rate", "--horizons", "200,0"],
    "horizons-zero-first": ["rate", "--horizons", "0,8"],
    "horizons-valid": ["rate", "--horizons", "8,16"],
    # rate: sgd's own rule, other strategies, a dataset and a divergence
    "rate-sgd-rr": ["rate", "--algo", "sgd", "--horizons", "4,8,16", "--repeats", "2"],
    "rate-sgd-once": ["rate", "--algo", "sgd", "--strategy", "once", "--horizons", "4,8,16",
                      "--repeats", "2"],
    "rate-inc-beta": ["rate", "--strategy", "inc", "--beta", "0.7", "--horizons", "4,8,16"],
    "rate-dataset": ["rate", "--dataset", DATASET, "--horizons", "2,4", "--repeats", "2"],
    "rate-diverging": ["rate", "--gamma", "1e300", "--horizons", "2,4"],
    "compare-beta-sgdm": ["compare", "--algo", "sgdm", "--beta", "0.1", "--T", "3"],
    # the benchmark's commands at tiny sizes
    "bench-w8a-run": ["run", "--algo", "smg", "--strategy", "rr", "--T", "2",
                      "--gamma", "500", "--seed", "1", "--dataset", DATASET],
    "bench-audit": ["audit", "--algo", "smg", "--strategy", "rr", "--T", "32",
                    "--gamma", "0.005", "--repeats", "6", "--seed", "1"],
    "bench-ssmg-grid": ["grid", "--algo", "ssmg", "--paper-grids", "--synth-n", "40",
                        "--synth-d", "20", "--synth-seed", "1", "--T", "4",
                        "--jobs", "1", "--seed", "1"],
}

# grid and compare invert each schedule for its first inner step, under --rr-scaling
SCHEDULE_FLAGS = {"constant": [], "diminishing": ["--lambda", "2"],
                  "exponential": ["--rho", "0.9"], "cosine": []}
CASES.update({
    f"{command}-rr-scaling-{kind}": [command, "--schedule", kind, *flags, "--rr-scaling",
                                     "--T", "5", *rates]
    for kind, flags in SCHEDULE_FLAGS.items()
    for command, rates in (("grid", ["--gamma-grid", "0.01,0.1"]),
                           ("compare", ["--gamma", "0.01"]))
})


def golden_cases() -> dict:
    """CLI_CASES of tests/test_golden.py, read without importing it."""
    for node in ast.parse(GOLDEN.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "CLI_CASES":
            return {f"golden-{k}": v for k, v in ast.literal_eval(node.value).items()}
    raise SystemExit(f"no CLI_CASES in {GOLDEN}")


def write_dataset(path: Path):
    """A small w8a-like LIBSVM file: binary features, rows of unequal length."""
    rng = np.random.default_rng(1)
    X = rng.random((300, 60)) < 0.2
    labels = np.where(X @ rng.standard_normal(60) >= 0, "+1", "-1")
    path.write_text("".join(
        " ".join([label] + [f"{j + 1}:1" for j in np.flatnonzero(row)]) + "\n"
        for label, row in zip(labels, X)))


def run_case(tree: Path, argv: list, work: Path, dataset: Path) -> dict:
    """Exit code, normalised streams and out/ file bytes of one invocation."""
    work.mkdir(parents=True)
    shutil.copy(dataset, work / DATASET)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("SMG_DATA_DIR", None)
    proc = subprocess.run([sys.executable, "-m", "smgopt", *argv, "--out", "out"],
                          cwd=work, env=env, capture_output=True, text=True)

    def normal(text):
        return text.replace(str(work), "<WORK>").replace(str(tree), "<TREE>")

    out = work / "out"
    files = {p.relative_to(out).as_posix(): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()} if out.is_dir() else {}
    return {"exit": proc.returncode, "stdout": normal(proc.stdout),
            "stderr": normal(proc.stderr), "files": files}


def differences(old: dict, new: dict) -> list:
    found = [f"{key}: {old[key]!r} -> {new[key]!r}"
             for key in ("exit", "stdout", "stderr") if old[key] != new[key]]
    names = sorted(set(old["files"]) | set(new["files"]))
    found += [f"file {name}: " + ("only in old" if name not in new["files"] else
                                  "only in new" if name not in old["files"] else
                                  "bytes differ")
              for name in names if old["files"].get(name) != new["files"].get(name)]
    return found


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args]
    for tree in trees:
        if not (tree / "src" / "smgopt").is_dir():
            print(f"{tree} holds no src/smgopt", file=sys.stderr)
            return 2
    cases = {**golden_cases(), **CASES}
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        dataset = root / DATASET
        write_dataset(dataset)
        for k, (name, case) in enumerate(cases.items()):
            old, new = (run_case(tree, case, root / side / name, dataset)
                        for side, tree in zip(("old", "new"), trees))
            found = differences(old, new)
            differing += bool(found)
            print(f"[{k + 1}/{len(cases)}] {name}: "
                  f"{'DIFFERS' if found else 'same'} (exit {old['exit']} -> {new['exit']})")
            for line in found:
                print(f"    {line}")
    print(f"{len(cases)} cases, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
