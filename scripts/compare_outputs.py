#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees, byte for byte.

    python scripts/compare_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository (a directory holding src/smgopt).
A fixed list of argv lists runs through `python -m smgopt` from each tree's
src/, each in a fresh working directory with `--out out`:

  * the CLI cases of tests/test_golden.py (read from this script's checkout)
  * T1, T2 and T3 audits and each audit refusal: step caps, a vacuous bound,
    a bound whose denominator underflows, methods without a bound
  * audits of the diminishing, exponential and cosine schedules, under
    --rr-scaling, of ssmg under rr, and run --audit over several seeds
  * --enforce-cap for each method, and in grid and compare, which refuse it
  * grid and compare under --rr-scaling with each schedule
  * edge usage errors: non-finite --lambda, bad --horizons, comma lists
    with an empty value and --gamma-grid steps that are not positive and
    finite
  * rate with sgd, each strategy, a dataset and a diverging --gamma
  * compare --beta under an --algo other than smg or ssmg, which it refuses
  * the benchmark's three commands at tiny sizes
  * parse of small files: w8a-like binary features, ijcnn1-like real
    values over more than 1,024 lines, NBSP separators, a malformed token
    past line 1,024, an undecodable byte and an index past int64, and run
    on the ones that parse
  * runs of 110 equal epoch rates, each setting a run would ignore, and
    each setting a grid sweeps, given as its single flag too
  * compare with adam alone under schedule settings, compare whose first
    method aborts and whose second is refused, and rates whose last or
    first horizon aborts
  * smg runs whose epoch averages sum thousands of steps, single and
    ensemble, and adam under an exponential schedule without --rho

`parse` runs without --out and writes its cache entry beside the file, so
it is compared by its exit code and streams.  A difference is any change
in exit code, stdout or stderr (the tree and the working directory are
replaced by placeholders), in the names of the files under out/, or in
any such file's bytes.  Each differing case is printed with what differs;
the exit code is 0 when no case differs and 1 otherwise.  Runs take about
a second per case pair on one core.
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
# small LIBSVM files of each kind of text the parser reads, beside DATASET
REAL, NBSP, MALFORMED, UNDECODABLE, PAST_INT64 = (
    "real.libsvm", "nbsp.libsvm", "malformed.libsvm", "undecodable.libsvm", "int64.libsvm")

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
    # audits of non-constant schedules, --rr-scaling, ssmg under rr, seeded run --audit
    "audit-diminishing": ["audit", "--schedule", "diminishing", "--lambda", "2",
                          "--strategy", "inc", "--T", "8", "--gamma", "0.01"],
    "audit-exponential": ["audit", "--schedule", "exponential", "--rho", "0.5",
                          "--strategy", "once", "--T", "8", "--gamma", "0.01"],
    "audit-cosine": ["audit", "--schedule", "cosine", "--strategy", "inc", "--T", "8",
                     "--gamma", "0.01", "--repeats", "2"],
    "audit-rr-scaling-T2": ["audit", "--rr-scaling", "--T", "6", "--gamma", "0.002",
                            "--repeats", "4"],
    "audit-ssmg-rr": ["audit", "--algo", "ssmg", "--strategy", "rr", "--T", "6",
                      "--gamma", "0.05", "--repeats", "2"],
    "run-audit-repeats": ["run", "--algo", "smg", "--strategy", "inc", "--T", "5",
                          "--gamma", "0.01", "--audit", "--repeats", "3"],
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
    # near 1, beta underflows the first term's denominator to 0
    "refuse-underflow-T1": ["run", "--algo", "smg", "--beta", "0.999999", "--gamma",
                            "1e-320", "--T", "2", "--audit", "--strategy", "inc"],
    "refuse-underflow-T2": ["audit", "--beta", "0.999999", "--gamma", "1e-320", "--T", "2",
                            "--repeats", "3"],
    "refuse-underflow-T3": ["run", "--algo", "ssmg", "--beta", "0.999999", "--gamma",
                            "1e-320", "--T", "2", "--audit", "--strategy", "once"],
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
    "horizons-empty-value": ["rate", "--horizons", "8,,16"],
    "gamma-grid-empty": ["grid", "--gamma-grid", ",", "--T", "2"],
    "gamma-grid-empty-value": ["grid", "--gamma-grid", "0.1,,0.2", "--T", "2"],
    "rho-grid-empty": ["grid", "--schedule", "exponential", "--rho-grid", ",", "--T", "2"],
    "methods-empty-value": ["compare", "--methods", "smg,", "--T", "2"],
    "gamma-grid-negative": ["grid", "--gamma-grid", "-1", "--T", "2"],
    "gamma-grid-zero": ["grid", "--gamma-grid", "0", "--T", "2"],
    "gamma-grid-nan": ["grid", "--gamma-grid", "nan", "--T", "2"],
    "gamma-grid-inf": ["grid", "--gamma-grid", "inf", "--T", "2"],
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
    # binary and real values, a non-ASCII separator and each kind of error
    "parse-ascii": ["parse", DATASET],
    "parse-real": ["parse", REAL],
    "parse-nbsp": ["parse", NBSP],
    "parse-malformed-past-block": ["parse", MALFORMED],
    "parse-undecodable": ["parse", UNDECODABLE],
    "parse-index-past-int64": ["parse", PAST_INT64],
    "run-nbsp": ["run", "--T", "2", "--gamma", "500", "--dataset", NBSP],
    "run-real": ["run", "--T", "2", "--gamma", "5", "--repeats", "2", "--dataset", REAL],
    # 110 equal selection weights, which sum to 1 - 1.1e-15 once normalised
    "run-T110": ["run", "--T", "110", "--gamma", "0.5"],
    "rate-T110": ["rate", "--horizons", "8,110", "--gamma", "2.0"],
    # settings a run would ignore
    "ignore-lambda": ["run", "--lambda", "5", "--T", "3"],
    "ignore-rho": ["run", "--rho", "0.5", "--T", "3"],
    "ignore-rho-diminishing": ["audit", "--schedule", "diminishing", "--rho", "0.5",
                               "--gamma", "0.01", "--T", "3"],
    "ignore-beta-sgd": ["run", "--algo", "sgd", "--beta", "0.5", "--T", "3"],
    "ignore-schedule-adam": ["run", "--algo", "adam", "--schedule", "cosine", "--T", "3"],
    "ignore-lambda-adam": ["run", "--algo", "adam", "--lambda", "5", "--T", "3"],
    "ignore-rho-adam": ["run", "--algo", "adam", "--rho", "0.5", "--T", "3"],
    "ignore-rr-scaling-adam": ["run", "--algo", "adam", "--rr-scaling", "--T", "3"],
    "ignore-audit-adam-schedule": ["audit", "--algo", "adam", "--schedule", "cosine",
                                   "--T", "3"],
    "ignore-lambda-grid": ["grid", "--gamma-grid", "0.01", "--lambda-grid", "1,2,4",
                           "--T", "3"],
    "ignore-adam-paper-grid": ["grid", "--algo", "adam", "--schedule", "diminishing",
                               "--paper-grids", "--T", "3", "--synth-n", "8"],
    "ignore-paper-gamma-grid": ["grid", "--paper-grids", "--gamma-grid", "0.01",
                                "--T", "3", "--synth-n", "8"],
    "ignore-paper-lambda-grid": ["grid", "--paper-grids", "--lambda-grid", "1",
                                 "--T", "3", "--synth-n", "8"],
    "ignore-paper-rho-grid": ["grid", "--paper-grids", "--rho-grid", "0.5",
                              "--T", "3", "--synth-n", "8"],
    "ignore-paper-beta-grid": ["grid", "--algo", "ssmg", "--paper-grids", "--beta-grid",
                               "0.5", "--T", "3", "--synth-n", "8"],
    "ignore-lambda-compare": ["compare", "--lambda", "5", "--T", "3"],
    # a grid sets a setting it sweeps at every point
    "ignore-gamma-grid": ["grid", "--gamma", "0.5", "--gamma-grid", "0.01", "--T", "3"],
    "ignore-gamma-paper-grid": ["grid", "--gamma", "0.5", "--paper-grids", "--T", "3",
                                "--synth-n", "8"],
    "ignore-rho-grid": ["grid", "--algo", "sgdm", "--schedule", "exponential", "--rho", "0.95",
                        "--T", "4", "--synth-n", "12", "--gamma-grid", "0.05,0.01",
                        "--rho-grid", "0.9,0.99", "--repeats", "2"],
    "ignore-lambda-paper-grid": ["grid", "--schedule", "diminishing", "--lambda", "2",
                                 "--paper-grids", "--T", "3", "--synth-n", "8"],
    "ignore-beta-grid": ["grid", "--algo", "ssmg", "--beta", "0.5", "--beta-grid", "0.1",
                         "--gamma-grid", "0.01", "--T", "3"],
    # compare runs adam at its constant rate next to a scheduled method
    "compare-adam-cosine": ["compare", "--schedule", "cosine", "--rr-scaling", "--T", "3"],
    # adam alone refuses the schedule settings; compare builds every point before a run
    "compare-adam-only-cosine-lambda": ["compare", "--methods", "adam", "--schedule",
                                        "cosine", "--lambda", "5", "--T", "3"],
    "compare-adam-only-exponential": ["compare", "--methods", "adam", "--schedule",
                                      "exponential", "--T", "3"],
    "compare-adam-only-rr-scaling": ["compare", "--methods", "adam", "--rr-scaling",
                                     "--T", "3"],
    "compare-abort-then-refusal": ["compare", "--methods", "adam,smg", "--lambda", "5",
                                   "--gamma", "1e300", "--T", "3"],
    # the first two horizons finish and the last one aborts, and the reverse
    "rate-last-horizon-aborts": ["rate", "--gamma", "2e155", "--horizons", "2,8,64"],
    "rate-first-horizon-aborts": ["rate", "--gamma", "1.931e155", "--horizons", "64,512"],
    # smg's epoch averages over thousands of steps, a single run and an
    # ensemble: T = 3, as the average of epoch t first moves a recorded loss
    # at the start of epoch t + 2, with steps large enough that an average
    # moved by one ulp moves that loss
    "run-long-epochs": ["run", "--synth-n", "3000", "--synth-d", "50", "--T", "3",
                        "--gamma", "5"],
    "audit-long-epochs": ["audit", "--synth-n", "600", "--synth-d", "50", "--repeats", "3",
                          "--T", "3", "--gamma", "0.005"],
    # settings adam drops, refused before its schedule is built
    "ignore-exponential-adam": ["run", "--algo", "adam", "--schedule", "exponential",
                                "--T", "2"],
    "ignore-exponential-adam-grid": ["grid", "--algo", "adam", "--schedule", "exponential",
                                     "--gamma-grid", "0.01", "--T", "2"],
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


def write_datasets(root: Path):
    """DATASET, a small w8a-like LIBSVM file (binary features, rows of
    unequal length), and the parse cases' files beside it."""
    rng = np.random.default_rng(1)
    X = rng.random((300, 60)) < 0.2
    labels = np.where(X @ rng.standard_normal(60) >= 0, "+1", "-1")
    lines = [" ".join([label] + [f"{j + 1}:1" for j in np.flatnonzero(row)]) + "\n"
             for label, row in zip(labels, X)]
    (root / DATASET).write_text("".join(lines))
    # ijcnn1-like: 22 features, repr floats of up to 17 significant digits,
    # negative values, -0.0 and exponents such as 1e-05, over 1,200 lines
    values = rng.standard_normal((1200, 22))
    values[rng.random(values.shape) < 0.1] *= 10.0 ** rng.integers(-9, -4)
    values[rng.random(values.shape) < 0.02] = -0.0
    kept = rng.random(values.shape) < 0.6
    values[0, :3], kept[0, :3] = (1e-05, -0.0, -2.5e-07), True
    labels = np.where(values @ rng.standard_normal(22) >= 0, "+1", "-1")
    (root / REAL).write_text("".join(
        " ".join([label] + [f"{j + 1}:{row[j]!r}" for j in np.flatnonzero(keep)]) + "\n"
        for label, row, keep in zip(labels, values.tolist(), kept)))
    (root / NBSP).write_text("".join(lines).replace(" ", "\u00a0"), encoding="utf-8")
    (root / MALFORMED).write_text("".join(lines * 4) + "+1 1:1 2:x\n")
    (root / UNDECODABLE).write_bytes(b"+1 1:0.5\n-1 2:\xff\n")
    (root / PAST_INT64).write_text("+1 1:1\n-1 9223372036854775808:1\n")


def run_case(tree: Path, argv: list, work: Path, datasets: Path) -> dict:
    """Exit code, normalised streams and out/ file bytes of one invocation."""
    shutil.copytree(datasets, work)
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    env.pop("SMG_DATA_DIR", None)
    out = [] if argv[0] == "parse" else ["--out", "out"]
    proc = subprocess.run([sys.executable, "-m", "smgopt", *argv, *out],
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
        datasets = root / "datasets"
        datasets.mkdir()
        write_datasets(datasets)
        for k, (name, case) in enumerate(cases.items()):
            old, new = (run_case(tree, case, root / side / name, datasets)
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
