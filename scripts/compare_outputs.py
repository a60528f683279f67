#!/usr/bin/env python3
"""Compare the CLI outputs of two source trees, byte for byte.

    python scripts/compare_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout of this repository (a directory holding src/smgopt).
A fixed list of argv lists runs through `python -m smgopt` from each tree's
src/, each in a fresh working directory with `--out out`.  The list, read
from this script's checkout, holds each argv once:

  * CLI_CASES of tests/test_golden.py
  * the rows of the tests/test_cli.py tables that TIER1_TABLES names, each
    with the flags tier-1 runs it with: the refusals and edge values there
  * CASES below, the commands no tier-1 table holds: audits that write
    reports, the benchmark's commands at tiny sizes, parse of small files
    of each kind and runs on them, and more (see their comments)

Add a new CLI case to a tier-1 table, which both tier-1 and this script
run (a new table joins TIER1_TABLES), and to CASES only when tier-1 does
not run it.

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

TESTS = Path(__file__).resolve().parents[1] / "tests"
GOLDEN, TIER1 = TESTS / "test_golden.py", TESTS / "test_cli.py"
# the tables of TIER1 this script runs, each with the names of the
# constants tier-1 puts before and after its rows
TIER1_TABLES = {
    "MANY_EQUAL_RATES": (None, None), "RATE_DROPPED_FLAGS": ("RATE_FIT", None),
    "DROPPED_SETTINGS": (None, "DROPPED_SIZE"), "VACUOUS_BOUNDS": (None, None),
    "NO_BOUND": (None, "NO_BOUND_SIZE"), "NON_FINITE_LAMBDA": (None, None),
    "LIST_REFUSALS": (None, None), "EDGE_VALUES": (None, None),
    "OVERSIZED_CAP": (None, None), "SSMG_CAP": (None, None), "CAP_NOT_TAKEN": (None, None),
    "ADAM_AUDIT": (None, None), "BETA_NOT_TAKEN": (None, None),
    "COMPARE_ABORT_THEN_REFUSAL": (None, None), "RATE_ABORT": (None, None),
    "COMPARE_ABORT": (None, None), "COSINE_SINGLE_EPOCH": (None, None),
    "SUBNORMAL_RATES": (None, None),
}
DATASET = "tiny.libsvm"
# small LIBSVM files of each kind of text the parser reads, beside DATASET
REAL, NBSP, MALFORMED, UNDECODABLE, PAST_INT64 = (
    "real.libsvm", "nbsp.libsvm", "malformed.libsvm", "undecodable.libsvm", "int64.libsvm")

CASES = {
    # audits: T1 and T3 (golden's audit_smg_rr is T2), and all three as run --audit
    "audit-T1": ["audit", "--algo", "smg", "--strategy", "inc", "--T", "8",
                 "--gamma", "0.01", "--repeats", "2"],
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
    # refusals of a step past the cap
    "refuse-cap-T1": ["audit", "--algo", "smg", "--strategy", "inc", "--T", "4",
                      "--gamma", "50"],
    "refuse-cap-T2": ["audit", "--algo", "smg", "--T", "4", "--gamma", "50",
                      "--repeats", "2"],
    "refuse-cap-T3": ["audit", "--algo", "ssmg", "--T", "4", "--gamma", "50"],
    "compare-method-twice": ["compare", "--methods", "smg,smg", "--T", "3"],
    # a negative --lambda, and --horizons rate refuses or takes
    "lambda-negative": ["run", "--schedule", "diminishing", "--lambda", "-1", "--T", "2"],
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
    # --dataset refuses the synthetic data's flags
    "dataset-synth-flags": ["run", "--dataset", DATASET, "--T", "2", "--synth-n", "500",
                            "--synth-sep", "0.1"],
    # settings a run would drop
    "ignore-rho-adam": ["run", "--algo", "adam", "--rho", "0.5", "--T", "3"],
    "ignore-audit-adam-schedule": ["audit", "--algo", "adam", "--schedule", "cosine",
                                   "--T", "3"],
    # a grid sets a setting it sweeps at every point
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
    # the first two horizons finish and the last one aborts
    "rate-last-horizon-aborts": ["rate", "--gamma", "2e155", "--horizons", "2,8,64"],
    # smg's epoch averages over thousands of steps, a single run and an
    # ensemble: T = 3, as the average of epoch t first moves a recorded loss
    # at the start of epoch t + 2, with steps large enough that an average
    # moved by one ulp moves that loss
    "run-long-epochs": ["run", "--synth-n", "3000", "--synth-d", "50", "--T", "3",
                        "--gamma", "5"],
    "audit-long-epochs": ["audit", "--synth-n", "600", "--synth-d", "50", "--repeats", "3",
                          "--T", "3", "--gamma", "0.005"],
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


def assignments(path: Path) -> dict:
    """The value node of each module-level `NAME = ...` of path, parsed, not imported."""
    return {node.targets[0].id: node.value for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}


def all_cases() -> list:
    """(name, argv) of CLI_CASES of GOLDEN, of each row of TIER1_TABLES as
    tier-1 runs it, and of CASES, each argv once.  A tier-1 row is named as
    pytest names an argv: its words joined by "-", with "--" dropped."""
    golden = ast.literal_eval(assignments(GOLDEN)["CLI_CASES"])
    cases = {tuple(argv): f"golden-{name}" for name, argv in golden.items()}
    found = assignments(TIER1)
    for table, names in TIER1_TABLES.items():
        before, after = ([] if name is None else ast.literal_eval(found[name]) for name in names)
        # a table is one argv, or rows each an argv or an (argv, message or exit
        # code) pair; a *NAME row is read as NAME
        node = found[table]
        one_argv = all(isinstance(arg, ast.Constant) for arg in node.elts)
        for row in [node] if one_argv else node.elts:
            if not isinstance(row, ast.Starred):
                row = ast.literal_eval(row.elts[0] if isinstance(row, ast.Tuple) else row)
                argv = (*before, *row, *after)
                cases.setdefault(argv, "-".join(argv).replace("--", ""))
    for name, argv in CASES.items():
        cases.setdefault(tuple(argv), name)
    return [(name, list(argv)) for argv, name in cases.items()]


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
    cases = all_cases()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        datasets = root / "datasets"
        datasets.mkdir()
        write_datasets(datasets)
        for k, (name, case) in enumerate(cases):
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
