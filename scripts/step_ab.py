#!/usr/bin/env python3
"""Time a single run's inner step, per method, in two source trees.

    python scripts/step_ab.py OLD_TREE NEW_TREE [ROUNDS]

Each tree is a checkout of this repository (a directory holding src/smgopt).
The data are the first 5,000 rows of the w8a-shaped and ijcnn1-shaped files
that bench/gen.py writes for seed 1 (read from this script's checkout).
Each of ROUNDS rounds (default 10) starts one process per tree, the old
tree first in odd rounds and the new one first in even rounds.  A process
builds the logistic problem of each shape and runs each method once
untimed, then times REPEATS single runs of each method (smg, ssmg, sgd,
sgdm, adam; T = 1, random reshuffling, seed 1) and reports the fastest.  A
run's us/step is its wall time over its n steps, so it includes the one
full pass of its epoch start, the same work on both trees.

Per shape and method the script prints each tree's median us/step over
the rounds with its quartiles, the change of the medians, and the rounds
in which the new tree was faster.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import gen  # noqa: E402

ROWS = 5_000
REPEATS = 3
METHODS = ("smg", "ssmg", "sgd", "sgdm", "adam")

# one process: times every (shape, method) run of one tree, prints JSON
CHILD = """
import json, sys, time
import numpy as np
from smgopt.optimizers import adam_run, sgdm_run, shuffling_sgd_run, smg_run, ssmg_run
from smgopt.problems import SparseDataset, logistic_problem
from smgopt.schedules import Schedule
from smgopt.shuffling import ShufflingStrategy

schedule, strategy = Schedule("constant", gamma=0.5, horizon=1), ShufflingStrategy("rr", 1)
runs = {
    "smg": lambda p: smg_run(p, schedule, strategy, 0.5),
    "ssmg": lambda p: ssmg_run(p, schedule, strategy, 0.5),
    "sgd": lambda p: shuffling_sgd_run(p, schedule, strategy),
    "sgdm": lambda p: sgdm_run(p, schedule, strategy, 0.9),
    "adam": lambda p: adam_run(p, 1e-3, 1, strategy),
}
result = {}
for path in sys.argv[2:]:
    with np.load(path) as f:
        problem = logistic_problem(SparseDataset(f["indptr"], f["indices"], f["values"],
                                                 f["labels"], int(f["d"])))
    for method in sys.argv[1].split(","):
        runs[method](problem)
        best = float("inf")
        for _ in range(%d):
            start = time.perf_counter()
            runs[method](problem)
            best = min(best, time.perf_counter() - start)
        result[path + ":" + method] = best / problem.n * 1e6
print(json.dumps(result))
""" % REPEATS


def head(shape: gen.Shape, path: Path) -> Path:
    """The first ROWS rows of shape's seed-1 data, as an .npz of CSR arrays."""
    data = gen.generate(shape, seed=1)
    end = data.indptr[ROWS]
    np.savez(path, indptr=data.indptr[:ROWS + 1], indices=data.indices[:end],
             values=data.values[:end], labels=data.labels[:ROWS], d=data.d)
    return path


def time_tree(tree: Path, files: list) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, ",".join(METHODS), *map(str, files)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in args[:2]]
    for tree in trees:
        if not (tree / "src" / "smgopt").is_dir():
            print(f"{tree} holds no src/smgopt", file=sys.stderr)
            return 2
    rounds = int(args[2]) if len(args) == 3 else 10
    with tempfile.TemporaryDirectory() as tmp:
        files = [head(shape, Path(tmp) / f"{shape.name}.npz") for shape in (gen.W8A, gen.IJCNN1)]
        times = ([], [])   # per tree, one dict per round
        for r in range(rounds):
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[side].append(time_tree(trees[side], files))
            print(f"round {r + 1}/{rounds} done", file=sys.stderr)
    print(f"us/step, median [quartiles] of {rounds} rounds, best of {REPEATS} runs "
          f"per round, first {ROWS} rows")
    print(f"{'shape':8} {'method':6} {'old':>24} {'new':>24} {'change':>7}  new faster")
    for path in files:
        for method in METHODS:
            key = f"{path}:{method}"
            old, new = (np.array([t[key] for t in side]) for side in times)
            cells = [f"{np.median(a):7.2f} [{np.percentile(a, 25):6.2f}, "
                     f"{np.percentile(a, 75):6.2f}]" for a in (old, new)]
            change = np.median(new) / np.median(old) - 1
            print(f"{path.stem:8} {method:6} {cells[0]:>24} {cells[1]:>24} "
                  f"{change:+7.1%}  {int(np.sum(new < old))}/{rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
