"""Smoke tests of the benchmark harness at tiny sizes; nothing here gates on time.

Run with `python -m pytest bench/tests`.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
from workloads import CheckFailed, Reference, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workload_table_covers_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    assert sorted(workloads(smoke=True)) == WORKLOADS


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_prints_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", trace,
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_generator_is_seeded_and_shaped():
    shape = dataclasses.replace(gen.IJCNN1, n=2000)
    a, b, c = gen.generate(shape, 5), gen.generate(shape, 5), gen.generate(shape, 6)
    assert np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values[:100], c.values[:100])
    assert a.n == 2000 and a.indices.max() == shape.d - 1
    assert abs(a.nnz / a.n - shape.nnz_per_row) < 0.5
    # columns strictly increase within each row, as LIBSVM requires
    for r in range(a.n):
        row = a.indices[a.indptr[r]:a.indptr[r + 1]]
        assert np.all(np.diff(row) > 0)


def test_written_file_parses_back_exactly(tmp_path):
    from smgopt.dataio import parse_libsvm
    for shape in (dataclasses.replace(gen.W8A, n=50), dataclasses.replace(gen.IJCNN1, n=50)):
        data = gen.generate(shape, 2)
        path = tmp_path / f"{shape.name}.libsvm"
        gen.write_libsvm(data, path)
        samples, d = parse_libsvm(path)
        assert d == shape.d and len(samples) == data.n
        for r, s in enumerate(samples):
            lo, hi = data.indptr[r], data.indptr[r + 1]
            assert s.label == data.labels[r]
            assert [i for i, _ in s.features] == list(data.indices[lo:hi] + 1)
            assert [v for _, v in s.features] == list(data.values[lo:hi])


def _cli_outputs(tmp_path, name, seed=4):
    from smgopt import cli
    workload = workloads(smoke=True)[name]
    ref = Reference(seed, workload.data(seed))
    data = None
    if workload.shape is not None:
        data = tmp_path / "data.libsvm"
        gen.write_libsvm(ref.data, data)
    out = tmp_path / "out"
    argv = workload.argv(seed, data and str(data), False)
    assert cli.main([*argv, "--out", str(out)]) == 0
    return workload, ref, out


def test_check_rejects_a_wrong_first_loss(tmp_path):
    workload, ref, out = _cli_outputs(tmp_path, "w8a-run")
    workload.check(out, ref)
    trace = next(out.glob("trace_*.csv"))
    lines = trace.read_text().splitlines()
    cells = lines[2].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-8))
    lines[2] = ",".join(cells)
    trace.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed, match="epoch-1 loss"):
        workload.check(out, ref)


def test_check_rejects_an_unranked_grid(tmp_path):
    workload, ref, out = _cli_outputs(tmp_path, "ssmg-grid")
    workload.check(out, ref)
    table = out / "grid_results.csv"
    lines = table.read_text().splitlines()
    lines[2:] = [lines[-1]] + lines[3:-1] + [lines[2]]
    table.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        workload.check(out, ref)


def test_check_rejects_a_missing_trace(tmp_path):
    workload, ref, out = _cli_outputs(tmp_path, "audit-200")
    workload.check(out, ref)
    next(out.glob("trace_*.csv")).unlink()
    with pytest.raises(CheckFailed, match="traces"):
        workload.check(out, ref)


def test_exits_nonzero_when_an_output_check_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    # a program whose initial point is off by a factor of two
    shuffling = tmp_path / "src" / "smgopt" / "shuffling.py"
    text = shuffling.read_text()
    assert "scale: float = 0.01" in text
    shuffling.write_text(text.replace("scale: float = 0.01", "scale: float = 0.02"))
    proc = bench("--workload", "w8a-run", "--seed", "1", "--seconds", "0", "--trace", "0",
                 "--smoke", cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "epoch-1 loss" in proc.stderr
