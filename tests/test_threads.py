"""numpy's BLAS threads: the one-thread default that importing smgopt sets,
a caller's own setting, and traces that do not depend on the thread count."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smgopt

SRC = Path(smgopt.__file__).resolve().parent.parent


def child_env(threads=None) -> dict:
    """This environment with smgopt importable and OPENBLAS_NUM_THREADS set
    to threads, or removed when threads is None."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def python(code: str, threads=None) -> str:
    return subprocess.run([sys.executable, "-c", code], env=child_env(threads),
                          capture_output=True, text=True, check=True).stdout.strip()


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_import_runs_blas_on_one_thread():
    # importing smgopt alone loads no numpy, so numpy is imported after it
    for imports in ("import os, smgopt, numpy", "import os; from smgopt import cli"):
        assert python(f"{imports}; print(len(os.listdir('/proc/self/task')))") == "1"


def test_caller_thread_count_is_kept():
    code = "import os, smgopt; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert python(code, threads=2) == "2"


def tree(out: Path) -> dict:
    return {p.relative_to(out).as_posix(): p.read_bytes()
            for p in out.rglob("*") if p.is_file()}


def test_trace_does_not_depend_on_blas_threads(tmp_path):
    # at this size the label margins X @ normal of synth_binary_dataset take
    # numpy's threaded BLAS path and differ in their last bits between 1 and 2
    # threads; the two runs go side by side to keep the test short
    argv = [sys.executable, "-m", "smgopt", "run", "--synth-n", "91701",
            "--synth-d", "22", "--T", "1"]
    procs = [subprocess.Popen(argv + ["--out", str(tmp_path / str(threads))],
                              env=child_env(threads), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE)
             for threads in (1, 2)]
    for proc in procs:
        _, err = proc.communicate()
        assert proc.returncode == 0, err.decode()
    one, two = tree(tmp_path / "1"), tree(tmp_path / "2")
    assert one and one == two
