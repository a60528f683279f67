"""Benchmark of the smgopt CLI: end-to-end metrics, or a traced per-layer split.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--smoke] [--record FILE]

--trace 0 runs the workload through the real CLI (`python -m smgopt` on
src/) in child processes for S seconds, alternating with set-up probes: a
child that imports smgopt and builds the workload's problem.  It reports the
medians of wall time, child CPU time, set-up time, steps per second and peak
resident memory.  --trace 1 runs the same command in this process through
smgopt.cli.main three times, the first and last with spans at the
boundaries between the package's modules (tracer.py), and reports the
per-layer metrics; it ignores --seconds.  The two traced runs must repeat
every count exactly.

Every invocation's outputs are checked (workloads.py); a failed check or a
nonzero exit counts as failed and makes the benchmark exit with code 1.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, whose names and units come from
BENCHMARK.json.  --smoke runs the same commands at tiny sizes.  --record
appends the result, stamped with commit, versions and machine, as a JSON line.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CheckFailed, Reference, workloads  # noqa: E402

MIN_SETUPS = 3  # set-up probes per run, for a median
PROBE = ("import sys\n"
         "from smgopt import cli\n"
         "cli.build_problem(cli.config_from_args(cli.build_parser().parse_args(sys.argv[1:])))\n")


def stamp() -> dict:
    import numpy
    commit = ""
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
    cpu = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    loadavg = ""
    with contextlib.suppress(OSError):
        loadavg = Path("/proc/loadavg").read_text().strip()
    return {"commit": commit or "unknown", "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": loadavg}


def run_child(args: list, cwd: Path, log: Path):
    """Run a child to completion; returns (exit code, wall s, rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=fh, stderr=subprocess.STDOUT, cwd=cwd, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


class Tally:
    """Invocations attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}: {detail}", file=sys.stderr)


def checked(tally: Tally, workload, out: Path, ref: Reference, rc: int, log: Path):
    if rc != 0:
        tail = log.read_text(errors="replace")[-2000:] if log.is_file() else ""
        tally.record(False, workload.name, f"exit code {rc}\n{tail}")
        return
    try:
        workload.check(out, ref)
    except CheckFailed as exc:
        tally.record(False, workload.name, f"output check: {exc}")
        return
    tally.record(True, workload.name)


def end_to_end(workload, argv: list, ref: Reference, work: Path, seconds: float,
               tally: Tally) -> tuple[dict, dict]:
    """Medians over the run, and every sample they were taken from."""
    walls, cpus, rss, setups = [], [], [], []
    out, log = work / "out", work / "cli.log"

    def probe():
        rc, wall, _ = run_child([sys.executable, "-c", PROBE, *argv], work, work / "probe.log")
        tally.record(rc == 0, f"{workload.name} set-up probe", f"exit code {rc}")
        setups.append(wall)

    # start another probe and invocation only while the pair is expected to
    # end within the budget, so a run lasts about `seconds` at any pair length
    start = time.perf_counter()
    elapsed = pair = 0.0
    while not walls or elapsed + pair <= seconds:
        probe()
        shutil.rmtree(out, ignore_errors=True)
        rc, wall, usage = run_child([sys.executable, "-m", "smgopt", *argv, "--out", str(out)],
                                    work, log)
        checked(tally, workload, out, ref, rc, log)
        walls.append(wall)
        cpus.append(usage.ru_utime + usage.ru_stime)
        rss.append(usage.ru_maxrss / 1024.0)  # ru_maxrss is in KiB on Linux
        pair = time.perf_counter() - start - elapsed
        elapsed += pair
    while len(setups) < MIN_SETUPS:
        probe()
    wall = statistics.median(walls)
    print(f"{workload.name}: {len(walls)} invocations, {len(setups)} set-up probes")
    medians = {"wall_s": wall, "cpu_s": statistics.median(cpus),
               "setup_s": statistics.median(setups), "steps_per_s": workload.steps / wall,
               "peak_rss_mb": statistics.median(rss)}
    return medians, {"wall_s": walls, "cpu_s": cpus, "setup_s": setups, "peak_rss_mb": rss}


def traced(workload, argv: list, ref: Reference, work: Path, data_path,
           tally: Tally) -> dict:
    sys.path.insert(0, str(SRC))
    from smgopt import cli

    def invoke(out: Path, tracer=None) -> float:
        shutil.rmtree(out, ignore_errors=True)
        log = work / "cli.log"
        with open(log, "w") as fh, contextlib.redirect_stdout(fh), \
                contextlib.redirect_stderr(fh):
            if tracer:
                tracer.install()
            try:
                start = time.perf_counter()
                rc = cli.main([*argv, "--out", str(out)])
                wall = time.perf_counter() - start
            finally:
                if tracer:
                    tracer.uninstall()
        checked(tally, workload, out, ref, rc, log)
        return wall

    # the untraced run sits between the traced ones, so drift in the host's
    # speed during the three runs cancels out of the overhead
    tracers = [Tracer(), Tracer()]
    traced_s = invoke(work / "traced0", tracers[0])
    untraced_s = invoke(work / "untraced")
    traced_s = (traced_s + invoke(work / "traced1", tracers[1])) / 2
    first = tracers[0]
    tally.record(first.counts() == tracers[1].counts(),
                 f"{workload.name} trace counts", "two runs with one seed differ")
    trace_bytes = sum(p.stat().st_size for p in (work / "traced0").glob("trace_*"))
    parse_bytes = data_path.stat().st_size if data_path else 0
    metrics = first.layer_metrics(parse_bytes, ref.data.nnz, trace_bytes)
    metrics["tracing.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    covered = sum(first.layer_self.values())
    tally.record(abs(covered - metrics["tracing.wall_s"]) <= 1e-6 * metrics["tracing.wall_s"],
                 f"{workload.name} span accounting",
                 f"layer self times sum to {covered}, traced wall {metrics['tracing.wall_s']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes")
    parser.add_argument("--record", type=Path, help="append the stamped result here")
    args = parser.parse_args(argv)
    if not (SRC / "smgopt" / "cli.py").is_file():
        print(f"no smgopt sources under {SRC}", file=sys.stderr)
        return 2
    table = workloads(args.smoke)
    if args.workload not in table:
        parser.error(f"unknown workload {args.workload!r}, expected one of {sorted(table)}")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = table[args.workload]
    info = stamp()
    print("stamp " + json.dumps(info, sort_keys=True))
    work = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    samples = None
    try:
        ref = Reference(args.seed, workload.data(args.seed))
        data_path = None
        if workload.shape is not None:
            data_path = work / f"{workload.shape.name}.libsvm"
            gen.write_libsvm(ref.data, data_path)
        cli_argv = workload.argv(args.seed, data_path and str(data_path), not args.trace)
        if args.trace:
            values = traced(workload, cli_argv, ref, work, data_path, tally)
        else:
            values, samples = end_to_end(workload, cli_argv, ref, work, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} "
                           "do not match BENCHMARK.json")

    for name, value in values.items():
        print(f"{workload.name} {name} = {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{workload.name} failed_frac = {tally.failed / tally.attempted:.6g} "
              f"({tally.failed} of {tally.attempted} invocations)")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"stamp": info, "workload": workload.name,
                                 "seed": args.seed, "trace": args.trace,
                                 "smoke": args.smoke, "result": result,
                                 "samples": samples}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
