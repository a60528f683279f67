"""Command-line experiment harness.

Subcommands: run, grid, rate, compare, audit, parse.  Exit codes: 0 success,
1 usage error, 2 runtime abort, 3 audit-premise refusal.

Conventions:
  * `run`, `rate`, and `audit` treat --gamma as the schedule parameter, so a
    constant schedule uses epoch rate gamma / T^(1/3) and per-inner-step rate
    gamma / (n T^(1/3)).
  * `grid` and `compare` treat learning-rate values as per-inner-step sizes
    (the practitioner convention the tuning grids are written in) and derive
    the schedule parameter from them; Adam always takes a per-step rate.
  * The environment variable SMG_DATA_DIR is the root against which bare
    dataset names are resolved.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from . import audit as audit_mod
from .audit import AuditRefusal, BoundReport, fit_rate
from .dataio import (
    ParseError,
    parse_libsvm,
    scale_features,
    synth_binary_dataset,
    write_trace,
)
from .optimizers import (
    RunAborted,
    RunRecord,
    adam_run,
    sgdm_run,
    shuffling_sgd_run,
    smg_run,
    ssmg_run,
)
from .problems import Problem, logistic_problem
from .schedules import Schedule, cap_general, cap_rr, exceeds_cap, schedule_sums
from .shuffling import RANDOM_RESHUFFLING, STRATEGY_KINDS, ShufflingStrategy, init_point

ALGOS = ("smg", "ssmg", "sgd", "sgdm", "adam")
DEFAULT_BETA = {"smg": 0.5, "ssmg": 0.5, "sgd": 0.0, "sgdm": 0.9, "adam": 0.9}
EXIT_OK, EXIT_USAGE, EXIT_ABORT, EXIT_REFUSAL = 0, 1, 2, 3


class UsageError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Canonical experiment description; its hash stamps every output."""

    algo: str = "smg"
    beta: float | None = None
    schedule: str = "constant"
    gamma: float = 0.1
    lam: float = 0.0
    rho: float | None = None
    T: int = 50
    strategy: str = "rr"
    seed: int = 0
    repeats: int = 1
    enforce_cap: bool = False
    rr_scaling: bool = False
    dataset: str | None = None
    synth_n: int = 32
    synth_d: int = 5
    synth_seed: int = 0
    synth_sep: float = 0.8
    reg: float = 0.01
    scale: bool = False

    def validate(self):
        if self.algo not in ALGOS:
            raise UsageError(f"unknown algorithm {self.algo!r}, expected one of {ALGOS}")
        if self.strategy not in STRATEGY_KINDS:
            raise UsageError(
                f"unknown strategy {self.strategy!r}, expected one of {STRATEGY_KINDS}")
        if self.beta is not None and not 0 <= self.beta < 1:
            raise UsageError(f"beta must lie in [0, 1), got {self.beta}")
        if self.T < 1:
            raise UsageError(f"T must be >= 1, got {self.T}")
        if self.repeats < 1:
            raise UsageError(f"repeats must be >= 1, got {self.repeats}")
        if not self.gamma > 0:
            raise UsageError(f"gamma must be positive, got {self.gamma}")

    @property
    def resolved_beta(self) -> float:
        return DEFAULT_BETA[self.algo] if self.beta is None else self.beta

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Problem, schedule, and run construction
# ---------------------------------------------------------------------------

def resolve_dataset_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    root = os.environ.get("SMG_DATA_DIR")
    if root:
        candidate = Path(root) / name
        if candidate.exists():
            return candidate
    raise UsageError(
        f"dataset {name!r} not found (checked the path and $SMG_DATA_DIR)")


def build_problem(cfg: ExperimentConfig) -> Problem:
    if cfg.dataset:
        samples, _ = parse_libsvm(resolve_dataset_path(cfg.dataset))
        if not samples:
            raise UsageError(f"dataset {cfg.dataset!r} is empty")
    else:
        samples = synth_binary_dataset(cfg.synth_n, cfg.synth_d, cfg.synth_seed,
                                       cfg.synth_sep)
    if cfg.scale:
        samples = scale_features(samples)
    return logistic_problem(samples, lam=cfg.reg)


def build_schedule(cfg: ExperimentConfig, n: int,
                   gamma: float | None = None) -> Schedule:
    return Schedule(
        kind=cfg.schedule,
        gamma=cfg.gamma if gamma is None else gamma,
        horizon=cfg.T,
        lam=cfg.lam,
        rho=cfg.rho,
        rr_scale=n if cfg.rr_scaling else None,
    )


def gamma_for_initial_step(kind: str, step: float, n: int, T: int,
                           lam: float = 0.0, rho: float | None = None) -> float:
    """Schedule parameter making the first per-inner-step rate equal step."""
    if kind == "constant":
        return step * n * T ** (1.0 / 3.0)
    if kind == "diminishing":
        return step * n * (1.0 + lam) ** (1.0 / 3.0)
    if kind == "exponential":
        return step * n * T ** (1.0 / 3.0) / rho ** (1.0 / T)
    if kind == "cosine":
        if T == 1:
            raise UsageError("a cosine schedule over T=1 epoch has a zero first "
                             "step for every gamma; use T >= 2")
        return step * n * T ** (1.0 / 3.0) / (1.0 + math.cos(math.pi / T))
    raise UsageError(f"unknown schedule kind {kind!r}")


def seeded_runs(problem: Problem, cfg: ExperimentConfig, schedule: Schedule,
                w0=None) -> Iterator[RunRecord]:
    """Yield cfg.algo's runs for seeds cfg.seed .. cfg.seed + repeats - 1."""
    for seed in range(cfg.seed, cfg.seed + cfg.repeats):
        strategy = ShufflingStrategy(cfg.strategy, seed)
        if cfg.algo == "adam":  # gamma is the per-step rate
            record = adam_run(problem, cfg.gamma, cfg.T, strategy, w0)
        elif cfg.algo == "sgd":
            record = shuffling_sgd_run(problem, schedule, strategy, w0)
        else:
            run = {"smg": smg_run, "ssmg": ssmg_run, "sgdm": sgdm_run}[cfg.algo]
            record = run(problem, schedule, strategy, cfg.resolved_beta, w0)
        record.config_hash = cfg.hash()
        yield record


def write_table(path: Path, cfg: ExperimentConfig, header: str, rows) -> Path:
    """Write CSV rows (lists of cells) under the config-hash and seed stamp."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# config_hash={cfg.hash()} seed={cfg.seed}", header]
    lines += [",".join(cells) for cells in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def check_cap(cfg: ExperimentConfig, problem: Problem, schedule: Schedule):
    beta = cfg.resolved_beta
    constants = problem.constants
    if cfg.strategy == RANDOM_RESHUFFLING:
        cap = cap_rr(beta, constants.theta, problem.n, constants.L)
        label = "1/(L sqrt(D))"
    else:
        cap = cap_general(beta, constants.theta, constants.L)
        label = "1/(L sqrt(K))"
    if exceeds_cap(schedule, cap):
        raise AuditRefusal(
            f"eta_1 = {schedule.eta(1):.6e} exceeds the step cap "
            f"{label} = {cap.max_eta:.6e}")


def audit_records(cfg: ExperimentConfig, problem: Problem, schedule: Schedule,
                  records: list[RunRecord]) -> list[BoundReport]:
    sums = schedule_sums(schedule)
    beta = cfg.resolved_beta
    constants = problem.constants
    if cfg.algo == "smg":
        if cfg.strategy == RANDOM_RESHUFFLING:
            return [audit_mod.audit_theorem2(records, constants, beta,
                                             problem.n, sums)]
        return [audit_mod.audit_theorem1(r, constants, beta, sums) for r in records]
    if cfg.algo == "ssmg":
        return [audit_mod.audit_theorem3(r, constants, beta, problem.n, sums)
                for r in records]
    raise AuditRefusal(f"no convergence bound is audited for {cfg.algo!r}")


def run_experiment(cfg: ExperimentConfig, with_audit: bool):
    """Shared driver for the run and audit subcommands."""
    problem = build_problem(cfg)
    schedule = build_schedule(cfg, problem.n)
    if cfg.enforce_cap:
        check_cap(cfg, problem, schedule)
    # the expectation audit conditions on one starting point shared by seeds
    shared_w0 = None
    if with_audit and cfg.algo == "smg" and cfg.strategy == RANDOM_RESHUFFLING:
        shared_w0 = init_point(problem.d, cfg.seed)
    records = list(seeded_runs(problem, cfg, schedule, shared_w0))
    reports = audit_records(cfg, problem, schedule, records) if with_audit else []
    return problem, schedule, records, reports


def write_outputs(cfg: ExperimentConfig, records: list[RunRecord],
                  reports: list[BoundReport], out: Path) -> list[Path]:
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, record in enumerate(records):
        report = None
        if reports:
            report = reports[0] if len(reports) == 1 else reports[i]
        name = f"trace_{cfg.algo}_{cfg.hash()}_s{record.seed}.csv"
        path = out / name
        write_trace(record, path, config=cfg.to_dict(),
                    bound_report=report.to_dict() if report else None)
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Tuning grids
# ---------------------------------------------------------------------------

def paper_grids(algo: str, schedule_kind: str) -> dict:
    """The two-stage step-size grids plus schedule-parameter grids."""
    fine_sgd = [0.5, 0.4, 0.2, 0.1, 0.08, 0.06, 0.05]
    grids = {
        "smg": {"coarse": [1.0, 0.1, 0.01], "fine": fine_sgd},
        "ssmg": {"coarse": [0.1, 0.01, 0.001], "fine": fine_sgd},
        "sgd": {"coarse": [0.1, 0.01, 0.001], "fine": fine_sgd},
        "sgdm": {"coarse": [0.1, 0.01, 0.001], "fine": fine_sgd},
        "adam": {"coarse": [0.01, 0.001, 0.0001], "fine": [0.002, 0.001, 0.0005]},
    }[algo].copy()
    if schedule_kind == "cosine":
        grids["coarse"] = [1.0, 0.1, 0.01, 0.001]
    grids["lam"] = [1.0, 2.0, 4.0, 8.0] if schedule_kind == "diminishing" else [None]
    grids["rho"] = [0.99, 0.995, 0.999] if schedule_kind == "exponential" else [None]
    grids["beta"] = [0.1, 0.5, 0.9] if algo == "ssmg" else [None]
    return grids


def _grid_worker(cfg_dict: dict) -> dict:
    """Run one grid point; must stay module-level so workers can unpickle it."""
    cfg_dict = dict(cfg_dict)
    step = cfg_dict.pop("_step")
    cfg = ExperimentConfig.from_dict(cfg_dict)
    row = {
        "step": step,
        "gamma": cfg.gamma,
        "lam": cfg.lam,
        "rho": cfg.rho,
        "beta": cfg.resolved_beta,
        "hash": cfg.hash(),
        "status": "ok",
        "abort_epoch": "",
        "final_loss": math.inf,
        "weighted_grad_avg": math.inf,
    }
    try:
        problem = build_problem(cfg)
        schedule = build_schedule(cfg, problem.n)
        losses, metrics = [], []
        for record in seeded_runs(problem, cfg, schedule):
            losses.append(float(record.losses[-1]))
            metrics.append(record.weighted_grad_avg())
        row["final_loss"] = float(np.mean(losses))
        row["weighted_grad_avg"] = float(np.mean(metrics))
    except RunAborted as exc:
        row["status"] = "aborted"
        row["abort_epoch"] = str(exc.epoch)
    return row


def _grid_point_configs(cfg: ExperimentConfig, steps, lams, rhos, betas, n: int):
    points = []
    for step in steps:
        for lam in lams:
            for rho in rhos:
                for beta in betas:
                    d = cfg.to_dict()
                    if lam is not None:
                        d["lam"] = lam
                    if rho is not None:
                        d["rho"] = rho
                    if beta is not None:
                        d["beta"] = beta
                    if cfg.algo == "adam":
                        d["gamma"] = step
                    else:
                        gamma = gamma_for_initial_step(
                            cfg.schedule, step, n, cfg.T,
                            d["lam"], d.get("rho"))
                        if cfg.rr_scaling:
                            gamma /= n ** (1.0 / 3.0)
                        d["gamma"] = gamma
                    d["_step"] = step
                    points.append(d)
    return points


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    cfg = config_from_args(args)
    problem, schedule, records, reports = run_experiment(cfg, args.audit)
    paths = write_outputs(cfg, records, reports, Path(args.out))
    for record, path in zip(records, paths):
        print(f"seed {record.seed}: final loss {record.losses[-1]:.6e}, "
              f"weighted grad avg {record.weighted_grad_avg():.6e} -> {path}")
    for report in reports:
        print(report.summary())
    return EXIT_OK


def cmd_audit(args) -> int:
    cfg = config_from_args(args)
    problem, schedule, records, reports = run_experiment(cfg, with_audit=True)
    out = Path(args.out)
    write_outputs(cfg, records, reports, out)
    payload = [r.to_dict() for r in reports]
    report_path = out / f"bound_report_{cfg.hash()}.json"
    report_path.write_text(json.dumps(payload if len(payload) > 1 else payload[0],
                                      indent=2, sort_keys=True) + "\n")
    for report in reports:
        print(report.summary())
    print(f"report written to {report_path}")
    return EXIT_OK


def cmd_grid(args) -> int:
    cfg = config_from_args(args)
    probe = build_problem(cfg)
    if args.paper_grids:
        g = paper_grids(cfg.algo, cfg.schedule)
        steps = sorted(set(g["coarse"]) | set(g["fine"]), reverse=True)
        lams, rhos, betas = g["lam"], g["rho"], g["beta"]
    else:
        steps = _parse_float_list(args.gamma_grid) or [cfg.gamma]
        lams = _parse_float_list(args.lambda_grid) or [None]
        rhos = _parse_float_list(args.rho_grid) or [None]
        betas = _parse_float_list(args.beta_grid) or [None]
    points = _grid_point_configs(cfg, steps, lams, rhos, betas, probe.n)

    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_grid_worker, points))
    else:
        rows = [_grid_worker(p) for p in points]

    rows.sort(key=lambda r: (r["status"] != "ok", r["final_loss"]))
    header = "rank,step,gamma,lam,rho,beta,final_loss,weighted_grad_avg,status,abort_epoch,hash"
    cells = [[str(rank), repr(row["step"]), repr(row["gamma"]),
              "" if row["lam"] is None else repr(row["lam"]),
              "" if row["rho"] is None else repr(row["rho"]),
              repr(row["beta"]),
              repr(row["final_loss"]), repr(row["weighted_grad_avg"]),
              row["status"], row["abort_epoch"], row["hash"]]
             for rank, row in enumerate(rows, start=1)]
    table = write_table(Path(args.out) / "grid_results.csv", cfg, header, cells)
    best = rows[0]
    print(f"{len(rows)} grid points -> {table}")
    print(f"best: step={best['step']} (gamma={best['gamma']:.6g}, "
          f"beta={best['beta']}) final loss {best['final_loss']:.6e} "
          f"[{best['status']}]")
    return EXIT_OK


def cmd_rate(args) -> int:
    cfg = config_from_args(args)
    horizons = [int(h) for h in args.horizons.split(",")]
    problem = build_problem(cfg)
    fit = fit_rate(problem, horizons, gamma=cfg.gamma, beta=cfg.resolved_beta,
                   strategy_kind=cfg.strategy, base_seed=cfg.seed,
                   n_seeds=cfg.repeats)
    out = Path(args.out)
    csv_path = write_table(out / "rate.csv", cfg, "T,metric",
                           ([str(T), repr(m)] for T, m in zip(fit.horizons, fit.metrics)))
    gp_path = out / "rate.gnuplot"
    gp_path.write_text(
        "set logscale xy\n"
        "set xlabel 'epochs T'\n"
        "set ylabel 'weighted avg squared gradient norm'\n"
        "set datafile separator ','\n"
        f"fitted(x) = exp({fit.intercept}) * x**({fit.slope})\n"
        f"plot 'rate.csv' every ::1 using 1:2 with points title 'measured', "
        f"fitted(x) title 'slope {fit.slope:.3f}'\n"
    )
    flag = " (low confidence: fewer than 4 points)" if fit.low_confidence else ""
    print(f"fitted log-log slope {fit.slope:.4f}{flag} -> {csv_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = config_from_args(args)
    methods = [m.strip() for m in args.methods.split(",")]
    for m in methods:
        if m not in ALGOS:
            raise UsageError(f"unknown method {m!r} in --methods")
    problem = build_problem(cfg)
    curves: dict[str, np.ndarray] = {}
    for method in methods:
        d = cfg.to_dict()
        d["algo"] = method
        d["beta"] = None  # per-method default momentum
        if method == "smg" or method == "ssmg":
            d["beta"] = cfg.resolved_beta if cfg.algo in ("smg", "ssmg") else 0.5
        mcfg = ExperimentConfig.from_dict(d)
        if method != "adam":
            mcfg.gamma = gamma_for_initial_step(cfg.schedule, cfg.gamma,
                                                problem.n, cfg.T, cfg.lam, cfg.rho)
        schedule = build_schedule(mcfg, problem.n)
        curves[method] = np.stack([record.losses for record in
                                   seeded_runs(problem, mcfg, schedule)])

    if cfg.repeats == 1:
        header = "epoch," + ",".join(f"loss_{m}" for m in methods)
        rows = ([str(t + 1)] + [repr(float(curves[m][0, t])) for m in methods]
                for t in range(cfg.T))
    else:
        header = "epoch," + ",".join(f"{m}_mean,{m}_std" for m in methods)
        rows = []
        for t in range(cfg.T):
            cells = [str(t + 1)]
            for m in methods:
                col = curves[m][:, t]
                cells += [repr(float(col.mean())), repr(float(col.std(ddof=1)))]
            rows.append(cells)
    out = Path(args.out)
    csv_path = write_table(out / "compare.csv", cfg, header, rows)

    gp_path = out / "compare.gnuplot"
    plots = ", ".join(
        f"'compare.csv' every ::1 using 1:{2 + i * (2 if cfg.repeats > 1 else 1)} "
        f"with lines title '{m}'"
        for i, m in enumerate(methods))
    gp_path.write_text(
        "set xlabel 'epoch'\nset ylabel 'train loss'\n"
        "set datafile separator ','\n"
        f"plot {plots}\n")
    print(f"compared {', '.join(methods)} over {cfg.repeats} seed(s) -> {csv_path}")
    return EXIT_OK


def cmd_parse(args) -> int:
    samples, d = parse_libsvm(args.file)
    n = len(samples)
    pos = sum(1 for s in samples if s.label == 1)
    print(f"{args.file}: {n} samples, dimension {d}, "
          f"{pos} positive / {n - pos} negative")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_float_list(text: str | None):
    if not text:
        return None
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _add_experiment_args(p: argparse.ArgumentParser):
    p.add_argument("--algo", default="smg", help=f"one of {ALGOS}")
    p.add_argument("--beta", type=float, default=None,
                   help="momentum weight in [0,1); per-algorithm default when omitted")
    p.add_argument("--schedule", default="constant",
                   help="constant | diminishing | exponential | cosine")
    p.add_argument("--gamma", type=float, default=0.1,
                   help="schedule parameter (per-step rate for adam/grid/compare)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.0,
                   help="diminishing-schedule offset")
    p.add_argument("--rho", type=float, default=None,
                   help="exponential-schedule end fraction in (0,1)")
    p.add_argument("--T", type=int, default=50, help="epoch budget")
    p.add_argument("--strategy", default="rr", help="rr | once | inc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1,
                   help="seeded repetitions (seeds seed..seed+repeats-1)")
    p.add_argument("--enforce-cap", action="store_true",
                   help="refuse schedules whose eta_1 exceeds the theoretical cap")
    p.add_argument("--rr-scaling", action="store_true",
                   help="scale gamma by n^(1/3), the reshuffling rate form")
    p.add_argument("--dataset", default=None,
                   help="LIBSVM file path or name under $SMG_DATA_DIR")
    p.add_argument("--synth-n", type=int, default=32)
    p.add_argument("--synth-d", type=int, default=5)
    p.add_argument("--synth-seed", type=int, default=0)
    p.add_argument("--synth-sep", type=float, default=0.8)
    p.add_argument("--reg", type=float, default=0.01,
                   help="regularization weight of the logistic objective")
    p.add_argument("--scale-features", dest="scale", action="store_true")
    p.add_argument("--out", default="runs", help="output directory")


def config_from_args(args) -> ExperimentConfig:
    cfg = ExperimentConfig(
        algo=args.algo, beta=args.beta, schedule=args.schedule, gamma=args.gamma,
        lam=args.lam, rho=args.rho, T=args.T, strategy=args.strategy,
        seed=args.seed, repeats=args.repeats, enforce_cap=args.enforce_cap,
        rr_scaling=args.rr_scaling, dataset=args.dataset, synth_n=args.synth_n,
        synth_d=args.synth_d, synth_seed=args.synth_seed, synth_sep=args.synth_sep,
        reg=args.reg, scale=args.scale,
    )
    cfg.validate()
    # construct once so malformed schedule parameters fail as usage errors
    try:
        build_schedule(cfg, n=max(cfg.synth_n, 1))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return cfg


def build_parser() -> _Parser:
    parser = _Parser(prog="smgopt", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute seeded runs and write traces")
    _add_experiment_args(p_run)
    p_run.add_argument("--audit", action="store_true",
                       help="attach a convergence-bound report")
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="run and audit a convergence bound")
    _add_experiment_args(p_audit)
    p_audit.set_defaults(func=cmd_audit)

    p_grid = sub.add_parser("grid", help="step-size grid search")
    _add_experiment_args(p_grid)
    p_grid.add_argument("--paper-grids", action="store_true",
                        help="use the built-in two-stage tuning grids")
    p_grid.add_argument("--gamma-grid", default=None,
                        help="comma-separated per-step rates")
    p_grid.add_argument("--lambda-grid", default=None)
    p_grid.add_argument("--rho-grid", default=None)
    p_grid.add_argument("--beta-grid", default=None)
    p_grid.add_argument("--jobs", type=int, default=1,
                        help="parallel worker processes")
    p_grid.set_defaults(func=cmd_grid)

    p_rate = sub.add_parser("rate", help="fit the empirical decay exponent")
    _add_experiment_args(p_rate)
    p_rate.add_argument("--horizons", default="8,16,32,64,128,256,512",
                        help="comma-separated epoch budgets")
    p_rate.set_defaults(func=cmd_rate)

    p_cmp = sub.add_parser("compare", help="multi-method loss curves, shared shuffles")
    _add_experiment_args(p_cmp)
    p_cmp.add_argument("--methods", default="smg,ssmg,sgd,sgdm,adam")
    p_cmp.set_defaults(func=cmd_compare)

    p_parse = sub.add_parser("parse", help="parse a LIBSVM file and print stats")
    p_parse.add_argument("file")
    p_parse.set_defaults(func=cmd_parse)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AuditRefusal as exc:
        print(f"audit refusal: {exc}", file=sys.stderr)
        return EXIT_REFUSAL
    except (RunAborted, ParseError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except ValueError as exc:
        # malformed numeric arguments and schedule parameters land here
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
