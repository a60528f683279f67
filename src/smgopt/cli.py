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
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from .audit import AuditRefusal, check_horizons, fit_power_law
from .dataio import (
    ParseError,
    parse_libsvm,
    scale_features,
    synth_binary_dataset,
    write_table,
    write_trace,
)
from .optimizers import DEFAULT_BETA, RunAborted, ensemble_outcomes, records_of
from .problems import Problem, logistic_problem
from .schedules import Schedule, gamma_for_initial_step
from .shuffling import STRATEGY_KINDS, ShufflingStrategy, init_point

ALGOS = tuple(DEFAULT_BETA)
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
        if self.seed < 0:
            raise UsageError(f"seed must be nonnegative, got {self.seed}")
        if not self.gamma > 0:
            raise UsageError(f"gamma must be positive, got {self.gamma}")
        if not math.isfinite(self.gamma):
            raise UsageError(f"gamma must be finite, got {self.gamma}")
        if not 0 <= self.reg < math.inf:
            raise UsageError(f"reg must be finite and nonnegative, got {self.reg}")
        if not 0 <= self.lam < math.inf:   # before a refusal of a dropped --lambda
            raise UsageError(f"lam must be finite and nonnegative, got {self.lam}")

    @property
    def resolved_beta(self) -> float:
        return DEFAULT_BETA[self.algo] if self.beta is None else self.beta

    def to_dict(self) -> dict:
        return asdict(self)

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
    """The logistic problem on the configured LIBSVM file or synthetic
    dataset, scaled if asked."""
    if cfg.dataset:
        dataset, _ = parse_libsvm(resolve_dataset_path(cfg.dataset))
        if len(dataset) == 0:
            raise UsageError(f"dataset {cfg.dataset!r} is empty")
    else:
        dataset = synth_binary_dataset(cfg.synth_n, cfg.synth_d, cfg.synth_seed,
                                       cfg.synth_sep)
    if cfg.scale:
        dataset = scale_features(dataset)
    return logistic_problem(dataset, lam=cfg.reg)


def run_point(cfg: ExperimentConfig, n: int, step: float | None = None,
              **changes) -> tuple[ExperimentConfig, np.ndarray]:
    """One run point of cfg on n samples: its validated config and its
    per-epoch rates.

    changes replace config fields as given.  step, when given, is a
    per-inner-step rate: Adam takes it as its gamma, and every other method
    the schedule parameter whose first inner step is step, divided by
    n^(1/3) under --rr-scaling, which the schedule multiplies back.  Adam's
    rate is its gamma in every epoch.  A setting the run would ignore is a
    UsageError, raised before the schedule is built, so a schedule the run
    drops asks for none of its parameters.
    """
    point = replace(cfg, **changes)
    adam = point.algo == "adam"
    if step is not None:
        point.gamma = step if adam else gamma_for_initial_step(
            point.schedule, step, n, point.T, point.lam, point.rho, point.rr_scaling)
    point.validate()
    _refuse_flags("sgd runs without momentum",
                  [("--beta", point.algo == "sgd" and point.resolved_beta != 0)])
    _refuse_schedule_flags(point, adam)
    if adam:
        return point, np.full(point.T, float(point.gamma))
    return point, Schedule(kind=point.schedule, gamma=point.gamma, horizon=point.T,
                           lam=point.lam, rho=point.rho,
                           rr_scale=n if point.rr_scaling else None).etas()


def _refuse_schedule_flags(cfg: ExperimentConfig, adam: bool) -> None:
    """Refuse the schedule settings cfg's runs would drop; adam drops them all."""
    _refuse_flags("adam runs at a constant per-step rate" if adam else
                  f"{cfg.algo} runs the {cfg.schedule} schedule", [
        (f"--schedule {cfg.schedule}", adam and cfg.schedule != "constant"),
        ("--lambda", cfg.lam != 0 and (adam or cfg.schedule != "diminishing")),
        ("--rho", cfg.rho is not None and (adam or cfg.schedule != "exponential")),
        ("--rr-scaling", adam and cfg.rr_scaling)])


def run_points(problem: Problem, points, w0=None) -> list:
    """Each (config, per-epoch rates) point's outcomes over the seeds
    seed .. seed + repeats - 1: its RunRecords, or the RunAborted of each
    seed that aborted.

    The points share one method and one horizon, and run as one lockstep
    ensemble, members point-major; w0, when given, starts every run.
    """
    strategies, etas, betas = zip(*[
        (ShufflingStrategy(cfg.strategy, seed), etas, cfg.resolved_beta)
        for cfg, etas in points for seed in range(cfg.seed, cfg.seed + cfg.repeats)])
    ran = iter(ensemble_outcomes(points[0][0].algo, problem, etas, strategies, betas, w0))
    return [list(itertools.islice(ran, cfg.repeats)) for cfg, _ in points]


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


def _grid_row(step: float, point: ExperimentConfig, outcomes: list) -> dict:
    """A grid point's row from its seeds' records or aborts, in seed order."""
    row = {"step": step, "point": point, "status": "ok", "abort_epoch": "",
           "final_loss": math.inf, "weighted_grad_avg": math.inf}
    aborts = [o for o in outcomes if isinstance(o, RunAborted)]
    if aborts:
        row.update(status="aborted", abort_epoch=str(aborts[0].epoch))
    else:
        row["final_loss"] = float(np.mean([float(r.losses[-1]) for r in outcomes]))
        row["weighted_grad_avg"] = float(np.mean([r.weighted_grad_avg()
                                                  for r in outcomes]))
    return row


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def _refuse_flags(command: str, flags) -> None:
    """Refuse each given flag of the (flag, given) pairs, which command
    would ignore; command says what it does instead."""
    ignored = [flag for flag, given in flags if given]
    if ignored:
        raise UsageError(f"{command}; it does not take {', '.join(ignored)}")


def cmd_run(args) -> int:
    """run, and audit: a run --audit that writes its bound report as JSON."""
    cfg = config_from_args(args)
    problem = build_problem(cfg)
    cfg, etas = run_point(cfg, problem.n)
    theorem = (audit_mod.theorem_for(cfg.algo, cfg.strategy)
               if args.audit or cfg.enforce_cap else None)
    if cfg.enforce_cap:   # the cap of the bound audited, on the rate the run takes
        audit_mod.check_cap(theorem, cfg.resolved_beta, problem, float(etas[0]))
    # the expectation audit conditions on one starting point shared by seeds
    w0 = init_point(problem.d, cfg.seed) if args.audit and theorem == "T2" else None
    records = records_of(run_points(problem, [(cfg, etas)], w0)[0])
    reports = audit_mod.audit_runs(records, problem) if args.audit else []

    out, config, config_hash = Path(args.out), cfg.to_dict(), cfg.hash()
    out.mkdir(parents=True, exist_ok=True)
    # one report block shared by every record, one per record, or none
    blocks = [report.to_dict() for report in reports] or [None]
    written = []
    for record, block in zip(records, itertools.cycle(blocks)):
        path = out / f"trace_{cfg.algo}_{config_hash}_s{record.seed}.csv"
        write_trace(record, path, config=config, bound_report=block, config_hash=config_hash)
        written.append(f"seed {record.seed}: final loss {record.losses[-1]:.6e}, "
                       f"weighted grad avg {record.weighted_grad_avg():.6e} -> {path}")
    summaries = [report.summary() for report in reports]
    if args.command == "audit":   # the report file in place of the seeds' lines
        report_path = out / f"bound_report_{config_hash}.json"
        report_path.write_text(json.dumps(blocks if len(blocks) > 1 else blocks[0],
                                          indent=2, sort_keys=True) + "\n")
        print(*summaries, f"report written to {report_path}", sep="\n")
    else:
        print(*written, *summaries, sep="\n")
    return EXIT_OK


def cmd_grid(args) -> int:
    cfg = config_from_args(args)
    _refuse_flags("grid ranks step sizes without a cap check",
                  [("--enforce-cap", cfg.enforce_cap)])
    _refuse_flags("grid --paper-grids takes every grid from the paper", [
        (f"--{name}-grid", args.paper_grids and getattr(args, f"{name}_grid") is not None)
        for name in ("gamma", "lambda", "rho", "beta")])
    if args.paper_grids:
        g = paper_grids(cfg.algo, cfg.schedule)
        steps = sorted(set(g["coarse"]) | set(g["fine"]), reverse=True)
        axes = {name: g[name] for name in ("lam", "rho", "beta")}
    else:   # a grid flag left out is None, and its axis keeps cfg's value
        steps = _parse_list(args.gamma_grid, float, "--gamma-grid")
        for step in steps or ():   # refused as given, not as the gamma derived from it
            if not 0 < step < math.inf:
                raise UsageError(f"--gamma-grid steps must be positive and finite, got {step}")
        axes = {"lam": _parse_list(args.lambda_grid, float, "--lambda-grid") or [None],
                "rho": _parse_list(args.rho_grid, float, "--rho-grid") or [None],
                "beta": _parse_list(args.beta_grid, float, "--beta-grid") or [None]}
    swept = {"--gamma": bool(steps), "--lambda": axes["lam"] != [None],
             "--rho": axes["rho"] != [None], "--beta": axes["beta"] != [None]}
    given = {"--gamma": args.gamma, "--lambda": args.lam, "--rho": args.rho, "--beta": args.beta}
    _refuse_flags("grid takes each setting it sweeps from its grid",
                  [(flag, given[flag] is not None and swept[flag]) for flag in swept])
    steps = steps or [cfg.gamma]
    problem = build_problem(cfg)
    # (step, config, per-epoch rates) of each point; None keeps cfg's value
    points = [(step, *run_point(cfg, problem.n, step, **{
                   name: value for name, value in zip(axes, values) if value is not None}))
              for step, *values in itertools.product(steps, *axes.values())]
    outcomes = run_points(problem, [(point, etas) for _, point, etas in points])
    rows = [_grid_row(step, point, o) for (step, point, _), o in zip(points, outcomes)]

    rows.sort(key=lambda r: (r["status"] != "ok", r["final_loss"]))
    header = "rank,step,gamma,lam,rho,beta,final_loss,weighted_grad_avg,status,abort_epoch,hash"
    cells = [[str(rank), repr(row["step"]), repr(p.gamma), repr(p.lam),
              "" if p.rho is None else repr(p.rho), repr(p.resolved_beta),
              repr(row["final_loss"]), repr(row["weighted_grad_avg"]),
              row["status"], row["abort_epoch"], p.hash()]
             for rank, row in enumerate(rows, start=1) for p in [row["point"]]]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = write_table(out / "grid_results.csv", cfg.hash(), cfg.seed, header, cells)
    best, p = rows[0], rows[0]["point"]
    print(f"{len(rows)} grid points -> {table}")
    print(f"best: step={best['step']} (gamma={p.gamma:.6g}, "
          f"beta={p.resolved_beta}) final loss {best['final_loss']:.6e} "
          f"[{best['status']}]")
    return EXIT_OK


def cmd_rate(args) -> int:
    _refuse_flags("rate runs each of --horizons as its epoch budget",
                  [("--T", args.T is not None)])
    cfg = config_from_args(args)
    # the bounds' setting: smg (or sgd, its beta = 0 case) under a constant schedule
    _refuse_flags("rate fits smg or sgd under a constant schedule", (
        (f"--algo {cfg.algo}", cfg.algo not in ("smg", "sgd")),
        ("--beta with --algo sgd", cfg.algo == "sgd" and cfg.resolved_beta != 0),
        (f"--schedule {cfg.schedule}", cfg.schedule != "constant"),
        ("--lambda", cfg.lam != 0),
        ("--rho", cfg.rho is not None),
        ("--rr-scaling", cfg.rr_scaling),
        ("--enforce-cap", cfg.enforce_cap),
    ))
    horizons = _parse_list(args.horizons, int, "--horizons")
    problem = build_problem(cfg)
    check_horizons(horizons)
    points = [run_point(cfg, problem.n, T=h) for h in horizons]
    fit = fit_power_law(horizons, [   # each horizon's median over its seeds, run in turn
        np.median([r.weighted_grad_avg() for r in records_of(run_points(problem, [point])[0])])
        for point in points])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = write_table(out / "rate.csv", cfg.hash(), cfg.seed, "T,metric",
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
    _refuse_flags("compare runs every method without a cap check",
                  [("--enforce-cap", cfg.enforce_cap)])
    _refuse_flags("compare gives --beta to smg and ssmg, under --algo smg or ssmg",
                  [(f"--beta with --algo {cfg.algo}",
                    cfg.beta is not None and cfg.algo not in ("smg", "ssmg"))])
    methods = _parse_list(args.methods, str, "--methods")
    for m in methods:
        if m not in ALGOS:
            raise UsageError(f"unknown method {m!r} in --methods")
        if methods.count(m) > 1:
            raise UsageError(f"method {m!r} is named twice in --methods")
    if methods == ["adam"]:   # with no scheduled method, a schedule setting runs nowhere
        _refuse_schedule_flags(cfg, adam=True)
    problem = build_problem(cfg)
    points = []
    for method in methods:
        # --beta, or their shared default, is smg's and ssmg's; the others keep theirs
        changes = {"algo": method, "beta": cfg.beta if method in ("smg", "ssmg") else None}
        if method == "adam":   # and adam its constant rate
            changes.update(schedule="constant", lam=0.0, rho=None, rr_scaling=False)
        points.append(run_point(cfg, problem.n, cfg.gamma, **changes))
    curves = {method: np.stack([r.losses for r in records_of(run_points(problem, [point])[0])])
              for method, point in zip(methods, points)}   # each method's seeds, run in turn

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
                with np.errstate(over="ignore"):   # written as inf past the float range
                    cells += [repr(float(col.mean())), repr(float(col.std(ddof=1)))]
            rows.append(cells)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = write_table(out / "compare.csv", cfg.hash(), cfg.seed, header, rows)

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
    dataset, d = parse_libsvm(args.file)
    n = len(dataset)
    pos = int(np.count_nonzero(dataset.labels == 1))
    print(f"{args.file}: {n} samples, dimension {d}, "
          f"{pos} positive / {n - pos} negative")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_list(text: str | None, convert, flag: str) -> list | None:
    """flag's comma-separated values, stripped, through convert; None for a
    flag left out.  An empty value, or one convert rejects, is a UsageError naming flag."""
    if text is None:
        return None
    values = [value.strip() for value in text.split(",")]
    if "" in values:
        raise UsageError(f"{flag} takes comma-separated values, none empty, got {text!r}")
    def converted(value):
        try:
            return convert(value)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid {convert.__name__} value: {value!r}")
    return [converted(value) for value in values]


def _add_experiment_args(p: argparse.ArgumentParser):
    # a flag left out stays None, and config_from_args takes ExperimentConfig's default
    p.add_argument("--algo", help=f"one of {ALGOS}")
    p.add_argument("--beta", type=float,
                   help="momentum weight in [0,1); per-algorithm default when omitted")
    p.add_argument("--schedule", help="constant | diminishing | exponential | cosine")
    p.add_argument("--gamma", type=float,
                   help="schedule parameter (per-step rate for adam/grid/compare)")
    p.add_argument("--lambda", dest="lam", type=float, help="diminishing-schedule offset")
    p.add_argument("--rho", type=float, help="exponential-schedule end fraction in (0,1)")
    p.add_argument("--T", type=int, help="epoch budget")
    p.add_argument("--strategy", help="rr | once | inc")
    p.add_argument("--seed", type=int)
    p.add_argument("--repeats", type=int,
                   help="seeded repetitions (seeds seed..seed+repeats-1)")
    p.add_argument("--enforce-cap", action="store_true",
                   help="refuse an eta_1 above the audited bound's cap (run, audit)")
    p.add_argument("--rr-scaling", action="store_true",
                   help="scale gamma by n^(1/3), the reshuffling rate form")
    p.add_argument("--dataset", help="LIBSVM file path or name under $SMG_DATA_DIR")
    p.add_argument("--synth-n", type=int)
    p.add_argument("--synth-d", type=int)
    p.add_argument("--synth-seed", type=int)
    p.add_argument("--synth-sep", type=float)
    p.add_argument("--reg", type=float, help="regularization weight of the logistic objective")
    p.add_argument("--scale-features", dest="scale", action="store_true")
    p.add_argument("--out", default="runs", help="output directory")


def config_from_args(args) -> ExperimentConfig:
    # every config field has a flag whose dest is the field's name
    cfg = ExperimentConfig(**{f.name: value for f in fields(ExperimentConfig)
                              if (value := getattr(args, f.name)) is not None})
    cfg.validate()
    _refuse_flags("--dataset reads its samples from the file", [
        (flag, cfg.dataset and value is not None) for flag, value in (
            ("--synth-n", args.synth_n), ("--synth-d", args.synth_d),
            ("--synth-seed", args.synth_seed), ("--synth-sep", args.synth_sep))])
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
    p_audit.set_defaults(func=cmd_run, audit=True)

    p_grid = sub.add_parser("grid", help="step-size grid search")
    _add_experiment_args(p_grid)
    p_grid.add_argument("--paper-grids", action="store_true",
                        help="use the built-in two-stage tuning grids")
    p_grid.add_argument("--gamma-grid", help="comma-separated per-step rates")
    p_grid.add_argument("--lambda-grid")
    p_grid.add_argument("--rho-grid")
    p_grid.add_argument("--beta-grid")
    p_grid.add_argument("--jobs", type=int, default=1,
                        help="accepted and ignored: the grid points and seeds "
                             "run as one lockstep ensemble in this process")
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
    except (RunAborted, ParseError, OSError, MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except ValueError as exc:
        # malformed numeric arguments and schedule parameters land here
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    """The command-line entry point: main's exit code, without interpreter
    teardown.

    Once main returns, the process has nothing left to clean up, so it
    flushes stdout and stderr and leaves by os._exit, which skips the
    atexit handlers and module teardown a normal exit runs.  A reader that
    closed stdout before the last write is reported as main reports an
    OSError, unless main already failed.  An exception that leaves main,
    and the SystemExit of --help, exit the normal way.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        if code == EXIT_OK:
            print(f"runtime error: {exc}", file=sys.stderr)
            code = EXIT_ABORT
    try:
        sys.stderr.flush()
    finally:
        os._exit(code)


if __name__ == "__main__":
    entry()
