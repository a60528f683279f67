"""Numerical verification of the convergence bounds and update identities.

The auditors evaluate the theoretical right-hand sides against the realized
weighted average of squared full-gradient norms,

    lhs = sum_t eta_t ||grad F(w_tilde_{t-1})||^2 / sum_t eta_t,

refusing (rather than emitting a vacuous bound) whenever a premise is
violated or the right-hand side is not finite.  Three bounds are covered:

  T1 (anchored momentum, any permutation, pathwise):
      4 [F(w0) - F*] / ((1-b) S1) + 9 s^2 L^2 (5-3b) / (1-b) * S3p / S1

  T2 (anchored momentum, randomized reshuffling, in expectation):
      4 [F(w0) - F*] / ((1-b) S1) + 6 s^2 (5-3b) L^2 / (n (1-b)) * S3p / S1

  T3 (recursive momentum, single fixed permutation, needs finite G):
      D1 / (S1 (1 - b^n)) + L^2 G^2 S3x / S1 + 4 b^n G^2 / (1 - b^n),
      D1 = 2 [F(w0) - F*] + (1/L + eta_1) ||grad F(w0)||^2 + 2 L eta_1^2 G^2

with S1 = sum eta_t, S3p = sum eta_{t-1}^3 (eta_0 = eta_1), and
S3x = sum xi_t^3, xi_t = max(eta_t, eta_{t-1}).  F* is replaced by the
problem's certified lower bound, which can only enlarge the right-hand side.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .optimizers import RunRecord, smg_run, ssmg_run
from .problems import Problem, ProblemConstants
from .schedules import (
    Schedule,
    ScheduleSums,
    cap_general,
    cap_rr,
    is_non_increasing,
)
from .shuffling import RANDOM_RESHUFFLING, ShufflingStrategy

SATISFACTION_REL_TOL = 1e-9


class AuditRefusal(RuntimeError):
    """A theorem premise is violated; no bound is emitted."""

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(f"premises unmet: {reason}")


@dataclass
class BoundReport:
    theorem: str
    lhs: float
    rhs: float
    constants_used: dict
    satisfied: bool
    slack: float
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        if not self.extras:
            del out["extras"]
        return out

    def summary(self) -> str:
        verdict = "holds" if self.satisfied else "VIOLATED"
        return (f"{self.theorem}: lhs={self.lhs:.6e} rhs={self.rhs:.6e} "
                f"slack={self.slack:.6e} -> bound {verdict}")


def _require(condition: bool, reason: str):
    if not condition:
        raise AuditRefusal(reason)


def check_cap(theorem: str, beta: float, constants: ProblemConstants, n: int,
              eta1: float):
    """Refuse a first rate eta1 above theorem's cap: 1/(L sqrt(K)) for T1,
    1/(L sqrt(D)) over n samples for T2, and 1/L for T3, which also needs a
    finite G."""
    L = constants.L
    if theorem == "T3":
        _require(constants.has_finite_G,
                 "bounded component gradients required; G is not finite")
        cap, label = 1.0 / L, "1/L"
    elif theorem == "T2":
        cap, label = cap_rr(beta, constants.theta, n, L).max_eta, "1/(L sqrt(D))"
    else:
        cap, label = cap_general(beta, constants.theta, L).max_eta, "1/(L sqrt(K))"
    _require(eta1 <= cap * (1 + 1e-9), f"eta_1 = {eta1:.3e} exceeds cap {label} = {cap:.3e}")


def bound_rhs(theorem: str, record: RunRecord, constants: ProblemConstants,
              beta: float, n: int, sums: ScheduleSums) -> float:
    """The right-hand side of theorem ("T1", "T2" or "T3", see the module
    docstring) for record's run over n samples; T1 does not depend on n.

    Refuses when a premise or the step cap fails, or when the right-hand
    side is not finite.
    """
    if theorem not in ("T1", "T2", "T3"):
        raise ValueError(f"unknown theorem {theorem!r}")
    _require(0 <= beta < 1, f"momentum weight {beta} outside [0, 1)")
    _require(is_non_increasing(record.etas),
             "learning-rate sequence is not non-increasing")
    _require(bool(np.all(record.etas >= 0)), "negative learning rate in record")
    _require(theorem != "T2" or record.strategy_kind == RANDOM_RESHUFFLING,
             f"randomized reshuffling required, run used {record.strategy_kind!r}")
    L, eta1 = constants.L, float(record.etas[0])
    check_cap(theorem, beta, constants, n, eta1)
    delta_f = float(record.losses[0]) - constants.f_lower
    if theorem == "T3":
        G, beta_n = constants.G, beta ** n
        delta1 = (2.0 * delta_f + (1.0 / L + eta1) * float(record.grad_norms_sq[0])
                  + 2.0 * L * eta1 * eta1 * G * G)
        rhs = (delta1 / (sums.sum_eta * (1.0 - beta_n))
               + L * L * G * G * (sums.sum_xi_cubed / sums.sum_eta)
               + 4.0 * beta_n * G * G / (1.0 - beta_n))
    else:
        if theorem == "T2":
            variance = 6.0 * constants.sigma_sq * (5.0 - 3.0 * beta) * L * L / (n * (1.0 - beta))
        else:
            variance = 9.0 * constants.sigma_sq * L * L * (5.0 - 3.0 * beta) / (1.0 - beta)
        rhs = (4.0 * delta_f / ((1.0 - beta) * sums.sum_eta)
               + variance * (sums.sum_eta_prev_cubed / sums.sum_eta))
    _require(math.isfinite(rhs), f"the bound is vacuous: its right-hand side is {float(rhs)}")
    return float(rhs)


def _constants_dict(constants: ProblemConstants, beta: float, record: RunRecord,
                    sums: ScheduleSums) -> dict:
    return {**asdict(constants), "G": constants.G if constants.has_finite_G else "inf",
            "beta": beta, "F_w0": float(record.losses[0]), **sums._asdict()}


def theorem_for(algo: str, strategy_kind: str) -> str:
    """The bound audited for algo's runs: T2 for smg under randomized
    reshuffling, T1 for smg under any other strategy, T3 for ssmg.

    T3 assumes one permutation for all epochs, and ssmg meets it under every
    strategy: it steps along the strategy's epoch-1 permutation in each
    epoch, so reshuffling gives it no fresh permutation."""
    if algo == "smg":
        return "T2" if strategy_kind == RANDOM_RESHUFFLING else "T1"
    if algo == "ssmg":
        return "T3"
    raise AuditRefusal(f"no convergence bound is audited for {algo!r}")


def audit_runs(theorem: str, records: Sequence[RunRecord], constants: ProblemConstants,
               beta: float, n: int, sums: ScheduleSums) -> list[BoundReport]:
    """theorem's reports on records: one per record for the pathwise T1 and
    T3, one over all of them for the expectation bound T2.

    T2's right-hand side is evaluated once, so all runs must share the
    starting point; its left-hand side is the sample mean over runs,
    compared with a three-standard-error Monte Carlo allowance.
    """
    if theorem != "T2":
        reports = []
        for record in records:
            rhs = bound_rhs(theorem, record, constants, beta, n, sums)
            lhs = record.weighted_grad_avg()
            reports.append(BoundReport(
                theorem, lhs, rhs, _constants_dict(constants, beta, record, sums),
                bool(lhs <= rhs * (1 + SATISFACTION_REL_TOL)), rhs - lhs))
        return reports
    if not records:
        raise ValueError("need at least one run to audit")
    f0 = records[0].losses[0]
    for r in records:
        _require(abs(r.losses[0] - f0) <= 1e-9 * (1 + abs(f0)),
                 "runs do not share the starting point; expectation bound "
                 "conditions on a common initial iterate")
    rhs = bound_rhs("T2", records[0], constants, beta, n, sums)
    values = np.array([r.weighted_grad_avg() for r in records])
    with np.errstate(over="ignore"):   # an inf mean or error fails the check below
        lhs = float(values.mean())
        se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    satisfied = bool(lhs <= rhs + 3.0 * se + SATISFACTION_REL_TOL * rhs)
    return [BoundReport("T2", lhs, rhs, _constants_dict(constants, beta, records[0], sums),
                        satisfied, rhs - lhs, {"n_runs": int(values.size), "std_error": se})]


# ---------------------------------------------------------------------------
# Empirical convergence-rate fitting
# ---------------------------------------------------------------------------

@dataclass
class RateFit:
    horizons: list
    metrics: list
    slope: float
    intercept: float
    low_confidence: bool = False


def check_horizons(horizons: Sequence[int]):
    """Refuse horizons a slope cannot be fitted over: fewer than two, not
    strictly increasing, or starting below one epoch."""
    if len(horizons) < 2:
        raise ValueError("need at least two horizons to fit a slope")
    if any(h2 <= h1 for h1, h2 in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    if horizons[0] < 1:
        raise ValueError(f"horizon must be >= 1, got {horizons[0]}")


def fit_power_law(horizons: Sequence[int], metrics: Sequence[float]) -> RateFit:
    """Least-squares slope of log(metric) against log(T)."""
    horizons = list(horizons)
    metrics = [float(m) for m in metrics]
    if len(horizons) != len(metrics):
        raise ValueError("horizons and metrics must have equal length")
    check_horizons(horizons)
    if any(m <= 0 for m in metrics):
        raise ValueError("metrics must be positive for a log-log fit")
    x = np.log(np.asarray(horizons, dtype=float))
    y = np.log(np.asarray(metrics, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    return RateFit(horizons, metrics, float(slope), float(intercept),
                   low_confidence=len(horizons) < 4)


# ---------------------------------------------------------------------------
# Update-rule identity suite
# ---------------------------------------------------------------------------

@dataclass
class IdentityCheck:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def cosine_sum_deviation(max_horizon: int = 1000) -> float:
    """Largest |sum_{t=1}^{T} cos(t pi / T) + 1| over T = 2..max_horizon."""
    worst = 0.0
    for T in range(2, max_horizon + 1):
        t = np.arange(1, T + 1)
        s = float(np.cos(t * np.pi / T).sum())
        worst = max(worst, abs(s + 1.0))
    return worst


def _anchor_deviation(trace) -> float:
    """Anchor at epoch t vs the mean of epoch t-1 gradients, relative."""
    worst = 0.0
    for prev, cur in zip(trace, trace[1:]):
        expected = prev.gradients.mean(axis=0)
        err = np.linalg.norm(cur.anchor - expected)
        worst = max(worst, err / (1.0 + np.linalg.norm(cur.anchor)))
    return worst


def _displacement_deviation(trace, etas, n, beta) -> float:
    """w_tilde_t - w_tilde_{t-1} against the two-epoch gradient mix."""
    worst = 0.0
    for t in range(2, len(trace) + 1):
        prev, cur = trace[t - 2], trace[t - 1]
        mix = beta * prev.gradients.sum(axis=0) + (1 - beta) * cur.gradients.sum(axis=0)
        predicted = -(etas[t - 1] / n) * mix
        actual = cur.end_w - cur.start_w
        worst = max(worst, float(np.linalg.norm(actual - predicted)))
    return worst


def _recursive_expansion_deviation(trace, beta, n) -> float:
    """Momentum at epoch t from epoch t-1 momenta and a geometric gradient mix."""
    worst = 0.0
    for t in range(2, len(trace) + 1):
        prev, cur = trace[t - 2], trace[t - 1]
        for i in range(n):
            expected = beta ** n * prev.momenta[i].copy()
            acc = np.zeros_like(expected)
            for k in range(i + 1, n):          # tail of epoch t-1
                acc += beta ** (n - k + i) * prev.gradients[k]
            for k in range(i + 1):             # head of epoch t
                acc += beta ** (i - k) * cur.gradients[k]
            expected += (1 - beta) * acc
            err = np.linalg.norm(cur.momenta[i] - expected)
            worst = max(worst, float(err))
    return worst


def _momentum_bound_deviation(trace, G: float) -> float:
    max_norm = 0.0
    for epoch in trace:
        norms = np.linalg.norm(epoch.momenta, axis=1)
        max_norm = max(max_norm, float(norms.max()))
    return max(0.0, max_norm - G)


def identity_suite(problem: Problem, beta: float, T: int, seed: int = 0,
                   tolerance: float = 1e-10) -> list[IdentityCheck]:
    """Run the five update-rule identities on one small instance.

    Both momentum methods are run with inner tracing; keep n and T small so
    the closed forms stay tractable.
    """
    schedule = Schedule(kind="constant", gamma=0.05, horizon=T)
    strategy = ShufflingStrategy(RANDOM_RESHUFFLING, seed)
    anchored = smg_run(problem, schedule, strategy, beta, inner_trace=True)
    recursive = ssmg_run(problem, schedule, strategy, beta, inner_trace=True)
    n = problem.n
    checks = [
        IdentityCheck("anchor_epoch_average",
                      _anchor_deviation(anchored.epochs), tolerance),
        IdentityCheck("epoch_displacement",
                      _displacement_deviation(anchored.epochs, anchored.etas, n, beta),
                      tolerance),
        IdentityCheck("recursive_momentum_expansion",
                      _recursive_expansion_deviation(recursive.epochs, beta, n),
                      tolerance),
        IdentityCheck("momentum_norm_bound",
                      _momentum_bound_deviation(recursive.epochs, problem.constants.G),
                      tolerance),
        IdentityCheck("cosine_sum", cosine_sum_deviation(), 1e-9),
    ]
    return checks
