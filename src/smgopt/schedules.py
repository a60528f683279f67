"""Epoch learning-rate schedules and their inversion for a first inner step,
theoretical step-size caps, and sums.

Schedules assign one rate per epoch t = 1..T:

    constant      eta_t = g / T^(1/3)
    diminishing   eta_t = g / (t + lam)^(1/3)
    exponential   eta_t = g * rho^(t/T) / T^(1/3)
    cosine        eta_t = (g / T^(1/3)) * (1 + cos(t pi / T))

where g is gamma, optionally scaled by n^(1/3) for randomized-reshuffling
runs.  All four are non-increasing in t; the cosine schedule ends at
eta_T = 0 (that epoch runs but moves nothing and carries zero selection
weight).

The caps bound the admissible rate as eta_t <= 1/(L sqrt(C)) with

    C = K = max(5/2, 9 (5 - 3 beta) (theta + 1) / (1 - beta))        (general)
    C = D = max(5/3, 6 (5 - 3 beta) (theta + n) / (n (1 - beta)))    (reshuffled)

Sums are evaluated by direct summation with the convention eta_0 = eta_1,
and xi_t = max(eta_t, eta_{t-1}) with xi_1 = eta_1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

CONSTANT = "constant"
DIMINISHING = "diminishing"
EXPONENTIAL = "exponential"
COSINE = "cosine"
SCHEDULE_KINDS = (CONSTANT, DIMINISHING, EXPONENTIAL, COSINE)


@dataclass(frozen=True)
class Schedule:
    kind: str
    gamma: float
    horizon: int
    lam: float = 0.0
    rho: float | None = None
    rr_scale: int | None = None  # sample count for the n^(1/3) factor

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(
                f"unknown schedule kind {self.kind!r}, expected one of {SCHEDULE_KINDS}"
            )
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")
        if self.kind == EXPONENTIAL:
            if self.rho is None or not 0 < self.rho < 1:
                raise ValueError(
                    f"exponential schedule needs rho in (0, 1), got {self.rho}"
                )
        if self.rr_scale is not None and self.rr_scale < 1:
            raise ValueError(f"rr_scale must be >= 1, got {self.rr_scale}")

    @property
    def effective_gamma(self) -> float:
        if self.rr_scale is None:
            return self.gamma
        return self.gamma * self.rr_scale ** (1.0 / 3.0)

    def eta(self, t: int) -> float:
        """Learning rate for epoch t, 1 <= t <= horizon."""
        if not 1 <= t <= self.horizon:
            raise ValueError(f"epoch {t} outside 1..{self.horizon}")
        g = self.effective_gamma
        T = self.horizon
        if self.kind == CONSTANT:
            return g / T ** (1.0 / 3.0)
        if self.kind == DIMINISHING:
            return g / (t + self.lam) ** (1.0 / 3.0)
        if self.kind == EXPONENTIAL:
            return g * self.rho ** (t / T) / T ** (1.0 / 3.0)
        return (g / T ** (1.0 / 3.0)) * (1.0 + math.cos(t * math.pi / T))

    def etas(self) -> np.ndarray:
        return np.array([self.eta(t) for t in range(1, self.horizon + 1)])


def gamma_for_initial_step(kind: str, step: float, n: int, T: int, lam: float = 0.0,
                           rho: float | None = None, rr_scaling: bool = False) -> float:
    """The gamma whose schedule over n samples takes step as its first
    per-inner-step rate eta_1 / n; with rr_scaling, divided by the n^(1/3)
    that rr_scale=n multiplies back."""
    Schedule(kind, 1.0, T, lam, rho)   # refuses the kind, T, lam and rho as a schedule does
    if kind == CONSTANT:
        gamma = step * n * T ** (1.0 / 3.0)
    elif kind == DIMINISHING:
        gamma = step * n * (1.0 + lam) ** (1.0 / 3.0)
    elif kind == EXPONENTIAL:
        gamma = step * n * T ** (1.0 / 3.0) / rho ** (1.0 / T)
    else:
        if T == 1:
            raise ValueError("a cosine schedule over T=1 epoch has a zero first "
                             "step for every gamma; use T >= 2")
        gamma = step * n * T ** (1.0 / 3.0) / (1.0 + math.cos(math.pi / T))
    return gamma / n ** (1.0 / 3.0) if rr_scaling else gamma


class ScheduleSums(NamedTuple):
    sum_eta: float
    sum_eta_prev_cubed: float  # sum of eta_{t-1}^3 with eta_0 = eta_1
    sum_xi_cubed: float        # sum of max(eta_t, eta_{t-1})^3, xi_1 = eta_1


def schedule_sums(schedule: Schedule) -> ScheduleSums:
    etas = schedule.etas()
    prev = np.concatenate(([etas[0]], etas[:-1]))
    xi = np.maximum(etas, prev)
    with np.errstate(over="ignore"):   # sums past the float range are inf
        return ScheduleSums(
            sum_eta=float(etas.sum()),
            sum_eta_prev_cubed=float((prev ** 3).sum()),
            sum_xi_cubed=float((xi ** 3).sum()),
        )


@dataclass(frozen=True)
class StepCap:
    """Admissibility ceiling eta_t <= max_eta = 1/(L sqrt(constant))."""

    constant: float
    max_eta: float


def _check_cap_args(beta: float, theta: float, L: float):
    if not 0 <= beta < 1:
        raise ValueError(f"momentum weight must lie in [0, 1), got {beta}")
    if theta < 0:
        raise ValueError(f"theta must be nonnegative, got {theta}")
    if not L > 0:
        raise ValueError(f"L must be positive, got {L}")


def cap_general(beta: float, theta: float, L: float) -> StepCap:
    """Cap for arbitrary (deterministic or random) permutations."""
    _check_cap_args(beta, theta, L)
    K = max(2.5, 9.0 * (5.0 - 3.0 * beta) * (theta + 1.0) / (1.0 - beta))
    return StepCap(constant=K, max_eta=1.0 / (L * math.sqrt(K)))


def cap_rr(beta: float, theta: float, n: int, L: float) -> StepCap:
    """Cap for the randomized reshuffling strategy."""
    _check_cap_args(beta, theta, L)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    D = max(5.0 / 3.0, 6.0 * (5.0 - 3.0 * beta) * (theta + n) / (n * (1.0 - beta)))
    return StepCap(constant=D, max_eta=1.0 / (L * math.sqrt(D)))


def is_non_increasing(etas: np.ndarray, rel_tol: float = 1e-12) -> bool:
    etas = np.asarray(etas, dtype=float)
    if etas.size <= 1:
        return True
    scale = 1.0 + np.abs(etas[:-1])
    return bool(np.all(etas[1:] <= etas[:-1] + rel_tol * scale))
