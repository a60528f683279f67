"""Epoch-structured optimizers over finite-sum problems.

All methods run on one epoch driver: T epochs of n inner steps at per-step
rate eta_t/n, objective and squared full-gradient norm recorded at each
epoch start, and the output iterate sampled from the epoch-start points
with probability proportional to eta_t.  Methods differ only in the update
rule applied at each inner step.

Methods:

  smg_run    momentum anchored per epoch: the anchor m0 stays fixed through
             an epoch and is refreshed at the epoch boundary with the
             running average v of that epoch's component gradients,
                 m <- beta * m0 + (1 - beta) * g
                 v <- v + g / n
                 w <- w - (eta_t / n) * m
  ssmg_run   classical recursive momentum m <- beta m + (1 - beta) g under
             one permutation fixed for all epochs
  shuffling_sgd_run
             plain shuffling SGD, w <- w - (eta_t / n) * g
  sgdm_run / adam_run
             baselines consuming the same permutation streams

With beta = 0, smg_run and ssmg_run reduce exactly (bitwise) to plain
shuffling SGD.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problems import Problem
from .schedules import Schedule
from .shuffling import (
    ShufflingStrategy,
    init_point,
    permutation_for_epoch,
    select_output_index,
    selection_rng,
)

# keep full epoch-start snapshots only while T*d stays within this budget
SNAPSHOT_BUDGET = 1_000_000


class RunAborted(RuntimeError):
    """A non-finite iterate or objective value was produced."""

    def __init__(self, epoch: int, detail: str):
        self.epoch = epoch
        super().__init__(f"run aborted at epoch {epoch}: {detail}")


@dataclass
class EpochTrace:
    """Inner-loop instrumentation for identity checks on small instances."""

    permutation: np.ndarray
    gradients: np.ndarray                 # (n, d), g_0 .. g_{n-1}
    start_w: np.ndarray                   # w_tilde_{t-1}
    end_w: np.ndarray                     # w_tilde_t
    inner_iterates: np.ndarray            # (n + 1, d), w_0 .. w_n
    anchor: Optional[np.ndarray] = None   # SMG momentum anchor m0^{(t)}
    momenta: Optional[np.ndarray] = None  # SSMG m_1 .. m_n, shape (n, d)


@dataclass
class RunRecord:
    """Per-epoch trace of one optimizer run plus the sampled output iterate."""

    algo: str
    etas: np.ndarray
    losses: np.ndarray          # F(w_tilde_{t-1}) for t = 1..T
    grad_norms_sq: np.ndarray   # ||grad F(w_tilde_{t-1})||^2
    selected_index: int
    selected_w: np.ndarray
    final_w: np.ndarray
    seed: int
    beta: float
    strategy_kind: Optional[str] = None
    snapshots: Optional[list] = None      # w_tilde_0 .. w_tilde_{T-1} if small
    config_hash: Optional[str] = None
    epochs: Optional[list] = field(default=None, repr=False)

    @property
    def T(self) -> int:
        return int(self.etas.size)

    def weighted_grad_avg(self) -> float:
        """sum_t eta_t ||grad F(w_tilde_{t-1})||^2 / sum_t eta_t."""
        total = float(self.etas.sum())
        return float(np.dot(self.etas, self.grad_norms_sq)) / total


class _Rule:
    """Per-step update of one method, applied by the shared epoch driver.

    step(w, g, rate) updates w in place from the component gradient g at the
    epoch's per-step rate eta_t / n; end_epoch() runs after the n steps.  A
    rule that sets anchor (read at each epoch start) or momentum (read after
    each step) has those arrays recorded in the inner trace.
    """

    anchor = momentum = None

    def end_epoch(self):
        pass


class _Plain(_Rule):
    """Shuffling SGD: a step along the component gradient, no momentum."""

    beta = 0.0

    def step(self, w, g, rate):
        w -= rate * g


class _Anchored(_Rule):
    """smg: m = beta m0 + (1 - beta) g against an epoch-fixed anchor m0,
    refreshed at each epoch end with the epoch's average gradient v."""

    def __init__(self, n: int, d: int, beta: float):
        self.n, self.beta, self.c = n, beta, 1.0 - beta
        self.m0, self.v, self.m = np.zeros(d), np.zeros(d), np.empty(d)
        self.anchor = self.m0

    def step(self, w, g, rate):
        np.multiply(self.m0, self.beta, out=self.m)
        self.m += self.c * g
        self.v += g / self.n
        w -= rate * self.m

    def end_epoch(self):
        self.m0[:] = self.v
        self.v[:] = 0.0


class _Recursive(_Rule):
    """Momentum m <- beta m + c g carried across epoch boundaries."""

    def __init__(self, d: int, beta: float, c: float):
        self.beta, self.c = beta, c
        self.momentum = np.zeros(d)

    def step(self, w, g, rate):
        m = self.momentum
        m *= self.beta
        m += self.c * g
        w -= rate * m


class _Adam(_Rule):
    """Bias-corrected Adam at its own constant per-step rate lr."""

    def __init__(self, d: int, lr: float, beta1: float, beta2: float, eps: float):
        self.lr, self.beta, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v, self.k = np.zeros(d), np.zeros(d), 0

    def step(self, w, g, rate):
        self.k += 1
        self.m *= self.beta
        self.m += (1.0 - self.beta) * g
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * g * g
        m_hat = self.m / (1.0 - self.beta ** self.k)
        v_hat = self.v / (1.0 - self.beta2 ** self.k)
        w -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _drive(algo: str, problem: Problem, etas: np.ndarray,
           strategy: ShufflingStrategy, w0: Optional[np.ndarray], rule,
           inner_trace: bool = False, fixed_order: bool = False) -> RunRecord:
    """Run T = etas.size epochs of rule's update and record them.

    Each epoch evaluates F and grad F at its start point, then applies
    rule.step to the n component gradients taken along the epoch's
    permutation (the epoch-1 permutation throughout with fixed_order).
    """
    n, d, T = problem.n, problem.d, etas.size
    if w0 is None:
        w = init_point(d, strategy.seed)
    else:
        w = np.asarray(w0, dtype=float).copy()
        if w.shape != (d,):
            raise ValueError(
                f"initial point has shape {w.shape}, problem dimension is {d}"
            )
    losses = np.empty(T)
    grad_sq = np.empty(T)
    snapshots = [] if T * d <= SNAPSHOT_BUDGET else None
    selected_index = select_output_index(etas, selection_rng(strategy.seed))
    selected_w = None
    epochs = [] if inner_trace else None
    if fixed_order:
        perm = permutation_for_epoch(strategy, n, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            if not np.all(np.isfinite(w)):
                raise RunAborted(t, "non-finite iterate")
            loss = problem.full_value(w)
            grad = problem.full_grad(w)
            if not (np.isfinite(loss) and np.all(np.isfinite(grad))):
                raise RunAborted(t, "non-finite objective or gradient")
            losses[t - 1] = loss
            grad_sq[t - 1] = float(grad @ grad)
            if snapshots is not None:
                snapshots.append(w.copy())
            if t - 1 == selected_index:
                selected_w = w.copy()
            if not fixed_order:
                perm = permutation_for_epoch(strategy, n, t)
            rate = etas[t - 1] / n
            if inner_trace:
                grads = np.empty((n, d))
                inner = np.empty((n + 1, d))
                inner[0] = w
                anchor = None if rule.anchor is None else rule.anchor.copy()
                momenta = None if rule.momentum is None else np.empty((n, d))
            for i in range(n):
                g = problem.component_grad(w, int(perm[i]))
                rule.step(w, g, rate)
                if inner_trace:
                    grads[i] = g
                    inner[i + 1] = w
                    if momenta is not None:
                        momenta[i] = rule.momentum
            if not np.all(np.isfinite(w)):
                raise RunAborted(t, "non-finite iterate after inner loop")
            if inner_trace:
                epochs.append(EpochTrace(
                    permutation=perm, gradients=grads,
                    start_w=inner[0].copy(), end_w=w.copy(),
                    inner_iterates=inner, anchor=anchor, momenta=momenta,
                ))
            rule.end_epoch()
    return RunRecord(
        algo=algo, etas=etas, losses=losses, grad_norms_sq=grad_sq,
        selected_index=selected_index, selected_w=selected_w,
        final_w=w.copy(), seed=strategy.seed, beta=rule.beta,
        strategy_kind=strategy.kind, snapshots=snapshots, epochs=epochs,
    )


def _check_beta(beta: float):
    if not 0 <= beta < 1:
        raise ValueError(f"momentum weight must lie in [0, 1), got {beta}")


def smg_run(problem: Problem, schedule: Schedule, strategy: ShufflingStrategy,
            beta: float, w0: Optional[np.ndarray] = None,
            inner_trace: bool = False) -> RunRecord:
    """Shuffling gradient method with an epoch-fixed momentum anchor."""
    _check_beta(beta)
    return _drive("smg", problem, schedule.etas(), strategy, w0,
                  _Anchored(problem.n, problem.d, beta), inner_trace)


def ssmg_run(problem: Problem, schedule: Schedule, strategy: ShufflingStrategy,
             beta: float, w0: Optional[np.ndarray] = None,
             inner_trace: bool = False) -> RunRecord:
    """Recursive-momentum method under a single fixed permutation.

    The permutation is the strategy's epoch-1 permutation, reused for every
    epoch; the momentum buffer carries across epoch boundaries.
    """
    _check_beta(beta)
    return _drive("ssmg", problem, schedule.etas(), strategy, w0,
                  _Recursive(problem.d, beta, 1.0 - beta), inner_trace,
                  fixed_order=True)


def shuffling_sgd_run(problem: Problem, schedule: Schedule,
                      strategy: ShufflingStrategy,
                      w0: Optional[np.ndarray] = None,
                      inner_trace: bool = False) -> RunRecord:
    """Plain shuffling SGD: w <- w - (eta_t / n) g along each permutation."""
    return _drive("sgd", problem, schedule.etas(), strategy, w0, _Plain(),
                  inner_trace)


def sgdm_run(problem: Problem, schedule: Schedule, strategy: ShufflingStrategy,
             beta: float = 0.9, w0: Optional[np.ndarray] = None) -> RunRecord:
    """Heavy-ball baseline m <- beta m + g, w <- w - (eta_t/n) m.

    The momentum buffer persists across epochs, matching the common
    deep-learning-framework implementation.
    """
    _check_beta(beta)
    return _drive("sgdm", problem, schedule.etas(), strategy, w0,
                  _Recursive(problem.d, beta, 1.0))


def adam_run(problem: Problem, lr: float, T: int, strategy: ShufflingStrategy,
             w0: Optional[np.ndarray] = None, beta1: float = 0.9,
             beta2: float = 0.999, eps: float = 1e-8) -> RunRecord:
    """Adam baseline with bias correction, constant per-step rate lr.

    The recorded eta column holds lr for every epoch, so the output iterate
    is drawn uniformly over epoch starts.
    """
    if not lr > 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if T < 1:
        raise ValueError(f"need at least one epoch, got T={T}")
    return _drive("adam", problem, np.full(T, float(lr)), strategy, w0,
                  _Adam(problem.d, lr, beta1, beta2, eps))
