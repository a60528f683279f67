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

ensemble_run advances several runs in lockstep.  Every run is a row of one
(R, d) iterate matrix, with its own permutation stream, and its rates and
momentum weight along its row of (R, d) coefficient arrays.  Epoch starts
take the batched full pass; inner steps take the batched component
gradient, or the scalar one for a single run.  The batched oracles repeat
the scalar steps, so each run gets the record its separate run gives.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .problems import Problem
from .schedules import Schedule
from .shuffling import (
    RANDOM_RESHUFFLING,
    ShufflingStrategy,
    init_point,
    permutations,
    select_output_index,
    selection_rng,
)

# keep the runs' full epoch-start snapshots only while R*T*d stays within this budget
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

    step(W, G, rate) updates the (R, d) iterate matrix W in place from the
    component gradients G, one run per row, at the per-step rates eta_t / n,
    and never writes into G; start_epoch(W, order) and end_epoch() run
    before and after an epoch's steps along order.  Every coefficient a rule
    applies to a run (rate, momentum weight, Adam's lr and bias correction)
    comes as an (R, d) array holding the run's value along its row, so each
    operation is elementwise on operands of one shape, into scratch arrays
    allocated once.  A rule that sets anchor (read at each epoch start) or
    momentum (read after each step) has row 0 of those arrays recorded in
    the inner trace.
    """

    anchor = momentum = None

    def start_epoch(self, W, order):
        pass

    def end_epoch(self):
        pass


class _Plain(_Rule):
    """Shuffling SGD: a step along the component gradient, no momentum."""

    def __init__(self, like: np.ndarray):
        self.u = np.empty_like(like)

    def step(self, W, G, rate):
        np.subtract(W, np.multiply(G, rate, self.u), W)


class _Anchored(_Rule):
    """smg: m = beta m0 + (1 - beta) g against an epoch-fixed anchor m0,
    refreshed at each epoch end with the epoch's average gradient v."""

    def __init__(self, n: int, beta: np.ndarray):
        self.n, self.beta, self.c = n, beta, 1.0 - beta
        self.m0, self.v = np.zeros_like(beta), np.zeros_like(beta)
        self.beta_m0 = self.m0 * beta           # fixed through an epoch
        self.m, self.u = np.empty_like(beta), np.empty_like(beta)
        self.anchor = self.m0

    def step(self, W, G, rate):
        m, u = self.m, self.u
        np.add(self.beta_m0, np.multiply(G, self.c, m), m)
        np.add(self.v, np.divide(G, self.n, u), self.v)
        np.subtract(W, np.multiply(m, rate, u), W)

    def end_epoch(self):
        self.m0[:] = self.v
        np.multiply(self.m0, self.beta, self.beta_m0)
        self.v[:] = 0.0


class _Recursive(_Rule):
    """Momentum m <- beta m + c g carried across epoch boundaries."""

    def __init__(self, beta: np.ndarray, c: np.ndarray):
        self.beta, self.c = beta, c
        self.momentum, self.u = np.zeros_like(beta), np.empty_like(beta)

    def step(self, W, G, rate):
        m, u = self.momentum, self.u
        np.add(np.multiply(m, self.beta, m), np.multiply(G, self.c, u), m)
        np.subtract(W, np.multiply(m, rate, u), W)


class _Adam(_Rule):
    """Bias-corrected Adam at each run's constant per-step rate lr."""

    def __init__(self, lr: np.ndarray, beta: np.ndarray, beta2: float, eps: float):
        self.lr, self.beta, self.c = lr, beta, 1.0 - beta
        self.beta1 = beta[:, 0].tolist()   # for float powers, as Python takes them
        self.beta2, self.c2, self.eps = beta2, 1.0 - beta2, eps
        self.m, self.v, self.k = np.zeros_like(beta), np.zeros_like(beta), 0
        self.u, self.s, self.bias = np.empty_like(beta), np.empty_like(beta), np.empty_like(beta)

    def step(self, W, G, rate):
        self.k += 1
        m, v, u, s = self.m, self.v, self.u, self.s
        np.add(np.multiply(m, self.beta, m), np.multiply(G, self.c, u), m)
        np.add(np.multiply(v, self.beta2, v), np.multiply(np.multiply(G, self.c2, u), G, u), v)
        self.bias.T[...] = [1.0 - b ** self.k for b in self.beta1]   # run r's along row r
        np.divide(m, self.bias, u)                                    # m_hat
        np.sqrt(np.divide(v, 1.0 - self.beta2 ** self.k, s), s)       # sqrt(v_hat)
        np.divide(np.multiply(u, self.lr, u), np.add(s, self.eps, s), u)
        np.subtract(W, u, W)


class _Traced(_Rule):
    """Another rule's steps on a single run, recording an EpochTrace of each
    completed epoch in epochs."""

    def __init__(self, rule: _Rule):
        self.rule, self.epochs = rule, []

    def start_epoch(self, W, order):
        self.order, self.anchor_at_start = np.array(order), _row0(self.rule.anchor)
        self.steps = [(W[0].copy(), None, None)]   # (iterate, gradient, momentum)
        self.rule.start_epoch(W, order)

    def step(self, W, G, rate):
        self.rule.step(W, G, rate)
        self.steps.append((W[0].copy(), G[0].copy(), _row0(self.rule.momentum)))

    def end_epoch(self):
        inner, gradients, momenta = zip(*self.steps)
        self.epochs.append(EpochTrace(
            permutation=self.order, gradients=np.array(gradients[1:]),
            start_w=inner[0], end_w=inner[-1].copy(), inner_iterates=np.array(inner),
            anchor=self.anchor_at_start,
            momenta=None if momenta[-1] is None else np.array(momenta[1:])))
        self.rule.end_epoch()


def _row0(a: Optional[np.ndarray]) -> Optional[np.ndarray]:
    return None if a is None else a[0].copy()


def _rows(values, d: int) -> np.ndarray:
    """An (R, d) array holding values[k] along row k."""
    return np.repeat(np.asarray(values, dtype=float)[:, None], d, axis=1)


def _drive(algo: str, problem: Problem, etas: np.ndarray,
           strategies: Sequence[ShufflingStrategy], betas: list,
           w0: Optional[np.ndarray], rule: _Rule, fixed_order: bool = False) -> list:
    """Run T epochs of rule's update, one run per strategy.

    Run k takes its per-epoch rates from row k of the (R, T) array etas,
    and records betas[k] as its momentum weight.  Each epoch evaluates F and
    grad F at its start point, then applies rule.step to the n component
    gradients taken along the epoch's permutation.  Reshuffling takes a
    fresh permutation every epoch; with fixed_order, or under shuffle-once
    or incremental order, the epoch-1 permutation serves every epoch.  Runs
    with equal strategies share one permutation per epoch.

    The rule moves the (R, d) iterate matrix W, and every epoch start
    evaluates the batched full pass on W, value and gradient at once.  R
    decides only the step oracle: one strategy takes the scalar component
    gradient of the view W[0], into one buffer, at indices given as Python
    ints; R > 1 strategies run in lockstep, one batched oracle call on W per
    inner index.  Each epoch's permutations come from one call of
    shuffling.permutations.  A run that produces a non-finite value aborts
    as it would alone, and the others go on.  Returns each run's RunRecord,
    or the RunAborted of its first failed check.
    """
    n, d, (R, T) = problem.n, problem.d, etas.shape
    if w0 is None:
        W = np.array([init_point(d, s.seed) for s in strategies])
    else:
        w0 = np.asarray(w0, dtype=float)
        if w0.shape != (d,):
            raise ValueError(f"initial point has shape {w0.shape}, problem dimension is {d}")
        W = np.tile(w0, (R, 1))
    # column j of an epoch's (n, S) permutations serves every run of shared[j]
    shared = {s: j for j, s in enumerate(dict.fromkeys(strategies))}
    columns = np.array([shared[s] for s in strategies])
    G = np.empty((1, d))   # a single run's component gradient, written in place

    losses = np.empty((R, T))
    grad_sq = np.empty((R, T))
    snapshots = np.empty((R, T, d)) if R * T * d <= SNAPSHOT_BUDGET else None
    selected = np.array([select_output_index(etas[k], selection_rng(s.seed))
                         for k, s in enumerate(strategies)])
    selected_w = np.empty((R, d))
    aborted = {}   # run -> RunAborted of its first failed check

    def check(ok, t, detail):
        """Record the runs failing ok; False once every run has failed."""
        for k in np.flatnonzero(~ok):
            aborted.setdefault(int(k), RunAborted(t, detail))
        return len(aborted) < R

    reshuffle = not fixed_order and any(s.kind == RANDOM_RESHUFFLING
                                        for s in strategies)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, T + 1):
            if not check(np.isfinite(W).all(axis=1), t, "non-finite iterate"):
                break
            loss, grad = problem.batch_full_pass(W)
            if not check(np.isfinite(loss) & np.isfinite(grad).all(axis=1), t,
                         "non-finite objective or gradient"):
                break
            losses[:, t - 1] = loss
            # a stacked matmul takes each run's grad @ grad
            grad_sq[:, t - 1] = np.matmul(grad[:, None, :], grad[:, :, None])[:, 0, 0]
            if snapshots is not None:
                snapshots[:, t - 1] = W
            chosen = selected == t - 1
            selected_w[chosen] = W[chosen]
            if t == 1 or reshuffle:
                perms = permutations(list(shared), n, t)
                # a single run indexes its rows by Python ints
                order = perms[:, 0].tolist() if R == 1 else perms
            rate = _rows(etas[:, t - 1] / n, d)
            rule.start_epoch(W, order)
            step = rule.step
            if R == 1:   # the scalar oracle on the view W[0], into row 0 of G
                grad, w, g = problem.component_grad, W[0], G[0]
                for i in order:
                    grad(w, i, g)
                    step(W, G, rate)
            else:        # the batched oracle on W, at each run's permutation column
                grads = problem.batch_component_grad
                for perm_row in order:
                    step(W, grads(W, perm_row[columns]), rate)
            if not check(np.isfinite(W).all(axis=1), t,
                         "non-finite iterate after inner loop"):
                break
            rule.end_epoch()
    return [aborted[k] if k in aborted else RunRecord(
        algo=algo, etas=etas[k], losses=losses[k], grad_norms_sq=grad_sq[k],
        selected_index=int(selected[k]), selected_w=selected_w[k],
        final_w=W[k].copy(), seed=s.seed, beta=betas[k], strategy_kind=s.kind,
        snapshots=None if snapshots is None else list(snapshots[k]),
        epochs=getattr(rule, "epochs", None),
    ) for k, s in enumerate(strategies)]


def ensemble_outcomes(algo: str, problem: Problem, etas,
                      strategies: Sequence[ShufflingStrategy], beta,
                      w0: Optional[np.ndarray] = None, inner_trace: bool = False,
                      beta2: float = 0.999, eps: float = 1e-8) -> list:
    """Runs of algo ("smg", "ssmg", "sgd", "sgdm" or "adam"), one per strategy.

    etas holds the per-epoch rates, (T,) shared or (R, T) one row per run
    (Adam takes a row's first entry as its constant per-step rate); beta the
    momentum weight (Adam's beta1; sgd has none), shared or one per run; w0
    the starting point shared by every run, each run's init_point when None.
    Several strategies advance in lockstep, and each outcome equals that of
    the run's own *_run call: its RunRecord, or the RunAborted it raises.
    """
    R = len(strategies)
    if not R:
        raise ValueError("need at least one strategy")
    # C order: np.dot over a record's row of etas sums as over a (T,) array
    etas = np.array(np.broadcast_to(etas, (R, np.shape(etas)[-1])), float, order="C")
    betas = [0.0] * R if algo == "sgd" else [float(b) for b in np.broadcast_to(beta, R)]
    bad = [b for b in betas if not 0 <= b < 1]
    if bad and algo in ("smg", "ssmg", "sgdm"):
        raise ValueError(f"momentum weight must lie in [0, 1), got {bad[0]}")
    beta = _rows(betas, problem.d)
    if algo == "smg":
        rule = _Anchored(problem.n, beta)
    elif algo == "ssmg":
        rule = _Recursive(beta, 1.0 - beta)
    elif algo == "sgdm":
        rule = _Recursive(beta, np.ones_like(beta))
    elif algo == "sgd":
        rule = _Plain(beta)
    elif algo == "adam":
        rule = _Adam(_rows(etas[:, 0], problem.d), beta, beta2, eps)
    else:
        raise ValueError(f"unknown method {algo!r}")
    if inner_trace:
        if R > 1:
            raise ValueError("inner traces are recorded for single runs only")
        rule = _Traced(rule)
    return _drive(algo, problem, etas, strategies, betas, w0, rule,
                  fixed_order=algo == "ssmg")


def ensemble_run(algo: str, problem: Problem, etas,
                 strategies: Sequence[ShufflingStrategy], beta,
                 w0: Optional[np.ndarray] = None, inner_trace: bool = False,
                 beta2: float = 0.999, eps: float = 1e-8) -> list[RunRecord]:
    """The records of ensemble_outcomes; if a run aborts, the RunAborted of
    the first aborted run in strategy order, the one a loop would meet first."""
    outcomes = ensemble_outcomes(algo, problem, etas, strategies, beta, w0,
                                 inner_trace, beta2, eps)
    for outcome in outcomes:
        if isinstance(outcome, RunAborted):
            raise outcome
    return outcomes


def smg_run(problem: Problem, schedule: Schedule, strategy: ShufflingStrategy,
            beta: float, w0: Optional[np.ndarray] = None,
            inner_trace: bool = False) -> RunRecord:
    """Shuffling gradient method with an epoch-fixed momentum anchor."""
    return ensemble_run("smg", problem, schedule.etas(), [strategy], beta, w0,
                        inner_trace)[0]


def ssmg_run(problem: Problem, schedule: Schedule, strategy: ShufflingStrategy,
             beta: float, w0: Optional[np.ndarray] = None,
             inner_trace: bool = False) -> RunRecord:
    """Recursive-momentum method under a single fixed permutation.

    The permutation is the strategy's epoch-1 permutation, reused for every
    epoch; the momentum buffer carries across epoch boundaries.
    """
    return ensemble_run("ssmg", problem, schedule.etas(), [strategy], beta, w0,
                        inner_trace)[0]


def shuffling_sgd_run(problem: Problem, schedule: Schedule,
                      strategy: ShufflingStrategy,
                      w0: Optional[np.ndarray] = None,
                      inner_trace: bool = False) -> RunRecord:
    """Plain shuffling SGD: w <- w - (eta_t / n) g along each permutation."""
    return ensemble_run("sgd", problem, schedule.etas(), [strategy], 0.0, w0,
                        inner_trace)[0]


def sgdm_run(problem: Problem, schedule: Schedule, strategy: ShufflingStrategy,
             beta: float = 0.9, w0: Optional[np.ndarray] = None) -> RunRecord:
    """Heavy-ball baseline m <- beta m + g, w <- w - (eta_t/n) m.

    The momentum buffer persists across epochs, matching the common
    deep-learning-framework implementation.
    """
    return ensemble_run("sgdm", problem, schedule.etas(), [strategy], beta, w0)[0]


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
    return ensemble_run("adam", problem, np.full(T, float(lr)), [strategy], beta1,
                        w0, beta2=beta2, eps=eps)[0]
