"""Permutation generation and weighted output-iterate selection.

Three strategies are supported: randomized reshuffling (a fresh uniform
permutation each epoch), shuffle-once (one seeded permutation reused every
epoch), and incremental (the identity order every epoch).

All randomness flows through numpy's PCG64 generator seeded with
SeedSequence tuples, so the permutation for epoch t is reproducible out of
order from (seed, kind, n, t) alone.  Permutations are 0-based indices into
the component list.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANDOM_RESHUFFLING = "rr"
SHUFFLE_ONCE = "once"
INCREMENTAL = "inc"
STRATEGY_KINDS = (RANDOM_RESHUFFLING, SHUFFLE_ONCE, INCREMENTAL)

# disjoint SeedSequence domains so permutations, the initial point, and
# output selection never share a stream
_PERM_DOMAIN = 0
_INIT_DOMAIN = 1
_SELECT_DOMAIN = 2


@dataclass(frozen=True)
class ShufflingStrategy:
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(
                f"unknown shuffling kind {self.kind!r}, expected one of {STRATEGY_KINDS}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def permutation_for_epoch(strategy: ShufflingStrategy, n: int, t: int) -> np.ndarray:
    """Permutation of range(n) used at epoch t (t >= 1)."""
    if n < 1:
        raise ValueError(f"need at least one component, got n={n}")
    if t < 1:
        raise ValueError(f"epoch index must be >= 1, got {t}")
    if strategy.kind == INCREMENTAL:
        return np.arange(n)
    # shuffle-once reuses the stream's first permutation at every epoch
    epoch_key = 1 if strategy.kind == SHUFFLE_ONCE else t
    rng = np.random.default_rng((strategy.seed, _PERM_DOMAIN, epoch_key))
    return rng.permutation(n)


def init_point(d: int, seed: int, scale: float = 0.01) -> np.ndarray:
    """Default initial iterate: seeded standard normal scaled down."""
    rng = np.random.default_rng((seed, _INIT_DOMAIN))
    return scale * rng.standard_normal(d)


def selection_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng((seed, _SELECT_DOMAIN))


def select_output_index(etas: np.ndarray, rng: np.random.Generator) -> int:
    """Sample an epoch index with probability proportional to its step size.

    Individual weights may be zero (a zero-step final epoch gets zero
    selection probability); negative weights, an all-zero vector and a
    non-finite sum are rejected.
    """
    etas = np.asarray(etas, dtype=float)
    if etas.size == 0:
        raise ValueError("cannot select an output iterate from zero epochs")
    if np.any(etas < 0):
        raise ValueError("step-size weights must be nonnegative")
    total = float(etas.sum())
    if not 0 < total < np.inf:
        raise ValueError(f"step-size weights must have a finite positive sum, got {total}")
    p = etas / total
    # guard against rounding drift before handing to the sampler
    if not abs(float(p.sum()) - 1.0) <= 1e-15:
        raise ValueError(f"step-size weights do not normalise to one: {p.sum()}")
    return int(rng.choice(etas.size, p=p))
