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
    rng = np.random.default_rng((strategy.seed, _PERM_DOMAIN, _epoch_key(strategy, t)))
    return rng.permutation(n)


def _epoch_key(strategy: ShufflingStrategy, t: int) -> int:
    # shuffle-once reuses the stream's first permutation at every epoch
    return 1 if strategy.kind == SHUFFLE_ONCE else t


def permutations(strategies, n: int, t: int) -> np.ndarray:
    """(n, S) array whose column j is permutation_for_epoch(strategies[j], n, t).

    Seeding a generator costs more than drawing a short permutation, and
    building one SeedSequence per key costs about as much, so the seeded
    columns hash their SeedSequence keys at once (_pcg64_states) and draw
    from one generator whose state is set to each key's in turn.
    Incremental order is the identity, and a seed of more than one 32-bit
    word takes permutation_for_epoch itself.
    """
    if n < 1:
        raise ValueError(f"need at least one component, got n={n}")
    if t < 1:
        raise ValueError(f"epoch index must be >= 1, got {t}")
    out = np.empty((n, len(strategies)), dtype=np.int64)
    hashed = []
    for j, s in enumerate(strategies):
        if s.kind != INCREMENTAL and s.seed < 2**32 and t < 2**32:
            hashed.append(j)
        else:
            out[:, j] = permutation_for_epoch(s, n, t)
    if hashed:
        keys = [(strategies[j].seed, _epoch_key(strategies[j], t)) for j in hashed]
        rng = np.random.default_rng(0)
        bit_generator = rng.bit_generator
        for j, (state, inc) in zip(hashed, _pcg64_states(keys)):
            bit_generator.state = {"bit_generator": "PCG64",
                                   "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            out[:, j] = rng.permutation(n)
    return out


def _pcg64_states(keys) -> list:
    """The (state, inc) of PCG64(SeedSequence((seed, _PERM_DOMAIN, epoch_key)))
    for each (seed, epoch_key) of keys, both below 2**32.

    It repeats numpy's SeedSequence on uint32 arrays, one row per key: the
    three entropy words (the fourth pool word hashes a zero) are mixed into
    a pool of four words, the pool gives generate_state(4, uint64), and the
    four 64-bit words seed PCG64 as pcg64_set_seed does.
    """
    INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
    MIX_L, MIX_R, MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF
    words = np.zeros((4, len(keys)), dtype=np.uint32)
    words[0], words[2] = np.array(keys, dtype=np.uint32).T
    words[1] = _PERM_DOMAIN
    h = INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * MULT_A & MASK
        v *= np.uint32(h)
        return v ^ (v >> 16)

    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                x = pool[dst] * np.uint32(MIX_L) - hashmix(pool[src]) * np.uint32(MIX_R)
                pool[dst] = x ^ (x >> 16)
    state = np.empty((len(keys), 8), dtype=np.uint32)
    h = INIT_B
    for i in range(8):
        v = pool[i % 4] ^ np.uint32(h)
        h = h * MULT_B & MASK
        v *= np.uint32(h)
        state[:, i] = v ^ (v >> 16)
    # generate_state pairs the words little-endian on every host: seed high,
    # low, then inc high, low
    mult, mask = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
    out = []
    for u0, u1, u2, u3 in state.astype("<u4").view("<u8").tolist():
        inc = ((u2 << 64 | u3) << 1 | 1) & mask
        out.append((((inc + (u0 << 64 | u1)) * mult + inc) & mask, inc))
    return out


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
