"""Finite-sum minimization problems with certified constants.

A problem bundles the mean objective F(w) = (1/n) sum_i f(w; i), per-component
gradient oracles, and constants certifying smoothness, gradient boundedness,
and the variance inequality

    (1/n) sum_i ||grad f(w;i) - grad F(w)||^2 <= theta ||grad F(w)||^2 + sigma_sq.

Two families are provided: binary logistic regression with a bounded nonconvex
regularizer, and a quadratic mean-of-components fixture whose constants are
exact, for bound audits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# max of |w|/(1+w^2)^2 over the reals, attained at |w| = 1/sqrt(3)
REG_GRAD_PEAK = 3.0 * math.sqrt(3.0) / 16.0

# a batched full pass takes members in chunks whose (members x stored
# entries) temporaries stay within this many elements: it bounds memory,
# and on a 2-vCPU VM passes with temporaries of this size ran as fast as
# the scalar passes, where temporaries of millions of elements ran 2x slower
BATCH_BUDGET = 65_536


class DimensionMismatch(ValueError):
    """A sample feature index falls outside the dataset's dimension."""

    def __init__(self, index: int, dimension: int):
        self.index = index
        self.dimension = dimension
        super().__init__(
            f"feature index {index} exceeds problem dimension {dimension}"
        )


@dataclass(frozen=True)
class ProblemConstants:
    """Certified constants for a finite-sum problem.

    L is a smoothness constant valid for every component, G bounds every
    component gradient norm (math.inf when no finite bound is certified),
    (theta, sigma_sq) certify the variance inequality, and f_lower is a
    lower bound on the objective (not necessarily tight).
    """

    L: float
    G: float
    theta: float
    sigma_sq: float
    f_lower: float

    def __post_init__(self):
        if not self.L > 0:
            raise ValueError(f"L must be positive, got {self.L}")
        if self.theta < 0:
            raise ValueError(f"theta must be nonnegative, got {self.theta}")
        if self.sigma_sq < 0:
            raise ValueError(f"sigma_sq must be nonnegative, got {self.sigma_sq}")
        if not self.G > 0:
            raise ValueError(f"G must be positive or inf, got {self.G}")

    @property
    def has_finite_G(self) -> bool:
        return math.isfinite(self.G)


@dataclass(frozen=True)
class SparseSample:
    """One labeled sparse example: label in {-1, +1}, features as sorted
    (1-based index, value) pairs with strictly increasing indices.  Indexing
    or iterating a SparseDataset gives its rows in this form."""

    label: int
    features: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if self.label not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.label}")
        prev = 0
        for idx, _ in self.features:
            if idx <= prev:
                raise ValueError(
                    f"feature indices must be strictly increasing and >= 1, "
                    f"got {idx} after {prev}"
                )
            prev = idx


@dataclass(frozen=True, eq=False)
class SparseDataset:
    """Labeled sparse rows in compressed sparse row (CSR) form.

    Row i holds the 0-based columns indices[indptr[i]:indptr[i + 1]], which
    strictly increase, with the matching entries of values, and the label
    labels[i] in {-1, +1}.  Every column lies below the dimension d, which
    may exceed the largest column used.  The arrays are coerced to int64
    (indptr, indices, labels) and float64 (values) and validated once here.
    len() counts rows; indexing and iteration give SparseSample rows with
    1-based indices.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    d: int

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("indices", np.int64),
                            ("values", np.float64), ("labels", np.int64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        object.__setattr__(self, "d", int(self.d))
        indptr, indices, n = self.indptr, self.indices, self.labels.size
        lengths = np.diff(indptr)
        if (self.labels.ndim != 1 or indptr.shape != (n + 1,) or indptr[0] != 0
                or np.any(lengths < 0) or indptr[-1] != indices.size
                or indices.ndim != 1 or self.values.shape != indices.shape):
            raise ValueError("malformed CSR arrays: need indptr of length n + 1 "
                             "rising from 0 to the entry count of indices and values")
        if np.any(np.abs(self.labels) != 1):
            raise ValueError("labels must be -1 or +1")
        if self.d < 0:
            raise ValueError(f"dimension must be nonnegative, got {self.d}")
        if indices.size:
            # a step between neighbouring entries of one row must rise
            within = np.ones(indices.size, dtype=bool)
            within[indptr[:-1][lengths > 0]] = False
            if indices.min() < 0 or np.any(np.diff(indices)[within[1:]] <= 0):
                raise ValueError("column indices must be nonnegative and strictly "
                                 "increasing within each row")
            if indices.max() >= self.d:
                raise DimensionMismatch(int(indices.max()) + 1, self.d)

    def __len__(self) -> int:
        return self.labels.size

    def __getitem__(self, i: int) -> SparseSample:
        i = range(len(self))[i]
        lo, hi = self.indptr[i], self.indptr[i + 1]
        features = zip((self.indices[lo:hi] + 1).tolist(), self.values[lo:hi].tolist())
        return SparseSample(label=int(self.labels[i]), features=tuple(features))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def row_ids(self) -> np.ndarray:
        """The row of every stored entry, in storage order."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))


@dataclass(frozen=True)
class Problem:
    """Finite-sum objective with component oracles and certified constants.

    component_grad(w, i, out=None) returns the gradient of component i,
    written into out when one is given.  The batch_ oracles serve R runs at
    once: they take an (R, d) matrix W holding one iterate per row and
    return one result per row, batch_component_grad(W, ids) the gradient of
    component ids[r] at W[r], and batch_full_pass(W) the pair (F(W[r]) for
    every r, grad F(W[r]) as row r), one pass that shares its work between
    the two; full_value(w) and full_grad(w) are the one row of that pass
    over w.  Immutable after construction;
    the callables are pure and safe to invoke concurrently, each with its
    own out.
    """

    n: int
    d: int
    component_value: Callable[[np.ndarray, int], float]
    component_grad: Callable[..., np.ndarray]
    full_value: Callable[[np.ndarray], float]
    full_grad: Callable[[np.ndarray], np.ndarray]
    constants: ProblemConstants
    batch_component_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    batch_full_pass: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if self.n < 1 or self.d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")


# ---------------------------------------------------------------------------
# Nonconvex-regularized logistic regression
#
#   f(w; i) = log(1 + exp(-y_i x_i^T w)) + lam * r(w),
#   r(w) = (1/2) sum_j w_j^2 / (1 + w_j^2).
# ---------------------------------------------------------------------------

def regularizer_value(w: np.ndarray) -> float:
    wsq = w * w
    return 0.5 * float(np.sum(wsq / (1.0 + wsq)))


def regularizer_grad(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """r'(w) = w / (1 + w^2)^2, written into out when given."""
    out = np.multiply(w, w, out)
    return np.divide(w, np.square(np.add(out, 1.0, out), out), out)


def _one_iterate(batch_full_pass: Callable) -> tuple:
    """full_value and full_grad of one (d,) iterate w: the one row of the
    batched pass over w[None], the value as a Python float."""
    return (lambda w: float(batch_full_pass(w[None])[0][0]),
            lambda w: batch_full_pass(w[None])[1][0])


def _logistic_weight(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)) elementwise, by the scalar steps of a component
    gradient: math.exp of -|z| <= 0, so nothing overflows."""
    e = np.fromiter(map(math.exp, (-np.abs(z)).tolist()), float, z.size)
    return np.where(z >= 0, e, 1.0) / (1.0 + e)


def logistic_constants(dataset: SparseDataset, lam: float) -> ProblemConstants:
    """Conservative certificates for the regularized logistic objective.

    The logistic curvature is at most 1/4 and |r''| <= 1, so
    L = 0.25 max_i ||x_i||^2 + lam.  |r'| peaks at 3 sqrt(3)/16 per
    coordinate, so G = max_i ||x_i|| + lam * (3 sqrt(3)/16) * sqrt(d).
    The variance pair is theta = 0, sigma_sq = 4 G^2 (triangle inequality),
    and f_lower = 0 since both terms of f are nonnegative.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot certify constants for an empty dataset")
    values = dataset.values
    sq_norms = np.bincount(dataset.row_ids(), weights=values * values, minlength=n)
    max_norm = math.sqrt(sq_norms.max())
    L = 0.25 * max_norm ** 2 + lam
    G = max_norm + lam * REG_GRAD_PEAK * math.sqrt(dataset.d)
    return ProblemConstants(L=L, G=G, theta=0.0, sigma_sq=4.0 * G * G, f_lower=0.0)


def logistic_problem(dataset: SparseDataset, lam: float = 0.01) -> Problem:
    """Build the regularized logistic-regression problem over a dataset.

    A component oracle gathers its one row of the CSR arrays.  The full
    pass takes the members of an (R, d) iterate matrix in chunks within
    BATCH_BUDGET and computes their margins y_i x_i^T w once, then the
    values and X^T s, with np.bincount, which adds the entries of each row
    (and of each column) in storage order; each member has bins of its own,
    so its sums do not depend on R, and full_value and full_grad are the
    pass at R = 1.  The batched component gradient repeats component_grad's
    floating-point steps, so a member's gradient equals component_grad's bit
    for bit.  When every row stores the same number of entries it gathers
    the members' rows as one block; otherwise it gathers each member's row,
    whatever its length, without padding.
    """
    n, d = len(dataset), dataset.d
    if n == 0:
        raise ValueError("cannot build a problem from an empty dataset")
    if d < 1:
        raise ValueError("dataset has no features; dimension would be zero")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    indptr = dataset.indptr.tolist()
    indices, values = dataset.indices, dataset.values
    starts = dataset.indptr
    y = dataset.labels.astype(float)
    ys = y.tolist()
    rows = dataset.row_ids()

    def component_value(w, i):
        lo, hi = indptr[i], indptr[i + 1]
        z = ys[i] * (values[lo:hi] @ w[indices[lo:hi]])
        return float(np.logaddexp(0.0, -z)) + lam * regularizer_value(w)

    def component_grad(w, i, out=None):
        # -y s x + lam r'(w) with s = 1 / (1 + exp(z)), z = y x^T w
        lo, hi = indptr[i], indptr[i + 1]
        cols, vals = indices[lo:hi], values[lo:hi]
        z = ys[i] * vals.dot(w.take(cols))
        # scalar math is cheaper than a numpy call here; exponents stay <= 0
        if z >= 0:
            e = math.exp(-z)
            s = e / (1.0 + e)
        else:
            s = 1.0 / (1.0 + math.exp(z))
        g = regularizer_grad(w, out)
        np.multiply(g, lam, g)
        g[cols] -= (ys[i] * s) * vals
        return g

    def equal_rows_grad(W, ids):
        # every row stores L entries: the members' rows form one (R, L) block
        W = np.ascontiguousarray(W)   # its flattening is a view
        flat = row_cols[ids] + d * np.arange(len(W))[:, None]   # entries of W.ravel()
        vals = row_vals[ids]
        # a stacked matmul forms each x^T w with the dot product component_grad uses
        dots = np.matmul(vals[:, None, :], W.ravel()[flat][:, :, None])[:, 0, 0]
        yi = y[ids]
        G = lam * regularizer_grad(W)
        G.ravel()[flat] -= (yi * _logistic_weight(yi * dots))[:, None] * vals
        return G

    def ragged_rows_grad(W, ids):
        W = np.ascontiguousarray(W)   # its flattening is a view
        R = len(W)
        lo = starts[ids]
        lengths = starts[ids + 1] - lo
        # gather the rows with the members ordered by row length, so the
        # members of one length hold one contiguous block of entries
        order = np.argsort(lengths, kind="stable")
        counts = lengths[order]
        member = np.repeat(order, counts)
        ends = np.cumsum(counts)
        pos = np.arange(member.size) + np.repeat(lo[order] - ends + counts, counts)
        flat = member * d + indices[pos]   # entries of the flattened (R, d)
        vals, ws = values[pos], W.ravel()[flat]
        # a stacked matmul per block forms each x^T w with the dot product
        # component_grad uses
        dots = np.empty(R)
        firsts = [0] + (np.flatnonzero(np.diff(counts)) + 1).tolist()
        counts, ends = counts.tolist(), ends.tolist()
        for a, b in zip(firsts, firsts[1:] + [R]):
            length, stop = counts[a], ends[b - 1]
            start = stop - (b - a) * length
            dots[order[a:b]] = np.matmul(vals[start:stop].reshape(b - a, 1, length),
                                         ws[start:stop].reshape(b - a, length, 1))[:, 0, 0]
        yi = y[ids]
        G = lam * regularizer_grad(W)
        G.ravel()[flat] -= (yi * _logistic_weight(yi * dots))[member] * vals
        return G

    row_lengths = np.diff(starts)
    if np.all(row_lengths == row_lengths[0]):
        shape = (n, int(row_lengths[0]))
        row_cols, row_vals = indices.reshape(shape), values.reshape(shape)
        batch_component_grad = equal_rows_grad
    else:
        batch_component_grad = ragged_rows_grad

    # members per chunk of a full pass, whose temporaries stay within the budget
    size = max(1, BATCH_BUDGET // max(1, values.size))

    def member_bins(ids, width, R):
        # bin r * width + ids[k] takes member r's entry k; one member's bins
        # are ids themselves, and R members' stay within the budget
        return ids if R == 1 else (ids + width * np.arange(R)[:, None]).ravel()

    def batch_margins(W):
        # bin r * n + i adds member r's entries of row i in storage order
        R = len(W)
        # the weights come first, so their gather is freed before the bins exist
        weights = (values * np.take(W, indices, axis=1)).ravel()
        return y * np.bincount(member_bins(rows, n, R), weights, R * n).reshape(R, n)

    def full_pass(W):
        R = len(W)
        wsq = W * W
        margins = batch_margins(W)
        losses = np.mean(np.logaddexp(0.0, -margins), axis=1)
        losses += lam * (0.5 * np.sum(wsq / (1.0 + wsq), axis=1))
        # exp(-logaddexp(0, z)) is 1 / (1 + exp(z)) without overflow
        coef = -y * np.exp(-np.logaddexp(0.0, margins))
        weights = (np.take(coef, rows, axis=1) * values).ravel()   # first, as above
        G = np.bincount(member_bins(indices, d, R), weights, R * d).reshape(R, d)
        G /= n
        G += lam * regularizer_grad(W)
        return losses, G

    def batch_full_pass(W):
        if len(W) <= size:
            return full_pass(W)
        parts = [full_pass(W[k:k + size]) for k in range(0, len(W), size)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    full_value, full_grad = _one_iterate(batch_full_pass)
    return Problem(
        n=n, d=d,
        component_value=component_value,
        component_grad=component_grad,
        full_value=full_value,
        full_grad=full_grad,
        constants=logistic_constants(dataset, lam),
        batch_component_grad=batch_component_grad,
        batch_full_pass=batch_full_pass,
    )


# ---------------------------------------------------------------------------
# Quadratic mean-of-components fixture
#
#   f(w; i) = (1/2) (w - c_i)^T A (w - c_i)
#
# Component-gradient deviations A(cbar - c_i) are constant in w, so
# theta = 0 and sigma_sq is exact; the minimizer is cbar and F* = F(cbar).
# ---------------------------------------------------------------------------

def quadratic_mean_problem(centers: Sequence[np.ndarray] | np.ndarray,
                           curvature: np.ndarray) -> Problem:
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    A = np.asarray(curvature, dtype=float)
    n, d = centers.shape
    if A.shape != (d, d):
        raise ValueError(f"curvature must be {d}x{d}, got {A.shape}")
    if not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("curvature matrix must be symmetric")
    eigs = np.linalg.eigvalsh(A)
    if eigs[0] <= 0:
        raise ValueError(f"curvature matrix must be positive definite, "
                         f"smallest eigenvalue {eigs[0]}")

    cbar = centers.mean(axis=0)
    deviations = (cbar - centers) @ A.T          # rows A(cbar - c_i)
    sigma_sq = float(np.mean(np.sum(deviations ** 2, axis=1)))
    # F(cbar) = (1/2n) sum_i (c_i - cbar)^T A (c_i - cbar), the exact minimum
    spread = centers - cbar
    f_star = 0.5 * float(np.mean(np.sum((spread @ A.T) * spread, axis=1)))

    def component_value(w, i):
        r = w - centers[i]
        return 0.5 * float(r @ (A @ r))

    def component_grad(w, i, out=None):
        return np.matmul(A, w - centers[i], out=out)

    # a stacked matmul takes one matrix-vector product per member, the
    # product component_grad takes
    def batch_component_grad(W, ids):
        return np.matmul(A, (W - centers[ids])[:, :, None])[:, :, 0]

    def batch_full_pass(W):
        r = (W - cbar)[:, :, None]
        Ar = np.matmul(A, r)
        return 0.5 * np.matmul(r.transpose(0, 2, 1), Ar)[:, 0, 0] + f_star, Ar[:, :, 0]

    full_value, full_grad = _one_iterate(batch_full_pass)
    constants = ProblemConstants(
        L=float(eigs[-1]), G=math.inf, theta=0.0,
        sigma_sq=sigma_sq, f_lower=f_star,
    )
    return Problem(
        n=n, d=d,
        component_value=component_value,
        component_grad=component_grad,
        full_value=full_value,
        full_grad=full_grad,
        constants=constants,
        batch_component_grad=batch_component_grad,
        batch_full_pass=batch_full_pass,
    )
