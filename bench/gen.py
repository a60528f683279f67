"""Seeded, numpy-only generator of LIBSVM files shaped like w8a and ijcnn1.

The real datasets need a download, so the benchmark writes files with the
same shape instead: sample count n, dimension d and nonzeros per row.  Labels
come from a planted hyperplane with 5% label noise.  Values are written
with repr(), so the parser reads back exactly the float64 values held here
and the reference evaluation in workloads.py sees the data the program sees.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Shape:
    name: str
    n: int
    d: int
    nnz_per_row: float
    binary: bool  # w8a values are all 1; ijcnn1 values are real


W8A = Shape("w8a", n=49_749, d=300, nnz_per_row=11.65, binary=True)
IJCNN1 = Shape("ijcnn1", n=91_701, d=22, nnz_per_row=13.0, binary=False)


@dataclass
class SparseData:
    """CSR arrays of a generated dataset; `indices` are 0-based columns."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    d: int

    @property
    def n(self) -> int:
        return self.labels.size

    @property
    def nnz(self) -> int:
        return self.indices.size


def generate(shape: Shape, seed: int) -> SparseData:
    rng = np.random.default_rng((seed, shape.n, shape.d))
    n, d = shape.n, shape.d
    # each entry is nonzero with probability nnz_per_row / d; chunks of rows
    # keep the (rows, d) mask small
    p = shape.nnz_per_row / d
    rows, cols = [], []
    for start in range(0, n, 4096):
        mask = rng.random((min(4096, n - start), d)) < p
        r, c = np.nonzero(mask)
        rows.append(r + start)
        cols.append(c)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # the last row holds column d - 1, so the parser infers dimension d
    if cols[-1] != d - 1 or rows[-1] != n - 1:
        rows, cols = np.append(rows, n - 1), np.append(cols, d - 1)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    if shape.binary:
        values = np.ones(cols.size)
    else:
        values = rng.uniform(-1.0, 1.0, cols.size)
    normal = rng.standard_normal(d)
    margins = np.bincount(rows, weights=values * normal[cols], minlength=n)
    labels = np.where(margins >= 0, 1, -1)
    flips = rng.random(n) < 0.05
    labels = np.where(flips, -labels, labels)
    return SparseData(indptr, cols.astype(np.int64), values, labels, d)


def write_libsvm(data: SparseData, path: Path):
    """Write LIBSVM text with 1-based indices; binary values are written as 1."""
    idx = (data.indices + 1).tolist()
    if np.all(data.values == 1.0):
        tokens = [f"{i}:1" for i in idx]
    else:
        tokens = [f"{i}:{v!r}" for i, v in zip(idx, data.values.tolist())]
    ptr = data.indptr.tolist()
    lines = [
        " ".join(["+1" if y > 0 else "-1"] + tokens[ptr[r]:ptr[r + 1]])
        for r, y in enumerate(data.labels.tolist())
    ]
    path.write_text("\n".join(lines) + "\n")
