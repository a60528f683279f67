"""LIBSVM parsing, synthetic datasets, and run-trace persistence.

Traces are written as a CSV of per-epoch rows plus a JSON sidecar carrying
the config hash, seed, selected output iterate, and any bound report.  All
floats are rendered with repr(), which round-trips float64 exactly.
"""
from __future__ import annotations

import dataclasses
import json
from itertools import islice
from pathlib import Path
from typing import Optional, TextIO

import numpy as np

from .optimizers import RunRecord
from .problems import SparseDataset

TRACE_HEADER = "epoch,eta,loss,grad_norm_sq"
# lines parsed per block: the arrays of one block are alive at a time
BLOCK_LINES = 4096
# the longest digit strings whose digit arithmetic is exact: an int64 holds
# 18 digits, and a float64 every integer of 15
EXACT_DIGITS = {int: 18, float: 15}


class ParseError(ValueError):
    """Malformed LIBSVM input, with the offending 1-based line number."""

    def __init__(self, line_number: int, detail: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {detail}")


def parse_libsvm(source: str | Path | TextIO) -> tuple[SparseDataset, int]:
    """Parse LIBSVM-format text into a CSR dataset and the inferred dimension.

    Each nonempty line is a label followed by whitespace-separated
    index:value pairs with strictly increasing 1-based indices.  Labels
    {1, +1} map to +1 and {0, -1} map to -1.  The dimension is the largest
    index seen (0 for an empty input).  Blocks of lines are converted with
    array operations; the first malformed token in file order raises a
    ParseError with its line number.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r") as handle:
            return parse_libsvm(handle)

    blocks = []
    first_line = 1
    while lines := list(islice(source, BLOCK_LINES)):
        blocks.append(_parse_block(lines, first_line))
        first_line += len(lines)
    widths, labels, idx, values = (
        (np.concatenate(column) for column in zip(*blocks)) if blocks
        else _parse_block([], first_line))
    d = int(idx.max()) if idx.size else 0
    indptr = np.concatenate(([0], np.cumsum(widths)))
    return SparseDataset(indptr, idx - 1, values, labels, d), d


def _parse_block(lines: list[str], first_line: int):
    """Features per row, labels, 1-based indices and values of some lines.

    The lines are joined and read as bytes: token edges, rows, labels and
    colons come from array comparisons, with str.split's whitespace.  A
    block holding non-ASCII text first normalises its lines with str.split,
    which knows the non-ASCII whitespace.  The checks run on whole arrays,
    but an error is raised for the first malformed token in line order, so
    the message is the one a token-by-token reading would give.
    """
    text = "\n".join(lines)
    if text.isascii():
        data = text.encode()
    else:   # UTF-8 holds no multibyte character with a space or colon byte
        lines = [" ".join(line.split()).encode() for line in lines]
        data = b"\n".join(lines)
    # raw pads the text with a space at each end; line j starts at begin[j]
    raw = np.frombuffer(b" " + data + b" ", np.uint8)
    length = np.fromiter(map(len, lines), np.int64, len(lines)) + 1   # with its "\n"
    begin = np.cumsum(length) - length + 1
    # str.split's ASCII whitespace: 9 to 13 and 28 to 32 (uint8 wraps below)
    space = (raw - 9 <= 4) | (raw - 28 <= 4)
    edges = np.flatnonzero(space[1:] != space[:-1]) + 1
    starts, stops = edges[0::2], edges[1::2]      # token j is raw[starts[j]:stops[j]]
    first = np.searchsorted(starts, begin)        # each line's first token, if any
    after = np.append(first[1:], starts.size)
    rows = np.flatnonzero(first < after)          # the nonempty lines
    label_at, width = first[rows], (after - first)[rows]   # tokens per row, label included
    is_label = np.zeros(starts.size, dtype=bool)
    is_label[label_at] = True
    feature_at = np.flatnonzero(~is_label)
    errors = []                                   # (token position, detail)

    def token(j):
        return raw[starts[j]:stops[j]].tobytes().decode()

    labels, k = _numbers(raw, starts[label_at], stops[label_at], float)
    if k < label_at.size:
        errors.append((label_at[k], f"unparsable label {token(label_at[k])!r}"))
    outside = np.flatnonzero((labels != 1) & (labels != -1) & (labels != 0))
    if outside.size:
        j = label_at[outside[0]]
        errors.append((j, f"label {token(j)!r} outside the binary set"))

    # a well-formed feature is one colon between a nonempty index and value;
    # the well-formed features before the first that is not convert at once
    at = np.append(np.flatnonzero(raw == ord(":")), [raw.size, raw.size])
    lo, hi = starts[feature_at], stops[feature_at]
    c = np.searchsorted(at, lo)
    colon = at[c]                                 # a feature's first colon
    well_formed = (colon > lo) & (colon < hi - 1) & (at[c + 1] >= hi)
    m = feature_at.size
    m_ok = m if well_formed.all() else int(np.argmin(well_formed))
    idx, k_idx = _numbers(raw, lo[:m_ok], colon[:m_ok], int)
    values, k_val = _numbers(raw, colon[:m_ok] + 1, hi[:m_ok], float)
    k = min(k_idx, k_val, m_ok)
    if k < m:
        feature = token(feature_at[k])
        detail = "unparsable token" if feature.partition(":")[2] else "expected index:value, got"
        errors.append((feature_at[k], f"{detail} {feature!r}"))
    idx, values = idx[:k], values[:k]
    prev = np.concatenate(([0], idx))[:-1]
    prev[is_label[feature_at[:k] - 1]] = 0        # a row's first index follows 0
    falls = np.flatnonzero(idx <= prev)
    if falls.size:
        j = falls[0]
        errors.append((feature_at[j], f"feature index {idx[j]} not strictly "
                                      f"increasing (previous {prev[j]})"))

    if errors:
        at, detail = min(errors, key=lambda error: error[0])
        row = np.searchsorted(label_at, at, side="right") - 1
        raise ParseError(first_line + int(rows[row]), detail)
    return width - 1, np.where(labels == 1, 1, -1), idx, values


def _numbers(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray, kind):
    """kind (int or float) of each byte span raw[lo:hi], as int64 or float64.

    A span of at most EXACT_DIGITS[kind] ASCII digits converts by digit
    arithmetic, which is exact there; kind converts every other span from
    its text.  Returns the values of the spans before the first one kind
    rejects, and its position (lo.size when it accepts all).
    """
    out = np.empty(lo.size, np.int64 if kind is int else np.float64)
    fast = hi - lo <= EXACT_DIGITS[kind]          # and, below, made of digits
    lo_fast, hi_fast = lo[fast], hi[fast]
    value = np.zeros(lo_fast.size, dtype=np.int64)
    digits = np.ones(lo_fast.size, dtype=bool)
    for back in range(int((hi_fast - lo_fast).max(initial=0)), 0, -1):
        at = hi_fast - back                       # a span's byte where at >= lo
        inside = at >= lo_fast
        digit = raw[np.maximum(at, lo_fast)] - ord("0")
        digits &= (digit <= 9) | ~inside
        value = np.where(inside, value * 10 + digit, value)
    fast[fast] = digits
    out[fast] = value[digits]
    slow = np.flatnonzero(~fast)
    text = raw.tobytes()
    strings = [text[a:b].decode() for a, b in zip(lo[slow].tolist(), hi[slow].tolist())]
    try:
        out[slow] = np.fromiter(map(kind, strings), out.dtype, slow.size)
    except (ValueError, OverflowError):   # find the first span kind rejects
        for j, string in zip(slow.tolist(), strings):
            try:
                out[j] = kind(string)
            except (ValueError, OverflowError):
                return out[:j], j
    return out, lo.size


def scale_features(dataset: SparseDataset) -> SparseDataset:
    """Rescale each feature column by its maximum absolute value."""
    scale = np.zeros(dataset.d)
    np.maximum.at(scale, dataset.indices, np.abs(dataset.values))
    per_entry = scale[dataset.indices]
    values = np.divide(dataset.values, per_entry, out=dataset.values.copy(),
                       where=per_entry > 0)
    return dataclasses.replace(dataset, values=values)


def synth_binary_dataset(n: int, d: int, seed: int,
                         separability: float = 1.0) -> SparseDataset:
    """Gaussian features labeled by a planted hyperplane with label noise.

    separability = 1 plants clean labels; lower values flip each label with
    probability (1 - separability) / 2, reaching pure noise at 0.  Every row
    stores all d features.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not 0.0 <= separability <= 1.0:
        raise ValueError(f"separability must lie in [0, 1], got {separability}")
    rng = np.random.default_rng(seed)
    normal = rng.standard_normal(d)
    X = rng.standard_normal((n, d))
    margins = X @ normal
    labels = np.where(margins >= 0, 1, -1)
    flips = rng.random(n) < (1.0 - separability) / 2.0
    labels = np.where(flips, -labels, labels)
    return SparseDataset(indptr=np.arange(0, n * d + 1, d),
                         indices=np.tile(np.arange(d), n),
                         values=X.ravel(), labels=labels, d=d)


# ---------------------------------------------------------------------------
# Trace persistence
# ---------------------------------------------------------------------------

def write_trace(record: RunRecord, path: str | Path,
                config: Optional[dict] = None,
                bound_report: Optional[dict] = None) -> Path:
    """Write the per-epoch CSV and its JSON sidecar; returns the sidecar path."""
    path = Path(path)
    lines = [f"# config_hash={record.config_hash or ''} seed={record.seed}", TRACE_HEADER]
    columns = zip(record.etas.tolist(), record.losses.tolist(), record.grad_norms_sq.tolist())
    lines += [f"{t},{eta!r},{loss!r},{g!r}" for t, (eta, loss, g) in enumerate(columns, 1)]
    try:
        path.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing trace to {path}: {exc}") from exc

    sidecar = {
        "algo": record.algo,
        "seed": record.seed,
        "beta": record.beta,
        "strategy": record.strategy_kind,
        "config_hash": record.config_hash,
        "config": config,
        "selected_index": record.selected_index,
        "selected_w": [float(x) for x in record.selected_w],
        "weighted_grad_avg": record.weighted_grad_avg(),
        "final_loss": float(record.losses[-1]),
        "bound_report": bound_report,
    }
    sidecar_path = path.with_suffix(".json")
    try:
        sidecar_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing sidecar to {sidecar_path}: {exc}") from exc
    return sidecar_path


def read_trace(path: str | Path) -> dict:
    """Read a trace CSV back into arrays; floats round-trip exactly."""
    path = Path(path)
    epochs, etas, losses, grads = [], [], [], []
    with open(path, "r") as handle:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#") or line == TRACE_HEADER:
                continue
            t, eta, loss, g = line.split(",")
            epochs.append(int(t))
            etas.append(float(eta))
            losses.append(float(loss))
            grads.append(float(g))
    return {
        "epoch": np.array(epochs, dtype=int),
        "eta": np.array(etas),
        "loss": np.array(losses),
        "grad_norm_sq": np.array(grads),
    }
