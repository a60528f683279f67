"""LIBSVM parsing, synthetic datasets, and run-trace persistence.

Traces are written as a CSV of per-epoch rows plus a JSON sidecar carrying
the config hash, seed, selected output iterate, and any bound report.  All
floats are rendered with repr(), which round-trips float64 exactly.
"""
from __future__ import annotations

import dataclasses
import io
import json
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Optional, TextIO

import numpy as np

from .optimizers import RunRecord
from .problems import SparseDataset, SparseSample

TRACE_HEADER = "epoch,eta,loss,grad_norm_sq"
# lines parsed per block: the token strings of one block are alive at a time
BLOCK_LINES = 4096


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

    The checks run on whole token arrays, but an error is raised for the
    first malformed token in line order, so the message is the one a
    token-by-token reading would give.
    """
    split = list(map(str.split, lines))
    counts = np.fromiter(map(len, split), np.int64, len(split))
    rows = np.flatnonzero(counts)
    width = counts[rows]                          # tokens per row, label included
    tokens = np.array(list(chain.from_iterable(split)), dtype=object)
    label_at = np.cumsum(width) - width           # token position of each label
    is_label = np.zeros(tokens.size, dtype=bool)
    is_label[label_at] = True
    feature_at = np.flatnonzero(~is_label)
    errors = []                                   # (token position, detail)

    label_text = tokens[label_at].tolist()
    labels, k = _convert(label_text, float, np.float64)
    if k < len(label_text):
        errors.append((label_at[k], f"unparsable label {label_text[k]!r}"))
    outside = np.flatnonzero((labels != 1) & (labels != -1) & (labels != 0))
    if outside.size:
        j = outside[0]
        errors.append((label_at[j], f"label {label_text[j]!r} outside the binary set"))

    # a well-formed feature is one colon between a nonempty index and value,
    # read off the UTF-8 bytes (no multibyte character holds a space or a
    # colon byte); the well-formed features before the first that is not
    # split into index and value strings all at once
    features = tokens[feature_at].tolist()
    m = len(features)
    raw = np.frombuffer(" ".join(features).encode(), np.uint8)
    space, colon = raw == ord(" "), raw == ord(":")
    gaps = np.flatnonzero(space)
    first = np.concatenate(([0], gaps + 1))[:m]
    last = np.concatenate((gaps, [raw.size]))[:m] - 1
    colons = np.bincount(np.cumsum(space)[colon], minlength=m)
    well_formed = (colons == 1) & ~colon[first] & ~colon[last]
    m_ok = m if well_formed.all() else int(np.argmin(well_formed))
    pieces = " ".join(features[:m_ok]).replace(":", " ").split()
    idx, k_idx = _convert(pieces[0::2], int, np.int64)
    values, k_val = _convert(pieces[1::2], float, np.float64)
    k = min(k_idx, k_val, m_ok)
    if k < m:
        has_value = features[k].partition(":")[2]
        detail = "unparsable token" if has_value else "expected index:value, got"
        errors.append((feature_at[k], f"{detail} {features[k]!r}"))
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
        line_of_token = first_line + np.repeat(rows, width)
        raise ParseError(int(line_of_token[at]), detail)
    return width - 1, np.where(labels == 1, 1, -1), idx, values


def _convert(strings: list[str], kind, dtype):
    """Convert strings with kind (int or float) into an array of dtype.

    Returns the converted values and the position of the first string kind
    rejects (len(strings) when it accepts all); on a rejection the values
    are those of the strings before it.
    """
    try:
        return np.fromiter(map(kind, strings), dtype, len(strings)), len(strings)
    except (ValueError, OverflowError):
        pass
    # bisect: strings[:lo] convert and strings[lo:hi] hold a rejected one
    lo, hi = 0, len(strings)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            np.fromiter(map(kind, strings[lo:mid]), dtype, mid - lo)
            lo = mid
        except (ValueError, OverflowError):
            hi = mid
    return np.fromiter(map(kind, strings[:lo]), dtype, lo), lo


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
    lines = [f"# config_hash={record.config_hash or ''} seed={record.seed}"]
    lines.append(TRACE_HEADER)
    for t in range(1, record.T + 1):
        lines.append(",".join([
            str(t),
            repr(float(record.etas[t - 1])),
            repr(float(record.losses[t - 1])),
            repr(float(record.grad_norms_sq[t - 1])),
        ]))
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


def render_libsvm(samples: Iterable[SparseSample]) -> str:
    """Inverse of parse_libsvm, mainly for tests and synthetic exports."""
    out = io.StringIO()
    for s in samples:
        parts = [f"{s.label:+d}"] + [f"{idx}:{repr(val)}" for idx, val in s.features]
        out.write(" ".join(parts) + "\n")
    return out.getvalue()
