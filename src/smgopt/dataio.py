"""LIBSVM parsing, synthetic datasets, and run-trace persistence.

Traces are written as a CSV of per-epoch rows plus a JSON sidecar carrying
the config hash, seed, selected output iterate, and any bound report.  All
floats are rendered with repr(), which round-trips float64 exactly.
"""
from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Iterable, Optional, Sequence, TextIO

import numpy as np

from .optimizers import RunRecord
from .problems import SparseSample

TRACE_HEADER = "epoch,eta,loss,grad_norm_sq"


class ParseError(ValueError):
    """Malformed LIBSVM input, with the offending 1-based line number."""

    def __init__(self, line_number: int, detail: str):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {detail}")


def _parse_label(token: str, line_number: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_number, f"unparsable label {token!r}") from None
    if value in (1.0,):
        return 1
    if value in (-1.0, 0.0):
        return -1
    raise ParseError(line_number, f"label {token!r} outside the binary set")


def parse_libsvm(source: str | Path | TextIO) -> tuple[list[SparseSample], int]:
    """Parse LIBSVM-format text into samples and the inferred dimension.

    Each nonempty line is a label followed by whitespace-separated
    index:value pairs with strictly increasing 1-based indices.  Labels
    {1, +1} map to +1 and {0, -1} map to -1.  The dimension is the largest
    index seen (0 for an empty input).
    """
    if isinstance(source, (str, Path)):
        with open(source, "r") as handle:
            return parse_libsvm(handle)

    samples: list[SparseSample] = []
    d = 0
    for line_number, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        label = _parse_label(tokens[0], line_number)
        features = []
        prev_idx = 0
        for token in tokens[1:]:
            idx_str, _, val_str = token.partition(":")
            if not val_str:
                raise ParseError(line_number, f"expected index:value, got {token!r}")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise ParseError(line_number, f"unparsable token {token!r}") from None
            if idx <= prev_idx:
                raise ParseError(
                    line_number,
                    f"feature index {idx} not strictly increasing (previous {prev_idx})",
                )
            features.append((idx, val))
            prev_idx = idx
        d = max(d, prev_idx)
        samples.append(SparseSample(label=label, features=tuple(features)))
    return samples, d


def scale_features(samples: Sequence[SparseSample]) -> list[SparseSample]:
    """Rescale each feature column by its maximum absolute value."""
    scale: dict[int, float] = {}
    for s in samples:
        for idx, val in s.features:
            scale[idx] = max(scale.get(idx, 0.0), abs(val))
    out = []
    for s in samples:
        feats = tuple(
            (idx, val / scale[idx] if scale[idx] > 0 else val)
            for idx, val in s.features
        )
        out.append(SparseSample(label=s.label, features=feats))
    return out


def synth_binary_dataset(n: int, d: int, seed: int,
                         separability: float = 1.0) -> list[SparseSample]:
    """Gaussian features labeled by a planted hyperplane with label noise.

    separability = 1 plants clean labels; lower values flip each label with
    probability (1 - separability) / 2, reaching pure noise at 0.
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
    samples = []
    for i in range(n):
        feats = tuple((j + 1, float(X[i, j])) for j in range(d))
        samples.append(SparseSample(label=int(labels[i]), features=feats))
    return samples


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
