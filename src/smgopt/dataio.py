"""LIBSVM parsing, synthetic datasets, and run-trace persistence.

A LIBSVM file is parsed once: its CSR arrays are kept in a cache entry
beside it, `<file>.smgopt.npz`, and reloaded while the file's bytes are
unchanged.  Traces are written as a CSV of per-epoch rows plus a JSON
sidecar carrying the config hash, seed, selected output iterate, and any
bound report.  All floats are rendered with repr(), which round-trips
float64 exactly.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import stat
from itertools import islice
from pathlib import Path
from typing import Optional, TextIO

import numpy as np

from .optimizers import RunRecord
from .problems import SparseDataset

TRACE_HEADER = "epoch,eta,loss,grad_norm_sq"
# lines parsed per block: the Python lists of one block are alive at a time;
# a new process parsing a w8a- or ijcnn1-shaped file took the same time at
# 1,024 lines as at 4,096, within noise, and peaked about 2 MB lower
BLOCK_LINES = 1024
# a cache entry is named after its file plus CACHE_SUFFIX; its key covers
# CACHE_VERSION, the text encoding of the parse and the sha256 of the bytes
CACHE_SUFFIX = ".smgopt.npz"
CACHE_VERSION = 1
HASH_BLOCK = 1 << 20
CSR_ARRAYS = ("indptr", "indices", "values", "labels")


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
    index seen (0 for an empty input).  The text is read line by line, and
    its first malformed token raises a ParseError with its line number.

    A path to a regular file is read in the locale's text encoding, as
    open() reads it; a byte that does not decode is a ParseError.  Its
    arrays are loaded from the cache entry `<file>.smgopt.npz` when the
    entry's key matches CACHE_VERSION, that encoding and the sha256 of the
    file's bytes; otherwise the file is parsed and the entry (re)written
    under the hash of the bytes parsed, unless the directory cannot be
    written.
    """
    if not isinstance(source, (str, Path)):
        return _parse_text(source)
    with open(source, "rb", buffering=0) as file:
        hashing = _Hashing(file)
        # an undecodable byte reads as a lone surrogate, which _parse_lines refuses
        text = io.TextIOWrapper(io.BufferedReader(hashing), errors="surrogateescape")
        entry = (Path(source).with_name(Path(source).name + CACHE_SUFFIX)
                 if stat.S_ISREG(os.fstat(file.fileno()).st_mode) else None)
        if entry and entry.is_file():
            digest = hashlib.sha256()
            while block := file.read(HASH_BLOCK):
                digest.update(block)
            loaded = _load_entry(entry, _entry_key(text.encoding, digest))
            if loaded is not None:
                return loaded
            file.seek(0)
        parsed = _parse_text(text)
    if entry:
        _store_entry(entry, _entry_key(text.encoding, hashing.digest), *parsed)
    return parsed


class _Hashing(io.RawIOBase):
    """A binary file that feeds every byte read through it to a sha256."""

    def __init__(self, file):
        self.file, self.digest = file, hashlib.sha256()

    def readable(self):
        return True

    def readinto(self, buffer):
        size = self.file.readinto(buffer)
        self.digest.update(buffer[:size])
        return size


def _entry_key(encoding: str, digest) -> str:
    return f"{CACHE_VERSION} {encoding} {digest.hexdigest()}"


def _load_entry(entry: Path, key: str):
    """The dataset and dimension a cache entry holds under key, or None when
    it holds another key or fails to load or validate."""
    try:
        with open(entry, "rb") as handle, np.load(handle, allow_pickle=False) as saved:
            if saved["key"].item() != key:
                return None
            d = int(saved["d"])
            return SparseDataset(*(saved[name] for name in CSR_ARRAYS), d), d
    except Exception:   # a damaged zip raises BadZipFile, KeyError, EOFError,
        return None     # NotImplementedError, ...; each is a miss


def _store_entry(entry: Path, key: str, dataset: SparseDataset, d: int):
    """Write a cache entry through a temporary file and os.replace, so a
    reader sees a whole entry or none; skip it when that fails."""
    partial = entry.with_name(f"{entry.name}.{os.getpid()}.tmp")
    try:
        # each integer array in the narrowest type that holds it, which
        # SparseDataset widens back to int64 on load
        with open(partial, "wb") as handle:
            np.savez(handle, key=key, d=d, values=dataset.values,
                     indptr=dataset.indptr.astype(np.min_scalar_type(dataset.indptr[-1])),
                     indices=dataset.indices.astype(np.min_scalar_type(d)),
                     labels=dataset.labels.astype(np.int8))
        os.replace(partial, entry)
    except OSError:
        with contextlib.suppress(OSError):
            partial.unlink()


def _parse_text(source: TextIO) -> tuple[SparseDataset, int]:
    """parse_libsvm of an open text stream."""
    chunks = iter(lambda: list(islice(source, BLOCK_LINES)), [])
    blocks = [_parse_lines(lines, 1 + k * BLOCK_LINES)
              for k, lines in enumerate(chunks)] + [_parse_lines([], 1)]   # dtypes if empty
    widths, labels, idx, values = (np.concatenate(column) for column in zip(*blocks))
    d = int(idx.max()) if idx.size else 0
    indptr = np.concatenate(([0], np.cumsum(widths)))
    return SparseDataset(indptr, idx - 1, values, labels, d), d


def _parse_lines(lines: list[str], first_line: int):
    """Features per row, labels, 1-based indices and values of some lines,
    read token by token; the first malformed token raises a ParseError."""
    widths, labels, indices, values = [], [], [], []
    for number, line in enumerate(lines, first_line):
        try:
            line.encode()
        except UnicodeEncodeError as exc:   # a lone surrogate, the form of an undecodable byte
            raise ParseError(number, f"undecodable byte 0x{ord(line[exc.start]) & 0xFF:02x}"
                             ) from None
        tokens = line.split()
        if not tokens:
            continue
        try:
            y = float(tokens[0])
        except ValueError:
            raise ParseError(number, f"unparsable label {tokens[0]!r}") from None
        if y not in (1, 0, -1):
            raise ParseError(number, f"label {tokens[0]!r} outside the binary set")
        labels.append(1 if y == 1 else -1)
        widths.append(len(tokens) - 1)
        previous = 0
        for feature in tokens[1:]:
            index, _, value = feature.partition(":")
            if not value:
                raise ParseError(number, f"expected index:value, got {feature!r}")
            try:
                index, value = int(index), float(value)
                if not -2**63 <= index < 2**63:   # int64's range
                    raise ValueError
            except ValueError:
                raise ParseError(number, f"unparsable token {feature!r}") from None
            if index <= previous:
                raise ParseError(number, f"feature index {index} not strictly "
                                         f"increasing (previous {previous})")
            indices.append(index)
            values.append(value)
            previous = index
    return (*(np.array(column, np.int64) for column in (widths, labels, indices)),
            np.array(values, np.float64))


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

def write_table(path: Path, config_hash: str, seed: int, header: str, rows) -> Path:
    """Write CSV rows (lists of cells) under the config-hash and seed stamp."""
    lines = [f"# config_hash={config_hash} seed={seed}", header]
    lines += [",".join(cells) for cells in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_trace(record: RunRecord, path: str | Path, config: Optional[dict] = None,
                bound_report: Optional[dict] = None, config_hash: Optional[str] = None) -> Path:
    """Write the per-epoch CSV and its JSON sidecar, both stamped with
    config_hash when given; returns the sidecar path."""
    path = Path(path)
    columns = zip(record.etas.tolist(), record.losses.tolist(), record.grad_norms_sq.tolist())
    try:
        write_table(path, config_hash or "", record.seed, TRACE_HEADER,
                    ([str(t), *map(repr, row)] for t, row in enumerate(columns, 1)))
    except OSError as exc:
        raise OSError(f"failed writing trace to {path}: {exc}") from exc

    sidecar = {
        "algo": record.algo,
        "seed": record.seed,
        "beta": record.beta,
        "strategy": record.strategy_kind,
        "config_hash": config_hash,
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
