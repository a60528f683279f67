"""The CSR data layer against the per-sample loops it replaced.

The reference functions below are the earlier tuple-based implementations,
kept verbatim apart from names: the line-by-line LIBSVM parser, the
per-sample logistic oracles, the full value and gradient loops, the
constants and the feature scaling.  They read the rows of a SparseDataset
as SparseSample tuples.  The parser also holds parse_libsvm's two edge
rules, which the earlier one lacked: an index outside int64 is an
unparsable token, and a line holding an undecodable byte (read as a lone
surrogate) is refused at that line.

Tolerances: results whose summation order is unchanged must be bitwise
equal (parsed rows, constants, scaled features).  The oracles sum the
component dot product through numpy and the full value pairwise, and numpy's
exp may round differently from math.exp, so they match within RTOL = 1e-12
relative, taken against the largest magnitude of the reference vector.
"""
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smgopt.dataio import (
    BLOCK_LINES,
    ParseError,
    parse_libsvm,
    scale_features,
    synth_binary_dataset,
)
from smgopt.problems import (
    REG_GRAD_PEAK,
    DimensionMismatch,
    ProblemConstants,
    SparseDataset,
    SparseSample,
    logistic_constants,
    logistic_problem,
    regularizer_grad,
    regularizer_value,
)

RTOL = 1e-12


# ---------------------------------------------------------------------------
# Reference implementations (per-sample loops)
# ---------------------------------------------------------------------------

def ref_parse_label(token: str, line_number: int) -> int:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line_number, f"unparsable label {token!r}") from None
    if value in (1.0,):
        return 1
    if value in (-1.0, 0.0):
        return -1
    raise ParseError(line_number, f"label {token!r} outside the binary set")


def ref_parse_libsvm(source):
    samples = []
    d = 0
    for line_number, raw in enumerate(source, start=1):
        try:
            raw.encode()
        except UnicodeEncodeError as exc:   # surrogateescape reads byte b as U+DC00 + b
            raise ParseError(line_number,
                             f"undecodable byte 0x{ord(raw[exc.start]) & 0xFF:02x}") from None
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        label = ref_parse_label(tokens[0], line_number)
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
            if not -2**63 <= idx < 2**63:
                raise ParseError(line_number, f"unparsable token {token!r}")
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


def ref_dot(sample, w):
    d = w.shape[0]
    acc = 0.0
    for idx, val in sample.features:
        if idx > d:
            raise DimensionMismatch(idx, d)
        acc += val * w[idx - 1]
    return acc


def ref_norm(sample):
    return math.sqrt(sum(v * v for _, v in sample.features))


def ref_component_value(w, sample, lam):
    z = sample.label * ref_dot(sample, w)
    return float(np.logaddexp(0.0, -z)) + lam * regularizer_value(w)


def ref_component_grad(w, sample, lam):
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    z = sample.label * ref_dot(sample, w)
    s = math.exp(-np.logaddexp(0.0, z))
    g = lam * regularizer_grad(w)
    coef = -sample.label * s
    for idx, val in sample.features:
        g[idx - 1] += coef * val
    return g


def ref_full_value(w, samples, lam):
    loss = 0.0
    for s in samples:
        z = s.label * ref_dot(s, w)
        loss += float(np.logaddexp(0.0, -z))
    return loss / len(samples) + lam * regularizer_value(w)


def ref_full_grad(w, samples, lam, d):
    g = np.zeros(d)
    for s in samples:
        z = s.label * ref_dot(s, w)
        coef = -s.label * math.exp(-np.logaddexp(0.0, z))
        for idx, val in s.features:
            g[idx - 1] += coef * val
    g /= len(samples)
    g += lam * regularizer_grad(w)
    return g


def ref_logistic_constants(samples, lam, d):
    max_norm = max(ref_norm(s) for s in samples)
    L = 0.25 * max_norm ** 2 + lam
    G = max_norm + lam * REG_GRAD_PEAK * math.sqrt(d)
    return ProblemConstants(L=L, G=G, theta=0.0, sigma_sq=4.0 * G * G, f_lower=0.0)


def ref_scale_features(samples):
    scale = {}
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


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

def w8a_slice(n=200, d=300, nnz_per_row=11.65, seed=4):
    """A small w8a-shaped dataset: binary features, about 12 per row."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, d)) < nnz_per_row / d
    rows, cols = np.nonzero(mask)
    labels = np.where(rng.random(n) < 0.3, 1, -1)
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=1))))
    return SparseDataset(indptr, cols, np.ones(cols.size), labels, d)


EMPTY_ROWS = "+1 2:0.5\n-1\n+1 1:1.5 3:-2.0\n0\n-1 3:0.25\n"


def make_dataset(name):
    if name == "empty-rows":
        return parse_libsvm(io.StringIO(EMPTY_ROWS))[0]
    if name == "d-beyond-largest-index":
        return dataclasses.replace(parse_libsvm(io.StringIO(EMPTY_ROWS))[0], d=9)
    if name == "w8a-slice":
        return w8a_slice()
    return synth_binary_dataset(40, 6, seed=5, separability=0.8)


DATASETS = ["empty-rows", "d-beyond-largest-index", "w8a-slice", "dense"]


def assert_close(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = float(np.max(np.abs(expected)))
    assert np.max(np.abs(actual - expected)) <= RTOL * scale


# ---------------------------------------------------------------------------
# Oracles, constants and scaling
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.0, 0.01])
@pytest.mark.parametrize("name", DATASETS)
def test_oracles_match_the_loops(name, lam):
    dataset = make_dataset(name)
    samples = list(dataset)
    problem = logistic_problem(dataset, lam=lam)
    rng = np.random.default_rng(7)
    for scale in (0.01, 1.0, 30.0):
        w = scale * rng.standard_normal(dataset.d)
        for i, sample in enumerate(samples):
            assert_close(problem.component_grad(w, i), ref_component_grad(w, sample, lam))
            assert_close(problem.component_value(w, i), ref_component_value(w, sample, lam))
        assert_close(problem.full_value(w), ref_full_value(w, samples, lam))
        assert_close(problem.full_grad(w), ref_full_grad(w, samples, lam, dataset.d))


@pytest.mark.parametrize("name", DATASETS)
def test_constants_bitwise(name):
    dataset = make_dataset(name)
    for lam in (0.0, 0.01):
        assert logistic_constants(dataset, lam) == \
            ref_logistic_constants(list(dataset), lam, dataset.d)


@pytest.mark.parametrize("name", DATASETS)
def test_scaling_bitwise(name):
    dataset = make_dataset(name)
    scaled = scale_features(dataset)
    assert scaled.d == dataset.d
    assert list(scaled) == ref_scale_features(list(dataset))


def test_zero_columns_and_empty_rows_scale_to_themselves():
    dataset = parse_libsvm(io.StringIO("+1 1:0.0 2:4.0\n-1\n-1 2:-2.0 3:-0.0\n"))[0]
    assert list(scale_features(dataset)) == ref_scale_features(list(dataset))


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def ref_csr(samples) -> tuple:
    """The CSR arrays of SparseSample rows, in the dtypes of parse_libsvm's."""
    features = [pair for sample in samples for pair in sample.features]
    return (np.cumsum([0] + [len(sample.features) for sample in samples], dtype=np.int64),
            np.array([index - 1 for index, _ in features], np.int64),
            np.array([value for _, value in features], np.float64),
            np.array([sample.label for sample in samples], np.int64))


def outcome(parse, source):
    """The CSR arrays of a parse, each as its dtype and bytes, and the
    dimension; or the line and message of its error."""
    try:
        rows, d = parse(source)
    except ParseError as exc:
        return ("error", exc.line_number, str(exc))
    arrays = ref_csr(rows) if isinstance(rows, list) else (
        rows.indptr, rows.indices, rows.values, rows.labels)
    return ("rows", d, [(array.dtype.str, array.tobytes()) for array in arrays])


def judged(text) -> list:
    """The outcomes of parse_libsvm and of the reference on a text stream."""
    return [outcome(parse, io.StringIO(text)) for parse in (parse_libsvm, ref_parse_libsvm)]


def features(indices, values, size):
    """Lists of up to size index:value tokens, indices strictly increasing."""
    return st.lists(indices, unique=True, max_size=size).map(sorted).flatmap(
        lambda idx: st.lists(values, min_size=len(idx), max_size=len(idx)).map(
            lambda vals: [f"{i}:{v}" for i, v in zip(idx, vals)]))


JUNK = st.text(alphabet="0123456789:.-+eE_x", max_size=6)
LABEL = st.sampled_from(["+1", "-1"]) | st.sampled_from(
    ["1", "0", "-0", "1.0", "+1.", "1e0", "2", "nan", "inf"]) | JUNK
VALUE = st.floats(allow_nan=False).map(repr) | st.sampled_from(["1", "-0", "1e400"])
TOKENS = features(st.integers(1, 40), VALUE, 6) | st.lists(
    st.builds("{}:{}".format, st.integers(-1, 40), VALUE) | JUNK, max_size=5)
# str.split's whitespace, ASCII and not, with a carriage return inside a line
SEPARATOR = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\u00a0",
                             "\u3000", "\r", " \r "])
LINE = st.builds(lambda label, tokens, sep, tail: sep.join([label] + tokens) + tail,
                 LABEL, TOKENS, SEPARATOR, st.sampled_from(["", " ", "\r"]))
TEXT = st.builds("\n".join, st.lists(LINE | st.sampled_from(["", "  "]), max_size=8))

# texts past the parser's edges: indices outside int64, nan, inf and 1e400
# values, and a lone surrogate, the form an undecodable byte of a file takes
BIG = st.sampled_from(["9223372036854775807", "9223372036854775808",
                       "-9223372036854775809", "99999999999999999999", "1" * 25])
ODD = st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "NaN", "Infinity"])
SURROGATE = st.sampled_from(["\udcff", "\udc80", "\udcfe", "\ud800"])
EDGE_TOKEN = (st.builds("{}:{}".format, BIG, VALUE | ODD)
              | st.builds("{}:{}".format, st.integers(1, 40), ODD) | JUNK)
EDGE_LINE = st.builds(lambda label, tokens, sep: sep.join([label] + tokens),
                      LABEL | ODD, st.lists(EDGE_TOKEN, max_size=4), SEPARATOR)
FUZZ = (TEXT | st.builds("\n".join, st.lists(EDGE_LINE | st.just(""), max_size=6))
        | st.builds(lambda text, char, at: text[:at] + char + text[at:],
                    TEXT, SURROGATE, st.integers(0, 400)))

# clean multi-line texts, which parse: binary labels, indices up to int64's
# largest, and values as repr floats, integers past 2**53 and other spellings
CLEAN_VALUE = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
               | st.integers(-10**20, 10**20).map(str)
               | st.sampled_from(["-0", "+007", "1e-05", "-2.5E-07", "1.", ".5"]))
CLEAN_LINE = st.builds(lambda label, tokens: " ".join([label] + tokens),
                       st.sampled_from(["+1", "-1", "1", "0"]),
                       features(st.integers(1, 10**6) | st.integers(1, 2**63 - 1),
                                CLEAN_VALUE, 15))
CLEAN = st.lists(CLEAN_LINE, min_size=1, max_size=40).map(
    lambda lines: "".join(line + "\n" for line in lines))


@settings(max_examples=300, deadline=None)
@given(FUZZ)
@example("3:4:5 7\n")
@example("+1 1:0.5\n-1 3:4:5 7\n")
@example("1:\n")
@example("-1 2:1.0 1:\n")
@example(":5\n")
@example("+1 :5\n")
@example("+1 1:1e400\n")
@example("1:1e400")
@example("+1 1_0:2_5 11:1\n-1 2:1\n")
@example("+1 \u0663:1.5 5:\u0661\n-1 2:\u00e9\n")
@example("+1 1:1\u00a02:2\n")
@example("+1 1:1\u00a02:2\n-1 3:1 2:1\n")
@example("+1 1:1\u00a02:2\n-1 2:1:1\n")
@example("-1 2:x\n+1 1:1\u00a02:2\n")
@example("+1 1234567890123456789:1\n-1 123456789012345678:2\n")
@example("+1 1:999999999999999 2:9999999999999999 3:12345678901234567\n")
@example("-1 1:0.12345678901234567 2:1e5 3:2E-3 4:15e0 5:-0\n")
@example("+1 1:1\x002\n")
@example("+1 1:1\n-1 2:5")
@example("+1 9223372036854775807:nan\n-1 9223372036854775808:1\n")
@example("-1 2:1\n+1 -9223372036854775809:1\n")
@example("+1 1:0.5\n-1 2:\udcff\n")
@example("+1 1:\ud800")
def test_parser_matches_the_line_parser(text):
    parsed, expected = judged(text)
    assert parsed == expected


@settings(max_examples=100, deadline=None)
@given(CLEAN)
@example("+1 1:-0 2:0 9223372036854775807:+007\n-1 3:1. 4:.5 5:100000000000000000001\n")
def test_clean_texts_match_the_line_parser(text):
    parsed, expected = judged(text)
    assert parsed == expected and parsed[0] == "rows"


def test_parser_blocks_keep_rows_and_line_numbers():
    lines = [f"{'+1' if i % 3 else '-1'} {i % 7 + 1}:{i / 9} 9:1" for i in range(
        BLOCK_LINES + 500)]
    parsed, expected = judged("\n".join(lines) + "\n")
    assert parsed == expected
    lines[BLOCK_LINES + 17] = "+1 9:1 3:1"
    parsed, expected = judged("\n".join(lines))
    assert expected[:2] == ("error", BLOCK_LINES + 18)
    assert parsed == expected
