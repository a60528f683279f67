"""Parser conformance, the parse cache, trace round-trips, and
synthetic-dataset properties."""
import io
import json
import os
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smgopt import dataio
from smgopt.cli import main as cli_main
from smgopt.dataio import (
    CACHE_SUFFIX,
    CACHE_VERSION,
    CSR_ARRAYS,
    ParseError,
    parse_libsvm,
    read_trace,
    scale_features,
    synth_binary_dataset,
    write_trace,
)
from smgopt.optimizers import smg_run
from smgopt.problems import SparseSample, logistic_constants, logistic_problem
from smgopt.schedules import Schedule
from smgopt.shuffling import ShufflingStrategy
from test_reference_oracles import CLEAN, FUZZ, outcome


def render_libsvm(samples) -> str:
    """Inverse of parse_libsvm: one LIBSVM line per SparseSample."""
    return "".join(" ".join([f"{s.label:+d}"] + [f"{idx}:{val!r}" for idx, val in s.features])
                   + "\n" for s in samples)


class TestParser:
    def test_basic_line(self):
        samples, d = parse_libsvm(io.StringIO("-1 1:0.5 3:2.0\n"))
        assert len(samples) == 1
        assert samples[0].label == -1
        assert samples[0].features == ((1, 0.5), (3, 2.0))
        assert d == 3

    def test_label_aliases(self):
        samples, _ = parse_libsvm(io.StringIO("+1 1:1\n1 1:1\n0 1:1\n-1 1:1\n"))
        assert [s.label for s in samples] == [1, 1, -1, -1]

    def test_empty_input(self):
        samples, d = parse_libsvm(io.StringIO(""))
        assert len(samples) == 0 and d == 0
        with pytest.raises(ValueError):
            logistic_problem(samples)

    def test_blank_lines_skipped_and_order_kept(self):
        text = "+1 2:1.0\n\n-1 1:3.5\n"
        samples, d = parse_libsvm(io.StringIO(text))
        assert [s.label for s in samples] == [1, -1]
        assert d == 2

    def test_non_monotone_indices_error_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(io.StringIO("+1 1:1.0\n-1 3:1.0 2:2.0\n"))
        assert exc.value.line_number == 2

    def test_bad_label_error_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(io.StringIO("+1 1:1.0\n2 1:1.0\n"))
        assert exc.value.line_number == 2

    def test_unparsable_token_error(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(io.StringIO("+1 1:abc\n"))
        assert exc.value.line_number == 1
        with pytest.raises(ParseError):
            parse_libsvm(io.StringIO("+1 novalue\n"))

    def test_index_beyond_int64_is_unparsable(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm(io.StringIO("+1 1:1.0\n-1 99999999999999999999:1.0\n"))
        assert exc.value.line_number == 2
        assert "unparsable token" in str(exc.value)

    def test_int64_bounds_of_a_19_digit_index(self):
        rows, d = parse_libsvm(io.StringIO("+1 9223372036854775807:1\n"))
        assert d == 9223372036854775807 and rows.indices.tolist() == [d - 1]
        with pytest.raises(ParseError) as exc:
            parse_libsvm(io.StringIO("+1 9223372036854775808:1\n"))
        assert "unparsable token" in str(exc.value)

    def test_concatenation_of_files(self):
        a = "+1 1:0.25 4:1.5\n-1 2:0.125\n"
        b = "-1 3:9.0\n"
        sa, _ = parse_libsvm(io.StringIO(a))
        sb, _ = parse_libsvm(io.StringIO(b))
        both, d = parse_libsvm(io.StringIO(a + b))
        assert list(both) == list(sa) + list(sb)
        assert d == 4

    def test_file_path_input(self, tmp_path):
        path = tmp_path / "tiny.libsvm"
        path.write_text("+1 1:1.0 2:-2.0\n")
        samples, d = parse_libsvm(path)
        assert d == 2 and samples[0].features[1] == (2, -2.0)


# signed spans of up to 19 digits: past the integers a float64 holds exactly
# (15 digits always) and at int64's limits
SIGNED_SPANS = ["+", "-", "+-1", "-+1", "--1", "-0", "+0", "+007", "-007", "-1", "+1",
                "-1.5", "+1e3", "-" + "9" * 15, "+" + "9" * 16, "-" + "9" * 18,
                "+" + "9" * 18, "-" + "9" * 19, "-9223372036854775808"]


@pytest.mark.parametrize("kind", [int, float])
@pytest.mark.parametrize("span", SIGNED_SPANS)
def test_signed_spans_convert_as_kind_does(span, kind):
    """A span parsed as a value (float) is float(span) bit for bit, sign of
    zero included; parsed as an index (int), it is stored as int(span) - 1.
    The parse raises ParseError where kind, int64 or the strictly increasing
    indices reject the span."""
    try:
        expected = kind(span)
    except ValueError:
        expected = None
    if kind is int and expected is not None and not 0 < expected < 2**63:
        expected = None   # outside int64, or not above 0, as a first index must be
    text = f"-1 2:1\n+1 1:{span}\n" if kind is float else f"-1 2:1\n+1 {span}:1\n"
    if expected is None:
        with pytest.raises(ParseError) as exc:
            parse_libsvm(io.StringIO(text))
        assert exc.value.line_number == 2
        return
    rows, d = parse_libsvm(io.StringIO(text))
    if kind is float:
        assert rows.values[1:].tobytes() == np.array([expected]).tobytes()
    else:
        assert rows.indices.tolist() == [1, expected - 1] and d == max(2, expected)


def _entry(path):
    return path.with_name(path.name + CACHE_SUFFIX)


def _files(directory):
    return sorted(p.name for p in directory.iterdir())


@pytest.fixture
def parses(monkeypatch):
    """The text streams parsed from here on; a cache hit parses none."""
    calls = []
    parse_text = dataio._parse_text

    def counted(source):
        calls.append(source)
        return parse_text(source)

    monkeypatch.setattr(dataio, "_parse_text", counted)
    return calls


class TestParseCache:
    # -0, a subnormal 1e-320 and 17-significant-digit values
    TEXT = ("+1 1:-0 2:1e-320 3:0.12345678901234567\n"
            "-1 2:-1.2345678901234567e-05 4:12345678901234567\n"
            "0 1:-0.0 5:+007\n")

    def _write(self, tmp_path, text=TEXT):
        path = tmp_path / "data.libsvm"
        path.write_text(text)
        return path

    def _assert_same(self, got, expected):
        (a, d_a), (b, d_b) = got, expected
        assert d_a == d_b == a.d == b.d
        for name in CSR_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    def test_hit_is_bit_identical_to_a_cold_parse(self, tmp_path, parses):
        path = self._write(tmp_path)
        cold = parse_libsvm(path)
        assert _entry(path).is_file() and len(parses) == 1
        warm = parse_libsvm(path)
        assert len(parses) == 1
        self._assert_same(warm, cold)
        self._assert_same(warm, parse_libsvm(io.StringIO(self.TEXT)))

    def test_same_size_rewrite_is_a_miss(self, tmp_path, parses):
        path = self._write(tmp_path)
        parse_libsvm(path)
        before = _entry(path).read_bytes()
        stamp = path.stat()
        edited = self.TEXT.replace("5:+007", "5:+008")
        self._write(tmp_path, edited)
        os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
        assert path.stat().st_size == stamp.st_size
        self._assert_same(parse_libsvm(path), parse_libsvm(io.StringIO(edited)))
        assert len(parses) == 3 and _entry(path).read_bytes() != before
        parse_libsvm(path)
        assert len(parses) == 3

    @pytest.mark.parametrize("damage", ["truncated", "garbage", "invalid arrays"])
    def test_damaged_entry_is_parsed_again_and_replaced(self, tmp_path, parses, damage):
        path = self._write(tmp_path)
        parse_libsvm(path)
        entry = _entry(path)
        if damage == "truncated":
            entry.write_bytes(entry.read_bytes()[:len(entry.read_bytes()) // 2])
        elif damage == "garbage":
            entry.write_bytes(b"not a cache entry")
        else:   # the right key over arrays that SparseDataset rejects
            with np.load(entry) as saved:
                arrays = dict(saved)
            arrays["labels"] = arrays["labels"] * 2
            with open(entry, "wb") as handle:
                np.savez(handle, **arrays)
        self._assert_same(parse_libsvm(path), parse_libsvm(io.StringIO(self.TEXT)))
        assert len(parses) == 3
        parse_libsvm(path)
        assert len(parses) == 3 and _files(tmp_path) == [path.name, entry.name]

    @pytest.mark.parametrize("field", ["version", "encoding"])
    def test_entry_of_another_version_or_encoding_is_ignored(self, tmp_path, parses,
                                                             field):
        path = self._write(tmp_path)
        parse_libsvm(path)
        entry = _entry(path)
        with np.load(entry) as saved:
            arrays = dict(saved)
        version, encoding, digest = arrays["key"].item().split(" ")
        assert version == str(CACHE_VERSION)
        if field == "version":
            version = str(CACHE_VERSION + 1)
        else:
            encoding = "utf-16" if encoding.lower() != "utf-16" else "latin-1"
        arrays["key"] = np.array(" ".join((version, encoding, digest)))
        with open(entry, "wb") as handle:
            np.savez(handle, **arrays)
        parse_libsvm(path)
        assert len(parses) == 2

    def test_read_only_directory_still_parses(self, tmp_path, monkeypatch, capsys):
        path = self._write(tmp_path)
        if os.geteuid() == 0:   # root writes through mode bits: fail as EACCES would
            def refuse(*args, **kwargs):
                raise PermissionError(13, "Permission denied")
            monkeypatch.setattr(dataio.np, "savez", refuse)
        tmp_path.chmod(0o555)
        try:
            assert cli_main(["parse", str(path)]) == 0
        finally:
            tmp_path.chmod(0o755)
        assert "3 samples, dimension 5" in capsys.readouterr().out
        assert _files(tmp_path) == [path.name]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_is_parsed_and_not_cached(self, tmp_path):
        pipe = tmp_path / "data.libsvm"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(self.TEXT,))
        writer.start()
        try:
            parsed = parse_libsvm(pipe)
        finally:
            writer.join()
        self._assert_same(parsed, parse_libsvm(io.StringIO(self.TEXT)))
        assert _files(tmp_path) == [pipe.name]

    def test_malformed_file_raises_and_writes_nothing(self, tmp_path):
        text = self.TEXT + "+1 3:1.0 2:0.5\n"
        path = self._write(tmp_path, text)
        with pytest.raises(ParseError) as from_path:
            parse_libsvm(path)
        with pytest.raises(ParseError) as from_text:
            parse_libsvm(io.StringIO(text))
        assert str(from_path.value) == str(from_text.value)
        assert from_path.value.line_number == 4
        assert _files(tmp_path) == [path.name]

    @pytest.mark.parametrize("data, message", [
        (b"+1 1:0.5 2:\xff\n", "line 1: undecodable byte 0xff"),
        (TEXT.encode() + b"-1 1:\xfe0.5\n", "line 4: undecodable byte 0xfe"),
        # an earlier malformed line keeps its own error
        (b"+1 1:0.5\nbad 2:1\n+1 2:\xfe\n", "line 2: unparsable label 'bad'"),
    ], ids=["first line", "after valid lines", "earlier error first"])
    def test_undecodable_bytes_raise_and_write_nothing(self, tmp_path, data, message):
        path = tmp_path / "data.libsvm"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_libsvm(path)
        assert _files(tmp_path) == [path.name]

    def test_cache_entry_is_not_a_dataset(self, tmp_path):
        path = self._write(tmp_path)
        parse_libsvm(path)
        entry = _entry(path)
        with pytest.raises(ParseError, match="undecodable byte"):
            parse_libsvm(entry)
        assert _files(tmp_path) == [path.name, entry.name]

    @pytest.mark.parametrize("argv, message", [
        (["parse", "missing.libsvm"],
         "runtime error: [Errno 2] No such file or directory: 'missing.libsvm'\n"),
        (["parse", "folder"], "runtime error: [Errno 21] Is a directory: 'folder'\n"),
        (["parse", "."], "runtime error: [Errno 21] Is a directory: '.'\n"),
        (["run", "--dataset", "folder", "--T", "2", "--out", "out"],
         "runtime error: [Errno 21] Is a directory: 'folder'\n"),
    ])
    def test_missing_file_and_directory_are_runtime_errors(self, argv, message, tmp_path,
                                                           monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "folder").mkdir()
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == message
        assert _files(tmp_path) == ["folder"]


# the encoding open() reads a file in, as parse_libsvm does
ENCODING = io.TextIOWrapper(io.BytesIO()).encoding


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=CLEAN | FUZZ)
# the entry narrows indptr and indices to the types their largest values fit
@example(text="+1 1:-0 9223372036854775807:0.1\n-1 2:1e-320\n")
@example(text="-1 " + " ".join(f"{j}:{-j}" for j in range(1, 301)) + "\n")
@example(text="+1 1:1\r-1 2:x\n")
@example(text="+1 1:0.5\n-1 2:\udcff\n")
def test_stream_and_file_parse_alike_cold_and_warm(parses, text):
    """A text gives the same arrays byte for byte, or the same error, from a
    stream, from a file of its bytes (parsed, and its cache entry written),
    and from that file again (the entry loaded, no text parsed)."""
    # open() reads a file with universal newlines: a carriage return ends a line
    expected = outcome(parse_libsvm, io.StringIO(text, newline=None))
    try:
        data = text.encode(ENCODING, "surrogateescape")
    except UnicodeEncodeError:   # a lone surrogate that is no byte's escape has no file
        return
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "data.libsvm"
        path.write_bytes(data)
        parses.clear()
        assert outcome(parse_libsvm, path) == expected
        written = expected[0] == "rows"
        assert _files(path.parent) == [path.name] + [_entry(path).name] * written
        assert outcome(parse_libsvm, path) == expected
        assert len(parses) == 2 - written


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from([-1, 1]),
        st.lists(st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-1e12, max_value=1e12),
                 min_size=1, max_size=5),
    ),
    min_size=1, max_size=8,
))
def test_render_parse_round_trip(rows):
    samples = [
        SparseSample(label=label, features=tuple((j + 1, v) for j, v in enumerate(vals)))
        for label, vals in rows
    ]
    parsed, _ = parse_libsvm(io.StringIO(render_libsvm(samples)))
    assert list(parsed) == samples


class TestTracePersistence:
    def _record(self, T=5, seed=3):
        samples = synth_binary_dataset(8, 3, seed=1, separability=0.9)
        prob = logistic_problem(samples, lam=0.01)
        sch = Schedule("diminishing", gamma=0.3, horizon=T, lam=1.0)
        return smg_run(prob, sch, ShufflingStrategy("rr", seed), beta=0.5)

    def test_round_trip_floats_exact(self, tmp_path):
        rec = self._record()
        path = tmp_path / "trace.csv"
        sidecar = write_trace(rec, path, config={"algo": "smg"}, config_hash="deadbeef")
        data = read_trace(path)
        np.testing.assert_array_equal(data["eta"], rec.etas)
        np.testing.assert_array_equal(data["loss"], rec.losses)
        np.testing.assert_array_equal(data["grad_norm_sq"], rec.grad_norms_sq)
        np.testing.assert_array_equal(data["epoch"], np.arange(1, rec.T + 1))
        assert path.read_text().splitlines()[0] == "# config_hash=deadbeef seed=3"
        assert json.loads(sidecar.read_text())["config_hash"] == "deadbeef"

    def test_no_hash_leaves_the_stamp_empty(self, tmp_path):
        sidecar = write_trace(self._record(), tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text().splitlines()[0] == "# config_hash= seed=3"
        assert json.loads(sidecar.read_text())["config_hash"] is None

    def test_single_epoch_single_row(self, tmp_path):
        rec = self._record(T=1)
        path = tmp_path / "one.csv"
        write_trace(rec, path)
        assert read_trace(path)["epoch"].size == 1

    def test_identical_records_identical_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(self._record(), p1)
        write_trace(self._record(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_awkward_floats_survive(self, tmp_path):
        rec = self._record(T=3)
        rec.etas = np.array([0.1 + 0.2, 1e-300, 1.0 / 3.0])
        rec.losses = np.array([np.pi, 2e308 / 1e8, 5e-324])
        rec.grad_norms_sq = np.array([1e16 + 1.0, 0.0, 123456.789012345678])
        path = tmp_path / "odd.csv"
        write_trace(rec, path)
        data = read_trace(path)
        np.testing.assert_array_equal(data["eta"], rec.etas)
        np.testing.assert_array_equal(data["loss"], rec.losses)
        np.testing.assert_array_equal(data["grad_norm_sq"], rec.grad_norms_sq)

    def test_io_failure_surfaces_path(self, tmp_path):
        rec = self._record()
        missing = tmp_path / "no" / "such" / "dir" / "t.csv"
        with pytest.raises(OSError) as exc:
            write_trace(rec, missing)
        assert "t.csv" in str(exc.value)

    def test_sidecar_io_failure_surfaces_path(self, tmp_path):
        # the CSV is written, and a directory stands where the sidecar goes
        (tmp_path / "t.json").mkdir()
        with pytest.raises(OSError) as exc:
            write_trace(self._record(), tmp_path / "t.csv")
        assert str(exc.value).startswith(f"failed writing sidecar to {tmp_path / 't.json'}: ")
        assert (tmp_path / "t.csv").is_file()


class TestSyntheticData:
    def test_planted_labels_separable_at_full_separability(self):
        samples = synth_binary_dataset(200, 6, seed=11, separability=1.0)
        rng = np.random.default_rng(11)
        normal = rng.standard_normal(6)
        X = rng.standard_normal((200, 6))
        margins = X @ normal
        planted = np.where(margins >= 0, 1, -1)
        assert all(s.label == int(p) for s, p in zip(samples, planted))

    def test_same_seed_identical(self):
        a = synth_binary_dataset(50, 4, seed=9, separability=0.5)
        b = synth_binary_dataset(50, 4, seed=9, separability=0.5)
        assert list(a) == list(b)

    def test_training_decreases_loss(self):
        samples = synth_binary_dataset(32, 5, seed=7, separability=0.8)
        prob = logistic_problem(samples, lam=0.01)
        consts = logistic_constants(samples, 0.01)
        assert np.isfinite(consts.L) and np.isfinite(consts.G)
        sch = Schedule("constant", gamma=1.0, horizon=64)
        rec = smg_run(prob, sch, ShufflingStrategy("rr", 0), beta=0.5)
        assert prob.full_value(rec.final_w) < rec.losses[0]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synth_binary_dataset(0, 3, seed=0)
        with pytest.raises(ValueError):
            synth_binary_dataset(3, 3, seed=0, separability=1.5)


def test_scale_features_normalizes_columns():
    samples, _ = parse_libsvm(io.StringIO("+1 1:4.0 2:-1.0\n-1 1:-2.0\n"))
    scaled = scale_features(samples)
    assert scaled[0].features == ((1, 1.0), (2, -1.0))
    assert scaled[1].features == ((1, -0.5),)
