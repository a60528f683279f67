"""Parser conformance, trace round-trips, and synthetic-dataset properties."""
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smgopt.dataio import (
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
        rec = smg_run(prob, sch, ShufflingStrategy("rr", seed), beta=0.5)
        rec.config_hash = "deadbeef"
        return rec

    def test_round_trip_floats_exact(self, tmp_path):
        rec = self._record()
        path = tmp_path / "trace.csv"
        sidecar = write_trace(rec, path, config={"algo": "smg"})
        data = read_trace(path)
        np.testing.assert_array_equal(data["eta"], rec.etas)
        np.testing.assert_array_equal(data["loss"], rec.losses)
        np.testing.assert_array_equal(data["grad_norm_sq"], rec.grad_norms_sq)
        np.testing.assert_array_equal(data["epoch"], np.arange(1, rec.T + 1))
        assert sidecar.exists()

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
