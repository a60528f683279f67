"""Permutation streams: bijectivity, reproducibility, statistical uniformity,
and the weighted output-iterate sampler."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from smgopt.shuffling import (
    ShufflingStrategy,
    permutation_for_epoch,
    select_output_index,
    selection_rng,
)


class TestPermutations:
    def test_incremental_is_identity(self):
        strat = ShufflingStrategy("inc", seed=42)
        for t in (1, 3, 17):
            np.testing.assert_array_equal(permutation_for_epoch(strat, 4, t),
                                          [0, 1, 2, 3])

    def test_shuffle_once_is_fixed(self):
        strat = ShufflingStrategy("once", seed=7)
        np.testing.assert_array_equal(permutation_for_epoch(strat, 20, 1),
                                      permutation_for_epoch(strat, 20, 7))

    def test_reshuffling_varies_by_epoch(self):
        strat = ShufflingStrategy("rr", seed=7)
        p1 = permutation_for_epoch(strat, 50, 1)
        p2 = permutation_for_epoch(strat, 50, 2)
        assert not np.array_equal(p1, p2)

    def test_stream_reproducible_out_of_order(self):
        strat = ShufflingStrategy("rr", seed=3)
        late = permutation_for_epoch(strat, 30, 9)
        early = permutation_for_epoch(strat, 30, 2)
        np.testing.assert_array_equal(late, permutation_for_epoch(strat, 30, 9))
        np.testing.assert_array_equal(early, permutation_for_epoch(strat, 30, 2))

    def test_empty_component_count_rejected(self):
        with pytest.raises(ValueError):
            permutation_for_epoch(ShufflingStrategy("rr", 0), 0, 1)
        with pytest.raises(ValueError):
            permutation_for_epoch(ShufflingStrategy("rr", 0), 5, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ShufflingStrategy("sorted", 0)

    def test_reshuffling_positionwise_uniform(self):
        # chi-square acceptance at the 0.001 level, per position, 1e4 draws
        n, draws = 52, 10_000
        strat = ShufflingStrategy("rr", seed=12345)
        counts = np.zeros((n, n), dtype=int)
        for t in range(1, draws + 1):
            p = permutation_for_epoch(strat, n, t)
            counts[np.arange(n), p] += 1
        expected = draws / n
        stat = ((counts - expected) ** 2 / expected).sum(axis=1)
        threshold = stats.chi2.ppf(1 - 0.001, df=n - 1)
        assert (stat < threshold).all()


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rr", "once", "inc"]),
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    n=st.integers(min_value=1, max_value=200),
    t=st.integers(min_value=1, max_value=50),
)
def test_bijectivity_property(kind, seed, n, t):
    strat = ShufflingStrategy(kind, seed)
    perm = permutation_for_epoch(strat, n, t)
    np.testing.assert_array_equal(np.sort(perm), np.arange(n))
    np.testing.assert_array_equal(perm, permutation_for_epoch(strat, n, t))


class TestOutputSelection:
    def test_probabilities_forced_by_normalization(self):
        etas = np.array([1.0, 2.0, 3.0])
        p = etas / etas.sum()
        np.testing.assert_allclose(p, [1 / 6, 1 / 3, 1 / 2], rtol=1e-15)
        assert abs(p.sum() - 1.0) <= 1e-15

    def test_uniform_under_constant_weights(self):
        rng = selection_rng(5)
        counts = np.zeros(4, dtype=int)
        for _ in range(40_000):
            counts[select_output_index(np.ones(4), rng)] += 1
        # 3-sigma multinomial envelope around 1/4
        sigma = np.sqrt(40_000 * 0.25 * 0.75)
        assert (np.abs(counts - 10_000) <= 3 * sigma).all()

    def test_weighted_frequencies_monte_carlo(self):
        etas = np.array([1.0, 2.0, 3.0])
        rng = selection_rng(999)
        draws = 100_000
        counts = np.zeros(3, dtype=int)
        for _ in range(draws):
            counts[select_output_index(etas, rng)] += 1
        p = etas / etas.sum()
        sigma = np.sqrt(draws * p * (1 - p))
        assert (np.abs(counts - draws * p) <= 3 * sigma).all()

    def test_deterministic_given_seed(self):
        etas = np.array([0.5, 0.2, 0.1])
        seq1 = [select_output_index(etas, selection_rng(11)) for _ in range(1)]
        seq2 = [select_output_index(etas, selection_rng(11)) for _ in range(1)]
        assert seq1 == seq2

    def test_zero_weight_epoch_never_selected(self):
        etas = np.array([1.0, 1.0, 0.0])
        rng = selection_rng(2)
        for _ in range(2000):
            assert select_output_index(etas, rng) != 2

    def test_rejects_bad_weights(self):
        rng = selection_rng(0)
        with pytest.raises(ValueError):
            select_output_index(np.array([]), rng)
        with pytest.raises(ValueError):
            select_output_index(np.array([1.0, -0.5]), rng)
        with pytest.raises(ValueError):
            select_output_index(np.zeros(3), rng)
