"""Optimizer loops: degenerate-momentum reductions, hand-traced steps,
epoch identities from the inner traces, determinism, and abort behavior."""
import time

import numpy as np
import pytest

import smgopt.optimizers as optimizers
from smgopt.optimizers import (
    RunAborted,
    adam_run,
    ensemble_run,
    sgdm_run,
    shuffling_sgd_run,
    smg_run,
    ssmg_run,
)
from smgopt.problems import logistic_problem, quadratic_mean_problem
from smgopt.schedules import Schedule
from smgopt.shuffling import ShufflingStrategy
from smgopt.dataio import synth_binary_dataset


def quad_problem(n=8, d=3, seed=0):
    centers = np.random.default_rng(seed).standard_normal((n, d))
    A = np.diag(np.linspace(1.0, 4.0, d))
    return quadratic_mean_problem(centers, A)


def scalar_problem():
    # single component f(w) = w^2 / 2
    return quadratic_mean_problem(np.array([[0.0]]), np.array([[1.0]]))


class TestMomentumReductions:
    @pytest.mark.parametrize("kind", ["rr", "once", "inc"])
    def test_smg_beta_zero_equals_sgd(self, kind):
        prob = quad_problem()
        sch = Schedule("constant", gamma=0.2, horizon=10)
        strat = ShufflingStrategy(kind, seed=5)
        a = smg_run(prob, sch, strat, beta=0.0)
        b = shuffling_sgd_run(prob, sch, strat)
        for wa, wb in zip(a.snapshots, b.snapshots):
            assert np.max(np.abs(wa - wb)) <= 1e-12
        assert np.max(np.abs(a.final_w - b.final_w)) <= 1e-12

    @pytest.mark.parametrize("kind", ["once", "inc"])
    def test_ssmg_beta_zero_equals_fixed_permutation_sgd(self, kind):
        prob = quad_problem()
        sch = Schedule("constant", gamma=0.2, horizon=8)
        strat = ShufflingStrategy(kind, seed=3)
        a = ssmg_run(prob, sch, strat, beta=0.0)
        b = shuffling_sgd_run(prob, sch, strat)
        for wa, wb in zip(a.snapshots, b.snapshots):
            assert np.max(np.abs(wa - wb)) <= 1e-12

    def test_sgdm_zero_momentum_equals_sgd(self):
        prob = quad_problem()
        sch = Schedule("constant", gamma=0.2, horizon=6)
        strat = ShufflingStrategy("rr", seed=1)
        a = sgdm_run(prob, sch, strat, beta=0.0)
        b = shuffling_sgd_run(prob, sch, strat)
        np.testing.assert_array_equal(a.final_w, b.final_w)


class TestHandTraces:
    def test_anchored_single_component_step(self):
        # f(w) = w^2/2, w0 = 1, per-step rate 0.1, beta = 0.5:
        # g = 1, m = 0.5, w -> 0.95; the next anchor is the epoch mean g = 1
        prob = scalar_problem()
        sch = Schedule("constant", gamma=0.1 * 2 ** (1 / 3), horizon=2)
        rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), beta=0.5,
                      w0=np.array([1.0]), inner_trace=True)
        assert rec.epochs[0].end_w[0] == pytest.approx(0.95, abs=1e-15)
        assert rec.epochs[1].anchor[0] == pytest.approx(1.0, abs=1e-15)

    def test_sgd_two_step_epoch_unrolled(self):
        centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
        prob = quadratic_mean_problem(centers, np.eye(2))
        eta = 0.3
        sch = Schedule("constant", gamma=eta, horizon=1)
        w0 = np.array([0.25, -0.5])
        rec = shuffling_sgd_run(prob, sch, ShufflingStrategy("inc", 0), w0=w0)
        step = eta / 2
        w1 = w0 - step * (w0 - centers[0])
        w2 = w1 - step * (w1 - centers[1])
        assert np.max(np.abs(rec.final_w - w2)) <= 1e-12

    def test_adam_descends_on_scalar_quadratic(self):
        prob = scalar_problem()
        rec = adam_run(prob, lr=0.001, T=1, strategy=ShufflingStrategy("inc", 0),
                       w0=np.array([1.0]))
        assert rec.final_w[0] < 1.0
        assert rec.etas[0] == 0.001


class TestAnchorSemantics:
    def test_anchor_is_previous_epoch_gradient_mean(self):
        prob = quad_problem(n=6, d=3, seed=2)
        sch = Schedule("diminishing", gamma=0.3, horizon=6, lam=1.0)
        rec = smg_run(prob, sch, ShufflingStrategy("rr", 4), beta=0.7,
                      inner_trace=True)
        for prev, cur in zip(rec.epochs, rec.epochs[1:]):
            mean = prev.gradients.mean(axis=0)
            err = np.linalg.norm(cur.anchor - mean)
            assert err <= 1e-12 * (1 + np.linalg.norm(cur.anchor))

    def test_anchor_constant_within_epoch(self):
        # every inner update must match the recorded epoch anchor exactly
        prob = quad_problem(n=5, d=2, seed=3)
        sch = Schedule("constant", gamma=0.2, horizon=4)
        beta = 0.6
        rec = smg_run(prob, sch, ShufflingStrategy("rr", 9), beta, inner_trace=True)
        for t, epoch in enumerate(rec.epochs, start=1):
            step = rec.etas[t - 1] / prob.n
            for i in range(prob.n):
                predicted = epoch.inner_iterates[i] - step * (
                    beta * epoch.anchor + (1 - beta) * epoch.gradients[i])
                err = np.max(np.abs(epoch.inner_iterates[i + 1] - predicted))
                assert err <= 1e-14

    def test_epoch_displacement_identity(self):
        # w_t - w_{t-1} = -(eta_t/n) sum_j (beta g_j^{(t-1)} + (1-beta) g_j^{(t)})
        for seed in range(3):
            prob = quad_problem(n=8, d=3, seed=seed)
            sch = Schedule("constant", gamma=0.2, horizon=5)
            beta = 0.5
            rec = smg_run(prob, sch, ShufflingStrategy("rr", seed), beta,
                          inner_trace=True)
            for t in range(2, 6):
                prev, cur = rec.epochs[t - 2], rec.epochs[t - 1]
                mix = (beta * prev.gradients.sum(axis=0)
                       + (1 - beta) * cur.gradients.sum(axis=0))
                predicted = -(rec.etas[t - 1] / prob.n) * mix
                actual = cur.end_w - cur.start_w
                assert np.linalg.norm(actual - predicted) <= 1e-10


class TestRecursiveMomentum:
    def test_momentum_norm_bounded_on_logistic(self):
        samples = synth_binary_dataset(32, 5, seed=7, separability=0.8)
        prob = logistic_problem(samples, lam=0.01)
        sch = Schedule("constant", gamma=0.9 / prob.constants.L * 4, horizon=64)
        rec = ssmg_run(prob, sch, ShufflingStrategy("once", 0), beta=0.85,
                       inner_trace=True)
        G = prob.constants.G
        for epoch in rec.epochs:
            assert np.linalg.norm(epoch.momenta, axis=1).max() <= G

    def test_momentum_carries_across_epochs(self):
        prob = quad_problem(n=4, d=2, seed=1)
        sch = Schedule("constant", gamma=0.1, horizon=3)
        beta = 0.5
        rec = ssmg_run(prob, sch, ShufflingStrategy("inc", 0), beta,
                       inner_trace=True)
        for prev, cur in zip(rec.epochs, rec.epochs[1:]):
            m0 = prev.momenta[-1]
            expected = beta * m0 + (1 - beta) * cur.gradients[0]
            assert np.max(np.abs(cur.momenta[0] - expected)) <= 1e-14

    def test_fixed_permutation_reused(self):
        prob = quad_problem(n=6, d=2, seed=4)
        sch = Schedule("constant", gamma=0.1, horizon=4)
        rec = ssmg_run(prob, sch, ShufflingStrategy("rr", 8), beta=0.3,
                       inner_trace=True)
        first = rec.epochs[0].permutation
        for epoch in rec.epochs[1:]:
            np.testing.assert_array_equal(epoch.permutation, first)


class TestRunRecord:
    def test_determinism_bit_stable(self):
        prob = quad_problem()
        sch = Schedule("cosine", gamma=0.4, horizon=12)
        strat = ShufflingStrategy("rr", seed=13)
        a = smg_run(prob, sch, strat, beta=0.5)
        b = smg_run(prob, sch, strat, beta=0.5)
        np.testing.assert_array_equal(a.losses, b.losses)
        np.testing.assert_array_equal(a.grad_norms_sq, b.grad_norms_sq)
        np.testing.assert_array_equal(a.final_w, b.final_w)
        assert a.selected_index == b.selected_index
        np.testing.assert_array_equal(a.selected_w, b.selected_w)

    def test_weighted_average_from_rows(self):
        prob = quad_problem()
        sch = Schedule("diminishing", gamma=0.3, horizon=7, lam=2.0)
        rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), beta=0.2)
        manual = float(np.dot(rec.etas, rec.grad_norms_sq) / rec.etas.sum())
        assert rec.weighted_grad_avg() == pytest.approx(manual, rel=1e-15)
        assert rec.T == 7 and rec.losses.size == 7

    def test_selected_iterate_matches_snapshot(self):
        prob = quad_problem()
        sch = Schedule("constant", gamma=0.3, horizon=9)
        rec = smg_run(prob, sch, ShufflingStrategy("rr", 2), beta=0.5)
        np.testing.assert_array_equal(rec.selected_w,
                                      rec.snapshots[rec.selected_index])

    def test_selection_consistent_with_public_sampler(self):
        # sampling the run's step sizes with the run's seed must reproduce
        # the run's own output choice
        from smgopt.shuffling import select_output_index, selection_rng
        prob = quad_problem()
        sch = Schedule("diminishing", gamma=0.3, horizon=11, lam=1.0)
        rec = smg_run(prob, sch, ShufflingStrategy("rr", 6), beta=0.5)
        idx = select_output_index(rec.etas, selection_rng(6))
        assert idx == rec.selected_index
        np.testing.assert_array_equal(rec.snapshots[idx], rec.selected_w)

    def test_snapshot_budget_drops_history_not_selection(self, monkeypatch):
        prob = quad_problem(n=3, d=2, seed=6)
        sch = Schedule("constant", gamma=0.3, horizon=5)
        strat = ShufflingStrategy("rr", 7)
        full = smg_run(prob, sch, strat, beta=0.4)
        monkeypatch.setattr(optimizers, "SNAPSHOT_BUDGET", 4)
        lean = smg_run(prob, sch, strat, beta=0.4)
        assert lean.snapshots is None
        assert lean.selected_index == full.selected_index
        np.testing.assert_array_equal(lean.selected_w, full.selected_w)
        # the budget covers an ensemble's R * T * d, not each member's T * d
        monkeypatch.setattr(optimizers, "SNAPSHOT_BUDGET", 5 * 2)
        assert smg_run(prob, sch, strat, beta=0.4).snapshots is not None
        members = ensemble_run("smg", prob, sch.etas(),
                               [strat, ShufflingStrategy("rr", 8)], 0.4)
        assert [m.snapshots for m in members] == [None, None]
        assert members[0].selected_index == full.selected_index
        np.testing.assert_array_equal(members[0].selected_w, full.selected_w)

    def test_invalid_inputs(self):
        prob = quad_problem()
        sch = Schedule("constant", gamma=0.3, horizon=4)
        strat = ShufflingStrategy("rr", 0)
        with pytest.raises(ValueError):
            smg_run(prob, sch, strat, beta=1.0)
        with pytest.raises(ValueError):
            smg_run(prob, sch, strat, beta=0.5, w0=np.zeros(99))


class TestAbortPolicy:
    def test_oversized_rate_aborts_with_epoch(self):
        prob = quad_problem(n=4, d=2, seed=0)
        sch = Schedule("constant", gamma=1e200, horizon=10)
        with pytest.raises(RunAborted) as exc:
            shuffling_sgd_run(prob, sch, ShufflingStrategy("inc", 0))
        assert isinstance(exc.value.epoch, int) and exc.value.epoch >= 1

    def test_momentum_runs_abort_too(self):
        prob = quad_problem(n=4, d=2, seed=0)
        sch = Schedule("constant", gamma=1e200, horizon=10)
        for run in (lambda: smg_run(prob, sch, ShufflingStrategy("inc", 0), 0.5),
                    lambda: ssmg_run(prob, sch, ShufflingStrategy("inc", 0), 0.5)):
            with pytest.raises(RunAborted):
                run()


def test_inner_step_cost_does_not_grow_with_n():
    # coarse budget: per-step time roughly independent of the component count
    def per_step_time(n):
        prob = quad_problem(n=n, d=8, seed=1)
        sch = Schedule("constant", gamma=0.1, horizon=3)
        start = time.perf_counter()
        smg_run(prob, sch, ShufflingStrategy("inc", 0), beta=0.5)
        return (time.perf_counter() - start) / (3 * n)

    small = min(per_step_time(64) for _ in range(3))
    large = min(per_step_time(512) for _ in range(3))
    assert large <= 3 * small
