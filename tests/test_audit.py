"""Bound evaluation: closed-form collapses of the bound right-hand sides
under specific schedules, deterministic and Monte Carlo satisfaction,
refusal paths, soundness monotonicity, rate fitting, and the identity
suite."""
from dataclasses import replace

import numpy as np
import pytest

from smgopt.audit import (
    AuditRefusal,
    audit_runs,
    bound_rhs,
    cosine_sum_deviation,
    fit_power_law,
    identity_suite,
    theorem_for,
)
from smgopt.cli import main as cli_main
from smgopt.optimizers import RunRecord, shuffling_sgd_run, smg_run, ssmg_run
from smgopt.problems import ProblemConstants, logistic_problem, quadratic_mean_problem
from smgopt.schedules import Schedule, cap_general, cap_rr, schedule_sums
from smgopt.shuffling import ShufflingStrategy, init_point
from smgopt.dataio import synth_binary_dataset


def quad_problem(n=8, d=3, seed=0, spread=1.0):
    centers = spread * np.random.default_rng(seed).standard_normal((n, d))
    A = np.diag(np.linspace(1.0, 4.0, d))
    return quadratic_mean_problem(centers, A)


def logistic_toy():
    samples = synth_binary_dataset(32, 5, seed=7, separability=0.8)
    return logistic_problem(samples, lam=0.01)


def capped_constant_schedule(problem, beta, T, fraction=0.9, rr=False):
    if rr:
        cap = cap_rr(beta, problem.constants.theta, problem.n, problem.constants.L)
        gamma = fraction * cap.max_eta * T ** (1 / 3) / problem.n ** (1 / 3)
        return Schedule("constant", gamma=gamma, horizon=T, rr_scale=problem.n)
    cap = cap_general(beta, problem.constants.theta, problem.constants.L)
    gamma = fraction * cap.max_eta * T ** (1 / 3)
    return Schedule("constant", gamma=gamma, horizon=T)


class TestTheorem1:
    def test_zero_variance_leaves_only_initial_gap_term(self):
        prob = quad_problem(spread=0.0)  # identical centers, sigma^2 = 0
        beta, T = 0.3, 16
        sch = capped_constant_schedule(prob, beta, T)
        rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), beta)
        sums = schedule_sums(sch.etas())
        rhs = bound_rhs("T1", rec, prob)
        expected = 4 * (rec.losses[0] - prob.constants.f_lower) / ((1 - beta) * sums.sum_eta)
        assert rhs == pytest.approx(expected, rel=1e-15)

    def test_constant_rate_collapse_at_beta_zero(self):
        # (1/T^(2/3)) (4 dF / gamma + 45 sigma^2 L^2 gamma^2)
        prob = quad_problem()
        T = 27
        sch = capped_constant_schedule(prob, 0.0, T)
        rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), 0.0)
        rhs = bound_rhs("T1", rec, prob)
        gamma = sch.gamma
        dF = rec.losses[0] - prob.constants.f_lower
        L2 = prob.constants.L ** 2
        expected = (4 * dF / gamma + 45 * prob.constants.sigma_sq * L2 * gamma ** 2) / T ** (2 / 3)
        assert rhs == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_deterministic_bound_holds(self, beta):
        prob = quad_problem()
        sch = capped_constant_schedule(prob, beta, 32)
        rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), beta)
        [report] = audit_runs([rec], prob)
        assert report.satisfied and report.slack > 0

    def test_cap_violation_refused(self):
        prob = quad_problem()
        beta = 0.5
        sch = capped_constant_schedule(prob, beta, 16, fraction=1.5)
        rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), beta)
        with pytest.raises(AuditRefusal):
            bound_rhs("T1", rec, prob)


class TestTheorem2:
    def test_variance_term_ratio_against_theorem1(self):
        # with theta = 0 and beta = 0 the variance terms differ by 2/(3n)
        prob = quad_problem()
        n, T = prob.n, 16
        sch = capped_constant_schedule(prob, 0.0, T, fraction=0.2)
        rec = smg_run(prob, sch, ShufflingStrategy("rr", 0), 0.0)
        sums = schedule_sums(sch.etas())
        first = 4 * (rec.losses[0] - prob.constants.f_lower) / sums.sum_eta
        var1 = bound_rhs("T1", rec, prob) - first
        var2 = bound_rhs("T2", rec, prob) - first
        assert var2 == pytest.approx(var1 * 2 / (3 * n), rel=1e-12)

    def test_constant_rr_rate_collapse_at_beta_zero(self):
        # (1/(n^(1/3) T^(2/3))) (4 dF / gamma + 30 sigma^2 L^2 gamma^2)
        prob = quad_problem()
        n, T = prob.n, 16
        sch = capped_constant_schedule(prob, 0.0, T, rr=True)
        rec = smg_run(prob, sch, ShufflingStrategy("rr", 1), 0.0)
        rhs = bound_rhs("T2", rec, prob)
        gamma = sch.gamma
        dF = rec.losses[0] - prob.constants.f_lower
        L2 = prob.constants.L ** 2
        expected = ((4 * dF / gamma + 30 * prob.constants.sigma_sq * L2 * gamma ** 2)
                    / (n ** (1 / 3) * T ** (2 / 3)))
        assert rhs == pytest.approx(expected, rel=1e-12)

    def test_seed_mean_within_three_standard_errors(self):
        prob = quad_problem()
        beta, T = 0.5, 16
        sch = capped_constant_schedule(prob, beta, T, rr=True)
        w0 = init_point(prob.d, 0)
        records = [smg_run(prob, sch, ShufflingStrategy("rr", s), beta, w0)
                   for s in range(50)]
        [report] = audit_runs(records, prob)
        assert report.satisfied
        assert report.extras["n_runs"] == 50

    def test_requires_reshuffling_strategy(self):
        prob = quad_problem()
        sch = capped_constant_schedule(prob, 0.0, 8, rr=True)
        rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), 0.0)
        with pytest.raises(AuditRefusal):
            bound_rhs("T2", rec, prob)

    def test_mixed_starting_points_refused(self):
        prob = quad_problem()
        sch = capped_constant_schedule(prob, 0.0, 8, rr=True)
        records = [smg_run(prob, sch, ShufflingStrategy("rr", s), 0.0)
                   for s in range(2)]  # per-seed initial points differ
        with pytest.raises(AuditRefusal):
            audit_runs(records, prob)


class TestTheorem3:
    def test_residual_vanishes_at_beta_zero(self):
        prob = logistic_toy()
        T = 16
        sch = Schedule("constant", gamma=0.5 / prob.constants.L * T ** (1 / 3),
                       horizon=T)
        rec = ssmg_run(prob, sch, ShufflingStrategy("once", 0), beta=0.0)
        sums = schedule_sums(sch.etas())
        rhs = bound_rhs("T3", rec, prob)
        c = prob.constants
        eta1 = sch.eta(1)
        delta1 = (2 * rec.losses[0] + (1 / c.L + eta1) * rec.grad_norms_sq[0]
                  + 2 * c.L * eta1 ** 2 * c.G ** 2)
        expected = delta1 / sums.sum_eta + c.L ** 2 * c.G ** 2 * sums.sum_xi_cubed / sums.sum_eta
        assert rhs == pytest.approx(expected, rel=1e-12)

    def test_momentum_power_matches_target(self):
        nu, T, n = 0.1, 64, 32
        beta = (nu / T ** (2 / 3)) ** (1 / n)
        assert beta ** n == pytest.approx(nu / T ** (2 / 3), abs=1e-12)

    def test_deterministic_bound_holds_on_logistic_toy(self):
        prob = logistic_toy()
        nu, T, n = 0.1, 64, prob.n
        beta = (nu / T ** (2 / 3)) ** (1 / n)
        sch = Schedule("constant", gamma=0.9 / prob.constants.L * T ** (1 / 3),
                       horizon=T)
        rec = ssmg_run(prob, sch, ShufflingStrategy("once", 0), beta)
        [report] = audit_runs([rec], prob)
        assert report.satisfied and report.slack > 0

    def test_unbounded_gradient_refused(self):
        prob = quad_problem()
        sch = Schedule("constant", gamma=0.01, horizon=8)
        rec = ssmg_run(prob, sch, ShufflingStrategy("inc", 0), beta=0.2)
        with pytest.raises(AuditRefusal):
            bound_rhs("T3", rec, prob)

    @pytest.mark.parametrize("kind", ["rr", "once", "inc"])
    def test_every_ssmg_strategy_keeps_one_permutation(self, kind):
        # T3 assumes one permutation for all epochs; ssmg steps along its
        # strategy's epoch-1 permutation in every epoch, even under rr
        assert theorem_for("ssmg", kind) == "T3"
        prob = quad_problem(n=6, d=2, seed=4)
        sch = Schedule("constant", gamma=0.1, horizon=4)
        strat = ShufflingStrategy(kind, 5)
        ssmg = [e.permutation for e in ssmg_run(prob, sch, strat, 0.3, inner_trace=True).epochs]
        smg = [e.permutation for e in smg_run(prob, sch, strat, 0.3, inner_trace=True).epochs]
        assert len(ssmg) == 4
        for perm in ssmg[1:]:
            np.testing.assert_array_equal(perm, ssmg[0])
        # smg under the same rr strategy draws a fresh permutation per epoch
        assert (len({p.tobytes() for p in smg}) > 1) == (kind == "rr")


class TestRefusalAndSoundness:
    def _record_with_etas(self, etas, beta=0.0):
        T = len(etas)
        return RunRecord(
            algo="smg", etas=np.asarray(etas, dtype=float),
            losses=np.linspace(1.0, 0.5, T), grad_norms_sq=np.full(T, 0.1),
            selected_index=0, selected_w=np.zeros(2), final_w=np.zeros(2),
            seed=0, beta=beta, strategy_kind="rr",
        )

    def _unit_problem(self):
        consts = ProblemConstants(L=1.0, G=1.0, theta=0.0, sigma_sq=1.0, f_lower=0.0)
        return replace(quad_problem(n=4), constants=consts)

    def test_non_monotone_schedule_refused(self):
        rec = self._record_with_etas([0.01, 0.02, 0.01])
        for theorem in ("T1", "T2", "T3"):
            with pytest.raises(AuditRefusal, match="not non-increasing"):
                bound_rhs(theorem, rec, self._unit_problem())

    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3"])
    def test_vacuous_bound_refused(self, theorem):
        # rates this small sum to a subnormal, whose reciprocal overflows
        rec = self._record_with_etas([1e-320] * 3)
        with pytest.raises(AuditRefusal, match="vacuous"):
            bound_rhs(theorem, rec, self._unit_problem())

    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3"])
    def test_underflowing_denominator_refused(self, theorem):
        # (1 - beta) S1 and S1 (1 - beta^n) underflow to 0 at these rates
        rec = self._record_with_etas([1e-320] * 2, beta=0.999999)
        with pytest.raises(AuditRefusal,
                           match="the bound is vacuous: its right-hand side is inf"):
            bound_rhs(theorem, rec, self._unit_problem())

    def test_unknown_theorem_is_an_error(self):
        rec = self._record_with_etas([0.01] * 3)
        with pytest.raises(ValueError, match="unknown theorem 'T4'"):
            bound_rhs("T4", rec, self._unit_problem())

    def test_refusals_never_report_satisfied(self):
        prob = quad_problem()
        beta = 0.5
        sch = capped_constant_schedule(prob, beta, 8, fraction=2.0)
        rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), beta)
        with pytest.raises(AuditRefusal):
            audit_runs([rec], prob)

    def test_rhs_monotone_in_certified_constants(self):
        prob = quad_problem()
        beta = 0.25
        sch = capped_constant_schedule(prob, beta, 16, fraction=0.5)
        rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), beta)
        c = prob.constants
        base = bound_rhs("T1", rec, prob)
        more_var = ProblemConstants(L=c.L, G=c.G, theta=c.theta,
                                    sigma_sq=1.1 * c.sigma_sq, f_lower=c.f_lower)
        lower_floor = ProblemConstants(L=c.L, G=c.G, theta=c.theta,
                                       sigma_sq=c.sigma_sq,
                                       f_lower=c.f_lower - 0.1 * abs(c.f_lower) - 0.1)
        assert bound_rhs("T1", rec, replace(prob, constants=more_var)) >= base
        assert bound_rhs("T1", rec, replace(prob, constants=lower_floor)) >= base


class TestAuditRunsReadsTheRecords:
    """audit_runs takes its bound, rates and momentum weight from the records."""

    def test_incremental_runs_get_one_t1_report_each(self):
        prob = quad_problem()
        sch = capped_constant_schedule(prob, 0.5, 8)
        records = [smg_run(prob, sch, ShufflingStrategy("inc", s), 0.5) for s in range(2)]
        reports = audit_runs(records, prob)
        assert [r.theorem for r in reports] == ["T1", "T1"]
        assert [r.rhs for r in reports] == [bound_rhs("T1", r, prob) for r in records]

    def test_reshuffled_runs_from_one_start_get_one_t2_report(self):
        prob = quad_problem()
        sch = capped_constant_schedule(prob, 0.5, 8, rr=True)
        w0 = init_point(prob.d, 0)
        records = [smg_run(prob, sch, ShufflingStrategy("rr", s), 0.5, w0) for s in range(3)]
        [report] = audit_runs(records, prob)
        assert report.theorem == "T2" and report.extras["n_runs"] == 3
        assert report.rhs == bound_rhs("T2", records[0], prob)

    def test_ssmg_under_reshuffling_gets_t3(self):
        prob = logistic_toy()
        sch = Schedule("constant", gamma=0.5 / prob.constants.L * 8 ** (1 / 3), horizon=8)
        rec = ssmg_run(prob, sch, ShufflingStrategy("rr", 0), 0.3)
        [report] = audit_runs([rec], prob)
        assert report.theorem == "T3"
        assert report.constants_used["beta"] == rec.beta == 0.3

    def test_sgd_runs_refused(self):
        prob = quad_problem()
        rec = shuffling_sgd_run(prob, Schedule("constant", gamma=0.01, horizon=4),
                                ShufflingStrategy("inc", 0))
        with pytest.raises(AuditRefusal, match="no convergence bound is audited for 'sgd'"):
            audit_runs([rec], prob)

    def test_no_runs_is_an_error(self):
        with pytest.raises(ValueError, match="need at least one run"):
            audit_runs([], quad_problem())


class TestRateFit:
    def test_exact_power_law_recovered(self):
        horizons = [8, 16, 32, 64, 128]
        metrics = [3.7 * T ** (-2 / 3) for T in horizons]
        fit = fit_power_law(horizons, metrics)
        assert fit.slope == pytest.approx(-2 / 3, abs=1e-9)
        assert not fit.low_confidence

    def test_flat_metric_gives_zero_slope(self):
        fit = fit_power_law([8, 16, 32, 64], [0.5] * 4)
        assert fit.slope == 0.0 and fit.intercept == np.log(0.5)

    def test_few_points_flagged(self):
        fit = fit_power_law([8, 16], [1.0, 0.5])
        assert fit.low_confidence

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([8], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([8, 8], [1.0, 1.0])
        with pytest.raises(ValueError):
            fit_power_law([8, 16], [1.0, -1.0])
        with pytest.raises(ValueError, match="equal length"):
            fit_power_law([8, 16, 32], [1.0, 0.5])

    def test_empirical_slope_on_logistic_toy(self, tmp_path):
        # the CLI's synthetic data at seed 7 is logistic_toy()'s
        assert cli_main(["rate", "--horizons", "8,16,32,64", "--gamma", "2.0",
                         "--beta", "0.5", "--strategy", "rr", "--seed", "0",
                         "--repeats", "2", "--synth-seed", "7",
                         "--out", str(tmp_path)]) == 0
        rows = [row.split(",") for row in (tmp_path / "rate.csv").read_text().splitlines()[2:]]
        fit = fit_power_law([int(T) for T, _ in rows], [float(m) for _, m in rows])
        assert fit.slope <= -0.35  # short-horizon prefix of the full sweep


class TestIdentitySuite:
    def test_scalar_quadratic_all_pass_tightly(self):
        prob = quadratic_mean_problem(np.array([[1.0]]), np.array([[1.0]]))
        checks = identity_suite(prob, beta=0.5, T=2, seed=0, tolerance=1e-12)
        for chk in checks:
            assert chk.passed, f"{chk.name}: {chk.max_deviation}"

    def test_logistic_toy_within_tolerance(self):
        checks = identity_suite(logistic_toy(), beta=0.5, T=6, seed=1)
        assert all(chk.max_deviation <= 1e-10 for chk in checks)

    def test_beta_zero_expansion_degenerates(self):
        prob = quad_problem(n=4, d=2, seed=5)
        checks = {c.name: c for c in identity_suite(prob, beta=0.0, T=4, seed=2)}
        assert checks["recursive_momentum_expansion"].max_deviation <= 1e-14

    def test_cosine_sum_small_horizon(self):
        # T = 2: (1 + cos(pi/2)) + (1 + cos(pi)) = 1 = T - 1
        sch = Schedule("cosine", gamma=2 ** (1 / 3), horizon=2)
        assert schedule_sums(sch.etas()).sum_eta == pytest.approx(1.0, abs=1e-15)
        assert cosine_sum_deviation(64) <= 1e-12


class TestBoundReportShape:
    def test_json_fields_exactly_as_typed(self):
        prob = quad_problem()
        beta = 0.5
        sch = capped_constant_schedule(prob, beta, 8)
        rec = smg_run(prob, sch, ShufflingStrategy("inc", 0), beta)
        [report] = audit_runs([rec], prob)
        payload = report.to_dict()
        assert set(payload) == {"theorem", "lhs", "rhs", "constants_used",
                                "satisfied", "slack"}
        assert set(payload["constants_used"]) == {
            "L", "theta", "sigma_sq", "G", "beta", "F_w0", "f_lower",
            "sum_eta", "sum_eta_prev_cubed", "sum_xi_cubed"}
        assert isinstance(payload["satisfied"], bool)
        assert report.summary().startswith("T1:")
        import json
        json.dumps(payload)  # fully serializable
