"""Schedule formulas, closed-form sums, and the step-size cap constants."""
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smgopt.schedules import (
    Schedule,
    cap_general,
    cap_rr,
    is_non_increasing,
    schedule_sums,
)


class TestEta:
    def test_constant_halves_at_t8(self):
        sch = Schedule("constant", gamma=1.0, horizon=8)
        assert all(sch.eta(t) == pytest.approx(0.5, rel=1e-15) for t in range(1, 9))

    def test_cosine_values_t4(self):
        # gamma chosen so gamma / T^(1/3) = 1
        sch = Schedule("cosine", gamma=4 ** (1 / 3), horizon=4)
        expected = [1.7071067811865475, 1.0, 0.2928932188134525, 0.0]
        for t, e in enumerate(expected, start=1):
            assert sch.eta(t) == pytest.approx(e, abs=1e-12)
        assert schedule_sums(sch.etas()).sum_eta == pytest.approx(3.0, abs=1e-12)

    def test_exponential_terminal_value(self):
        gamma, rho, T = 1.3, 0.5, 10
        sch = Schedule("exponential", gamma=gamma, horizon=T, rho=rho)
        direct = sch.eta(10)
        assert direct == pytest.approx(gamma * 0.5 / 10 ** (1 / 3), rel=1e-12)
        # oracle: repeated multiplication by alpha = rho^(1/T)
        alpha = rho ** (1 / T)
        value = gamma / T ** (1 / 3)
        for _ in range(10):
            value *= alpha
        assert direct == pytest.approx(value, rel=1e-12)

    def test_rr_scaling_multiplies_gamma(self):
        plain = Schedule("constant", gamma=0.2, horizon=27)
        scaled = Schedule("constant", gamma=0.2, horizon=27, rr_scale=8)
        assert scaled.eta(1) == pytest.approx(8 ** (1 / 3) * plain.eta(1), rel=1e-12)

    def test_out_of_range_epoch(self):
        sch = Schedule("constant", gamma=1.0, horizon=4)
        with pytest.raises(ValueError):
            sch.eta(0)
        with pytest.raises(ValueError):
            sch.eta(5)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Schedule("constant", gamma=0.0, horizon=4)
        with pytest.raises(ValueError):
            Schedule("constant", gamma=1.0, horizon=0)
        with pytest.raises(ValueError):
            Schedule("exponential", gamma=1.0, horizon=4)  # rho missing
        with pytest.raises(ValueError):
            Schedule("exponential", gamma=1.0, horizon=4, rho=1.5)
        with pytest.raises(ValueError):
            Schedule("warmup", gamma=1.0, horizon=4)
        with pytest.raises(ValueError, match="rr_scale must be >= 1"):
            Schedule("constant", gamma=1.0, horizon=4, rr_scale=0)
        # every rate of a one-epoch cosine schedule is 0
        with pytest.raises(ValueError, match="cosine schedule over T=1 epoch"):
            Schedule("cosine", 1.0, 1)


class TestMonotonicity:
    @pytest.mark.parametrize("kind,kwargs", [
        ("constant", {}),
        ("diminishing", {"lam": 2.0}),
        ("exponential", {"rho": 0.99}),
        ("cosine", {}),
    ])
    def test_non_increasing_up_to_1e4(self, kind, kwargs):
        sch = Schedule(kind, gamma=0.7, horizon=10_000, **kwargs)
        etas = sch.etas()
        assert is_non_increasing(etas)
        assert (etas[:-1] >= etas[1:] - 1e-15).all()

    def test_positive_except_cosine_endpoint(self):
        for kind, kwargs in [("constant", {}), ("diminishing", {}),
                             ("exponential", {"rho": 0.9})]:
            etas = Schedule(kind, gamma=1.0, horizon=50, **kwargs).etas()
            assert (etas > 0).all()
        cos = Schedule("cosine", gamma=1.0, horizon=50).etas()
        assert (cos[:-1] > 0).all() and cos[-1] == 0.0


@settings(max_examples=50, deadline=None)
@given(
    kind=st.sampled_from(["constant", "diminishing", "exponential", "cosine"]),
    gamma=st.floats(min_value=1e-3, max_value=10.0),
    lam=st.floats(min_value=0.0, max_value=8.0),
    rho=st.floats(min_value=0.01, max_value=0.999),
    T=st.integers(min_value=1, max_value=500),
)
def test_monotone_property(kind, gamma, lam, rho, T):
    assume(not (kind == "cosine" and T == 1))   # refused: its every rate is 0
    sch = Schedule(kind, gamma=gamma, horizon=T, lam=lam, rho=rho)
    assert is_non_increasing(sch.etas())


class TestSums:
    def test_constant_closed_forms(self):
        gamma, T = 0.8, 125
        sums = schedule_sums(Schedule("constant", gamma=gamma, horizon=T).etas())
        assert sums.sum_eta == pytest.approx(gamma * T ** (2 / 3), rel=1e-10)
        assert sums.sum_eta_prev_cubed == pytest.approx(gamma ** 3, rel=1e-10)
        assert sums.sum_xi_cubed == pytest.approx(gamma ** 3, rel=1e-10)

    def test_single_epoch_diminishing(self):
        gamma = 0.37
        sums = schedule_sums(Schedule("diminishing", gamma=gamma, horizon=1, lam=0.0).etas())
        assert sums.sum_eta == pytest.approx(gamma, rel=1e-14)
        assert sums.sum_eta_prev_cubed == pytest.approx(gamma ** 3, rel=1e-14)
        assert sums.sum_xi_cubed == pytest.approx(gamma ** 3, rel=1e-14)

    def test_cosine_sum_matches_closed_form(self):
        # sum eta_t = gamma (T - 1) / T^(1/3) because the cosines sum to -1
        for T in (2, 5, 32, 333, 1000):
            gamma = 0.6
            sums = schedule_sums(Schedule("cosine", gamma=gamma, horizon=T).etas())
            assert sums.sum_eta == pytest.approx(gamma * (T - 1) / T ** (1 / 3),
                                                 abs=1e-9)

    def test_xi_equals_previous_eta_for_monotone(self):
        sch = Schedule("diminishing", gamma=1.0, horizon=12, lam=1.0)
        sums = schedule_sums(sch.etas())
        assert sums.sum_xi_cubed == pytest.approx(sums.sum_eta_prev_cubed, rel=1e-14)


class TestCaps:
    def test_general_cap_values(self):
        # independently coded closed form: max(5/2, (45 - 27 b)(theta+1)/(1-b))
        oracle = lambda b, th: max(2.5, (45 - 27 * b) * (th + 1) / (1 - b))
        assert cap_general(0.0, 0.0, 1.0).constant == oracle(0.0, 0.0) == 45.0
        assert cap_general(0.5, 1.0, 1.0).constant == oracle(0.5, 1.0) == 126.0

    def test_rr_cap_values(self):
        oracle = lambda b, th, n: max(5 / 3, (30 - 18 * b) * (th + n) / (n * (1 - b)))
        for n in (1, 8, 100):
            assert cap_rr(0.0, 0.0, n, 1.0).constant == oracle(0.0, 0.0, n) == 30.0
        assert cap_rr(0.5, 0.0, 1, 1.0).constant == oracle(0.5, 0.0, 1) == 42.0

    def test_rr_cap_large_n_limit(self):
        beta, theta = 0.3, 5.0
        limit = 6 * (5 - 3 * beta) / (1 - beta)
        assert cap_rr(beta, theta, 10 ** 6, 1.0).constant == pytest.approx(limit,
                                                                           abs=1e-3)

    def test_cap_grows_with_momentum(self):
        theta = 2.0
        assert cap_general(0.99, theta, 1.0).constant > cap_general(0.5, theta, 1.0).constant

    def test_max_eta_scaling(self):
        cap = cap_general(0.0, 0.0, L=2.0)
        assert cap.max_eta == pytest.approx(1.0 / (2.0 * math.sqrt(45.0)), rel=1e-15)

    def test_cap_argument_validation(self):
        with pytest.raises(ValueError):
            cap_general(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            cap_general(-0.1, 0.0, 1.0)
        with pytest.raises(ValueError):
            cap_rr(0.5, 0.0, 0, 1.0)
        with pytest.raises(ValueError, match="theta must be nonnegative"):
            cap_general(0.5, -1.0, 1.0)
        with pytest.raises(ValueError, match="L must be positive"):
            cap_rr(0.5, 0.0, 4, 0.0)
