"""Accounting formulas against the high-precision reference, plus ledger rules.

Frozen constants are printed by tests/oracles/accounting_reference.py.
"""

import math

import pytest

import pmixed.accounting as accounting
from pmixed import (
    Accountant,
    AccountantLedger,
    BudgetExhaustedError,
    EpsMode,
    PrivacyParams,
    base_eps_for_order,
    beta_infinite_order,
    beta_max,
    per_query_eps,
    rdp_to_dp,
    solve_beta_star,
    subsampled_eps,
)

TABLE_PARAMS = dict(eps_g=8.0, delta=1e-5, T=1024, alpha=3, q=0.03, N=80)


class TestBetaMax:
    def test_single_model_branch(self):
        assert beta_max(1, 8.0, 1024, 3) == pytest.approx(8.0 / (1024 * 3), rel=1e-12)

    def test_reference_value(self):
        assert beta_max(80, 8.0, 1024, 3) == pytest.approx(0.0339701540841, rel=1e-9)

    def test_vanishing_budget_gives_vanishing_radius(self):
        assert beta_max(80, 1e-12, 1024, 3) == pytest.approx(0.0, abs=1e-12)

    def test_nondecreasing_in_ensemble_size(self):
        values = [beta_max(n, 8.0, 1024, 3) for n in range(2, 201)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_huge_budget_does_not_overflow(self):
        got = beta_max(3, 1e6, 1, 2)
        assert math.isfinite(got) and got > 1e4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            beta_max(0, 8.0, 1024, 3)
        with pytest.raises(ValueError):
            beta_max(80, -1.0, 1024, 3)
        with pytest.raises(ValueError):
            beta_max(80, 8.0, 1024, 2.5)


class TestPerQueryEps:
    def test_empty_subset_costs_nothing(self):
        assert per_query_eps(0.5, 3, 0) == 0.0

    def test_singleton_subset_costs_the_radius(self):
        assert per_query_eps(0.01, 3, 1) == pytest.approx(0.03, rel=1e-12)

    def test_zero_radius_costs_nothing(self):
        for s in (0, 1, 2, 17):
            assert per_query_eps(0.0, 3, s) == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert per_query_eps(0.01, 3, 2) == pytest.approx(0.0635913930332, rel=1e-9)

    def test_monotone_in_radius_and_order(self):
        radii = [per_query_eps(b, 3, 5) for b in (0.0, 0.01, 0.05, 0.2, 1.0)]
        assert all(b >= a for a, b in zip(radii, radii[1:]))
        orders = [per_query_eps(0.01, a, 5) for a in (2, 3, 4, 6, 10)]
        assert all(b >= a for a, b in zip(orders, orders[1:]))

    def test_nonincreasing_in_subset_size_beyond_two(self):
        values = [per_query_eps(0.01, 3, s) for s in range(2, 100)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_large_radius_stable(self):
        got = per_query_eps(100.0, 3, 2)
        assert math.isfinite(got)
        # dominated by the exponential term: (y - log 2) / (alpha - 1)
        assert got == pytest.approx((2 * 4 * 100.0 * 3 - math.log(2)) / 2, rel=1e-9)


class TestBaseEpsForOrder:
    def test_conservative_single_model(self):
        assert base_eps_for_order(0.01, 3, 1, EpsMode.CONSERVATIVE) == pytest.approx(0.03)

    def test_paper_faithful_two_models(self):
        got = base_eps_for_order(0.01, 3, 2, EpsMode.PAPER_FAITHFUL)
        assert got == pytest.approx(0.0635913930332, rel=1e-9)

    def test_conservative_max_attained_at_pair(self):
        got = base_eps_for_order(0.01, 3, 80, EpsMode.CONSERVATIVE)
        assert got == pytest.approx(0.0635913930332, rel=1e-9)
        grid = max(per_query_eps(0.01, 3, s) for s in range(1, 81))
        assert got == grid

    def test_conservative_equals_the_maximum_over_every_subset_size(self):
        # 0, the smallest subnormal, and radii whose exponent passes the exp limit
        betas = [0.0, 5e-324] + [10.0 ** (e / 4) for e in range(-48, 17)]
        for beta in betas:
            for k in range(2, 9):
                for n in (1, 2, 3, 80, 200):
                    every_size = max(per_query_eps(beta, k, s) for s in range(1, n + 1))
                    assert base_eps_for_order(beta, k, n, EpsMode.CONSERVATIVE) == every_size

    def test_conservative_equals_the_maximum_of_sizes_1_and_2_in_floats(self):
        """The single size-min(N, 2) evaluation is the max over sizes 1 and 2
        it replaced, bit for bit, at every order to 39 and radii across the
        float range."""
        betas = [0.0, 5e-324] + [10.0 ** (e / 10) for e in range(-3000, 3001)]
        for k in range(2, 40):
            for beta in betas:
                pair = per_query_eps(beta, k, 2)
                assert pair == max(per_query_eps(beta, k, 1), pair)
                assert base_eps_for_order(beta, k, 2, EpsMode.CONSERVATIVE) == pair

    def test_conservative_dominates_paper_faithful(self):
        for beta in (0.001, 0.01, 0.1):
            conservative = base_eps_for_order(beta, 3, 80, EpsMode.CONSERVATIVE)
            faithful = base_eps_for_order(beta, 3, 80, EpsMode.PAPER_FAITHFUL)
            assert conservative >= faithful


class TestSubsampledEps:
    def test_collapses_to_top_order_at_full_sampling(self):
        eps = {2: 0.123, 3: 0.456}
        assert subsampled_eps(1.0, 3, eps.__getitem__) == 0.456

    def test_vanishes_as_q_vanishes(self):
        values = [
            subsampled_eps(q, 3, lambda k: 0.5) for q in (0.1, 0.01, 0.001, 1e-6)
        ]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-5

    def test_zero_loss_gives_zero(self):
        for q in (0.01, 0.25, 0.9):
            assert subsampled_eps(q, 4, lambda k: 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_reference_value(self):
        got = subsampled_eps(
            0.03,
            3,
            lambda k: base_eps_for_order(0.033969, k, 80, EpsMode.PAPER_FAITHFUL),
        )
        assert got == pytest.approx(5.3238859168e-6, rel=1e-9)

    def test_monotone_in_q_and_in_losses(self):
        qs = [0.01, 0.05, 0.2, 0.6, 1.0]
        by_q = [subsampled_eps(q, 3, lambda k: 0.3) for q in qs]
        assert all(b >= a - 1e-15 for a, b in zip(by_q, by_q[1:]))
        by_eps = [subsampled_eps(0.1, 3, lambda k, e=e: e) for e in (0.0, 0.1, 0.5, 2.0)]
        assert all(b >= a for a, b in zip(by_eps, by_eps[1:]))

    def test_rejects_non_integer_order(self):
        with pytest.raises(ValueError):
            subsampled_eps(0.1, 2.5, lambda k: 0.1)

    def test_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            subsampled_eps(0.1, 3, lambda k: -0.1)
        # a radius must be a real number: not a bool, which would read as 1
        with pytest.raises(ValueError, match="radius"):
            per_query_eps(True, 3, 2)


class TestSolveBetaStar:
    def test_recovers_closed_form_without_subsampling(self):
        params = PrivacyParams(**{**TABLE_PARAMS, "q": 1.0})
        got = solve_beta_star(params, EpsMode.PAPER_FAITHFUL)
        assert got == pytest.approx(beta_max(80, 8.0, 1024, 3), abs=1e-6)

    def test_single_model_without_subsampling(self):
        params = PrivacyParams(**{**TABLE_PARAMS, "q": 1.0, "N": 1})
        got = solve_beta_star(params, EpsMode.PAPER_FAITHFUL)
        assert got == pytest.approx(8.0 / (1024 * 3), abs=1e-6)

    def test_tiny_budget_gives_tiny_radius(self):
        params = PrivacyParams(**{**TABLE_PARAMS, "eps_g": 1e-9})
        assert solve_beta_star(params) < 1e-6

    def test_subsampling_amplifies_the_radius(self):
        for mode in EpsMode:
            amplified = solve_beta_star(PrivacyParams(**TABLE_PARAMS), mode)
            plain = solve_beta_star(PrivacyParams(**{**TABLE_PARAMS, "q": 1.0}), mode)
            assert amplified > plain
        assert solve_beta_star(
            PrivacyParams(**TABLE_PARAMS), EpsMode.CONSERVATIVE
        ) > beta_max(80, 8.0, 1024, 3)

    def test_returned_radius_is_feasible_and_tight(self):
        params = PrivacyParams(**TABLE_PARAMS)
        target = params.eps_g / params.T
        for mode in EpsMode:
            star = solve_beta_star(params, mode)
            loss = lambda b: subsampled_eps(
                params.q, params.alpha,
                lambda k: base_eps_for_order(b, k, params.N, mode),
            )
            assert loss(star) <= target
            assert loss(star) >= target - accounting.BETA_STAR_TOL
            assert loss(star * 1.001) > target


class TestComposeAndConvert:
    @staticmethod
    def composed(monkeypatch, per_query: float, T: int) -> float:
        """``Accountant.composed_eps`` with the solved per-query charge replaced
        by ``per_query``, so that the composition is checked on exact inputs."""
        monkeypatch.setattr(accounting, "solve_beta_star", lambda params, mode: 0.0)
        monkeypatch.setattr(accounting, "subsampled_eps", lambda q, alpha, eps_fn: per_query)
        return Accountant(PrivacyParams(**{**TABLE_PARAMS, "T": T})).composed_eps

    def test_uniform_allocation_recovers_budget(self, monkeypatch):
        assert self.composed(monkeypatch, 8.0 / 1024, 1024) == pytest.approx(8.0, rel=1e-12)

    def test_single_round(self, monkeypatch):
        assert self.composed(monkeypatch, 0.37, 1) == 0.37

    def test_exact_arithmetic_example(self, monkeypatch):
        assert self.composed(monkeypatch, 0.0078125, 1024) == 8.0

    def test_conversion_reference_values(self):
        assert rdp_to_dp(3, 8.0, 1e-5) == pytest.approx(12.80169148, rel=1e-9)
        assert rdp_to_dp(2, 0.0, 0.1) == pytest.approx(0.916290731874, rel=1e-9)

    def test_delta_near_one_limit(self):
        got = rdp_to_dp(3, 0.0, 1 - 1e-12)
        assert got == pytest.approx(math.log(2 / 3) - math.log(3) / 2, abs=1e-9)

    def test_conversion_validates_delta(self):
        for delta in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                rdp_to_dp(3, 8.0, delta)


class TestMaxOrderRadius:
    def test_single_model(self):
        assert beta_infinite_order(1, 8.0, 1024, 3) == pytest.approx(
            (8.0 / 1024) / 6.0, rel=1e-12
        )

    def test_reference_value(self):
        assert beta_infinite_order(80, 8.0, 1024, 3) == pytest.approx(
            0.0811688344039, rel=1e-9
        )

    def test_rejects_bad_budget_and_query_count(self):
        with pytest.raises(ValueError, match="eps_g must be positive"):
            beta_infinite_order(80, -1.0, 1024, 3)
        with pytest.raises(ValueError, match="T must be a positive integer"):
            beta_infinite_order(80, 8.0, 0, 3)


class TestPrivacyParams:
    def test_rejects_out_of_range_fields(self):
        good = dict(TABLE_PARAMS)
        for bad in (
            {"eps_g": 0.0},
            {"delta": 0.0},
            {"delta": 1.0},
            {"T": 0},
            {"T": 10**309},  # no float holds it
            {"alpha": 1},
            {"alpha": 2.5},
            {"alpha": 10**309},
            {"q": 0.0},
            {"q": 1.5},
            {"N": 0},
            {"N": 10**309},
        ):
            with pytest.raises(ValueError):
                PrivacyParams(**{**good, **bad})

    def test_integral_floats_are_accepted(self):
        params = PrivacyParams(**{**TABLE_PARAMS, "alpha": 3.0})
        assert params.alpha == 3 and isinstance(params.alpha, int)

    def test_non_finite_and_non_numeric_counts_raise_value_error(self):
        for bad in (math.inf, -math.inf, math.nan, None, "many", 1.5):
            with pytest.raises(ValueError, match="T must be a positive integer"):
                PrivacyParams(**{**TABLE_PARAMS, "T": bad})


class TestLedger:
    def params(self, T=1024):
        return PrivacyParams(**{**TABLE_PARAMS, "T": T})

    def test_first_charge(self):
        ledger = AccountantLedger(self.params(), 8.0 / 1024)
        ledger.charge()
        assert ledger.queries_answered == 1

    def test_boundary(self):
        ledger = AccountantLedger(self.params(T=3), per_query_eps=0.1,
                                  queries_answered=2)
        ledger.charge()
        with pytest.raises(BudgetExhaustedError):
            ledger.charge()

    def test_full_run_spends_exactly_the_budget(self):
        ledger = AccountantLedger(self.params(), 8.0 / 1024)
        for _ in range(1024):
            ledger.charge()
        assert ledger.spent == pytest.approx(8.0, rel=1e-12)
        assert ledger.remaining_queries == 0
        with pytest.raises(BudgetExhaustedError):
            ledger.charge()

    def test_rejects_overcommitted_per_query_loss(self):
        with pytest.raises(ValueError):
            AccountantLedger(self.params(), per_query_eps=8.0 / 1024 + 1e-6)


class TestAccountantRecord:
    def test_contains_the_full_summary(self):
        record = Accountant(PrivacyParams(**TABLE_PARAMS)).record()
        assert record["mode"] == "conservative"
        assert record["beta_star"] > beta_max(80, 8.0, 1024, 3)
        assert record["composed_eps"] <= 8.0 + 1e-9
        assert record["composed_eps"] == pytest.approx(
            1024 * record["per_query_eps"], rel=1e-12
        )
        assert record["dp_eps"] == pytest.approx(
            rdp_to_dp(3, record["composed_eps"], 1e-5), rel=1e-12
        )

    def test_each_step_of_the_chain_in_order(self):
        params = PrivacyParams(**TABLE_PARAMS)
        for mode in EpsMode:
            accountant = Accountant(params, mode)
            beta_star = solve_beta_star(params, mode)
            per_query = subsampled_eps(
                params.q, params.alpha, lambda k: base_eps_for_order(beta_star, k, params.N, mode)
            )
            assert accountant.beta_star == beta_star
            assert accountant.per_query_eps == per_query
            assert accountant.composed_eps == params.T * per_query
            assert accountant.dp_eps == rdp_to_dp(params.alpha, params.T * per_query, params.delta)
            assert accountant.record()["mode"] == mode.value
