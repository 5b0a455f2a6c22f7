"""Mixing-path projection: feasibility, maximality, and the grid oracle."""

import numpy as np
import pytest

from pmixed import (
    Distribution,
    INFINITY,
    mix,
    mollifier_membership,
    renyi_divergence,
    solve_lambda,
    solve_lambdas,
    symmetric_renyi,
)

TOL = 1e-6


def grid_scan_lambda(p, p0, alpha, beta, points=10_001):
    """Independent oracle: densest feasible weight on a uniform grid.

    Evaluates the symmetric divergence directly from the power sums for
    every grid weight, with no shared code with the bisection path.
    """
    lams = np.linspace(0.0, 1.0, points)
    mixtures = np.outer(lams, p) + np.outer(1.0 - lams, p0)
    with np.errstate(divide="ignore", invalid="ignore"):
        forward = np.log(np.sum(mixtures**alpha * p0 ** (1.0 - alpha), axis=1))
        backward = np.log(np.sum(p0**alpha * mixtures ** (1.0 - alpha), axis=1))
    sym = np.maximum(forward, backward) / (alpha - 1.0)
    sym[0] = 0.0  # weight 0 reproduces p0
    feasible = np.flatnonzero(sym <= beta * alpha)
    return float(lams[feasible.max()])


def random_instance(rng, max_size=64):
    size = int(rng.integers(2, max_size + 1))
    p = Distribution(rng.dirichlet(np.ones(size)))
    p0 = Distribution(rng.dirichlet(np.ones(size)))
    alpha = float(rng.uniform(1.2, 8.0))
    beta = float(10.0 ** rng.uniform(-4, 0))
    return p, p0, alpha, beta


class TestMix:
    def test_zero_weight_returns_public_exactly(self):
        p, p0 = Distribution([0.9, 0.1]), Distribution([0.5, 0.5])
        assert np.array_equal(mix(p, p0, 0.0).probs, p0.probs)

    def test_full_weight_returns_private_exactly(self):
        p, p0 = Distribution([0.9, 0.1]), Distribution([0.5, 0.5])
        assert np.array_equal(mix(p, p0, 1.0).probs, p.probs)

    def test_quarter_mixture(self):
        got = mix(Distribution([1.0, 0.0]), Distribution([0.0, 1.0]), 0.25)
        assert np.allclose(got.probs, [0.25, 0.75], atol=0)

    def test_weight_out_of_range_raises(self):
        p = Distribution([0.5, 0.5])
        for lam in (-0.1, 1.1):
            with pytest.raises(ValueError):
                mix(p, p, lam)

    @pytest.mark.parametrize("lam", ["0.5", True, False, None, float("nan")])
    def test_weight_that_is_not_a_real_number_raises(self, lam):
        p, p0 = Distribution([0.9, 0.1]), Distribution([0.5, 0.5])
        with pytest.raises(ValueError, match=r"^mixing weight must lie in \[0, 1\], got "):
            mix(p, p0, lam)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            mix(Distribution([0.5, 0.5]), Distribution([0.25] * 4), 0.5)


class TestMembership:
    def test_public_distribution_is_always_inside(self):
        p0 = Distribution([0.5, 0.5])
        for beta in (0.0, 0.1, 10.0):
            assert mollifier_membership(p0, p0, 2, beta)

    def test_point_mass_outside_small_ball(self):
        # the symmetric divergence is infinite, far above 0.1
        assert not mollifier_membership(
            Distribution([1.0, 0.0]), Distribution([0.5, 0.5]), 2, 0.05
        )

    def test_zero_radius_holds_only_the_reference(self):
        # this pair's divergence rounds to 0.0, but it is not the reference
        p0 = Distribution([0.5, 0.5])
        assert not mollifier_membership([0.5000000000000001, 0.4999999999999999], p0, 2, 0.0)
        assert mollifier_membership(p0, p0, 2, 0.0)

    def test_infinite_order_rejected(self):
        p = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            mollifier_membership(p, p, INFINITY, 0.1)


class TestSolveLambda:
    def test_identical_distributions_take_full_weight(self):
        p = Distribution([0.3, 0.7])
        result = solve_lambda(p, p, 2, 0.0)
        assert result.mixing_weight == 1.0
        assert np.array_equal(result.projected.probs, p.probs)

    def test_zero_radius_pins_to_public(self):
        p, p0 = Distribution([0.9, 0.1]), Distribution([0.5, 0.5])
        result = solve_lambda(p, p0, 2, 0.0)
        assert result.mixing_weight <= TOL
        assert mollifier_membership(result.projected, p0, 2, 0.0)

    def test_zero_radius_pins_a_nearby_row_exactly(self):
        # a mixture this close to p0 has a divergence that rounds to 0
        p0 = Distribution([0.4000707853732506, 0.5999292146267494])
        p = Distribution([0.39956514748628225, 0.6004348525137178])
        result = solve_lambda(p, p0, 2, 0.0)
        assert result.mixing_weight == 0.0
        assert np.array_equal(result.projected.probs, p0.probs)

    def test_matches_grid_oracle_on_reference_instance(self):
        # radius beta * alpha = 0.05 at order 2
        p, p0 = Distribution([0.9, 0.1]), Distribution([0.5, 0.5])
        result = solve_lambda(p, p0, 2, 0.025, tol=TOL)
        oracle = grid_scan_lambda(p.probs, p0.probs, 2.0, 0.025)
        assert result.mixing_weight == pytest.approx(oracle, abs=TOL + 1e-4)
        assert symmetric_renyi(result.projected, p0, 2) <= 0.05

    def test_output_always_satisfies_membership(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            p, p0, alpha, beta = random_instance(rng)
            result = solve_lambda(p, p0, alpha, beta, tol=TOL)
            assert mollifier_membership(result.projected, p0, alpha, beta)

    def test_projection_is_the_stated_mixture(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            p, p0, alpha, beta = random_instance(rng)
            result = solve_lambda(p, p0, alpha, beta, tol=TOL)
            expected = result.mixing_weight * p.probs + (1 - result.mixing_weight) * p0.probs
            assert np.max(np.abs(result.projected.probs - expected)) <= 1e-12

    def test_maximality(self):
        """Anything 2*tol beyond the returned weight breaks the constraint."""
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(100):
            p, p0, alpha, beta = random_instance(rng)
            lam = solve_lambda(p, p0, alpha, beta, tol=TOL).mixing_weight
            if lam == 1.0 or lam + 2 * TOL > 1.0:
                continue
            assert not mollifier_membership(mix(p, p0, lam + 2 * TOL), p0, alpha, beta)
            checked += 1
        assert checked > 50

    def test_matches_grid_oracle_randomized(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            p, p0, alpha, beta = random_instance(rng, max_size=32)
            lam = solve_lambda(p, p0, alpha, beta, tol=TOL).mixing_weight
            oracle = grid_scan_lambda(p.probs, p0.probs, alpha, beta)
            assert lam == pytest.approx(oracle, abs=TOL + 1e-4)

    def test_constraint_monotone_along_the_path(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            p, p0, alpha, _ = random_instance(rng, max_size=16)
            values = [
                symmetric_renyi(mix(p, p0, lam), p0, alpha)
                for lam in np.linspace(0.0, 1.0, 101)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_pairwise_bound_between_projections(self):
        """Any two projections around the same public distribution stay within
        4 * beta * alpha of each other."""
        rng = np.random.default_rng(26)
        for _ in range(50):
            size = int(rng.integers(2, 33))
            p0 = Distribution(rng.dirichlet(np.ones(size)))
            alpha = float(rng.uniform(1.2, 6.0))
            beta = float(10.0 ** rng.uniform(-3, -0.5))
            first = solve_lambda(Distribution(rng.dirichlet(np.ones(size))), p0, alpha, beta)
            second = solve_lambda(Distribution(rng.dirichlet(np.ones(size))), p0, alpha, beta)
            cross = renyi_divergence(first.projected, second.projected, alpha)
            assert cross <= 4 * beta * alpha + 1e-9

    def test_mode_preserved_when_modes_agree(self):
        rng = np.random.default_rng(27)
        checked = 0
        for _ in range(200):
            p, p0, alpha, beta = random_instance(rng, max_size=16)
            top = int(np.argmax(p.probs))
            if top != int(np.argmax(p0.probs)):
                continue
            projected = solve_lambda(p, p0, alpha, beta).projected
            assert int(np.argmax(projected.probs)) == top
            checked += 1
        assert checked > 10

    def test_handles_public_zeros_defensively(self):
        # the public side lacks support, so any positive weight is infeasible
        p = Distribution([0.5, 0.25, 0.25])
        p0 = Distribution([1.0, 0.0, 0.0])
        result = solve_lambda(p, p0, 2, 0.5, tol=TOL)
        assert result.mixing_weight <= TOL
        assert mollifier_membership(result.projected, p0, 2, 0.5)

    def test_invalid_inputs_raise(self):
        p = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            solve_lambda(p, p, 2, -0.1)
        with pytest.raises(ValueError):
            solve_lambda(p, p, 2, 0.1, tol=0.0)
        with pytest.raises(ValueError):
            solve_lambda(p, p, INFINITY, 0.1)
        # an order or a radius must be a real number, not text
        for alpha, beta in ((3, "0.1"), ("3", "0.1")):
            with pytest.raises(ValueError):
                mollifier_membership(p, p, alpha, beta)
        with pytest.raises(ValueError, match="radius"):
            solve_lambdas([p.probs], p, 3, "0.1")
