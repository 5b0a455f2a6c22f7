"""Divergence axioms, frozen examples, and structural inequalities.

Frozen constants come from tests/oracles/accounting_reference.py, which
recomputes them with 50-digit arithmetic straight from the defining sums.
"""

import math

import numpy as np
import pytest

from pmixed import INFINITY, Distribution, renyi_divergence, symmetric_renyi


def random_dist(rng, size):
    return Distribution(rng.dirichlet(np.ones(size)))


def random_pair(rng, max_size=64):
    size = int(rng.integers(2, max_size + 1))
    return random_dist(rng, size), random_dist(rng, size)


class TestDistribution:
    def test_renormalizes_within_tolerance(self):
        d = Distribution([0.5, 0.5 + 5e-10])
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.6])

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            Distribution([1.2, -0.2])

    def test_rejects_tiny_vocab(self):
        with pytest.raises(ValueError):
            Distribution([1.0])

    def test_rejects_non_vector(self):
        with pytest.raises(ValueError):
            Distribution([[0.5, 0.5]])

    def test_probs_are_read_only(self):
        d = Distribution([0.25, 0.75])
        with pytest.raises(ValueError):
            d.probs[0] = 0.5

    def test_vocab_size(self):
        assert Distribution([0.25] * 4).vocab_size == 4

    def test_accepts_raw_arrays_in_operations(self):
        assert renyi_divergence([0.5, 0.5], [0.5, 0.5], 2) == 0.0


class TestRenyiDivergence:
    def test_identical_distributions_give_zero(self):
        p = Distribution([0.5, 0.5])
        assert renyi_divergence(p, p, 2) == 0.0

    def test_order_two_example(self):
        # D_2((.5,.5) || (.25,.75)) = log(4/3)
        got = renyi_divergence(Distribution([0.5, 0.5]), Distribution([0.25, 0.75]), 2)
        assert got == pytest.approx(0.287682072452, abs=1e-12)

    def test_infinite_order_example(self):
        # log of the max ratio, here log(1 / 0.5)
        got = renyi_divergence(Distribution([1.0, 0.0]), Distribution([0.5, 0.5]), INFINITY)
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_missing_support_gives_infinity(self):
        got = renyi_divergence(Distribution([0.5, 0.5]), Distribution([1.0, 0.0]), 2)
        assert got == math.inf

    def test_zero_mass_entries_contribute_nothing(self):
        p = Distribution([0.0, 0.5, 0.5])
        q = Distribution([0.25, 0.25, 0.5])
        direct = math.log(0.5**2 / 0.25 + 0.5**2 / 0.5)
        assert renyi_divergence(p, q, 2) == pytest.approx(direct, abs=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            renyi_divergence(Distribution([0.5, 0.5]), Distribution([0.25] * 4), 2)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 0.0, -2.0, math.nan, "3"])
    def test_invalid_order_raises(self, alpha):
        p = Distribution([0.5, 0.5])
        with pytest.raises(ValueError):
            renyi_divergence(p, p, alpha)

    def test_matches_direct_formula(self):
        """Log-space evaluation equals the direct power sum when it is stable."""
        rng = np.random.default_rng(20240901)
        for _ in range(300):
            p, q = random_pair(rng)
            alpha = float(rng.uniform(1.1, 6.0))
            direct = (
                math.log(float(np.sum(p.probs**alpha * q.probs ** (1.0 - alpha))))
                / (alpha - 1.0)
            )
            assert renyi_divergence(p, q, alpha) == pytest.approx(direct, rel=1e-10, abs=1e-12)

    def test_stable_for_peaked_distributions(self):
        """A sharply peaked pair over a large vocabulary must stay finite."""
        size = 4096
        p = np.full(size, 1e-300)
        p[0] = 1.0 - p[1:].sum()
        q = np.full(size, 1e-300)
        q[1] = 1.0 - q[np.arange(size) != 1].sum()
        got = renyi_divergence(Distribution(p), Distribution(q), 2)
        assert math.isfinite(got) and got > 0


class TestSymmetricRenyi:
    def test_identical_uniform_is_zero(self):
        u = Distribution([0.25] * 4)
        for alpha in (2, 3.5, INFINITY):
            assert symmetric_renyi(u, u, alpha) == 0.0

    def test_takes_the_larger_direction(self):
        # the two directed values are log(4/3) and log(5/4)
        p, q = Distribution([0.5, 0.5]), Distribution([0.25, 0.75])
        assert symmetric_renyi(p, q, 2) == pytest.approx(0.287682072452, abs=1e-12)

    def test_symmetry_under_argument_swap(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p, q = random_pair(rng)
            alpha = float(rng.uniform(1.2, 8.0))
            assert symmetric_renyi(p, q, alpha) == symmetric_renyi(q, p, alpha)


class TestAxioms:
    """Order axioms checked on randomized instances; the acceptance suite
    repeats these at larger counts."""

    def test_nonnegativity(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p, q = random_pair(rng)
            assert renyi_divergence(p, q, float(rng.uniform(1.1, 10.0))) >= 0.0

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p, q = random_pair(rng)
            alpha = float(rng.uniform(1.1, 10.0))
            assert renyi_divergence(p, p, alpha) == 0.0
            if np.max(np.abs(p.probs - q.probs)) > 1e-6:
                assert renyi_divergence(p, q, alpha) > 1e-9

    def test_monotone_in_order(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            p, q = random_pair(rng)
            a1 = float(rng.uniform(1.05, 6.0))
            a2 = a1 + float(rng.uniform(0.0, 6.0))
            d1 = renyi_divergence(p, q, a1)
            d2 = renyi_divergence(p, q, a2)
            dinf = renyi_divergence(p, q, INFINITY)
            assert d1 <= d2 + 1e-9
            assert d2 <= dinf + 1e-9

    def test_triangle_like_inequality(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            size = int(rng.integers(2, 65))
            p, q, r = (random_dist(rng, size) for _ in range(3))
            alpha = float(rng.uniform(1.1, 8.0))
            eps1 = renyi_divergence(p, q, alpha) / alpha
            eps2 = renyi_divergence(q, r, alpha) / alpha
            bound = (math.sqrt(eps1) + math.sqrt(eps2)) ** 2 * alpha
            assert renyi_divergence(p, r, alpha) <= bound + 1e-9

    def test_quasi_convexity_of_joint_mixtures(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            size = int(rng.integers(2, 65))
            p, q, p2, q2 = (random_dist(rng, size) for _ in range(4))
            s = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(1.1, 8.0))
            mixed = renyi_divergence(
                Distribution((1 - s) * p.probs + s * p2.probs),
                Distribution((1 - s) * q.probs + s * q2.probs),
                alpha,
            )
            bound = max(renyi_divergence(p, q, alpha), renyi_divergence(p2, q2, alpha))
            assert mixed <= bound + 1e-9

    def test_convexity_in_second_argument(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            size = int(rng.integers(2, 65))
            p, q, q2 = (random_dist(rng, size) for _ in range(3))
            s = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(1.1, 8.0))
            mixed = renyi_divergence(
                p, Distribution((1 - s) * q2.probs + s * q.probs), alpha
            )
            bound = (1 - s) * renyi_divergence(p, q2, alpha) + s * renyi_divergence(p, q, alpha)
            assert mixed <= bound + 1e-9
