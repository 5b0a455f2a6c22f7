"""Properties of the batched projection against the per-member scalar oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.scalar_bisection import scalar_lambda, symmetric
from pmixed import Distribution, mix, mollifier_membership, solve_lambdas
from pmixed.divergence import _renyi_arrays

TOL = 1e-6


@st.composite
def instances(draw, max_rows=6, max_vocab=24):
    """A full-support (k, V) stack, a full-support public distribution, an
    order and a radius."""
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, max_rows))
    size = draw(st.integers(2, max_vocab))
    concentration = draw(st.sampled_from([0.2, 1.0, 5.0]))
    rng = np.random.default_rng(seed)
    rows = rng.dirichlet(np.full(size, concentration), size=k)
    rows = np.maximum(rows, 1e-12)
    rows /= rows.sum(axis=1, keepdims=True)
    p0 = Distribution(rng.dirichlet(np.ones(size)))
    alpha = draw(st.floats(1.2, 8.0))
    beta = 10.0 ** draw(st.floats(-4.0, 0.0))
    return rows, p0, alpha, beta


@settings(max_examples=60, deadline=None)
@given(instances())
def test_rows_match_scalar_bisection_bitwise(instance):
    rows, p0, alpha, beta = instance
    weights = solve_lambdas(rows, p0, alpha, beta, TOL)
    expected = [scalar_lambda(row, p0.probs, alpha, beta, TOL) for row in rows]
    assert weights.tolist() == expected


@settings(max_examples=40, deadline=None)
@given(instances(), st.data())
def test_weight_ignores_other_rows_and_position(instance, data):
    rows, p0, alpha, beta = instance
    weights = solve_lambdas(rows, p0, alpha, beta, TOL)
    order = data.draw(st.permutations(range(len(rows))))
    shuffled = solve_lambdas(rows[order], p0, alpha, beta, TOL)
    assert shuffled.tolist() == weights[order].tolist()
    for i, row in enumerate(rows):
        assert solve_lambdas(row[np.newaxis, :], p0, alpha, beta, TOL)[0] == weights[i]


@settings(max_examples=40, deadline=None)
@given(instances())
def test_every_released_mixture_is_inside_the_ball(instance):
    rows, p0, alpha, beta = instance
    for row, lam in zip(rows, solve_lambdas(rows, p0, alpha, beta, TOL)):
        assert 0.0 <= lam <= 1.0
        assert mollifier_membership(mix(row, p0, lam), p0, alpha, beta)


@settings(max_examples=30, deadline=None)
@given(instances())
def test_row_equal_to_public_takes_full_weight(instance):
    rows, p0, alpha, beta = instance
    stack = np.vstack([rows, p0.probs])
    assert solve_lambdas(stack, p0, alpha, beta, TOL)[-1] == 1.0
    assert solve_lambdas(stack, p0, alpha, 0.0, TOL)[-1] == 1.0


@settings(max_examples=30, deadline=None)
@given(instances())
def test_zero_radius_pins_every_other_row_to_public(instance):
    rows, p0, alpha, _ = instance
    rows = rows[[not np.array_equal(row, p0.probs) for row in rows]]
    assert solve_lambdas(rows, p0, alpha, 0.0, TOL).tolist() == [0.0] * len(rows)


@settings(max_examples=30, deadline=None)
@given(instances())
def test_public_zero_under_private_mass_gives_weight_zero(instance):
    rows, p0, alpha, beta = instance
    public = p0.probs.copy()
    public[0] = 0.0
    public = Distribution(public / public.sum())
    assert np.all(rows[:, 0] > 0.0)
    assert solve_lambdas(rows, public, alpha, beta, TOL).tolist() == [0.0] * len(rows)


@settings(max_examples=40, deadline=None)
@given(instances(), st.data())
def test_divergence_rows_match_one_row_calls(instance, data):
    """Rows with zeros go through the same masked kernel as full-support rows;
    a row's divergence does not depend on the rest of the stack."""
    rows, p0, alpha, _ = instance
    zeroed = data.draw(st.lists(st.integers(0, rows.shape[1] - 1), max_size=rows.shape[1] - 1))
    rows = rows.copy()
    rows[:, zeroed] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    mixtures = np.vstack([rows, 0.5 * rows + 0.5 * p0.probs, p0.probs])
    batched = _renyi_arrays(mixtures, p0.probs, alpha, symmetric=True)
    for row, value in zip(mixtures, batched):
        assert _renyi_arrays(row, p0.probs, alpha, symmetric=True)[0] == value
        assert value == pytest.approx(symmetric(row, p0.probs, alpha), rel=1e-9, abs=1e-12)
    assert batched[-1] == 0.0
    assert np.all(np.isinf(batched[: len(rows)]) == bool(zeroed))


def test_rejects_misshapen_stacks():
    p0 = np.full(4, 0.25)
    with pytest.raises(ValueError):
        solve_lambdas(p0, p0, 2, 0.1)
    with pytest.raises(ValueError):
        solve_lambdas(np.full((2, 3), 1 / 3), p0, 2, 0.1)


@pytest.mark.parametrize("row", [[0.5, 0.5, np.nan, 0.0], [0.75, 0.5, -0.25, 0.0],
                                 [np.inf, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.0]])
def test_rejects_rows_that_are_not_distributions(row):
    p0 = np.full(4, 0.25)
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        solve_lambdas(np.vstack([p0, row]), p0, 2, 0.1)


def test_empty_stack_gives_no_weights():
    assert solve_lambdas(np.empty((0, 4)), np.full(4, 0.25), 2, 0.1).shape == (0,)
