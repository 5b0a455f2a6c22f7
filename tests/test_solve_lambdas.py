"""Properties of the batched projection against the per-member scalar oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmixed.mollifier as mollifier
from oracles.masked_renyi import renyi_rows
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


@settings(max_examples=40, deadline=None)
@given(instances(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1), st.data())
def test_weights_pass_the_membership_check_at_every_radius(instance, shared, zero, seed, data):
    """Shared and per-row references, at radius 0 and above: every returned
    weight's mixture passes ``mollifier_membership``; at radius 0 exactly the
    mixtures bitwise equal to their reference pass it."""
    rows, p0, alpha, beta = instance
    beta = 0.0 if zero else beta
    rng = np.random.default_rng(seed)
    refs = [p0] * len(rows) if shared else [
        Distribution._already_normalized(r) for r in rng.dirichlet(np.ones(p0.vocab_size), len(rows))]
    if data.draw(st.booleans()):
        rows = rows.copy()
        rows[0] = refs[0].probs  # a row equal to its reference keeps weight 1
    weights = solve_lambdas(rows, p0 if shared else np.array([r.probs for r in refs]),
                            alpha, beta, TOL)
    for row, ref, lam in zip(rows, refs, weights):
        row = Distribution._already_normalized(row)  # mix() as the search mixes, unscaled
        assert mollifier_membership(mix(row, ref, lam), ref, alpha, beta)
        if beta == 0.0:
            assert np.array_equal(mix(row, ref, lam).probs, ref.probs)
            other = mix(row, ref, data.draw(st.floats(0.0, 1.0)))
            assert mollifier_membership(other, ref, alpha, 0.0) \
                == np.array_equal(other.probs, ref.probs)


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


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_per_row_references_match_one_reference_calls(instance, seed):
    rows, p0, alpha, beta = instance
    rng = np.random.default_rng(seed)
    refs = np.vstack([p0.probs, rng.dirichlet(np.ones(p0.vocab_size), size=len(rows))])[:len(rows)]
    weights = solve_lambdas(rows, refs, alpha, beta, TOL)
    for row, ref, lam in zip(rows, refs, weights):
        assert solve_lambdas(row[np.newaxis, :], Distribution._already_normalized(ref),
                             alpha, beta, TOL)[0] == lam
    assert solve_lambdas(rows, np.tile(p0.probs, (len(rows), 1)), alpha, beta, TOL).tolist() \
        == solve_lambdas(rows, p0, alpha, beta, TOL).tolist()


@pytest.mark.parametrize("seed", range(3))
def test_mix_of_raw_arrays_is_the_mixture_the_search_verified(seed):
    """Raw rows and references are checked and used as given, never rescaled:
    ``mix`` returns, bit for bit, the mixture ``lam * row + (1 - lam) * ref``
    that ``solve_lambdas`` verified, and it passes ``mollifier_membership``."""
    rows, refs = np.random.default_rng(seed).dirichlet(np.ones(49), size=(2, 32))
    weights = solve_lambdas(rows, refs, 3, 0.01, TOL)
    assert 0.0 < weights.min() < weights.max() <= 1.0
    for row, ref, lam in zip(rows, refs, weights):
        mixed = mix(row, ref, lam)
        assert mixed.probs.tobytes() == (lam * row + (1.0 - lam) * ref).tobytes()
        assert mollifier_membership(mixed, ref, 3, 0.01)


def test_rejects_reference_stacks_unlike_the_rows():
    rows = np.full((2, 4), 0.25)
    with pytest.raises(ValueError, match="references"):
        solve_lambdas(rows, np.full((3, 4), 0.25), 2, 0.1)
    with pytest.raises(ValueError, match="references"):
        solve_lambdas(rows, np.full((2, 2, 4), 0.25), 2, 0.1)
    with pytest.raises(ValueError, match="references must be nonnegative and sum to 1"):
        solve_lambdas(rows, np.array([[0.25] * 4, [0.5, 0.5, 0.5, 0.0]]), 2, 0.1)


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


@settings(max_examples=80, deadline=None)
@given(instances(), st.data())
def test_prepared_reference_matches_the_kernel_on_mixtures(instance, data):
    """One kernel call on a (row, point, V) stack of mixtures against a shared
    or per-row reference gives each mixture's own kernel call and the masked
    one-pass oracle bit for bit, with and without zeros in the rows and the
    references."""
    rows, p0, _, _ = instance
    k, size = rows.shape
    alpha = data.draw(st.one_of(st.floats(1.2, 8.0), st.just(math.inf)))
    both_directions = data.draw(st.booleans())
    rows = rows.copy()
    zeroed = data.draw(st.lists(st.integers(0, size - 1), max_size=size - 1))
    rows[:, zeroed] = 0.0
    rows /= rows.sum(axis=1, keepdims=True)
    shared = data.draw(st.booleans())
    if shared:
        refs = np.tile(p0.probs, (k, 1))
    else:
        refs = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).dirichlet(
            np.ones(size), size=k)
    missed = data.draw(st.lists(st.integers(0, size - 1), max_size=size - 1))
    refs[:, missed] = 0.0
    refs /= refs.sum(axis=1, keepdims=True)
    rows[0] = refs[0]  # a row equal to its reference is exactly 0 away
    lams = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)))
    lam = lams[np.newaxis, :, np.newaxis]
    mixtures = lam * rows[:, np.newaxis, :] + (1.0 - lam) * refs[:, np.newaxis, :]
    batched = _renyi_arrays(mixtures, refs[0] if shared else refs[:, np.newaxis, :], alpha,
                            symmetric=both_directions)
    for i in range(k):
        for j, mixture in enumerate(mixtures[i]):
            one = _renyi_arrays(mixture, refs[i], alpha, symmetric=both_directions)[0]
            oracle = renyi_rows(mixture, refs[i], alpha, symmetric=both_directions)[0]
            assert batched[i, j] == one == oracle
    assert np.all(batched[0][lams == 1.0] == 0.0)


def _full_support_stack(seed, k, size=12):
    rng = np.random.default_rng(seed)
    rows = np.maximum(rng.dirichlet(np.full(size, 0.5), size=k), 1e-12)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows, Distribution(rng.dirichlet(np.ones(size))), rng.dirichlet(np.ones(size), size=k)


def _scalar_weights(rows, refs, alpha, beta, tol):
    return [scalar_lambda(row, ref, alpha, beta, tol) for row, ref in zip(rows, refs)]


# the largest row count whose 20 halvings at TOL over the 12 tokens of
# _full_support_stack are certified in one ball test, and the next, which
# halves once per call from the start
CERTIFIED_ROWS = mollifier.CERTIFY_ELEMENTS // (20 * 12)
GATE_ROWS = [1, 2, 3, 5, 9, 21, 22, CERTIFIED_ROWS, CERTIFIED_ROWS + 1, 64, 65, 151]


@pytest.mark.parametrize("k", GATE_ROWS)
def test_row_counts_across_the_certify_gate_match_scalar_bisection(k):
    rows, p0, refs = _full_support_stack(k, k)
    shared = np.broadcast_to(p0.probs, rows.shape)
    assert solve_lambdas(rows, p0, 3, 0.02).tolist() == _scalar_weights(rows, shared, 3, 0.02, TOL)
    assert solve_lambdas(rows, refs, 3, 0.02).tolist() == _scalar_weights(rows, refs, 3, 0.02, TOL)


@pytest.mark.parametrize("tol", [1e-6, 0.3, 1.0, 1e-300])
@pytest.mark.parametrize("k", [1, 3, 22])
def test_step_counts_on_and_off_the_exact_grid_match_scalar_bisection(k, tol):
    """tol 1e-6 takes 20 halvings and 0.3 takes 2, both from a predicted walk;
    1.0 takes none; 1e-300 takes the cap of 100, whose midpoints past the 53rd
    may round, one per ball test from [0, 1]."""
    rows, p0, refs = _full_support_stack(100 + k, k)
    for beta in (0.3, 0.002):
        for ref in (p0, refs):
            per_row = refs if ref is refs else np.broadcast_to(p0.probs, rows.shape)
            assert solve_lambdas(rows, ref, 4, beta, tol).tolist() \
                == _scalar_weights(rows, per_row, 4, beta, tol)


def _coin(mixtures):
    """A verdict per mixture that only the mixture's bits decide: 0 or inf
    at random, so feasibility is far from monotone in the weight."""
    bits = np.ascontiguousarray(mixtures).view(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    return np.where(bits.sum(axis=-1) >> np.uint64(63), np.inf, 0.0)


def _coin_bisection(p, q, steps):
    """The sequential bisection, one halving per verdict, under ``_coin``."""
    if _coin(p) == 0.0:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if _coin(mid * p + (1.0 - mid) * q) == 0.0:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("tol", [1e-6, 1e-300])
@pytest.mark.parametrize("k", [1, 2, 3, 9, 22])
def test_rounds_walk_the_sequential_bisection_under_any_verdicts(monkeypatch, k, tol):
    """With verdicts that are random per mixture, each round's midpoints and
    replay must still give the one-halving-per-call walk bit for bit, also
    past the 53rd halving, where midpoints round and repeat."""
    monkeypatch.setattr(mollifier, "_in_ball",
                        lambda mixtures, refs, alpha, beta: _coin(mixtures) == 0.0)
    steps = 20 if tol == 1e-6 else mollifier.MAX_BISECTION_STEPS
    for seed in range(20):
        rows, p0, refs = _full_support_stack(300 + seed, k)
        assert solve_lambdas(rows, p0, 3, 0.02, tol).tolist() \
            == [_coin_bisection(row, p0.probs, steps) for row in rows]
        assert solve_lambdas(rows, refs, 3, 0.02, tol).tolist() \
            == [_coin_bisection(row, ref, steps) for row, ref in zip(rows, refs)]


@pytest.mark.parametrize("k", [1, 3, 9, 22, 65])
def test_zero_radius_keeps_only_rows_equal_to_their_reference(k):
    rows, p0, refs = _full_support_stack(200 + k, k)
    rows[0] = p0.probs
    refs[-1] = rows[-1]
    assert solve_lambdas(rows, p0, 3, 0.0).tolist() == [1.0] + [0.0] * (k - 1)
    assert solve_lambdas(rows, refs, 3, 0.0).tolist() == [0.0] * (k - 1) + [1.0]


def _counting_verdicts(monkeypatch) -> list:
    """Patch the ball test, the one verdict function the search calls, to
    count its calls; returns the count list."""
    calls = []
    verdicts = mollifier._in_ball

    def counted(*args):
        calls.append(len(args[0]))
        return verdicts(*args)

    monkeypatch.setattr(mollifier, "_in_ball", counted)
    return calls


@pytest.mark.parametrize("seed", range(50))
def test_three_row_search_takes_two_kernel_calls(monkeypatch, seed):
    """One call at weight 1, then one call that certifies every row's
    predicted walk: 2 ball tests for the 20 halvings of tol 1e-6, where one
    halving per call would make 21."""
    calls = _counting_verdicts(monkeypatch)
    rows, p0, refs = _full_support_stack(seed, 3)
    for ref in (p0, refs):
        calls.clear()
        weights = solve_lambdas(rows, ref, 3, 0.02, 1e-6)
        assert np.all((0.0 < weights) & (weights < 1.0))  # every row searched
        assert len(calls) == 2


@pytest.mark.parametrize("alpha, beta", [(8, 0.3), (4, 1.0), (20, 0.05), (30, 0.01), (40, 0.01),
                                         (50, 0.01), (64, 0.05), (100, 0.01)])
def test_rows_near_a_backward_pole_certify(monkeypatch, alpha, beta):
    """Floored rows whose backward sum has a near-pole close to weight 1 bind
    there; at orders 30 to 50 the forward sum's quadratic first estimate is
    far enough off that four Newton steps leave some rows a grid step high;
    at order 64 a backward Newton step's slope times the order overflows
    while both are finite; and at order 100 some rows' powers overflow at the
    first estimate.  The predictor still names their grid points, so every
    search takes two verdict calls."""
    calls = _counting_verdicts(monkeypatch)
    searched = 0
    for seed in range(60):
        rows, p0, refs = _full_support_stack(seed, 3)
        for ref in (p0, refs):
            calls.clear()
            weights = solve_lambdas(rows, ref, alpha, beta)
            searched += int(np.sum(weights < 1.0))
            assert len(calls) == (2 if np.any(weights < 1.0) else 1)
    assert searched > 200


@pytest.mark.parametrize("alpha, beta", [(100, 0.08), (120, 0.06), (128, 0.05), (150, 0.04)])
def test_rows_past_the_float_range_of_the_bound_certify(monkeypatch, alpha, beta):
    """Where ``(alpha - 1) * alpha * beta`` passes 709, ``exp`` of it and the
    power sums' excess over 1 overflow; the predictor aims at the log of the
    excess, which stays finite, so every search still takes two ball tests."""
    calls = _counting_verdicts(monkeypatch)
    searched = 0
    for seed in range(60):
        rows, p0, refs = _full_support_stack(seed, 3)
        for ref in (p0, refs):
            calls.clear()
            weights = solve_lambdas(rows, ref, alpha, beta)
            searched += int(np.any(weights < 1.0))
            assert len(calls) == (2 if np.any(weights < 1.0) else 1)
    assert searched > 50


# what a predictor may return, given each row's true weight
PREDICTIONS = {
    "zero": lambda true, rng: np.zeros_like(true),
    "one": lambda true, rng: np.ones_like(true),
    "nan": lambda true, rng: np.full_like(true, np.nan),
    "random": lambda true, rng: rng.random(true.shape),
    "grid step up": lambda true, rng: true + 2.0**-20,
    "grid step down": lambda true, rng: true - 2.0**-20,
}


@pytest.mark.parametrize("guess", PREDICTIONS)
@pytest.mark.parametrize("k", [1, 2, 3, 21, 22, 25, 26, 65, CERTIFIED_ROWS + 1])
def test_any_prediction_gives_the_sequential_bisection(monkeypatch, k, guess):
    """Certification needs no proof that the predictor is right.  Whatever it
    returns, every weight equals the scalar bisection's bit for bit.  The
    walks cost one ball test; if any row's predicted grid index is not its
    weight's, a verdict leaves that row's walk and the row restarts the
    bisection from [0, 1], 20 more halvings.  A stack past the gate never
    asks the predictor and takes 20."""
    rng = np.random.default_rng(k)
    calls = _counting_verdicts(monkeypatch)
    asked = []

    def predict(rows, refs, alpha, beta):
        true = np.array(_scalar_weights(rows, np.broadcast_to(refs, rows.shape), alpha, beta, TOL))
        asked.append((true, PREDICTIONS[guess](true, rng)))
        return asked[-1][1]

    monkeypatch.setattr(mollifier, "_predict_weights", predict)
    rows, p0, refs = _full_support_stack(400 + k, k)
    for ref, per_row in ((p0, np.broadcast_to(p0.probs, rows.shape)), (refs, refs)):
        calls.clear()
        asked.clear()
        weights = solve_lambdas(rows, ref, 3, 0.02)
        assert weights.tolist() == _scalar_weights(rows, per_row, 3, 0.02, TOL)
        assert np.all(weights < 1.0)  # every row searched
        if k > CERTIFIED_ROWS:
            assert not asked and len(calls) == 1 + 20
            continue
        (true, guessed), = asked
        named = np.clip(np.nan_to_num(guessed, nan=0.0) * 2**20, 0, 2**20 - 1).astype(int)
        assert len(calls) == (2 if np.array_equal(named, true * 2**20) else 2 + 20)


@pytest.mark.parametrize("size, certified", [(12, True), (418, True), (419, False), (5000, False)])
def test_the_certify_gate_counts_tokens(monkeypatch, size, certified):
    """The gate budgets rows times halvings times tokens: three rows at 20
    halvings are certified in one call over at most 418 tokens and halve once
    per call from the start over more."""
    calls = _counting_verdicts(monkeypatch)
    rows, p0, refs = _full_support_stack(500 + size, 3, size)
    for ref, per_row in ((p0, np.broadcast_to(p0.probs, rows.shape)), (refs, refs)):
        calls.clear()
        weights = solve_lambdas(rows, ref, 3, 0.02)
        assert weights.tolist() == _scalar_weights(rows, per_row, 3, 0.02, TOL)
        assert np.all(weights < 1.0)  # every row searched
        assert (len(calls) < 1 + 20) == certified


@pytest.mark.parametrize("alpha, beta", [(3, 200), (100, 8), (2, 1e308)])
def test_a_radius_past_the_float_range_gives_the_sequential_bisection(alpha, beta):
    """The predictor's bound overflows to inf at such radii; a row outside
    the ball, here one with mass where its reference has none, still gets
    the scalar bisection's weight."""
    ref = np.array([0.5, 0.5, 0.0])
    rows = np.array([[0.25, 0.25, 0.5], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    assert solve_lambdas(rows, ref, alpha, beta).tolist() \
        == _scalar_weights(rows, [ref] * 3, alpha, beta, TOL)
    assert solve_lambdas([[0.5, 0.5]], [1.0, 0.0], alpha, beta).tolist() \
        == [scalar_lambda(np.array([0.5, 0.5]), np.array([1.0, 0.0]), alpha, beta, TOL)]
