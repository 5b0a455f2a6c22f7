"""The ball test's power-sum verdicts against the exact divergence kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pmixed.mollifier as mollifier
from oracles.scalar_bisection import scalar_lambda
from pmixed import (EpsMode, PredictionSession, PrivacyParams, Vocabulary, build_public_model,
                    load_corpus, mollifier_membership, partition_corpus, solve_lambdas,
                    train_ngram)
from pmixed.divergence import NORMALIZATION_ATOL, _renyi_arrays

TOL = 1e-6


def _floored(rng, concentration, k, size, floor):
    rows = np.maximum(rng.dirichlet(np.full(size, concentration), size=k), floor)
    return rows / rows.sum(axis=1, keepdims=True)


def _kernel_verdicts(mixtures, refs, alpha, beta):
    return _renyi_arrays(mixtures, refs, alpha, symmetric=True) <= beta * alpha


@st.composite
def mixture_stacks(draw):
    """A (row, point, V) stack of mixtures of floored rows with a shared or
    per-row reference, an integer order, and a radius that is random or
    within a hair of one mixture's divergence."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, points, size = draw(st.integers(1, 5)), draw(st.integers(1, 6)), draw(st.integers(2, 40))
    concentration = draw(st.sampled_from([0.2, 1.0, 5.0]))
    rows = _floored(rng, concentration, k, size, draw(st.sampled_from([1e-12, 3e-12, 1e-9])))
    refs = _floored(rng, 1.0, 1 if draw(st.booleans()) else k, size,
                    draw(st.sampled_from([0.0, 1e-12])))
    lam = rng.random((k, points, 1)) ** draw(st.sampled_from([1.0, 4.0]))
    mixtures = lam * rows[:, np.newaxis, :] + (1.0 - lam) * refs[:, np.newaxis, :]
    alpha = float(draw(st.sampled_from([2, 3, 8, 100])))
    refs = refs[0] if len(refs) == 1 else refs[:, np.newaxis, :]
    if draw(st.booleans()):
        beta = 10.0 ** draw(st.floats(-6.0, 1.0))
    else:
        divergences = _renyi_arrays(mixtures, refs, alpha, symmetric=True).ravel()
        target = divergences[draw(st.integers(0, divergences.size - 1))]
        beta = target / alpha * (1.0 + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, -1e-9,
                                                              1e-6, -1e-6])))
        if not (0.0 < beta < math.inf):
            beta = 0.5
    return mixtures, refs, alpha, beta


@settings(max_examples=150, deadline=None)
@given(mixture_stacks())
def test_every_verdict_the_power_sums_decide_is_the_kernels(stack):
    mixtures, refs, alpha, beta = stack
    expected = _kernel_verdicts(mixtures, refs, alpha, beta)
    cheap = mollifier._power_sum_verdicts(mixtures, refs, alpha, beta * alpha)
    assert cheap is not None  # every order here is an integer
    inside, unsure = cheap
    assert np.array_equal(inside[~unsure], expected[~unsure])
    assert np.array_equal(mollifier._in_ball(mixtures, refs, alpha, beta), expected)


def _boundary_radius(divergence, alpha):
    """The smallest radius whose bound ``beta * alpha`` is at least ``divergence``."""
    beta = divergence / alpha
    while beta * alpha < divergence:
        beta = math.nextafter(beta, math.inf)
    while math.nextafter(beta, 0.0) * alpha >= divergence:
        beta = math.nextafter(beta, 0.0)
    return beta


@pytest.mark.parametrize("alpha", [2, 3, 8])
@pytest.mark.parametrize("shared", [True, False])
def test_a_radius_at_a_mixtures_divergence_goes_to_the_kernel(monkeypatch, alpha, shared):
    """At the radius whose bound equals a mixture's divergence the mixture is
    in, and one float below it is out.  The two forms differ by rounding,
    so only the kernel, through the fallback, can give both verdicts."""
    rng = np.random.default_rng(alpha)
    rows = _floored(rng, 0.5, 4, 12, 1e-12)
    refs = _floored(rng, 1.0, 1 if shared else 4, 12, 0.0)
    lam = rng.random((4, 3, 1))
    mixtures = lam * rows[:, np.newaxis, :] + (1.0 - lam) * refs[:, np.newaxis, :]
    refs = refs[0] if shared else refs[:, np.newaxis, :]
    divergences = _renyi_arrays(mixtures, refs, float(alpha), symmetric=True)
    exact = []
    kernel = mollifier._renyi_arrays
    monkeypatch.setattr(mollifier, "_renyi_arrays",
                        lambda p, *args, **kwargs: exact.append(p.shape[:-1])
                        or kernel(p, *args, **kwargs))
    for index in np.ndindex(divergences.shape):
        beta = _boundary_radius(float(divergences[index]), alpha)
        assert mollifier._in_ball(mixtures, refs, float(alpha), beta)[index]
        assert not mollifier._in_ball(mixtures, refs, float(alpha),
                                      math.nextafter(beta, 0.0))[index]
    assert exact  # the power sums left some verdict to the kernel


@pytest.mark.parametrize("alpha, beta", [(3, 200), (100, 8)])
def test_a_bound_past_the_float_range_is_not_clamped(alpha, beta):
    """At these radii ``exp((alpha - 1) * beta * alpha)`` is past the float
    range.  All-positive rows whose power sums are near e**705, near e**688
    or overflow are in, a row with sums past e**1379 is out, and every
    verdict, weight and membership answer is the kernel's."""
    tiny = {3: [1e-153, 1e-150, 1e-200, 1e-300], 100: [1e-3, 1e-4, 1e-200, 1e-300]}[alpha]
    refs = np.array([[t, 1.0 - t] for t in tiny])
    rows = np.array([[0.5, 0.5]] * len(tiny))
    expected = _kernel_verdicts(rows[:, np.newaxis, :], refs[:, np.newaxis, :], float(alpha),
                                beta)
    assert np.array_equal(
        mollifier._in_ball(rows[:, np.newaxis, :], refs[:, np.newaxis, :], float(alpha), beta),
        expected)
    assert expected[:, 0].tolist() == [True, True, True, alpha == 100]
    for row, q, inside in zip(rows, refs, expected[:, 0]):
        assert mollifier_membership(row, q, alpha, beta) == inside
    assert solve_lambdas(rows, refs, alpha, beta).tolist() \
        == [scalar_lambda(row, q, alpha, beta, TOL) for row, q in zip(rows, refs)]


@pytest.mark.parametrize("alpha", [2, 3, 8])
def test_a_mixture_equal_to_its_reference_is_in_even_off_normalization(alpha):
    """A reference that sums to 1 + 1e-9 has power sums of 1 + 1e-9 against
    itself, past exp((alpha - 1) * beta * alpha) at radius 1e-12, yet the
    kernel calls it 0 away: it is in."""
    q = np.random.default_rng(alpha).dirichlet(np.ones(12))
    q *= (1.0 + NORMALIZATION_ATOL) / q.sum()
    while q.sum() - 1.0 > NORMALIZATION_ATOL:
        q *= 1.0 - 2.0**-53
    assert q.sum() - 1.0 > 0.99 * NORMALIZATION_ATOL
    assert mollifier._in_ball(q[np.newaxis, :], q, float(alpha), 1e-12).tolist() == [True]
    assert mollifier_membership(q, q, alpha, 1e-12)
    assert solve_lambdas(q[np.newaxis, :], q, alpha, 1e-12).tolist() == [1.0]
    assert solve_lambdas(q[np.newaxis, :], q[np.newaxis, :], alpha, 1e-12).tolist() == [1.0]


@pytest.mark.parametrize("alpha", [2, 3, 8])
def test_zeros_are_left_to_the_kernel(alpha):
    """A zero in a mixture or its reference makes a power sum inf or NaN, so
    the sums call none of these in or out, and the kernel's support rules
    decide: equal supports are in, a missed token is out."""
    refs = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [0.5, 0.5, 0.0]])
    mixtures = np.array([[0.5, 0.5, 0.0], [0.4, 0.5, 0.1], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    inside, unsure = mollifier._power_sum_verdicts(mixtures, refs, float(alpha), 0.5 * alpha)
    assert unsure.all()
    verdicts = mollifier._in_ball(mixtures, refs, float(alpha), 0.5)
    assert np.array_equal(verdicts, _kernel_verdicts(mixtures, refs, float(alpha), 0.5))
    assert verdicts.tolist() == [True, False, True, False]
    assert [mollifier_membership(m, q, alpha, 0.5) for m, q in zip(mixtures, refs)] \
        == verdicts.tolist()


def test_serving_at_the_wide_trigram_settings_never_runs_the_kernel(monkeypatch, fixture_config):
    """At the settings of the serve-trigram-wide benchmark (n-gram order 3,
    q 0.25, eps_g 32, T 512, paper-faithful, 80 fixture members), 64 answered
    queries and then one 64-position block are decided by the power sums
    alone: the exact kernel runs on none of their mixtures.  If this fails,
    served traffic reaches the kernel again and its speed matters."""
    config = fixture_config
    vocab = Vocabulary.from_file(config.vocab_path)
    private, public, test = ([vocab.encode(doc) for doc in load_corpus(path)]
                             for path in (config.private_corpus_path, config.public_corpus_path,
                                          config.test_corpus_path))
    members = [train_ngram(part, 3, config.smoothing_k, vocab)
               for part in partition_corpus(private, 80, config.seed)]
    params = PrivacyParams(eps_g=32.0, delta=config.delta, T=512, alpha=3, q=0.25, N=80)
    session = PredictionSession(members, build_public_model(public, 3, config.smoothing_k, vocab),
                                params, mode=EpsMode.PAPER_FAITHFUL, seed=0)
    kernel, calls = mollifier._renyi_arrays, []
    monkeypatch.setattr(mollifier, "_renyi_arrays",
                        lambda p, *rest, **kw: calls.append(p.shape) or kernel(p, *rest, **kw))
    weights = []
    for doc in test[:4]:
        ids = doc[:2]
        for _ in range(16):
            token, record = session.respond(ids)
            weights.extend(record.mixing_weights.values())
            ids.append(token)
    session.answer_block([doc[:t] for doc in test for t in range(len(doc))][:64])
    assert session.ledger.queries_answered == 128
    assert min(weights) < 1.0  # some projections searched below weight 1
    assert calls == []
