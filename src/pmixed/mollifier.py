"""Projection of private distributions toward a public reference.

The ball of radius ``beta`` around the public distribution ``p0`` (the
RD-mollifier set) holds what is within symmetric Renyi divergence
``beta * alpha`` of ``p0``, and at radius 0 only ``p0`` itself.  Its one
definition, ``_in_ball``, serves the search and ``mollifier_membership``.
The projection keeps the largest weight whose mixture
``lam * p + (1 - lam) * p0`` is in the ball.  The constraint is monotone in
the weight, so one bisection over a ``(k, V)`` stack finds every row's
weight.  The stack is a query's whole subset, or every (query, member) pair
of an evaluation block with each row against its own query's reference.  A
row in the ball at weight 1 keeps it; every other row runs the same fixed
number of halvings (20 at the default tolerance) and returns its bracket's
lower endpoint, which starts at ``p0`` and moves only to accepted weights.

The search prepares each reference's logarithms once, then takes its
halvings in rounds: one kernel call evaluates, for every searching row, the
``2**L - 1`` midpoints that its next ``L`` halvings can visit, built as a
tree from the row's bracket with each node ``0.5 * (lo + hi)`` of the bracket
it halves.  The round then replays those halvings from the verdicts, each
keeping the half that its midpoint's verdict picks.  So every row takes the
sequential bisection's walk, bit for bit, at any step count and even where
rounding makes feasibility non-monotone.  ``L`` is the largest that keeps a
round within ``ROUND_MIXTURES`` mixtures: 4 for a three-row subset, and 1
from 22 rows up, as in an evaluation block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .accounting import _check_radius, check_positive
from .divergence import (Distribution, _as_probs, _matched, _prepare_reference, _Reference,
                         _renyi_prepared, check_order, check_probabilities)

DEFAULT_LAMBDA_TOL = 1e-6
MAX_BISECTION_STEPS = 100
# A round evaluates the next L halvings of every searching row in one kernel
# call, at the 2**L - 1 midpoints those halvings can visit; L is the largest
# that keeps a round within this many mixtures, and at least 1.
ROUND_MIXTURES = 64


@dataclass(frozen=True)
class MollificationResult:
    """Mixing weight and projected distribution for one ensemble member."""

    mixing_weight: float
    projected: Distribution


def _check_finite_order(alpha) -> float:
    a = check_order(alpha)
    if math.isinf(a):
        raise ValueError("mollification requires a finite divergence order")
    return a


def _mix_arrays(p: np.ndarray, q: np.ndarray, lam) -> np.ndarray:
    return lam * p + (1.0 - lam) * q


def mix(p, p0, lam) -> Distribution:
    """Entrywise convex combination ``lam * p + (1 - lam) * p0``.

    ``lam = 0`` returns ``p0`` exactly and ``lam = 1`` returns ``p`` exactly.
    Raw arrays are checked and used as given, not renormalized, so this is
    bit for bit the mixture :func:`solve_lambdas` verifies.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    pa, qa = _matched(p, p0)
    return Distribution._already_normalized(_mix_arrays(pa, qa, lam))


def _in_ball(mixtures: np.ndarray, ref: _Reference, beta: float) -> np.ndarray:
    """The RD-mollifier set: whether each ``(..., V)`` mixture is within symmetric
    divergence ``beta * alpha`` of ``ref``.  A divergence below float precision
    rounds to 0, so at radius 0 only the reference itself, bit for bit, is in."""
    if beta == 0.0:
        return np.all(mixtures == ref.probs, axis=-1)
    return _renyi_prepared(mixtures, ref) <= beta * ref.alpha


def mollifier_membership(pbar, p0, alpha, beta) -> bool:
    """Whether ``pbar`` lies in the ball of radius ``beta`` around ``p0``: within
    symmetric divergence ``beta * alpha``, or equal to ``p0`` at radius 0."""
    a = _check_finite_order(alpha)
    b = _check_radius(beta)
    pa, qa = _matched(pbar, p0)
    return bool(_in_ball(pa[np.newaxis, :], _prepare_reference(qa, a, symmetric=True), b)[0])


@functools.cache
def _walks(levels: int) -> tuple[np.ndarray, np.ndarray]:
    """The walks of ``levels`` halvings through a round's midpoint tree: for
    each of the ``2**levels`` brackets a walk can end in, the columns of the
    midpoints it visits, one per halving, and whether it keeps the upper
    half at each."""
    widths = 2 << np.arange(levels)
    ends = np.arange(1 << levels)[:, np.newaxis]
    nodes = ends // widths * widths + widths // 2
    return nodes - 1, ends >= nodes


def solve_lambdas(P, p0, alpha, beta, tol: float = DEFAULT_LAMBDA_TOL) -> np.ndarray:
    """One weight per row of ``P``: the largest, within ``tol``, whose mixture
    with its reference stays within ``beta * alpha`` at finite order ``alpha``.

    ``P`` is a ``(k, V)`` stack of private distributions, checked like a
    :class:`Distribution` but used as given.  ``p0`` is either one public
    distribution shared by every row, or a ``(k, V)`` stack holding row
    ``i``'s own reference, checked and used like ``P``; the second form
    projects the (query, member) pairs of many queries in one call.  Row
    ``i``'s weight depends only on ``P[i]`` and its reference.
    """
    a = _check_finite_order(alpha)
    b = _check_radius(beta)
    check_positive(tol, "tolerance")
    rows = np.asarray(P, dtype=np.float64)
    shared = isinstance(p0, Distribution) or np.ndim(p0) == 1
    refs = _as_probs(p0) if shared else np.asarray(p0, dtype=np.float64)
    if not (shared or refs.shape == rows.shape):
        raise ValueError(f"expected one reference or a stack of references shaped like "
                         f"the rows {rows.shape}, got shape {refs.shape}")
    if rows.ndim != 2 or rows.shape[1] != refs.shape[-1]:
        raise ValueError(f"expected a (k, V) stack of rows over the reference's V tokens, "
                         f"got shape {rows.shape}")
    check_probabilities(rows, "rows")
    if not shared:
        check_probabilities(refs, "references")
    # mixtures are (row, point, V) stacks; a per-row reference gets a point axis
    ref = _prepare_reference(refs if shared else refs[:, np.newaxis, :], a, symmetric=True)
    search = ~_in_ball(rows[:, np.newaxis, :], ref, b)[:, 0]
    weights = np.ones(rows.shape[0])
    if search.any():
        rows, ref = rows[search, np.newaxis, :], ref.take(search)
        n = rows.shape[0]
        steps = next((s for s in range(MAX_BISECTION_STEPS) if 0.5**s <= tol),
                     MAX_BISECTION_STEPS)
        level = max(1, (ROUND_MIXTURES // n + 1).bit_length() - 1)
        # lo starts at p0 itself and moves only to points verified feasible
        lo, hi, at = np.zeros(n), np.ones(n), np.arange(n)
        for done in range(0, steps, level):
            taken = min(level, steps - done)
            # the round's midpoint tree, one row per node in bracket order:
            # each node is 0.5 * (lo + hi) of the bracket it halves, as the
            # sequential bisection computes it
            tree = np.empty(((1 << taken) + 1, n))
            tree[0], tree[-1] = lo, hi
            for d in reversed(range(taken)):
                w = 2 << d
                tree[w // 2::w] = 0.5 * (tree[:-1:w] + tree[w::w])
            ok = _in_ball(_mix_arrays(rows, ref.probs, tree[1:-1].T[..., np.newaxis]), ref, b)
            # replay the round's halvings: the walk ends in the one bracket
            # whose every midpoint's verdict keeps the half that holds it
            nodes, upper = _walks(taken)
            i = np.all(ok[:, nodes] == upper, axis=-1).argmax(axis=1)
            lo, hi = tree[i, at], tree[i + 1, at]
        weights[search] = lo
    return weights


def solve_lambda(p, p0, alpha, beta, tol: float = DEFAULT_LAMBDA_TOL) -> MollificationResult:
    """Largest mixing weight whose mixture stays inside the radius-``beta``
    ball: the one-row case of :func:`solve_lambdas`, with the projection."""
    pa, qa = _matched(p, p0)
    lam = float(solve_lambdas(pa[np.newaxis, :], p0, alpha, beta, tol)[0])
    return MollificationResult(lam, Distribution._already_normalized(_mix_arrays(pa, qa, lam)))
