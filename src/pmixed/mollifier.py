"""Projection of private distributions toward a public reference.

The projection moves along the mixing path ``lam * p + (1 - lam) * p0`` and
keeps the largest mixing weight for which the symmetric Renyi divergence
from the public distribution stays within the ball of radius
``beta * alpha``.  The constraint is monotone in the weight, so one
bisection over a ``(k, V)`` stack finds every row's weight.  The stack is a
query's whole subset, or every (query, member) pair of an evaluation block
with each row against its own query's reference.  A row feasible at weight
1 keeps it; every other row runs the same fixed number of halvings (20 at
the default tolerance) and returns its bracket's lower endpoint, which
starts at ``p0`` itself and moves only to weights verified feasible by the
kernel the membership check also uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accounting import _check_radius
from .divergence import (NORMALIZATION_ATOL, Distribution, _as_probs, _matched, _renyi_arrays,
                         check_order)

DEFAULT_LAMBDA_TOL = 1e-6
MAX_BISECTION_STEPS = 100


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
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    pa, qa = _matched(p, p0)
    return Distribution._already_normalized(_mix_arrays(pa, qa, lam))


def mollifier_membership(pbar, p0, alpha, beta) -> bool:
    """Whether ``pbar`` lies within symmetric divergence ``beta * alpha`` of ``p0``."""
    a = _check_finite_order(alpha)
    b = _check_radius(beta)
    pa, qa = _matched(pbar, p0)
    return bool(_renyi_arrays(pa, qa, a, symmetric=True)[0] <= b * a)


def _check_rows(rows: np.ndarray, what: str) -> None:
    # NaN and -inf fail the sign test, +inf fails the sum test
    if not (np.all(rows >= 0.0) and np.all(abs(rows.sum(axis=1) - 1.0) <= NORMALIZATION_ATOL)):
        raise ValueError(f"{what} must be nonnegative and sum to 1 within {NORMALIZATION_ATOL}")


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
    if not float(tol) > 0.0:
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    rows = np.asarray(P, dtype=np.float64)
    shared = isinstance(p0, Distribution) or np.ndim(p0) == 1
    refs = _as_probs(p0) if shared else np.asarray(p0, dtype=np.float64)
    if not (shared or refs.shape == rows.shape):
        raise ValueError(f"expected one reference or a stack of references shaped like "
                         f"the rows {rows.shape}, got shape {refs.shape}")
    if rows.ndim != 2 or rows.shape[1] != refs.shape[-1]:
        raise ValueError(f"expected a (k, V) stack of rows over the reference's V tokens, "
                         f"got shape {rows.shape}")
    _check_rows(rows, "rows")
    if not shared:
        _check_rows(refs, "references")

    def feasible(stack: np.ndarray, ref: np.ndarray, lam: np.ndarray) -> np.ndarray:
        mixtures = _mix_arrays(stack, ref, lam[:, np.newaxis])
        if b == 0.0:
            # a divergence below float precision rounds to 0, so at radius 0
            # only the reference itself is inside the ball
            return np.all(mixtures == ref, axis=1)
        return _renyi_arrays(mixtures, ref, a, symmetric=True) <= b * a

    weights = np.ones(rows.shape[0])
    search = ~feasible(rows, refs, weights)
    if search.any():
        rows = rows[search]
        if refs.ndim == 2:
            refs = refs[search]
        lo, hi = np.zeros(rows.shape[0]), np.ones(rows.shape[0])
        for step in range(MAX_BISECTION_STEPS):
            if 0.5**step <= tol:  # every row's hi - lo, exactly: the endpoints stay dyadic
                break
            mid = 0.5 * (lo + hi)
            ok = feasible(rows, refs, mid)
            lo = np.where(ok, mid, lo)  # lo stays feasible: it starts at p0 itself
            hi = np.where(ok, hi, mid)
        weights[search] = lo
    return weights


def solve_lambda(p, p0, alpha, beta, tol: float = DEFAULT_LAMBDA_TOL) -> MollificationResult:
    """Largest mixing weight whose mixture stays inside the radius-``beta``
    ball: the one-row case of :func:`solve_lambdas`, with the projection."""
    pa, qa = _matched(p, p0)
    lam = float(solve_lambdas(pa[np.newaxis, :], p0, alpha, beta, tol)[0])
    return MollificationResult(lam, Distribution._already_normalized(_mix_arrays(pa, qa, lam)))
