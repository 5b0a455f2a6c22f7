"""Exact Renyi divergences between discrete distributions.

Everything downstream (mollification, the prediction protocol, the privacy
accounting checks) is built on the two operations in this module:
``renyi_divergence`` and its symmetrized variant ``symmetric_renyi``.
All divergences are in nats and the order must be a real number strictly
greater than 1, or ``INFINITY`` for the max-log-ratio limit.

Those two and the mollifier's ball test all run one row-wise kernel,
``_renyi_arrays``, over a stack of rows against a shared reference or one
reference per row.  The ball test runs it only on the mixtures that its
power sums leave undecided.
"""

from __future__ import annotations

import math

import numpy as np

from .accounting import _real

INFINITY = math.inf

# Vectors whose mass differs from 1 by more than this are rejected rather
# than renormalized; model backends produce floating-point distributions
# that sit well inside it.
NORMALIZATION_ATOL = 1e-9


class Distribution:
    """A normalized probability vector over a finite token vocabulary.

    Entries must be nonnegative, sum to 1 within ``NORMALIZATION_ATOL``, and
    cover at least two tokens.  Functions that take a raw array in place of
    a distribution check it the same way (:func:`_as_probs`) and use it as
    given; only ``Distribution(...)`` renormalizes its input by its sum.  The
    stored array is read-only so a distribution can be shared freely between
    threads and cached by model backends.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs):
        arr = _as_probs(probs)
        arr = arr / float(arr.sum())
        arr.flags.writeable = False
        self._probs = arr

    @classmethod
    def _already_normalized(cls, arr: np.ndarray) -> "Distribution":
        # Trusted path for arithmetic on vectors that are exact convex
        # combinations of validated distributions: skipping the renormalizing
        # division keeps identities like mix(p, q, 0) == q bitwise exact,
        # which the mollifier's feasibility bookkeeping relies on.
        dist = object.__new__(cls)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.flags.writeable = False
        dist._probs = arr
        return dist

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def vocab_size(self) -> int:
        return self._probs.size

    def __len__(self) -> int:
        return self._probs.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return np.array_equal(self._probs, other._probs)

    def __hash__(self):
        return hash(self._probs.tobytes())

    def __repr__(self) -> str:
        body = np.array2string(self._probs, threshold=8, separator=", ")
        return f"Distribution({body})"


def check_probabilities(rows: np.ndarray, what: str) -> None:
    """Validate probability rows along the last axis: nonnegative, each summing
    to 1 within ``NORMALIZATION_ATOL``."""
    sums = rows.sum(axis=-1)
    # NaN and -inf fail the sign test, +inf fails the sum test
    if not (np.all(rows >= 0.0) and np.all(abs(sums - 1.0) <= NORMALIZATION_ATOL)):
        raise ValueError(f"{what} must be nonnegative and sum to 1 within {NORMALIZATION_ATOL}")


def check_order(alpha) -> float:
    """Validate a divergence order: a real number > 1, or infinity."""
    if not (_real(alpha) and alpha > 1.0):
        raise ValueError(f"divergence order must be > 1 (or infinity), got {alpha!r}")
    return float(alpha)


def _as_probs(p) -> np.ndarray:
    """A distribution's array, or a raw probability vector checked like a
    :class:`Distribution` (1-D, at least 2 tokens, :func:`check_probabilities`)
    and used as given, not renormalized."""
    if isinstance(p, Distribution):
        return p.probs
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"probability vector must be 1-D, got shape {arr.shape}")
    if arr.size < 2:
        raise ValueError("vocabulary must contain at least 2 tokens")
    check_probabilities(arr, "probabilities")
    return arr


def _matched(p, q) -> tuple[np.ndarray, np.ndarray]:
    pa, qa = _as_probs(p), _as_probs(q)
    if pa.size != qa.size:
        raise ValueError(f"vocabulary sizes differ: {pa.size} != {qa.size}")
    return pa, qa


def _renyi_arrays(p: np.ndarray, q: np.ndarray, alpha: float,
                  symmetric: bool = False) -> np.ndarray:
    """Row-wise ``D(p || q)``, or the larger of both directions if
    ``symmetric``, over normalized ``(..., V)`` rows ``p`` and a reference
    ``q`` that is ``(V,)``, shared by every row, or a stack that broadcasts
    against them.  A ``(V,)`` ``p`` is one row.

    Support is masked: a row is ``inf`` where ``q`` misses part of ``p``'s
    support (symmetric: where the supports differ) and 0 where ``p == q``.
    """
    p = np.atleast_2d(p)
    support, covered = p > 0.0, q > 0.0
    logp = np.log(np.where(support, p, 1.0))
    logq = np.log(np.where(covered, q, 1.0))
    directions = ((logp, logq), (logq, logp))[: 1 + symmetric]
    terms = np.stack([lp - lq if math.isinf(alpha) else alpha * lp + (1.0 - alpha) * lq
                      for lp, lq in directions])
    terms = np.where(support, terms, -np.inf)
    if math.isinf(alpha):
        total = terms.max(axis=-1)
    else:
        # Max-shifted log-sum-exp keeps peaked rows representable; the last
        # log is math.log per row, as in the scalar oracle, to match it bit for bit.
        shift = terms.max(axis=-1, keepdims=True)
        sums = np.exp(terms - shift).sum(axis=-1)
        logs = np.fromiter(map(math.log, sums.ravel().tolist()), np.float64, sums.size)
        total = (shift[..., 0] + logs.reshape(sums.shape)) / (alpha - 1.0)
    result = np.maximum(total.max(axis=0), 0.0)
    missing = support != covered if symmetric else support & ~covered
    result[missing.any(axis=-1)] = math.inf
    result[(p == q).all(axis=-1)] = 0.0
    return result


def renyi_divergence(p, q, alpha) -> float:
    """Order-``alpha`` Renyi divergence ``D(p || q)`` in nats.

    For finite orders this is ``log(sum_x p(x)^alpha q(x)^(1-alpha)) /
    (alpha - 1)``; for ``INFINITY`` it is the maximum log-ratio over the
    support of ``p``.  Returns ``+inf`` when ``q`` has a zero where ``p``
    has mass, and exactly 0 when the two vectors are entrywise identical.
    """
    a = check_order(alpha)
    pa, qa = _matched(p, q)
    return float(_renyi_arrays(pa, qa, a)[0])


def symmetric_renyi(p, q, alpha) -> float:
    """Maximum of the two directed order-``alpha`` divergences."""
    a = check_order(alpha)
    pa, qa = _matched(p, q)
    return float(_renyi_arrays(pa, qa, a, symmetric=True)[0])
