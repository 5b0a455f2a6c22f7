"""Exact Renyi divergences between discrete distributions.

Everything downstream (mollification, the prediction protocol, the privacy
accounting checks) is built on the two operations in this module:
``renyi_divergence`` and its symmetrized variant ``symmetric_renyi``.
All divergences are in nats and the order must be a real number strictly
greater than 1, or ``INFINITY`` for the max-log-ratio limit.
"""

from __future__ import annotations

import math

import numpy as np

INFINITY = math.inf

# Vectors whose mass differs from 1 by more than this are rejected rather
# than renormalized; model backends produce floating-point distributions
# that sit well inside it.
NORMALIZATION_ATOL = 1e-9


class Distribution:
    """A normalized probability vector over a finite token vocabulary.

    Entries must be nonnegative, sum to 1 within ``NORMALIZATION_ATOL``, and
    cover at least two tokens.  Inputs inside the tolerance are renormalized
    on construction; the stored array is read-only so a distribution can be
    shared freely between threads and cached by model backends.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs):
        arr = np.asarray(probs, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"probability vector must be 1-D, got shape {arr.shape}")
        if arr.size < 2:
            raise ValueError("vocabulary must contain at least 2 tokens")
        if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
            raise ValueError("probabilities must be finite and nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValueError(
                f"probabilities sum to {total!r}, not 1 within {NORMALIZATION_ATOL}"
            )
        arr = arr / total
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


def check_order(alpha) -> float:
    """Validate a divergence order: a real > 1, or infinity."""
    a = float(alpha)
    if math.isnan(a) or a <= 1.0:
        raise ValueError(f"divergence order must be > 1 (or infinity), got {alpha!r}")
    return a


def _as_probs(p) -> np.ndarray:
    if isinstance(p, Distribution):
        return p.probs
    return Distribution(p).probs


def _matched(p, q) -> tuple[np.ndarray, np.ndarray]:
    pa, qa = _as_probs(p), _as_probs(q)
    if pa.size != qa.size:
        raise ValueError(f"vocabulary sizes differ: {pa.size} != {qa.size}")
    return pa, qa


def _renyi_arrays(p: np.ndarray, q: np.ndarray, alpha: float,
                  symmetric: bool = False) -> np.ndarray:
    """Row-wise ``D(p || q)``, or the larger of both directions if ``symmetric``,
    over normalized ``(V,)`` or ``(k, V)`` arrays that broadcast together.
    Support is masked: a row is ``inf`` where ``q`` misses part of ``p``'s
    support (symmetric: where the supports differ) and 0 where ``p == q``."""
    p, q = np.atleast_2d(p), np.atleast_2d(q)
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
        # log is libm's, per row, so results do not depend on numpy's SIMD log.
        shift = terms.max(axis=-1, keepdims=True)
        sums = np.exp(terms - shift).sum(axis=-1)
        logs = np.fromiter(map(math.log, sums.ravel().tolist()), np.float64, sums.size)
        total = (shift[..., 0] + logs.reshape(sums.shape)) / (alpha - 1.0)
    result = np.maximum(total.max(axis=0), 0.0)
    missing = support != covered if symmetric else support & ~covered
    result[np.any(missing, axis=-1)] = math.inf
    result[np.all(p == q, axis=-1)] = 0.0
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
