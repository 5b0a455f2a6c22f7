"""Reference kernel: the one-pass masked Renyi kernel that the bisection and
the membership check once shared.

Every call takes both logarithms and applies every support mask, whether or
not the inputs have zeros.  The property tests require the package's kernel,
``divergence._renyi_arrays``, to equal it bit for bit on rows and references
with and without zeros, so keep its arithmetic exactly as it is.
"""

import math

import numpy as np


def renyi_rows(p: np.ndarray, q: np.ndarray, alpha: float,
               symmetric: bool = False) -> np.ndarray:
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
        shift = terms.max(axis=-1, keepdims=True)
        sums = np.exp(terms - shift).sum(axis=-1)
        logs = np.fromiter(map(math.log, sums.ravel().tolist()), np.float64, sums.size)
        total = (shift[..., 0] + logs.reshape(sums.shape)) / (alpha - 1.0)
    result = np.maximum(total.max(axis=0), 0.0)
    missing = support != covered if symmetric else support & ~covered
    result[np.any(missing, axis=-1)] = math.inf
    result[np.all(p == q, axis=-1)] = 0.0
    return result
