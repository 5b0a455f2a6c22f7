"""Reference projection: the per-member scalar bisection of the first release.

A compact copy of the one-vector divergence and the bisection that
``solve_lambda`` ran before projections were batched over a subset.  The
property tests require row ``i`` of ``solve_lambdas`` to equal it bit for bit
on full-support rows, so keep the arithmetic here exactly as it was.
"""

import math

import numpy as np


def renyi(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    if p is q or np.array_equal(p, q):
        return 0.0
    support = p > 0.0
    ps, qs = p[support], q[support]
    if np.any(qs == 0.0):
        return math.inf
    terms = alpha * np.log(ps) + (1.0 - alpha) * np.log(qs)
    shift = float(terms.max())
    total = shift + math.log(float(np.exp(terms - shift).sum()))
    return max(total / (alpha - 1.0), 0.0)


def symmetric(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    forward = renyi(p, q, alpha)
    if math.isinf(forward):
        return forward
    return max(forward, renyi(q, p, alpha))


def scalar_lambda(p: np.ndarray, p0: np.ndarray, alpha: float, beta: float,
                  tol: float = 1e-6, max_steps: int = 100) -> float:
    radius = beta * alpha

    def feasible(lam: float) -> bool:
        return symmetric(lam * p + (1.0 - lam) * p0, p0, alpha) <= radius

    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(max_steps):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
