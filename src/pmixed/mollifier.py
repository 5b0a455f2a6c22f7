"""Projection of private distributions toward a public reference.

The ball of radius ``beta`` around the public distribution ``p0`` (the
RD-mollifier set) holds what is within symmetric Renyi divergence
``beta * alpha`` of ``p0``, and at radius 0 only ``p0`` itself.  Its one
definition, ``_in_ball``, serves the search and ``mollifier_membership``.
The projection keeps the largest weight whose mixture
``lam * p + (1 - lam) * p0`` is in the ball.  The constraint is monotone in
the weight, so one bisection over a ``(k, V)`` stack finds every row's
weight.  The stack holds the (query, member) pairs of one query or of an
evaluation block, each row against its own query's reference.  A row in
the ball at weight 1 keeps it; every other row runs the same fixed number
of halvings (20 at the default tolerance) and returns its bracket's lower
endpoint, which starts at ``p0`` and moves only to accepted weights.

When a stack's rows times halvings times tokens fit in ``CERTIFY_ELEMENTS``,
a float predictor estimates each row's weight from the two directed power
sums of the ball test.  The estimate names a grid point ``k / 2**steps``; the bisection walk
that ends there visits ``steps`` exact dyadic midpoints, each bit for bit the
``0.5 * (lo + hi)`` the sequential bisection computes, and one ball test
evaluates all of them.  A row whose verdicts all keep to its walk gets
``k / 2**steps``, which is then by construction the bisection's result.  A
row with a verdict off its walk reruns the plain bisection from ``[0, 1]``,
one halving per ball test, as do all rows of larger stacks, such as an
evaluation block, and of searches of more than 52 halvings, whose midpoints
round.  So every weight is the sequential bisection's, bit for bit, whatever
the predictor returns, at any step count and even where rounding makes
feasibility non-monotone.  The predictor decides only how many ball tests a
search takes: two, the test at weight 1 included, when it names every row's
grid point, and two plus the halvings otherwise.

The ball test (``_in_ball``) runs the divergence kernel only where it must.
At an integer order it needs no logarithm.  With ``n = alpha - 1``
and ``tau = n * beta * alpha``, the directed power sums
``S_fwd = sum p (p/q)**n`` and ``S_bwd = sum q (q/p)**n = sum q / (p/q)**n``
are ``exp(n D)`` of the two directed divergences, so a mixture is in the ball
iff ``max(S_fwd, S_bwd) <= exp(tau)``.  ``_in_ball`` computes both sums with
integer powers by repeated squaring (the backward one from ``q/p``, so that
a power that underflows loses only an absolute amount) and lets them decide
every mixture whose larger sum lies outside ``exp(tau -+ M)``.  The rest go
to the kernel, as does every case the sums do not cover: a zero in a mixture
or its reference (a sum is then inf or NaN), a sum that overflows, radius 0,
a non-integer order, and a margin ``M`` above ``2**-20`` (an order past
about 3600, over 4 million tokens, or ``tau`` past about 3e6).  So every
verdict is the kernel's.  The kernel takes the logarithms of the references
on each call, and only of those whose mixtures the sums leave to it.

The margin comes from a bound, in log space, on both forms.  Let every float
operation, NumPy's ``log`` and ``exp`` included, be within a relative
``rho = 2**-50`` (4 units in the last place), and let ``V`` be the tokens.
- Power sums: a term rounds at most ``2n + 1`` times (the ratio, counted
  ``n`` times in its power, ``n - 1`` products and the factor), and a sum of
  ``V`` positive terms ``V - 1`` times more: ``|log S_hat - log S| <=
  1.01 (2 alpha + V) rho``.  An underflowed power is off by under 2**-1000,
  which no sum that can be called in or out notices.
- Kernel: every entry is a positive float up to ``1 + 1e-9``, so its log is
  at most 745 in magnitude and a term ``alpha log p + (1 - alpha) log q`` is
  off by at most ``6.1 * 745 alpha rho``.  Subtracting the shift adds at
  most ``746 rho`` to each term that does not underflow, ``exp`` ``rho``,
  the sum ``1.01 (V - 1) rho`` and its log at most ``V rho``: the kernel's
  ``n D`` is within ``(4545 alpha + 748 + 2.01 V) rho`` of ``log S``.
- Thresholds: ``tau``, ``tau -+ M``, their ``exp``, and the kernel's
  addition of the shift and division by ``n`` add at most ``(4.1 tau + 2) rho``.
Together that is below ``(4550 alpha + 3.1 V + 4.1 tau + 750) rho``; the
margin ``M = 2**-44 (4600 alpha + 4 V + 5 tau + 800)`` is 64 times as large,
which is 8.4e-10 at the benchmark's order 3 over 49 tokens.  The lower end
is taken at ``exp(min(tau - M, 709))``, where ``exp`` is finite; that only
lowers it, so past the float range a sum is called in when it is finite and
below ``e**709``, and goes to the kernel otherwise, never out.  A mixture
bitwise equal to its reference is in at any radius above 0, even when its
sum, and so both of its power sums, is off 1 by up to
``NORMALIZATION_ATOL``: no sum up to ``1 + 2 NORMALIZATION_ATOL + V 2**-50``
is called out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .accounting import _check_radius, _real, check_positive
from .divergence import (NORMALIZATION_ATOL, Distribution, _as_probs, _matched,
                         _renyi_arrays, check_order, check_probabilities)

DEFAULT_LAMBDA_TOL = 1e-6
MAX_BISECTION_STEPS = 100
# A search of at most this many rows times halvings times tokens checks each
# row's predicted walk in one ball test: 512 mixtures over 49 tokens.  A
# larger one, such as an evaluation block, halves once per call from the
# start: one call over all its walks' mixtures is bound by memory traffic and
# raises the peak memory, and both grow with the vocabulary.
CERTIFY_ELEMENTS = 512 * 49


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
    """``lam * p + (1 - lam) * q``, summed in place into the first product,
    which must have the mixture's shape."""
    mixed = lam * p
    mixed += (1.0 - lam) * q
    return mixed


def mix(p, p0, lam) -> Distribution:
    """Entrywise convex combination ``lam * p + (1 - lam) * p0``.

    ``lam = 0`` returns ``p0`` exactly and ``lam = 1`` returns ``p`` exactly.
    Raw arrays are checked and used as given, not renormalized, so this is
    bit for bit the mixture :func:`solve_lambdas` verifies.
    """
    if not (_real(lam) and 0.0 <= lam <= 1.0):
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam!r}")
    pa, qa = _matched(p, p0)
    return Distribution._already_normalized(_mix_arrays(pa, qa, float(lam)))


def _power_sum(p: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """``sum p (p/q)**n`` along the last axis, the power by repeated squaring."""
    base, term = p / q, None
    while True:
        if n & 1:
            term = base * p if term is None else np.multiply(term, base, out=term)
        n >>= 1
        if not n:
            return term.sum(axis=-1)
        np.multiply(base, base, out=base)


def _power_sum_verdicts(mixtures: np.ndarray, refs: np.ndarray, alpha: float, bound: float):
    """The ball test from the two directed power sums at an integer order, as
    ``(inside, unsure)`` per mixture: ``inside`` is the verdict wherever
    ``unsure`` is false.  None where the sums do not apply (see the module
    docstring for the sums, their error bound and the margin)."""
    size = mixtures.shape[-1]
    tau = (alpha - 1.0) * bound
    margin = 2.0**-44 * (4600.0 * alpha + 4.0 * size + 5.0 * tau + 800.0)
    if not (alpha.is_integer() and margin <= 2.0**-20):
        return None
    inside_at = math.exp(min(tau - margin, 709.0))
    outside_at = max(math.exp(tau + margin) if tau + margin < 709.0 else math.inf,
                     1.0 + 2.0 * NORMALIZATION_ATOL + size * 2.0**-50)
    with np.errstate(all="ignore"):
        n = int(alpha) - 1
        sums = np.maximum(_power_sum(mixtures, refs, n), _power_sum(refs, mixtures, n))
    inside = sums <= inside_at
    # NaN (0/0) is neither in nor out; inf (a zero, an overflow) is never called out
    return inside, ~(inside | (sums >= outside_at) & (sums < math.inf))


def _in_ball(mixtures: np.ndarray, refs: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """The RD-mollifier set: whether each ``(..., V)`` mixture is within symmetric
    order-``alpha`` divergence ``beta * alpha`` of its reference in ``refs``,
    one ``(V,)`` row or a stack, such as ``(k, 1, V)`` against ``(k, points,
    V)``, that broadcasts against the mixtures.  A divergence below float
    precision rounds to 0, so at radius 0 only the reference itself, bit for
    bit, is in.  The power sums decide what they can; the kernel the rest."""
    if beta == 0.0:
        return np.all(mixtures == refs, axis=-1)
    bound = beta * alpha
    cheap = _power_sum_verdicts(mixtures, refs, alpha, bound)
    if cheap is None:
        return _renyi_arrays(mixtures, refs, alpha, symmetric=True) <= bound
    inside, unsure = cheap
    if unsure.any():
        refs = np.broadcast_to(refs, mixtures.shape)[unsure]
        inside[unsure] = _renyi_arrays(mixtures[unsure], refs, alpha, symmetric=True) <= bound
    return inside


def mollifier_membership(pbar, p0, alpha, beta) -> bool:
    """Whether ``pbar`` lies in the ball of radius ``beta`` around ``p0``: within
    symmetric divergence ``beta * alpha``, or equal to ``p0`` at radius 0."""
    a = _check_finite_order(alpha)
    b = _check_radius(beta)
    pa, qa = _matched(pbar, p0)
    return bool(_in_ball(pa[np.newaxis, :], qa, a, b)[0])


def _newton_on_power_sum(d, refs, e, lam, log_target, steps):
    """``steps`` Newton steps in ``log lam`` on ``log`` of the excess over 1 of
    the power sum ``sum q (1 + lam d)**e``, toward ``log_target``.  Each step
    stays at weight 1 or below, past which a mixture may hold negative
    entries.  A step whose power leaves the float range, which makes it NaN
    or 0, goes instead to the smallest weight at which one token's term alone
    reaches ``1 + exp(log_target)``: the sum is at least that there, so the
    root is not above it."""
    for _ in range(steps):
        u = 1.0 + lam[:, np.newaxis] * d
        w = refs * u ** (e - 1.0)
        excess = (w * u).sum(axis=-1) - 1.0
        # the excess over the slope, divided first: near a pole their product
        # with e overflows while both stay finite
        step = lam * np.exp((log_target - np.log(excess))
                            * (excess / (w * d).sum(axis=-1) / (e * lam)))
        lost = ~(step > 0.0)
        if lost.any():
            alone = np.expm1((np.logaddexp(0.0, log_target)
                              - np.log(refs[lost])) / e) / d[lost]
            step[lost] = np.where(alone > 0.0, alone, np.inf).min(axis=-1)
        lam = np.minimum(step, 1.0)
    return lam


def _predict_weights(rows, refs, alpha, beta):
    """A float estimate of each row's largest weight in the ball: the weight
    at which the larger directed power sum ``sum q (1 + lam d)**e``, with
    ``d = p/q - 1`` and ``e`` = ``alpha`` forward or ``1 - alpha`` backward,
    reaches ``exp(tau)``, ``tau = (alpha - 1) * beta * alpha``.  It aims at
    the log of the excess over 1, ``log(expm1(tau))``, which stays finite
    where ``exp(tau)`` overflows.  Newton steps solve the forward sum, four up
    to order 8 and one more for each fourfold rise in the order past it, since
    the quadratic first estimate is further off the higher the power.  A row
    whose backward sum is past the bound there solves the backward sum from
    that weight instead, in more steps, since they close in slowly where an
    entry's pole is near.  Only the search's speed depends on the estimate:
    every weight still comes from the ball's verdicts."""
    forward = 4 + max(0, math.ceil(math.log(alpha / 8.0, 4.0)))
    tau = (alpha - 1.0) * alpha * beta
    with np.errstate(all="ignore"):
        d = rows / refs - 1.0
        log_target = tau + np.log(-np.expm1(-tau))
        # both sums are 1 + alpha (alpha - 1) / 2 * sum(q d**2) * lam**2 + O(lam**3)
        lam = np.minimum(np.exp(0.5 * log_target) * np.sqrt(
            2.0 / (alpha * (alpha - 1.0) * (refs * d * d).sum(axis=-1))), 1.0)
        lam = _newton_on_power_sum(d, refs, alpha, lam, log_target, forward)
        back = (refs / (1.0 + lam[:, np.newaxis] * d) ** (alpha - 1.0)).sum(axis=-1)
        binds = np.log(back - 1.0) > log_target
        if binds.any():
            lam[binds] = _newton_on_power_sum(d[binds], refs[binds], 1.0 - alpha, lam[binds],
                                              log_target, 16)
    return lam


def _grid_index(lam, steps):
    """The index ``k`` of the grid point ``k / 2**steps`` at or below each
    weight, clipped to ``[0, 2**steps - 1]``; NaN gives 0."""
    scaled = lam * 2.0**steps
    return np.minimum(np.where(scaled > 0.0, scaled, 0.0), 2**steps - 1).astype(np.int64)


def solve_lambdas(P, p0, alpha, beta, tol: float = DEFAULT_LAMBDA_TOL) -> np.ndarray:
    """One weight per row of ``P``: the largest, within ``tol``, whose mixture
    with its reference stays within ``beta * alpha`` at finite order ``alpha``.

    ``P`` is a ``(k, V)`` stack of private distributions, checked like a
    :class:`Distribution` but used as given.  ``p0`` is either one public
    distribution shared by every row, or a ``(k, V)`` stack holding row
    ``i``'s own reference, checked and used like ``P``; the second form
    projects the (query, member) pairs of many queries in one call.  Checked,
    they go to the unchecked search as stacks; the answer path calls it itself.
    Row ``i``'s weight depends only on ``P[i]`` and its reference.
    """
    a = _check_finite_order(alpha)
    b = _check_radius(beta)
    check_positive(tol, "tolerance")
    rows = np.asarray(P, dtype=np.float64)
    if isinstance(p0, Distribution) or np.ndim(p0) == 1:
        ref = _as_probs(p0)
        refs = np.broadcast_to(ref, rows.shape[:1] + ref.shape)
    else:
        refs = np.asarray(p0, dtype=np.float64)
        check_probabilities(refs, "references")
    if rows.ndim != 2 or refs.shape != rows.shape:
        raise ValueError(f"expected a (k, V) stack of rows and one reference or a stack of "
                         f"references like it, got {rows.shape} and {refs.shape}")
    check_probabilities(rows, "rows")
    return _search_lambdas(rows, refs, a, b, tol)


def _search_lambdas(rows, refs, alpha: float, beta: float, tol=DEFAULT_LAMBDA_TOL) -> np.ndarray:
    """:func:`solve_lambdas` past its checks, on float64 ``(k, V)`` stacks."""
    # mixtures are (row, point, V) stacks, so every reference gets a point axis
    refs = refs[:, np.newaxis, :]
    search = ~_in_ball(rows[:, np.newaxis, :], refs, alpha, beta)[:, 0]
    weights = np.ones(rows.shape[0])
    if search.any():
        rows, refs = rows[search, np.newaxis, :], refs[search]
        n = rows.shape[0]
        steps = next((s for s in range(MAX_BISECTION_STEPS) if 0.5**s <= tol),
                     MAX_BISECTION_STEPS)
        lo, at = np.zeros(n), np.arange(n)
        # past 52 halvings a midpoint may round, so a walk's exact dyadics
        # would no longer be the bisection's midpoints
        if 0 < steps <= 52 and n * steps * rows.shape[-1] <= CERTIFY_ELEMENTS:
            k = _grid_index(_predict_weights(rows[:, 0], refs[:, 0], alpha, beta), steps)
            # the walk that ends at k / 2**steps visits at halving j the exact
            # dyadic ((k >> (steps - j)) | 1) / 2**j, which is the sequential
            # bisection's 0.5 * (lo + hi), and keeps the upper half there iff
            # bit steps - j of k is set
            prefix = k[:, np.newaxis] >> np.arange(steps - 1, -1, -1)
            ok = _in_ball(_mix_arrays(rows, refs, ((prefix | 1) * 0.5 ** np.arange(1, steps + 1))
                                      [..., np.newaxis]), refs, alpha, beta)
            # a row whose verdicts all keep to its walk is done at k / 2**steps
            lo = k * 0.5**steps
            at = np.flatnonzero(np.any(ok != (prefix & 1).astype(bool), axis=1))
        # the rows left halve once per ball test from [0, 1]; a lower end
        # starts at p0 itself and moves only to points verified feasible
        if at.size:
            rows, refs = rows[at], refs[at]
            low, high = np.zeros(at.size), np.ones(at.size)
            for _ in range(steps):
                mid = 0.5 * (low + high)
                ok = _in_ball(_mix_arrays(rows, refs, mid[:, np.newaxis, np.newaxis]),
                              refs, alpha, beta)[:, 0]
                low, high = np.where(ok, mid, low), np.where(ok, high, mid)
            lo[at] = low
        weights[search] = lo
    return weights


def solve_lambda(p, p0, alpha, beta, tol: float = DEFAULT_LAMBDA_TOL) -> MollificationResult:
    """Largest mixing weight whose mixture stays inside the radius-``beta``
    ball: the one-row case of :func:`solve_lambdas`, with the projection."""
    pa, qa = _matched(p, p0)
    lam = float(solve_lambdas(pa[np.newaxis, :], p0, alpha, beta, tol)[0])
    return MollificationResult(lam, Distribution._already_normalized(_mix_arrays(pa, qa, lam)))
