"""Renyi-DP accounting for the private prediction protocol.

The accounting pipeline, in the order a session uses it:

1. ``solve_beta_star`` picks the largest mollifier radius whose amplified
   per-query loss fits the per-query budget ``eps_g / T``.
2. ``amplified_eps``, the Poisson-subsampling amplification of the per-query
   loss at a radius, is the search's constraint and, at its radius, the charge.
3. ``Accountant`` runs steps 1 and 2 once for a parameter set and a mode,
   composes the per-query charge over the ``T`` interaction rounds
   (``T * per_query_eps``), and converts the composed Renyi guarantee into
   an approximate-DP statement with ``rdp_to_dp``.  Sessions, reports and
   the CLI all read their accounting from one ``Accountant``.

All losses are in nats.  Orders are restricted to integers >= 2 because the
amplification bound is only stated for those; non-integer orders are
rejected rather than approximated.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum

# exp() overflows around 709; switch to shifted log forms above this
_EXP_ARG_LIMIT = 700.0

# Slack that solve_beta_star may leave on the per-query loss constraint, in nats
BETA_STAR_TOL = 1e-9


class EpsMode(Enum):
    """How the per-query loss entering the amplification bound is evaluated.

    PAPER_FAITHFUL evaluates it at the full ensemble size N, recovering the
    closed-form radius bound when there is no subsampling.  CONSERVATIVE
    takes the worst case over every subset size the subsampling could
    realize, which is sound regardless of the drawn subset, and is the
    default; that worst case is the size-2 average (size 1 when N = 1), see
    :func:`base_eps_for_order`.
    """

    PAPER_FAITHFUL = "paper-faithful"
    CONSERVATIVE = "conservative"


class BudgetExhaustedError(RuntimeError):
    """A query arrived after the session's query budget was spent."""

    def __init__(self, message: str, records=None):
        super().__init__(message)
        self.records = records


def _integral(value) -> int | None:
    """``value`` as an int when it is an integer or an integral float that a
    float also holds, else None.  A bool is not a count: JSON's ``true`` is
    refused, not read as 1."""
    if isinstance(value, bool):
        return None
    try:
        number = int(value)
        float(number)  # an integer beyond the float range, such as 10**309
    except (TypeError, ValueError, OverflowError):  # None, text, NaN, infinity
        return None
    return number if number == value else None


def check_integer_order(alpha) -> int:
    """Validate an accounting order: an integer (or integral float) >= 2."""
    a = _integral(alpha)
    if a is None or a < 2:
        raise ValueError(f"accounting order must be an integer >= 2, got {alpha!r}")
    return a


def check_positive_int(value, name: str) -> int:
    """Validate a count such as N or T: an integer (or integral float) >= 1."""
    count = _integral(value)
    if count is None or count < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return count


def check_nonnegative_int(value, name: str) -> int:
    """Validate a subset size or a seed: an integer (or integral float) >= 0."""
    count = _integral(value)
    if count is None or count < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")
    return count


def _real(value) -> bool:
    """Whether ``value`` is a real number.  A bool is not: JSON's ``true`` is
    refused, not read as 1, as is text such as ``"8"``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def check_positive(value, name: str) -> None:
    """Validate a positive number, such as a budget ``eps_g`` or a search tolerance."""
    if not (_real(value) and value > 0.0):
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_probability(value, name: str, *, allow_one: bool) -> None:
    """Validate a probability in (0, 1], or in (0, 1) when ``allow_one`` is false."""
    if not (_real(value) and (0.0 < value <= 1.0 if allow_one else 0.0 < value < 1.0)):
        raise ValueError(f"{name} must lie in (0, 1{']' if allow_one else ')'}, got {value!r}")


def _check_budget_args(N, eps_g, T) -> None:
    """Validate the ensemble size, global budget and query count of a radius bound."""
    check_positive_int(N, "ensemble size")
    check_positive(eps_g, "eps_g")
    check_positive_int(T, "T")


def _check_radius(beta) -> float:
    if not (_real(beta) and beta >= 0.0):
        raise ValueError(f"radius must be nonnegative, got {beta!r}")
    return float(beta)


def _log1p_scaled_expm1(scale: float, x: float) -> float:
    """log(1 + scale * (e**x - 1)) without overflow, for scale >= 1, x >= 0."""
    if x <= _EXP_ARG_LIMIT:
        return math.log1p(scale * math.expm1(x))
    # log(scale*e**x + 1 - scale) = x + log(scale) + log1p((1-scale)*e**-x/scale)
    return x + math.log(scale) + math.log1p((1.0 - scale) * math.exp(-x) / scale)


@dataclass(frozen=True)
class PrivacyParams:
    """Global privacy configuration of one prediction session.

    Attributes:
      eps_g: total Renyi privacy budget, in nats.
      delta: failure probability used when converting to approximate DP.
      T: maximum number of answered queries.
      alpha: Renyi order, an integer >= 2.
      q: Poisson subsampling probability for ensemble members.
      N: ensemble size.
    """

    eps_g: float
    delta: float
    T: int
    alpha: int
    q: float
    N: int

    def __post_init__(self):
        check_positive(self.eps_g, "eps_g")
        check_probability(self.delta, "delta", allow_one=False)
        object.__setattr__(self, "T", check_positive_int(self.T, "T"))
        object.__setattr__(self, "alpha", check_integer_order(self.alpha))
        check_probability(self.q, "q", allow_one=True)
        object.__setattr__(self, "N", check_positive_int(self.N, "N"))


def beta_max(N: int, eps_g: float, T: int, alpha: int) -> float:
    """Largest mollifier radius keeping each unsubsampled answer within eps_g/T.

    For a single-model ensemble the radius is ``eps_g / (T * alpha)``;
    otherwise it is ``log(N * e**((alpha-1) * eps_g / T) + 1 - N)`` divided
    by ``4 * (alpha - 1) * alpha``.  The logarithm's argument is always at
    least 1, so the result is nonnegative.
    """
    a = check_integer_order(alpha)
    _check_budget_args(N, eps_g, T)
    if N == 1:
        return eps_g / (T * a)
    return _log1p_scaled_expm1(float(N), (a - 1) * eps_g / T) / (4.0 * (a - 1) * a)


def per_query_eps(beta: float, alpha: int, subset_size: int) -> float:
    """Renyi loss of one averaged release over ``subset_size`` selected models.

    An empty subset answers from the public model alone and costs nothing.
    A singleton subset costs the full ball radius ``beta * alpha``; larger
    subsets dilute the single differing member in the average, costing
    ``log((s - 1 + e**((alpha-1) * 4 * beta * alpha)) / s) / (alpha - 1)``.
    """
    a = check_integer_order(alpha)
    b = _check_radius(beta)
    s = check_nonnegative_int(subset_size, "subset size")
    if s == 0:
        return 0.0
    if s == 1:
        return b * a
    y = (a - 1) * 4.0 * b * a
    if y <= _EXP_ARG_LIMIT:
        return math.log1p(math.expm1(y) / s) / (a - 1)
    return (y - math.log(s) + math.log1p((s - 1) * math.exp(-y))) / (a - 1)


def base_eps_for_order(beta: float, k: int, N: int, mode: EpsMode) -> float:
    """Per-query loss at order ``k`` fed into the subsampling amplification.

    PAPER_FAITHFUL evaluates at subset size ``N``; CONSERVATIVE takes the
    largest loss over every size 1..N the subsample could realize, which is
    size ``min(N, 2)``: with ``y = 4 k (k-1) beta``, a size ``s >= 2`` costs
    ``log1p(expm1(y) / s) / (k-1)``, which does not increase with ``s``,
    and size 2 dominates size 1, since ``log((1 + e**y) / 2) >= y / 2``
    (AM-GM) gives at least ``2 k beta`` against size 1's ``k beta``.
    """
    k = check_integer_order(k)
    n = check_positive_int(N, "ensemble size")
    if mode is EpsMode.PAPER_FAITHFUL:
        return per_query_eps(beta, k, n)
    if mode is EpsMode.CONSERVATIVE:
        return per_query_eps(beta, k, min(n, 2))
    raise ValueError(f"unknown mode {mode!r}")


def subsampled_eps(q: float, alpha: int, eps_fn) -> float:
    """Amplified loss of a mechanism run on a Poisson-``q`` subsample.

    ``eps_fn`` must return the mechanism's loss at every integer order
    ``k`` in ``{2, ..., alpha}``.  The bound is

      log((1-q)**(alpha-1) * (1 + (alpha-1) q)
          + sum_{k=2}^{alpha} C(alpha, k) (1-q)**(alpha-k) q**k
            e**((k-1) eps_fn(k))) / (alpha - 1)

    evaluated in log space.  At ``q = 1`` only the ``k = alpha`` term
    survives and the bound reduces to ``eps_fn(alpha)`` exactly.
    """
    a = check_integer_order(alpha)
    check_probability(q, "q", allow_one=True)

    def base(k: int) -> float:
        val = float(eps_fn(k))
        if math.isnan(val) or val < 0.0:
            raise ValueError(f"loss at order {k} must be nonnegative, got {val!r}")
        return val

    if q == 1.0:
        return base(a)
    log1mq = math.log1p(-q)
    logq = math.log(q)
    terms = [(a - 1) * log1mq + math.log1p((a - 1) * q)]
    for k in range(2, a + 1):
        terms.append(
            math.log(math.comb(a, k))
            + (a - k) * log1mq
            + k * logq
            + (k - 1) * base(k)
        )
    shift = max(terms)
    if math.isinf(shift):
        return math.inf
    total = shift + math.log(math.fsum(math.exp(t - shift) for t in terms))
    return max(total / (a - 1), 0.0)


def amplified_eps(params: PrivacyParams, beta: float, mode: EpsMode) -> float:
    """The per-query charge at radius ``beta``: the Poisson-``q`` amplification
    of the mode's per-query loss at every order up to ``params.alpha``."""
    return subsampled_eps(params.q, params.alpha,
                          lambda k: base_eps_for_order(beta, k, params.N, mode))


def solve_beta_star(params: PrivacyParams, mode: EpsMode = EpsMode.CONSERVATIVE) -> float:
    """Largest radius whose amplified per-query loss fits within eps_g / T.

    The amplified loss is monotone in the radius, so the radius is found by
    bisection on a bracket grown by doubling; the feasible endpoint is kept
    throughout, so the returned radius never overspends the budget.
    ``BETA_STAR_TOL`` bounds the slack left on the loss constraint at the
    returned radius.
    """
    target = params.eps_g / params.T
    lo, lo_val = 0.0, 0.0
    hi = 1.0
    for _ in range(200):
        hi_val = amplified_eps(params, hi, mode)
        if hi_val > target:
            break
        lo, lo_val = hi, hi_val
        hi *= 2.0
    else:
        raise RuntimeError("failed to bracket the radius; budget is effectively unbounded")

    for _ in range(200):
        if target - lo_val <= BETA_STAR_TOL and hi - lo <= 1e-12 * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        mid_val = amplified_eps(params, mid, mode)
        if mid_val <= target:
            lo, lo_val = mid, mid_val
        else:
            hi = mid
    return lo


def rdp_to_dp(alpha: int, eps: float, delta: float) -> float:
    """Approximate-DP epsilon implied by an (alpha, eps) Renyi guarantee."""
    a = check_integer_order(alpha)
    check_probability(delta, "delta", allow_one=False)
    if eps < 0.0:
        raise ValueError(f"eps must be nonnegative, got {eps!r}")
    return eps + math.log((a - 1) / a) - (math.log(delta) + math.log(a)) / (a - 1)


def beta_infinite_order(N: int, eps_g: float, T: int, alpha: float) -> float:
    """Radius from the pure-DP (max-divergence) analysis, scaled to order alpha.

    Diagnostic companion to :func:`beta_max`: the max-divergence argument
    yields ``log(N * e**(eps_g / T) + 1 - N) / (2 * alpha)``.
    """
    _check_budget_args(N, eps_g, T)
    a = float(alpha)
    if not a > 1.0:
        raise ValueError(f"order must be > 1, got {alpha!r}")
    return _log1p_scaled_expm1(float(N), eps_g / T) / (2.0 * a)


@dataclass
class AccountantLedger:
    """Per-session spend record enforcing the ``T``-query interaction limit.

    A ledger belongs to exactly one session and is charged sequentially;
    concurrent sessions must each own their own ledger.
    """

    params: PrivacyParams
    per_query_eps: float
    queries_answered: int = field(default=0)

    def __post_init__(self):
        if self.per_query_eps < 0.0:
            raise ValueError(
                f"per-query loss must be nonnegative, got {self.per_query_eps!r}"
            )
        if self.params.T * self.per_query_eps > self.params.eps_g + 1e-12:
            raise ValueError(
                "per-query loss times query budget exceeds the global budget"
            )
        if not 0 <= self.queries_answered <= self.params.T:
            raise ValueError(f"queries_answered out of range: {self.queries_answered!r}")

    @property
    def spent(self) -> float:
        return self.queries_answered * self.per_query_eps

    @property
    def remaining_queries(self) -> int:
        return self.params.T - self.queries_answered

    def charge(self) -> "AccountantLedger":
        """Record one answered query; refuses once the budget is exhausted."""
        if self.queries_answered >= self.params.T:
            raise BudgetExhaustedError(
                f"query budget exhausted: {self.params.T} queries already answered"
            )
        self.queries_answered += 1
        return self


@dataclass(frozen=True)
class Accountant:
    """The whole accounting chain of one parameter set, computed once.

    ``beta_star`` is the mollifier radius from :func:`solve_beta_star`,
    ``per_query_eps`` the amplified loss charged per answered query at that
    radius, ``composed_eps`` its ``T``-fold composition and ``dp_eps`` the
    approximate-DP epsilon of the composed guarantee at ``params.delta``.
    """

    params: PrivacyParams
    mode: EpsMode = EpsMode.CONSERVATIVE
    beta_star: float = field(init=False)
    per_query_eps: float = field(init=False)
    composed_eps: float = field(init=False)
    dp_eps: float = field(init=False)

    def __post_init__(self):
        p, mode = self.params, self.mode
        beta_star = solve_beta_star(p, mode)
        per_query = amplified_eps(p, beta_star, mode)
        composed = p.T * per_query
        object.__setattr__(self, "beta_star", beta_star)
        object.__setattr__(self, "per_query_eps", per_query)
        object.__setattr__(self, "composed_eps", composed)
        object.__setattr__(self, "dp_eps", rdp_to_dp(p.alpha, composed, p.delta))

    def record(self) -> dict:
        """The accounting summary written into reports, traces and ``pmixed account``."""
        p = self.params
        return {
            "eps_g": p.eps_g,
            "delta": p.delta,
            "T": p.T,
            "alpha": p.alpha,
            "q": p.q,
            "N": p.N,
            "mode": self.mode.value,
            "beta_star": self.beta_star,
            "per_query_eps": self.per_query_eps,
            "composed_eps": self.composed_eps,
            "dp_eps": self.dp_eps,
        }
