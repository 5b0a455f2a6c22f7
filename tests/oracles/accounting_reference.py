"""High-precision reference values for the accounting and divergence tests.

Every closed-form constant asserted in the test suite is recomputed here
with 50-digit mpmath arithmetic, straight from the defining formulas and
independently of the library code.  Run this script to regenerate the
values; the tests freeze them to the printed precision.

Usage: python tests/oracles/accounting_reference.py
"""

import mpmath as mp

mp.mp.dps = 50


def beta_radius(N, eps_g, T, alpha):
    """Largest mollifier radius for an N-model ensemble at order alpha."""
    N, eps_g, T, alpha = mp.mpf(N), mp.mpf(eps_g), mp.mpf(T), mp.mpf(alpha)
    if N == 1:
        return eps_g / (T * alpha)
    return mp.log(N * mp.e ** ((alpha - 1) * eps_g / T) + 1 - N) / (
        4 * (alpha - 1) * alpha
    )


def per_query_loss(beta, alpha, s):
    """Per-query privacy loss of the averaged release over s selected models."""
    beta, alpha = mp.mpf(beta), mp.mpf(alpha)
    if s == 0:
        return mp.mpf(0)
    if s == 1:
        return beta * alpha
    return mp.log((s - 1 + mp.e ** ((alpha - 1) * 4 * beta * alpha)) / s) / (
        alpha - 1
    )


def subsampled_loss(q, alpha, eps_of_order):
    """Amplified loss of a mechanism run on a Poisson-q subsample."""
    q = mp.mpf(q)
    total = (1 - q) ** (alpha - 1) * (1 + (alpha - 1) * q)
    for k in range(2, alpha + 1):
        total += (
            mp.binomial(alpha, k)
            * (1 - q) ** (alpha - k)
            * q**k
            * mp.e ** ((k - 1) * eps_of_order(k))
        )
    return mp.log(total) / (alpha - 1)


def renyi_to_approx_dp(alpha, eps, delta):
    alpha, eps, delta = mp.mpf(alpha), mp.mpf(eps), mp.mpf(delta)
    return eps + mp.log((alpha - 1) / alpha) - (mp.log(delta) + mp.log(alpha)) / (
        alpha - 1
    )


def beta_radius_max_order(N, eps_g, T, alpha):
    """Radius from the max-divergence analysis, scaled back to order alpha."""
    N, eps_g, T, alpha = mp.mpf(N), mp.mpf(eps_g), mp.mpf(T), mp.mpf(alpha)
    return mp.log(N * mp.e ** (eps_g / T) + 1 - N) / (2 * alpha)


def renyi_divergence(p, q, alpha):
    """Direct evaluation of the order-alpha divergence sum."""
    alpha = mp.mpf(alpha)
    total = mp.fsum(
        mp.mpf(pi) ** alpha * mp.mpf(qi) ** (1 - alpha) for pi, qi in zip(p, q) if pi
    )
    return mp.log(total) / (alpha - 1)


def main():
    show = lambda name, v: print(f"{name} = {mp.nstr(v, 12)}")

    print("# divergence examples")
    show("D2((.5,.5)||(.25,.75))", renyi_divergence([0.5, 0.5], [0.25, 0.75], 2))
    show("D2((.25,.75)||(.5,.5))", renyi_divergence([0.25, 0.75], [0.5, 0.5], 2))
    show("Dinf((1,0)||(.5,.5))", mp.log(2))

    print("# radius bound")
    show("beta(N=1,eps=8,T=1024,a=3)", beta_radius(1, 8, 1024, 3))
    show("beta(N=80,eps=8,T=1024,a=3)", beta_radius(80, 8, 1024, 3))

    print("# per-query loss")
    show("loss(beta=.01,a=3,s=1)", per_query_loss("0.01", 3, 1))
    show("loss(beta=.01,a=3,s=2)", per_query_loss("0.01", 3, 2))
    print("# grid max over s=1..80")
    grid = [(per_query_loss("0.01", 3, s), s) for s in range(1, 81)]
    best, argbest = max(grid)
    show(f"max_s loss(beta=.01,a=3) at s={argbest}", best)

    print("# subsampled loss, q=0.03, a=3, full-ensemble eps at beta=0.033969")
    eps_fn = lambda k: per_query_loss("0.033969", k, 80)
    show("eps2", eps_fn(2))
    show("eps3", eps_fn(3))
    show("amplified", subsampled_loss("0.03", 3, eps_fn))

    print("# conversion to approximate DP")
    show("dp(a=3,eps=8,delta=1e-5)", renyi_to_approx_dp(3, 8, "1e-5"))
    show("dp(a=2,eps=0,delta=0.1)", renyi_to_approx_dp(2, 0, "0.1"))

    print("# max-order radius diagnostics")
    show("beta_maxord(80,8,1024,3)", beta_radius_max_order(80, 8, 1024, 3))
    show("beta_maxord(1,8,1024,3)", beta_radius_max_order(1, 8, 1024, 3))


if __name__ == "__main__":
    main()
