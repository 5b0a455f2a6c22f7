"""The accounting pipeline, end to end, at the default parameter set.

Shows how the mollifier radius is chosen: the closed form without
subsampling, the amplification gained by running on a random 3% of the
ensemble, the worst-case versus full-ensemble evaluation modes, and the
final composed guarantee converted to approximate DP.
"""

from pmixed import (
    Accountant,
    EpsMode,
    PrivacyParams,
    beta_max,
    per_query_eps,
    solve_beta_star,
)

params = PrivacyParams(eps_g=8.0, delta=1e-5, T=1024, alpha=3, q=0.03, N=80)
target = params.eps_g / params.T
print(f"per-query budget eps_g / T = {target:.6f} nats")
print()

closed_form = beta_max(params.N, params.eps_g, params.T, params.alpha)
print(f"radius without subsampling (closed form): {closed_form:.6f}")
for mode in EpsMode:
    star = solve_beta_star(params, mode)
    print(f"radius with q = {params.q} in {mode.value:>14} mode: {star:.6f}"
          f"  ({star / closed_form:.1f}x larger)")
print()

print("per-query loss by realized subset size at the closed-form radius:")
for size in (0, 1, 2, 5, 20, 80):
    loss = per_query_eps(closed_form, params.alpha, size)
    print(f"  |S| = {size:>2}: {loss:.6f}")
print("the worst case sits at |S| = 2, which is what conservative mode uses")
print()

accountant = Accountant(params, EpsMode.CONSERVATIVE)
print(f"amplified per-query loss at the solved radius: {accountant.per_query_eps:.9f}")
print(f"composed over T = {params.T} queries: {accountant.composed_eps:.6f}"
      f" <= {params.eps_g}")
print(f"converted to approximate DP at delta = {params.delta}:"
      f" eps = {accountant.dp_eps:.4f}")
print()

print("full record, as emitted into reports:")
for key, value in accountant.record().items():
    print(f"  {key}: {value}")
