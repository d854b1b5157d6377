"""Why the decomposition uses marginal coefficients.

The fitted model conditions on a per-cluster effect; two surveys have
different, non-aligned clusters, so comparisons must integrate the
effect out.  For a probit model the integral has a closed form: scale
the coefficients by 1/sqrt(1 + sigma2).  This script checks that scaling
against brute-force Monte-Carlo integration, and shows what the wrong
rule, multiplying by sqrt(1 + sigma2) instead, would do.

Run with:  python demos/02_marginal_vs_conditional.py
"""

import numpy as np

from mortdecomp import marginal_prob, marginalize, mc_marginalization_oracle

print("linear predictor -> marginal probability, conditional variance sigma2 = 1.0\n")
print(f"{'x.beta':>8}{'conditional':>13}{'marginal':>10}{'monte carlo':>13}{'multiply':>10}")
for eta in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
    beta = np.array([eta])
    x = np.array([1.0])
    conditional = marginal_prob(x, beta)
    divide = marginal_prob(x, marginalize(beta, 1.0))
    multiply = marginal_prob(x, beta * np.sqrt(1.0 + 1.0))
    mc, se = mc_marginalization_oracle(beta, 1.0, x, n_draws=10**6, seed=int(10 * eta) + 99)
    print(f"{eta:8.1f}{conditional:13.4f}{divide:10.4f}{mc:10.4f}+-{3*se:.4f}{multiply:10.4f}")

print("""
The divide convention tracks the Monte-Carlo integral everywhere (within
three standard errors); the multiply convention overshoots away from 0.5,
because averaging a probit over a normal shifts probabilities toward 1/2.
Marginal probabilities always sit between the conditional value and 0.5.
""")

print("shrinkage on a realistic coefficient vector, sigma2 = 0.25:")
beta = np.array([-1.3, 0.4, -0.25])
tilde = marginalize(beta, 0.25)
print(f"  conditional: {np.array2string(beta, precision=4)}")
print(f"  marginal:    {np.array2string(tilde, precision=4)}")
print(f"  ratio:       {tilde[0] / beta[0]:.4f} (= 1/sqrt(1.25))")
