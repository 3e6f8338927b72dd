"""Walk through the constitutive laws and the stiff-limit regime map.

Evaluates p, lambda, big_lam, h across densities for a few exponent
pairs, shows the truncated branch joining the singular one continuously,
and prints the constraint-identity residuals that the whole verification
harness leans on.
"""

import numpy as np

from brinkflow import (
    LawParams, RegimeTag, c_beta, constraint_residuals, evaluate_laws, regime,
)


def law_table(params, densities):
    print(f"\n  eps={params.epsilon:g} delta={params.delta:g} "
          f"gamma={params.gamma:g} beta={params.beta:g}")
    print(f"  {'rho':>6} {'p':>12} {'lambda':>12} {'big_lam':>12} "
          f"{'h':>12}")
    for rho in densities:
        v = evaluate_laws(rho, params)
        print(f"  {rho:6.3f} {v.p:12.5g} {v.lam:12.5g} {v.big_lam:12.5g} "
              f"{v.h:12.5g}")


def main():
    print("== singular laws (delta = 0): blow-up as rho -> 1 ==")
    exact = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=3.0)
    law_table(exact, [0.1, 0.5, 0.9, 0.99, 0.999])

    print("\n== truncated laws (delta = 0.1): polynomial above rho = 0.9 ==")
    trunc = LawParams(epsilon=1e-2, delta=0.1, gamma=2.0, beta=3.0)
    law_table(trunc, [0.5, 0.89, 0.9, 0.91, 1.0, 1.05])
    below = evaluate_laws(0.9, trunc)
    above = evaluate_laws(0.9 + 1e-12, trunc)
    print(f"  junction continuity: p jump = {abs(above.p - below.p):.3e}, "
          f"lambda jump = {abs(above.lam - below.lam):.3e}")

    print("\n== constraint identities (should be round-off) ==")
    rho = np.linspace(0.05, 0.95, 7)
    r1, r2, r3 = constraint_residuals(rho, exact)
    print(f"  max |R1| = {np.max(r1):.3e}  max |R2| = {np.max(r2):.3e}  "
          f"max |R3| = {np.max(r3):.3e}   (c(beta) = {c_beta(exact.beta):.6f})")

    print("\n== regime map: sign of 1 + gamma - beta decides the eps -> 0 limit ==")
    for gamma, beta in [(3.0, 2.0), (2.0, 3.0), (1.5, 3.0), (2.0, 2.9), (2.0, 3.1)]:
        tag = regime(LawParams(epsilon=1.0, delta=0.0, gamma=gamma, beta=beta))
        note = {
            RegimeTag.PRESSURE_NO_MEMORY: "pressure survives, memory dies",
            RegimeTag.MEMORY_AND_PRESSURE: "both survive, tied by rho*p = (beta-1)*big_lam",
            RegimeTag.MEMORY_NO_PRESSURE: "memory survives, pressure dies",
        }[tag]
        print(f"  gamma={gamma:<4g} beta={beta:<4g} -> {tag.value:<18} ({note})")


if __name__ == "__main__":
    main()
