"""Verify the momentum solver against a manufactured Fourier-mode solution.

With rho = 0 and f = sin(2 pi x) the velocity is an eigenvector of the
discrete operator, so there is both an exact discrete solution (matched to
solver tolerance) and a continuum one (matched at second order).  The same
state exercises the effective-flux identity F = <F> + S.
"""

import numpy as np

from brinkflow import (
    FaceVectorField, LawParams, ScalarField, SimState, build_record,
    face_coords, make_grid, solve_momentum,
)

PARAMS = LawParams(epsilon=1e-2, delta=0.0, gamma=2.0, beta=3.0, mu=0.5, r=1.0)


def solve_mode(n):
    g = make_grid(1, n)
    x = face_coords(g, 0)[0]
    f = FaceVectorField(g, (np.sin(2 * np.pi * x),))
    rho = ScalarField.zeros(g)
    u, rep = solve_momentum(rho, f, PARAMS)
    return g, x, rho, f, u, rep


def main():
    k = 2 * np.pi
    denom_cont = 2 * PARAMS.mu * k**2 + PARAMS.r

    print("n     iters  discrete err   continuum err   order")
    prev = None
    for n in (32, 64, 128, 256):
        g, x, rho, f, u, rep = solve_mode(n)
        kh = 2 * np.sin(k * g.dx / 2) / g.dx
        exact_disc = np.sin(k * x) / (2 * PARAMS.mu * kh**2 + PARAMS.r)
        exact_cont = np.sin(k * x) / denom_cont
        e_disc = float(np.max(np.abs(u.components[0] - exact_disc)))
        e_cont = float(np.max(np.abs(u.components[0] - exact_cont)))
        order = "" if prev is None else f"{np.log2(prev / e_cont):5.3f}"
        print(f"{n:<5d} {rep.iterations:<6d} {e_disc:.3e}      "
              f"{e_cont:.3e}       {order}")
        prev = e_cont

    g, x, rho, f, u, rep = solve_mode(256)
    rec, S = build_record(SimState(t=0.0, rho=rho, u=u, big_lam=ScalarField.zeros(g)),
                          f, PARAMS)
    print(f"\neffective flux at n = 256:")
    print(f"  max |F - <F> - S|          = {rec.flux_residual:.3e}")
    print(f"  mean-relation residual     = {rec.mean_relation_residual:.3e}")
    amp = float(np.max(np.abs(S.data)))
    print(f"  S amplitude                = {amp:.6f} "
          f"(continuum value 2 pi/(1 + 4 pi^2) = {2 * np.pi / (1 + 4 * np.pi**2):.6f})")


if __name__ == "__main__":
    main()
