"""Drive a compression run up against the packing constraint.

Strong sinusoidal forcing piles mass toward the domain center; the singular
pressure and bulk viscosity must hold the density strictly below 1 while a
congested region (rho >= 0.99) forms.  Prints the trajectory summary, the
energy ledger, and writes diagnostics + snapshots under out_congestion/.
"""

from brinkflow import RunConfig, energy_report, run_simulation

OUT = "out_congestion"


def main():
    cfg = RunConfig(
        dim=1, n=128, t_end=0.5, epsilon=1e-2, gamma=2.0, beta=3.0,
        scenario="compression", scenario_params={"rho0": 0.6, "f0": 600.0},
        snapshot_every=0.1,
    )
    print(f"running compression: n={cfg.n}, f0=600, eps={cfg.epsilon}, "
          f"t_end={cfg.t_end}")
    _, records = run_simulation(cfg, outdir=OUT)

    print(f"\n{'t':>6} {'dt':>9} {'max rho':>9} {'meas_099':>9} "
          f"{'|divu| cong':>11} {'mp resid':>10}")
    stride = max(1, len(records) // 10)
    for rec in records[::stride] + [records[-1]]:
        print(f"{rec.t:6.3f} {rec.dt:9.2e} {rec.max_rho:9.6f} "
              f"{rec.meas_099:9.4f} {rec.max_divu_congested:11.3e} "
              f"{rec.mp_residual:10.2e}")

    max_rho = max(r.max_rho for r in records)
    print(f"\nmax rho over the whole run: {max_rho:.6f}  (must stay < 1)")
    print(f"congested measure at t_end: {records[-1].meas_099:.4f}")
    mass0, mass1 = records[0].mass, records[-1].mass
    print(f"mass drift: {abs(mass1 - mass0):.3e}")

    led = energy_report(records, cfg.law_params(), cfg.make_grid())
    print(f"\nenergy ledger: final drift {led.final_drift:.3e}, "
          f"a-priori bound holds: {led.bound_holds} "
          f"(Poincare C = {led.poincare_c:.4g})")
    print(f"outputs in {OUT}/ (diagnostics.csv, snapshots/)")


if __name__ == "__main__":
    main()
