"""Cross-validate the closed forms with brute-force numerics.

Nothing in the package depends on these oracles; they exist so that every
analytic ingredient can be checked by an independent route:
  * the one-cycle propagator against fixed-step Runge-Kutta integration of
    the raw time-dependent Hamiltonian,
  * the dynamic-phase formula against direct quadrature of the energy
    expectation along the exact trajectory.
"""

import numpy as np

from geomgate import DriveParams, dynamic_phase_oracle, phases, propagator
from geomgate.evolve import ode_oracle

rng = np.random.default_rng(0)

print("RK4 vs analytic propagator (one cycle), halving the step size:")
p = DriveParams(omega=1.0, omega0=1.3, omega1=0.7)
t = 2.0 * np.pi / p.omega
exact = propagator(p, t)
prev = None
for steps in (50, 100, 200, 400, 800):
    err = np.abs(ode_oracle(p.omega, p.omega0, p.omega1, t, steps)[0] - exact).max()
    ratio = "" if prev is None else f"  (x{prev / err:5.1f} smaller)"
    print(f"  steps={steps:4d}  max err = {err:.3e}{ratio}")
    prev = err
print("  the ~16x reduction per halving is the classic 4th-order signature.")

print("\ndynamic-phase quadrature vs closed form, random drive points:")
worst = 0.0
for _ in range(200):
    scale = 10.0 ** rng.uniform(-1, 4)
    p = DriveParams(omega=scale,
                    omega0=scale * rng.uniform(0.1, 3.0),
                    omega1=scale * rng.uniform(0.0, 4.0))
    got = dynamic_phase_oracle(p, 512)
    want = phases(p).gamma_d
    worst = max(worst, abs(got - want) / max(1.0, abs(want)))
print(f"  200 points across 5 decades: worst relative deviation = {worst:.2e}")
print("  (the integrand is constant along the trajectory, so quadrature is exact"
      " up to rounding - a strong consistency check on both routes)")
