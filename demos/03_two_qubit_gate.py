"""Conditional two-qubit gate built from one driven target qubit.

An Ising coupling J*sz*sz/2 shifts the target's longitudinal frequency by
-J or +J depending on the control state, so one drive cycle applies a
different single-qubit gate in each control sector: a 4x4 block-diagonal
gate. Both dynamic phases vanish simultaneously when omega = 2*omega1 and
omega1^2 = omega0^2 + J^2; the one-parameter family J = alpha*omega0,
omega = omega1 + sqrt(1+alpha^2)*omega0 reaches that point at
omega0 = omega1/sqrt(1+alpha^2).
"""

import numpy as np

from geomgate import (
    NoiseSpec,
    RngStream,
    estimate_two_qubit,
    one_cycle_gate,
    phases,
    shifted_target,
    two_qubit_from_alpha,
    two_qubit_geometric_point,
)

alpha = np.sqrt(3.0)

# --- the fully geometric point ----------------------------------------------

p2 = two_qubit_geometric_point(30.0, alpha)
t = p2.target
print(f"geometric point for alpha=sqrt(3): omega0={t.omega0:g} omega1={t.omega1:g} "
      f"omega={t.omega:g} J={p2.coupling_j:.4f}")
for delta in (0, 1):
    tri = phases(shifted_target(p2, delta))
    print(f"  control |{delta}>: gamma={tri.gamma:+.6f}  gamma_d={tri.gamma_d:+.2e}")

print("  4x4 gate (|00>,|01>,|10>,|11>):")
print(np.array_str(one_cycle_gate(p2), precision=4, suppress_small=True))

# --- fidelity scan across the geometric point ---------------------------------
# omega1 fixed at 60, omega0 swept: the noise-robustness maximum sits where
# both conditional dynamic phases vanish (omega0 = 30 for alpha = sqrt(3)).

m = n = 300
seed = 7
print(f"\nfidelity vs omega0 (omega1=60, delta0=delta1=0.05, control unfixed, "
      f"m=n={m}, seed={seed}):")
rows = []
for omega0 in np.arange(24.0, 37.0):
    q2 = two_qubit_from_alpha(omega0, 60.0, alpha)
    est = estimate_two_qubit(q2, NoiseSpec(0.05, 0.05), m, n,
                             RngStream(seed).child(2), control_mode="unfixed")
    gd0 = phases(shifted_target(q2, 0)).gamma_d
    rows.append((omega0, est.mean, gd0))
    print(f"  omega0={omega0:5.1f}  F={est.mean:.6f}  gamma_d(block 0)={gd0:+.4f}")

best = max(rows, key=lambda r: r[1])
print(f"\nargmax at omega0 = {best[0]:g} (zero-dynamic point is 30); the"
      " fidelity maximum and the gamma_d zero crossing coincide.")
