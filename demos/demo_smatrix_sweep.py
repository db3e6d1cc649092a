"""Sweep the scattering matrix of a coupled two-channel step potential.

Shows the unitarity and inverse-symmetry diagnostics along a k grid and
the tail-moment residuals of the bounded zero-energy solution.

Run:  python demos/demo_smatrix_sweep.py
"""

import numpy as np

import halfline as hl

V1 = np.array([[-1.0, 0.4], [0.4, 0.6]])
V2 = np.array([[0.3, -0.2j], [0.2j, -0.8]])
pot = hl.Potential(n=2, pieces=((0.0, 1.0, V1), (1.2, 1.8, V2)))
bc = hl.from_angles([np.pi, np.pi / 2])  # Dirichlet + Neumann channels

print("k        |S'S - I|      |S(-k)S(k) - I|   |det J|")
for k in np.linspace(0.25, 4.0, 8):
    ev = hl.smatrix(pot, bc, k)
    evm = hl.smatrix(pot, bc, -k)
    inv_sym = np.linalg.norm(evm.S @ ev.S - np.eye(2), 2)
    det = abs(np.linalg.det(hl.jost_matrix(pot, bc, k).J))
    print(f"{k:6.3f}  {ev.unitarity_residual:12.3e}  {inv_sym:15.3e}  {det:9.4f}")

print("\ntail-moment residuals of the bounded zero-energy solution:")
r1, r2 = hl.moment_identities_residual(pot, 0.0)
print(f"zeroth: {r1:.3e}   first: {r2:.3e}")
