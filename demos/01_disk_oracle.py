"""Coated disk, semi-analytically.

The disk is the one geometry where everything is computable without a mesh:
Dirichlet eigenvalues come from Bessel zeros, the first transmission
eigenvalue of the coated disk from a 2x2 Cauchy-data matching determinant in
each angular mode, and the expansion coefficients and the corrector field in
closed form.  This script walks through all of it and checks the expansion
against the directly computed eigenvalue.
"""

from thinspec import bessel

R, n = 1.0, 0.48

print("== special functions ==")
j01 = bessel.bessel_j_zero(0, 1)
j01_rec = bessel.bessel_j_zero(0, 1, method="recurrence")
print(f"first zero of J0: {j01:.15f} (series route)")
print(f"                  {j01_rec:.15f} (recurrence route)")
print(f"Wronskian defect at x=1: {bessel.wronskian_defect(0, 1.0):.2e}")

print("\n== Dirichlet spectrum of the unit disk ==")
for m, k in [(0, 1), (1, 1), (0, 2)]:
    print(f"mode m={m}, k={k}: lambda = {bessel.disk_dirichlet_eigen(R, m, k):.12f}")

print("\n== expansion coefficients ==")
coeffs = bessel.disk_asymptotic_coeffs(R)
print(f"lambda0 = {coeffs.lambda0:.12f}")
print(f"lambda1 = {coeffs.lambda1:.12f}  (equals 2*lambda0 on the disk)")
print(f"lambda2 = {coeffs.lambda2:.12f}  (closed form; equals 3*lambda0)")
print(f"boundary slope of ground mode: {coeffs.flux0:.12f} = j01/sqrt(pi)")

print("\n== direct eigenvalue against the expansion ==")
print(f"{'delta':>8} {'lambda_direct':>16} {'order-2 prediction':>20} {'remainder/delta^3':>18}")
deltas = (0.04, 0.02, 0.01, 0.005)
for delta, lam in zip(deltas, bessel.disk_first_tes(R, deltas, n)):
    pred = coeffs.lambda0 + delta * coeffs.lambda1 + delta**2 * coeffs.lambda2
    print(f"{delta:8.3f} {lam:16.10f} {pred:20.10f} {abs(lam - pred) / delta**3:18.3f}")

print("\nThe remainder scaled by delta^3 stays bounded: the expansion is")
print("third-order accurate, and the coefficients do not involve the index n.")
