"""Direct eigenvalue of the coupled two-field problem.

The interior field and the coating field are discretized together, with
shared trace unknowns on the outer boundary and the coating field eliminated
on the interface.  The pencil A - lambda*B turns singular exactly at discrete
transmission eigenvalues.  The solver factors A - sigma*B once at the middle
of the computable corridor between the leading Dirichlet eigenvalue and the
eroded-domain Dirichlet eigenvalue, and shift-invert Arnoldi returns the
eigenvalue nearest that point with its eigenvector.  A scan of the smallest
singular value over the corridor is run afterwards as a diagnostic.
"""

from thinspec import bessel
from thinspec.geometry import Circle, LayerConfig
from thinspec.report import write_atomic
from thinspec.transmission import (
    corridor,
    first_te,
    rayleigh_identity_residual,
    sigma_min_scan,
)

delta, n, h = 0.01, 0.48, 0.05

print("== coated unit disk ==")
te = first_te(Circle(1.0), LayerConfig(delta, 1.0, n), h)
print(f"lambda0 (mesh)        = {te.lambda0:.8f}")
print(f"lambda_eroded (mesh)  = {te.lambda_eroded:.8f}")
print(f"first TE (pencil)     = {te.lam:.8f}")
print(f"pencil backward error = {te.residual:.2e}   fallback: {te.fallback}")
oracle = bessel.disk_first_te(bessel.DiskProblem(1.0, delta, n))
print(f"first TE (oracle)     = {oracle:.8f}   relative gap {abs(te.lam-oracle)/oracle:.2e}")
print(f"corridor holds: {te.lambda0 <= te.lam <= te.lambda_eroded}")

print("\n== diagnostic sigma_min scan of the corridor ==")
scan = sigma_min_scan(te.pencil, *corridor(te.lambda0, te.lambda_eroded))
print(f"{len(scan.grid)} grid points, threshold {scan.threshold:.3e}")
for root in scan.roots:
    print(f"  root: lambda = {root.lam:.10f}, sigma_min = {root.sigma:.2e} ({root.method}),"
          f" relative gap to the pencil eigenvalue {abs(root.lam - te.lam) / te.lam:.1e}")
write_atomic("scan_disk.csv", scan.to_csv())
print("wrote scan_disk.csv (lambda,sigma_min rows plus the roots section)")

print("\n== energy identity ==")
res = rayleigh_identity_residual(te.lam, te.v, te.w, n, te.mesh)
print(f"relative defect of the eigenpair identity: {res:.2e}")
print("(discrete eigenpairs satisfy it to solver accuracy)")
