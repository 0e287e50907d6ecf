"""Theoretical time-step bound versus the observed stability threshold.

Evaluates the sufficient stability condition, `stability_bound(dim, ...)`
with computationally calibrated trace and inverse-inequality constants,
for one setup (2D through `case.theory()`, then the 3D form), then
locates the actual maximum stable dt by bracketing from just below a
loose Lanczos estimate of the spectral leap-frog limit of the
operator's central part and bisecting. The theory is a guaranteed-safe
bound, so the empirical threshold sits a comfortable factor above it;
alpha pushes both downward. The printed spectral limit is computed
again at the tight default tolerance: the central flux lands just above
it, the upwind flux well below it.
"""

from dgtd import cfl_constant, find_dtmax, spectral_dt, stability_bound
from dgtd.experiments import benchmark_case
from dgtd.materials import face_impedances

cells, order, bc = 10, 2, "PEC"

for alpha, label in ((0.0, "central"), (1.0, "upwind")):
    case = benchmark_case(cells, order, alpha, bc)
    theory = case.theory()
    print(f"--- {bc}, {label} flux, N = {order}, h_min = {case.mesh.h_min:.4f}")
    print(theory.report())

    search = find_dtmax(case, tol=1e-2)
    c = cfl_constant(search.dt_max, order, case.mesh.h_min)
    limit = spectral_dt(case.op)
    print(f"empirical dt_max = {search.dt_max:.5f}  (CFL constant C = {c:.3f})")
    print(f"sufficiency margin: dt_max / bound = "
          f"{search.dt_max / theory.dt_bound:.1f}x; spectral leap-frog limit "
          f"{limit:.5f} (dt_max / spectral = {search.dt_max / limit:.3f})")
    print(f"bisection: {search.iterations} iterations, {search.runs} runs\n")

# stability_bound(3, ...) evaluates the 3D form of the same bound with
# the calibrated constants.
case = benchmark_case(cells, order, 0.0, bc)
theory2d = case.theory()
imp = face_impedances(case.materials, case.mesh)
bound3d = stability_bound(3, order, case.mesh.h_min,
                          case.materials.eps_lower, case.materials.mu_lower,
                          imp.z_min, imp.y_min, 0.0, bc,
                          theory2d.c_inv, theory2d.c_tau)
print("3D bound with the same inputs (tetrahedral trace factor):")
print(bound3d.report())
