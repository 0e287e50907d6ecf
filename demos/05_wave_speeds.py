"""Direction-dependent wave speeds in an anisotropic medium.

In a medium with a full permittivity tensor the propagation speed along
a unit normal n is c = sqrt(n^T eps n / (mu det eps)); the flux uses the
impedance Z = mu c of each side of a face. This script sweeps the
direction with that formula written out below, then prints the solver's
own face impedances (`face_impedances`) on a mesh's axis-aligned faces,
which match the sweep's 0 and 90 degree rows, and across a material jump.
"""

import numpy as np

from dgtd import (MaterialMap, PermittivityTensor, face_impedances, mesh_from_arrays,
                  structured_square_mesh)

eps = PermittivityTensor(5.0, 1.0, 1.0, 3.0)
mats = MaterialMap.uniform(1, eps)
lo, hi = mats.eps_lower, mats.eps_upper
print(f"tensor eigenvalues: {lo:.4f}, {hi:.4f}")
print(f"isotropic speeds would be  1/sqrt(eig): {1/np.sqrt(hi):.4f} .. {1/np.sqrt(lo):.4f}")

# the direction sweep evaluates the formula inline, on the tensor's array
e = eps.as_array()
det = np.linalg.det(e)
print("\n angle   eps_eff     c   (mu = 1)")
for deg in range(0, 181, 15):
    t = np.radians(deg)
    n = np.array([np.cos(t), np.sin(t)])
    eps_eff = det / (n @ e @ n)
    print(f"  {deg:4d}  {eps_eff:8.4f}  {1.0 / np.sqrt(eps_eff):.4f}")

# the solver's impedances on the faces of a structured mesh: with mu = 1,
# Z is the speed along the face normal, the 0 degree row on the +-x faces
# and the 90 degree row on the +-y faces
mesh = structured_square_mesh(2)
imp = face_impedances(MaterialMap.uniform(mesh.n_elements, eps), mesh)
print("\nface_impedances on a 2x2 structured mesh (mu = 1):")
for label, axis in (("+-x", 0), ("+-y", 1)):
    faces = np.abs(mesh.normals[:, :, axis]) == 1.0
    z = ", ".join(f"{v:.4f}" for v in np.unique(imp.z_minus[faces]))
    print(f"  {label} faces: Z = {z}")

# Impedance mismatch across a face between this medium and vacuum: two
# unit squares side by side, the anisotropic one left of x = 1
verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                  [2.0, 0.0], [2.0, 1.0]])
tris = np.array([[0, 1, 3], [1, 2, 3], [1, 4, 2], [4, 5, 2]])
pair = mesh_from_arrays(verts, tris)
eps_pair = np.stack([e, e, np.eye(2), np.eye(2)])
imp = face_impedances(MaterialMap(eps_pair, np.ones(4)), pair)
f = int(np.flatnonzero(pair.neighbor[1] == 2)[0])
z_left, z_right = imp.z_minus[1, f], imp.z_plus[1, f]
nx, ny = pair.normals[1, f] + 0.0
print(f"\nface_impedances across the vacuum interface x = 1 (n = ({nx:g}, {ny:g})):")
print(f"  Z- = {z_left:.4f} (anisotropic side), Z+ = {z_right:.4f} (vacuum)")
print(f"  reflection coefficient (Z+ - Z-)/(Z+ + Z-) = "
      f"{(z_right - z_left) / (z_right + z_left):+.4f}")
