"""Walkthrough: discrete holomorphicity diagnostics.

The conjugate pair (h, htilde) forms a discrete holomorphic function
F = h + i htilde whose difference quotients along the two diagonals of
every face agree.  Its discrete contour integrals vanish, single-face
integrals reduce to the Cauchy-Riemann defect, and corrupting one value
lights up exactly the incident faces.
"""

import numpy as np

from orthotile import gridgen, holo, tiling

spec = gridgen.DomainSpec(
    boundary=[[0, 0], [2, 0], [2, 1], [0, 1]],
    marked_points=[[0, 1], [0, 0], [2, 0], [2, 1]],
)
mm, _ = gridgen.grid_approximation(spec, eps=1 / 16)
t, h, h_tilde = tiling.build_tiling(mm)

F = holo.assemble(mm, h, h_tilde)
print(f"max Cauchy-Riemann residual of the tiling pair: {F.max_cr_residual:.2e}")

Fz = holo.from_function(mm.map, lambda z: z)
print(f"the identity map is exactly discrete holomorphic: "
      f"residual = {Fz.max_cr_residual}")

cent = mm.map.face_centroids()
block = np.flatnonzero((cent[:, 0] > 0.4) & (cent[:, 0] < 1.6)
                       & (cent[:, 1] > 0.2) & (cent[:, 1] < 0.8))
walk = holo.boundary_walk_of_faces(mm.map, block)
integral = holo.contour_integral(F, walk)
print(f"contour of {len(block)} faces: |integral| = {abs(integral):.2e}")

parts = sum(holo.face_integral(F, int(fi)) for fi in block)
print(f"additivity: contour minus face sum = {abs(integral - parts):.2e}")

victim = next(w for w in range(mm.map.n_vertices) if mm.map.colors[w] == 1
              and 0.9 < mm.map.positions[w][0] < 1.1
              and 0.4 < mm.map.positions[w][1] < 0.6)
vals = F.values.copy()
vals[victim] += 1e-3j
bad = holo.DiscreteHolomorphic(mm.map, vals)
hot = np.flatnonzero(bad.face_residuals > 1e-4)
print(f"corrupting one dual value lights up faces {hot.tolist()} "
      f"(the {sum(victim in set(map(int, f)) for f in mm.map.faces)} incident ones)")
print(f"contour around the corruption: "
      f"|integral| = {abs(holo.contour_integral(bad, walk)):.2e}")
