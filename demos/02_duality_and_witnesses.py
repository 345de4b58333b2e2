"""Walkthrough: extremal length, duality and the variational witnesses.

The extremal length between the two primal arcs equals the effective
resistance of the primal network; the dual arcs' extremal length is its
exact reciprocal.  The solved potential's gradient metric attains the
extremal length from below, and the unit current flow attains it from
above (Dirichlet's and Thomson's principles made computational).
"""

from orthotile import extremal, gridgen

spec = gridgen.DomainSpec(
    boundary=[[0, 0], [2, 0], [2, 1], [0, 1]],
    marked_points=[[0, 1], [0, 0], [2, 0], [2, 1]],
)
mm, cert = gridgen.grid_approximation(spec, eps=1 / 16)

lam_p, lam_d, prod = extremal.duality_product(mm, tol=1e-12)
print(f"lambda(primal) = {lam_p:.10f}")
print(f"lambda(dual)   = {lam_d:.10f}")
print(f"product - 1    = {prod - 1:+.2e}   (Ford-Fulkerson duality)")

res = extremal.extremal_length(mm, "primal", tol=1e-12)
witness = extremal.witness_metric(res)
lower = extremal.metric_lower_bound(res.witness_field.graph,
                                    mm.arc_ab, mm.arc_cd, witness)
upper = res.witness_flow.energy()
print(f"witness metric lower bound = {lower:.10f}")
print(f"unit-flow energy upper bound = {upper:.10f}")
print(f"lambda = {res.lam:.10f} sits between both, tight on each side")

rec = extremal.comparability_check(mm, cert, spec)
print(f"domain bracket [{rec.lower:.4f}, {rec.upper:.4f}] contains lambda: "
      f"{rec.inside} (delta = {rec.delta:.4f})")
