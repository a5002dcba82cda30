"""
Subspace varieties in Pluecker coordinates
==========================================

The d-th order variety of a cone Z collects the d dimensional subspaces
that meet Z away from zero.  The package realizes it as an ideal in the
Pluecker coordinate ring of the Grassmannian by eliminating the point
variables from an incidence ideal.  The classical first example: planes
in 4-space meeting a fixed line form a Schubert variety.
"""

from grassvar import (
    PrimeField,
    buchberger_reduced,
    coordinate_ring,
    enumerate_subspaces,
    gaussian_binomial,
    ideal,
    pluecker_embed,
    pluecker_relations,
    pluecker_ring,
    point_on_variety,
    project_incidence,
    subspace_from_rows,
    subspaces_on_variety,
    variety_dim_projective,
)
from grassvar.rankvariety import VarietyIdeal1

F2 = PrimeField(2)

# the Grassmannian G(2,4) in its 6 Pluecker coordinates: one quadric
ring = pluecker_ring(F2, 4, 2)
print("relations for G(2,4):", [str(g) for g in pluecker_relations(ring, 4, 2)])

# a subspace embeds by its maximal minors
W = subspace_from_rows(F2, [(1, 0, 0, 1), (0, 1, 0, 1)])
print("coordinates of W:", pluecker_embed(W))

# over F2 the Grassmannian is a finite set we can enumerate outright
print("|G(2,4)(F2)| =", gaussian_binomial(4, 2, 2),
      "=", len(enumerate_subspaces(F2, 4, 2)))

# now project an incidence correspondence: Z is the line a2=a3=a4=0
aring = coordinate_ring(F2, 4)
raw = ideal(aring, [aring.var(1), aring.var(2), aring.var(3)])
Z = VarietyIdeal1(aring, raw, buchberger_reduced(raw))
V = project_incidence(Z, 2)
print("planes meeting the line:", V.gb)
print("projective dimension:", variety_dim_projective(V))

# the F2 points confirm the classical count: 7 of the 35 planes
members = subspaces_on_variety(V)
print("members over F2:", len(members))
print("W on the variety:", point_on_variety(V, pluecker_embed(W)))
