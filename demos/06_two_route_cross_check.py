"""
Geometry against homology: the three-route cross-check
======================================================

For a pair of modules the d-th order variety answers a homological
question: restricted to which d dimensional subspaces does Ext(M, N)
refuse to die out?  The package answers it three ways.  The geometric
oracle scans a subspace for rational points of the order-one variety;
the homological oracle restricts both modules and decides eventual
vanishing of Ext exactly, by testing Hom_k(M, N) for projectivity; the
ideal route evaluates the eliminated Pluecker ideal at the subspace's
coordinates.  The test suite checks their agreement at scale; here it is
on one pair, printed in full.
"""

from grassvar import (
    PrimeField,
    direct_sum,
    enumerate_subspaces,
    ext_eventually_zero,
    higher_variety_ideal,
    oracle_membership,
    pair_variety_ideal,
    pluecker_embed,
    point_on_variety,
    quotient_by_linear_forms,
    restrict_to_subspace,
)

F2 = PrimeField(2)
M = quotient_by_linear_forms(F2, 3, [(1, 0, 0)])
N = direct_sum(M, quotient_by_linear_forms(F2, 3, [(0, 1, 0)]))

# order-one data shared by the geometric oracle across all subspaces
pair = pair_variety_ideal(M, N)
print("order-one ideal:", pair.gb)

for d in (1, 2):
    V = higher_variety_ideal(M, N, d)
    print(f"d = {d}: ideal {V.gb}")
    for W in enumerate_subspaces(F2, 3, d):
        geometric, homological = oracle_membership(M, N, d, W, pair_ideal=pair)
        member = point_on_variety(V, pluecker_embed(W))
        agree = "ok" if geometric == homological == member else "MISMATCH"
        marker = "on " if member else "off"
        print(f"  W = {W}  {marker}  [{agree}]")

# the homological route, spelled out by hand for one subspace:
W = enumerate_subspaces(F2, 3, 2)[0]
MW = restrict_to_subspace(M, W.rows())
NW = restrict_to_subspace(N, W.rows())
print("restricted modules have c =", MW.c)
print("ext eventually zero on W:", ext_eventually_zero(MW, NW))
print("Pluecker point of W:", pluecker_embed(W))
