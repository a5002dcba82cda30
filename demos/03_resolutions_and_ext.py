"""
Minimal resolutions, Betti numbers, and Ext
===========================================

Over the local algebra kE every module has a minimal free resolution.
Its ranks are the Betti numbers, and applying Hom(-, N) to it computes
the dimensions of Ext^i(M, N).  Whether those dimensions die out is the
homological side of every variety computed by this package.
"""

from grassvar import (
    PrimeField,
    betti_numbers,
    ext_dims,
    ext_eventually_zero,
    quotient_by_linear_forms,
    regular_module,
    resolve,
    syzygy_step,
)

F2 = PrimeField(2)
k = quotient_by_linear_forms(F2, 2, [(1, 0), (0, 1)])
Rx = quotient_by_linear_forms(F2, 2, [(1, 0)])
Ry = quotient_by_linear_forms(F2, 2, [(0, 1)])
kE = regular_module(F2, 2)

# the residue field has linearly growing Betti numbers: complexity 2
print("betti(k):", betti_numbers(k, 6))

# a free module resolves instantly
print("betti(kE):", betti_numbers(kE, 6))

# kE/(x1) is periodic: complexity 1
print("betti(kE/(x1)):", betti_numbers(Rx, 6))

# each syzygy step covers a module by a free one and keeps the kernel
dims = [k.n]
omega = k
for _ in range(3):
    omega = syzygy_step(omega)[1]
    dims.append(omega.n)
print("syzygy dims:", dims)

# the resolution object keeps the Betti numbers and each differential as
# the nonzero entries of a matrix over kE; the full matrix of d_i over k
# is read off them
res = resolve(k, 3)
print("first differential:")
print(res.differential(1))

# Ext tables against different targets
print("ext(kE/(x1), k):     ", list(ext_dims(Rx, k, 6)))
print("ext(kE/(x1), kE/(x2)):", list(ext_dims(Rx, Ry, 6)))
print("ext(kE/(x1), itself): ", list(ext_dims(Rx, Rx, 6)))

# eventual vanishing is the yes/no question the varieties encode:
# it holds exactly when the two support varieties meet only at 0
print("ext(Rx, Ry) eventually zero:", ext_eventually_zero(Rx, Ry))
print("ext(Rx, Rx) eventually zero:", ext_eventually_zero(Rx, Rx))

# resolve is memoised, so tables of one source against many targets
# share one resolution
built = resolve.cache_info().misses
for name, N in [("k", k), ("kE", kE), ("Ry", Ry)]:
    table = ext_dims(Rx, N, 12)
    print(f"ext(Rx, {name}) through degree 12:", list(table))
print("resolutions built for them:", resolve.cache_info().misses - built)
