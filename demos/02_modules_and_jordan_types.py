"""
Modules over k[x1..xc]/(x1^p..xc^p)
===================================

A module is a tuple of commuting matrices X1..Xc with Xi^p = 0; building
one checks both axioms, so matrices that break them are rejected at once.
The package builds the standard modules, restricts them to lines and
subspaces, and reads off Jordan types, which decide freeness.
"""

from grassvar import (
    KEModule,
    MatrixFp,
    ModuleAxiomError,
    PrimeField,
    action_of,
    direct_sum,
    dual,
    is_free_over_line,
    jordan_type,
    quotient_by_linear_forms,
    regular_module,
    restrict_to_subspace,
)

F3 = PrimeField(3)

# the regular module kE itself, here 9 dimensional
kE = regular_module(F3, 2)
print("dim kE =", kE.n)

# two matrices that do not commute are not a module: construction says why
a = MatrixFp(F3, [[0, 0], [1, 0]])
b = MatrixFp(F3, [[0, 1], [0, 0]])
try:
    KEModule(F3, 2, 2, (a, b))
except ModuleAxiomError as exc:
    print("rejected:", exc)

# killing one linear form gives a 3 dimensional quotient
M = quotient_by_linear_forms(F3, 2, [(1, 0)])
print("dim kE/(x1) =", M.n)
print("X2 acts by")
print(M.actions[1])

# the action of any linear combination of the generators
u = action_of(M, (1, 2))
print("(x1 + 2 x2) acts by")
print(u)

# Jordan type of a nilpotent action: partition of dim into block sizes.
# Type (p, p, ..., p) means free over that line, anything else does not.
print("jordan type along (0,1):", jordan_type(M, (0, 1)))
print("jordan type along (1,0):", jordan_type(M, (1, 0)))
print("free on (0,1):", is_free_over_line(M, (0, 1)))
print("free on (1,0):", is_free_over_line(M, (1, 0)))

# direct sums and duals are built pointwise from the matrices
S = direct_sum(M, dual(M))
print("dim of M + M*:", S.n)

# restriction to a 1 dimensional subspace produces a module over a
# smaller algebra of the same kind, here k[t]/(t^3)
line = restrict_to_subspace(M, [(1, 1)])
print("restricted module has c =", line.c, "and dim", line.n)
