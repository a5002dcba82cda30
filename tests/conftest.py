import pytest

from grassvar import (
    PrimeField,
    direct_sum,
    dual,
    quotient_by_linear_forms,
    regular_module,
    syzygy_step,
)
from grassvar import grassmann, homology, poly, rankvariety

# Contexts keep every computation inside the library's resource caps: over
# (3,3) kE alone would need C(23, 9)^2 9-minors of its independent rows and
# columns, far past rankvariety.MAX_MINORS.
CONTEXTS = [(2, 2), (3, 2), (2, 3)]


def unit(c, j):
    return tuple(1 if i == j else 0 for i in range(c))


def build_catalog(p, c):
    """Eight standard modules over k[x1..xc]/(xi^p)."""
    F = PrimeField(p)
    k = quotient_by_linear_forms(F, c, [unit(c, j) for j in range(c)])
    kE = regular_module(F, c)
    Rx1 = quotient_by_linear_forms(F, c, [unit(c, 0)])
    Rx2 = quotient_by_linear_forms(F, c, [unit(c, 1)])
    plus = tuple(1 if i < 2 else 0 for i in range(c))
    Rplus = quotient_by_linear_forms(F, c, [plus])
    return {
        "k": k,
        "kE": kE,
        "R/x1": Rx1,
        "R/x2": Rx2,
        "R/(x1+x2)": Rplus,
        "R/x1+R/x2": direct_sum(Rx1, Rx2),
        "Om(k)": syzygy_step(k)[1],
        "dual(R/x1)": dual(Rx1),
    }


@pytest.fixture(scope="session")
def catalog():
    return {(p, c): build_catalog(p, c) for p, c in CONTEXTS}


@pytest.fixture(scope="session")
def hom_catalog(catalog):
    """The catalog over CONTEXTS and also over (3,3) and (5,2), where no
    minors are needed: for tests of Hom projectivity alone."""
    return {**catalog, **{(p, c): build_catalog(p, c) for p, c in [(3, 3), (5, 2)]}}


@pytest.fixture(scope="session")
def f2():
    return PrimeField(2)


@pytest.fixture(scope="session")
def f3():
    return PrimeField(3)


@pytest.fixture
def cold_memos():
    """Empty the reduced-basis, rank, projection, union, restricted-cover
    and resolution memos, and the memos of the membership scans (the
    rational points of each reduced basis and the discrete logarithms), so
    the test sees cold computations whatever ran before it."""
    for memo in (
        poly._reduced_groebner,
        rankvariety.rank_variety_ideal,
        grassmann._project_incidence,
        grassmann._union_components,
        grassmann._rational_lines,
        poly._logs,
        homology._restricted_cover,
        homology.resolve,
    ):
        memo.cache_clear()
