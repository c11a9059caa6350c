"""Nilradicals of Borel subalgebras: a natural family whose index is known in
closed form (the size of Kostant's cascade; Joseph, J. Algebra 48, 1977) and
whose rank ceiling is loose in types B and D, so the exact check below the
ceiling runs on them."""

import pytest

from lieindex.algebra import center, check_jacobi, nilpotency_class
from lieindex.index import _rank_ceiling, certified_generic_rank, index

from families import borel_nilradical


def expected(kind, N):
    """(dim, index, nilpotency class): the positive roots of A_{N-1}, C_m, B_m or D_m,
    N = 2m or 2m + 1; so_{2m} has index m - (m odd) and class 2m - 3."""
    m = N // 2
    if kind == "gl":
        return N * (N - 1) // 2, m, N - 1
    if kind == "sp":
        return m * m, m, 2 * m - 1
    dim = (N * (N - 1) // 2 - m) // 2
    return (dim, m, 2 * m - 1) if N % 2 else (dim, m - m % 2, 2 * m - 3)


CASES = (
    [("gl", N) for N in range(3, 17)]
    + [("sp", N) for N in range(4, 17, 2)]
    + [("so", N) for N in range(7, 17)]
)


@pytest.mark.parametrize("kind, N", CASES, ids=[f"{k}{N}" for k, N in CASES])
def test_index_center_and_class(kind, N):
    g = borel_nilradical(kind, N)
    dim, chi, cls = expected(kind, N)
    assert g.dim == dim
    assert check_jacobi(g) is None
    assert center(g).dim == 1
    assert nilpotency_class(g) == cls
    rep = index(g)
    assert rep.index == chi
    if kind == "so":  # the ceiling is loose: the exact check below it runs
        assert rep.generic_rank < _rank_ceiling(g, rep.center_dim)


@pytest.mark.parametrize("N", range(7, 12))
def test_certified_rank_agrees(N):
    g = borel_nilradical("so", N)
    assert certified_generic_rank(g) == g.dim - expected("so", N)[1]
