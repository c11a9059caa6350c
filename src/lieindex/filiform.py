"""Filiform nilpotent Lie algebras on an adapted basis e_1 .. e_n.

Adapted means [e_1, e_i] = e_{i+1} for 2 <= i <= n-1, [e_1, e_n] = 0, the
lower central series has the maximal-class dimensions n, n-2, n-3, ..., 1, 0,
and brackets respect the position filtration: [e_i, e_j] lies in
span(e_{i+j}, ..., e_n) for i + j <= n, in span(e_n) for i + j = n + 1, and
vanishes for i + j > n + 1.  (For n >= 5 this forces [e_2, e_3] into
span(e_5, ..., e_n).)  The ideals g_i = span(e_i, ..., e_n) then agree with
the lower central series from i = 3 on, independently of basis choices.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import Coeffs, LieAlgebra, _integer, check_jacobi
from .free_nilpotent import _check_ceiling
from .index import index
from .linalg import _subtract


def _labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(1, n + 1))


def adapted_violation(alg: LieAlgebra) -> str | None:
    """None if alg carries the adapted filiform shape; else a reason."""
    n = alg.dim
    if n < 3:
        return "need dimension at least 3"
    for i in range(2, n):
        if alg.structure_coeffs(0, i - 1) != {i: 1}:
            return f"[e1,e{i}] != e{i + 1}"
    if alg.structure_coeffs(0, n - 1):
        return "[e1,en] != 0"
    for i in range(2, n):
        for j in range(i + 1, n + 1):
            coeffs = alg.structure_coeffs(i - 1, j - 1)
            s = i + j
            if s <= n:
                if any(k < s - 1 for k in coeffs):
                    return f"[e{i},e{j}] leaves span(e{s}..e{n})"
            elif s == n + 1:
                if any(k != n - 1 for k in coeffs):
                    return f"[e{i},e{j}] leaves span(e{n})"
            elif coeffs:
                return f"[e{i},e{j}] != 0 with {i}+{j} > n+1"
    # [e1, e_i] = e_{i+1} puts g_{k+1} inside the k-th series term, and the
    # filtration rules keep that term inside g_{k+1}: the series dimensions
    # are n, n-2, ..., 1, 0 without being computed.
    return None


@dataclass(frozen=True)
class FiliformAlgebra:
    """An algebra checked to carry the adapted filiform shape."""

    algebra: LieAlgebra

    def __post_init__(self):
        if not isinstance(self.algebra, LieAlgebra):
            raise ValueError(f"a filiform algebra wraps a LieAlgebra, got {type(self.algebra).__name__}")
        if (reason := adapted_violation(self.algebra)) is not None:
            raise ValueError(f"not an adapted filiform algebra: {reason}")

    @property
    def n(self) -> int:
        return self.algebra.dim


def _chain(n: int, k: int, name: str) -> LieAlgebra:
    """[e_1, e_i] = e_{i+1}, plus [e_i, e_j] = (-1)^i e_n at i + j = k, Jacobi-checked.

    e_1 acts by the shift e_i -> e_{i+1} on the ideal span(e_2 .. e_n); the
    shift is a derivation of its bracket exactly when the Jacobi identity holds.
    """
    _check_ceiling(n, f"filiform algebra {name}")
    brackets = {(0, i): {i + 1: 1} for i in range(1, n - 1)}
    for i in range(2, (k + 1) // 2):  # i < k - i; i >= 2 misses every chain key
        brackets[(i - 1, k - i - 1)] = {n - 1: (-1) ** i}
    alg = LieAlgebra(n, _labels(n), brackets)
    if check_jacobi(alg) is not None:
        raise RuntimeError("semidirect brackets fail the Jacobi identity")
    return alg


def build_L(n: int) -> FiliformAlgebra:
    """The model filiform algebra: [e_1, e_i] = e_{i+1} and nothing else (k = 3)."""
    if (n := _integer(n, "dimension")) < 3:
        raise ValueError("the L family needs dimension >= 3")
    return FiliformAlgebra(_chain(n, 3, f"L{n}"))


def build_Q(n: int) -> FiliformAlgebra:
    """Even-dimensional family with [e_i, e_{n+1-i}] = (-1)^i e_n added (k = n + 1)."""
    if (n := _integer(n, "dimension")) < 4 or n % 2:
        raise ValueError("the Q family needs even dimension >= 4")
    return FiliformAlgebra(_chain(n, n + 1, f"Q{n}"))


def build_G(n: int, k: int) -> FiliformAlgebra:
    """Semidirect family with index n - k + 1 (k odd, 3 <= k <= n)."""
    n, k = _integer(n, "dimension"), _integer(k, "k")
    if k % 2 == 0 or not 3 <= k <= n:
        raise ValueError("need odd k with 3 <= k <= n")
    return FiliformAlgebra(_chain(n, k, f"G{n},{k}"))


def index_one_criterion(f: FiliformAlgebra) -> int | None:
    """Odd dimension only: index 1 iff [g_i, g_{n-i}] != 0 for i = 1 .. n-1,
    read off alpha_i, the e_n coefficient of [e_i, e_{n-i}].  Returns the
    smallest i with alpha_i = 0, or None when the index is 1."""
    n = f.n
    if n % 2 == 0:
        raise ValueError("the index-1 criterion applies to odd dimension only")
    for i in range(1, n):
        if not f.algebra.structure_coeffs(i - 1, n - i - 1).get(n - 1):
            return i
    return None


def lower_bound(f: FiliformAlgebra, k: int) -> int | None:
    """n - 2(k-1) when [g_k, g_k] = 0; None when that bracket is nonzero."""
    n = f.n
    if not 2 <= (k := _integer(k, "k")) <= n:
        raise ValueError("need 2 <= k <= n")
    for i in range(k, n + 1):
        for j in range(i + 1, n + 1):
            if f.algebra.structure_coeffs(i - 1, j - 1):
                return None
    return n - 2 * (k - 1)


def achievable_indices(n: int) -> list[int]:
    """Sorted indices realized by the semidirect family in dimension n."""
    n = _integer(n, "dimension")
    return sorted({index(build_G(n, k).algebra).index for k in range(3, n + 1, 2)})


def random_adapted_deformation(base: FiliformAlgebra, seed: int) -> FiliformAlgebra:
    """Isomorphic copy of base through a random unitriangular adapted basis.

    e_1' = e_1 + (junk in g_3), e_2' = e_2 + (junk in g_3), then
    e_{i+1}' = [e_1', e_i'].  Starting the junk at g_3 keeps every forced
    chain vector of the form e_m + (tail), so the transition matrix is
    unitriangular, and cross terms in pairs with index sum n + 1 land past
    weight n + 1, so those brackets keep their e_n coefficients verbatim.
    Back-substitution gives each bracket's new coordinates: it peels the
    lowest coordinate, as the lowest e_m left is the coefficient of e_m'.
    """
    g = base.algebra
    n = g.dim
    rng = random.Random(_integer(seed, "seed"))
    cols = []
    for lead in (0, 1):
        col = {lead: 1}
        for j in range(2, n):
            c = rng.randint(-2, 2)
            if c:
                col[j] = c
        cols.append(col)
    for _ in range(2, n):
        cols.append(g.sparse_bracket(cols[0], cols[-1]))
    brackets: dict[tuple[int, int], Coeffs] = {}
    for s in range(n):
        for t in range(s + 1, n):
            w, coords = g.sparse_bracket(cols[s], cols[t]), {}
            while w:
                m = min(w)
                coords[m] = c = w[m]
                _subtract(w, c, cols[m])
            if coords:
                brackets[(s, t)] = coords
    alg = LieAlgebra(n, _labels(n), brackets)
    if check_jacobi(alg) is not None:
        raise RuntimeError("deformed brackets fail the Jacobi identity")
    return FiliformAlgebra(alg)
