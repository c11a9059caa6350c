"""Finite-dimensional Lie algebras over Q, given by structure constants.

A LieAlgebra's public `brackets` is a dict keyed by basis index pairs (i, j)
with i < j; values are sparse coefficient dicts {k: c} meaning
[x_i, x_j] = sum_k c * x_k.  Zero coefficients are never stored.  Each c is an
int when integral and a Fraction otherwise, never a float or bool; LieAlgebra
decides, so builders pass plain ints.  Subspace rows and sparse vectors follow
the same rule.  Vectors are sparse throughout: dense coordinates enter only
through Subspace.from_vectors and leave only as Subspace.basis (Fraction tuples).
A private adjoint table holds every nonzero [x_i, x_j] in both orders.
Bracket lookups, sparse brackets, the images {a: [x_a, v]}, centralizer
rows and the Jacobi check each walk it once, without an order branch; no
other module reads it.  The integer scale is decided here too, in the same
pass over the constants: a private table laid out like `brackets` holds
d * c, d the lcm of the denominators (when d == 1 it is `brackets`).  Every
rank of the structure matrix in the index module reads that table.

Beyond the algebra itself, the module computes the invariants that back the
index: center, centralizers, the lower central series, the derived pair and
abelian witnesses.  Nothing here assumes nilpotency; the constructions elsewhere in the package
produce nilpotent algebras, and check_jacobi is the validity gate for any
externally supplied structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from numbers import Integral, Rational

from .linalg import SparseEchelon, _sparse, _subtract, rank
from .matching import blossom_matching

Coeffs = dict[int, int | Fraction]  # exact values: int when integral


def _flip(n: int, v: Coeffs) -> Coeffs:
    """v with its n coordinates in reverse order (an involution).

    SparseEchelon pivots on a row's last nonzero column; on flipped vectors
    that is the leading column, the pivot of the reduced row-echelon form.
    """
    return {n - 1 - c: x for c, x in v.items()}


def _flip_checked(n: int, v: Coeffs, t: int) -> Coeffs:
    """_flip(n, v), refusing a coordinate outside range(n) and a value _exact refuses."""
    out = {}
    for c, x in v.items():
        if not (type(c) is int and 0 <= c < n):  # bool is not
            raise ValueError(f"coordinate {c!r} of vector {t} must be an integer in range({n})")
        out[n - 1 - c] = x if type(x) is int else _exact(x, f"coordinate {c} of vector {t}")
    return out


def _exact(c, where: str) -> int | Fraction:
    """c as an int when it is integral, else as a Fraction.  Anything but a
    numbers.Rational is refused (a float, str or Decimal), and so is a bool."""
    if isinstance(c, bool) or not isinstance(c, Rational):
        raise ValueError(f"{where} must be an int or Fraction, got {c!r}")
    num, den = int(c.numerator), int(c.denominator)  # a numpy integer's are numpy's
    return num if den == 1 else Fraction(num, den)


def _integer(x, what: str) -> int:
    # As _exact, refuses a bool (it would print as true); a numpy integer becomes an int.
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise ValueError(f"{what} must be an int, got {x!r}")
    return int(x)


class NotAbelianError(ValueError):
    """Raised when an operation requires an abelian subspace."""

    def __init__(self, u, v):
        self.witness = (u, v)
        super().__init__("subspace is not abelian: a basis pair has nonzero bracket")


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n, basis kept in reduced row-echelon form as sparse rows.

    The RREF basis is canonical, so equality of subspaces is equality of the
    dataclass fields.  Rows are led by their first nonzero column, in ascending order.
    Values are ints when integral, else Fractions; as 1 == Fraction(1), equality holds.
    """

    ambient_dim: int
    rows: tuple[Coeffs, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        """Span of dense coordinate vectors; each value must be an int or Fraction."""
        vecs = [[_exact(x, f"coordinate {c} of vector {t}") for c, x in enumerate(v)]
                for t, v in enumerate(vectors)]
        if any(len(v) != ambient_dim for v in vecs):
            raise ValueError("vector length does not match ambient dimension")
        return cls.span(ambient_dim, map(_sparse, vecs))

    @classmethod
    def span(cls, ambient_dim: int, vectors) -> "Subspace":
        """Span of sparse vectors {coordinate: value}, with its canonical basis; each
        coordinate must be an int in range(ambient_dim), each value an int or Fraction."""
        red = SparseEchelon(_flip_checked(ambient_dim, v, t) for t, v in enumerate(vectors)).rref()
        return cls(ambient_dim, tuple(_flip(ambient_dim, red[p]) for p in sorted(red, reverse=True)))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple({i: 1} for i in range(ambient_dim)))

    @property
    def basis(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as dense coordinate tuples."""
        return tuple(tuple(Fraction(row.get(c, 0)) for c in range(self.ambient_dim)) for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains(self, other: "Subspace") -> bool:
        n = self.ambient_dim
        if other.ambient_dim != n:
            raise ValueError("vector length does not match ambient dimension")
        # Flipped, the rows already are a SparseEchelon: adding them eliminates nothing.
        ech = SparseEchelon(_flip(n, row) for row in self.rows)
        return not any(ech.reduce(_flip(n, v)) for v in other.rows)


class LieAlgebra:
    """Structure-constant Lie algebra over Q on basis x_0 .. x_{n-1}.  It is read-only after
    construction: nothing refreshes its tables, or the center and matching number it keeps."""

    def __init__(self, dim: int, labels=None, brackets: dict | None = None):
        if (dim := _integer(dim, "dimension")) < 0:
            raise ValueError("dimension must be nonnegative")
        self.dim = dim
        if labels is None:
            labels = tuple(f"x{i + 1}" for i in range(dim))
        labels = tuple(str(s) for s in labels)
        if len(labels) != dim:
            raise ValueError("label count does not match dimension")
        if len(set(labels)) != dim:
            raise ValueError("labels must be distinct")
        self.labels = labels
        clean: dict[tuple[int, int], Coeffs] = {}
        ad: dict[int, dict[int, Coeffs]] = {}  # ad[i][j] = [x_i, x_j] != 0
        d = 1  # the lcm of the denominators
        for (i, j), coeffs in (brackets or {}).items():
            if not (type(i) is type(j) is int and 0 <= i < j < dim):  # bool is not
                raise ValueError(f"bracket key ({i!r},{j!r}) must be integers with 0 <= i < j < dim")
            cc, neg = {}, {}
            for k, c in coeffs.items():
                if not (type(k) is int and 0 <= k < dim):
                    raise ValueError(f"coefficient index {k!r} must be an integer in range")
                if type(c) is not int:
                    c = _exact(c, f"coefficient {k} of bracket ({i},{j})")
                    d = lcm(d, c.denominator)
                if c:
                    cc[k] = c
                    neg[k] = -c
            if cc:
                clean[(i, j)] = ad.setdefault(i, {})[j] = cc
                ad.setdefault(j, {})[i] = neg
        self.brackets = clean
        self._ad = ad
        # d * brackets, in integers: the same rank over Q, and over F_p when p does not divide d.
        self._scaled = clean if d == 1 else {
            key: {k: c.numerator * (d // c.denominator) for k, c in cc.items()} for key, cc in clean.items()}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.labels == other.labels
            and self.brackets == other.brackets
        )

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, nonzero_pairs={len(self.brackets)})"

    @cached_property
    def _center(self) -> Subspace:
        return centralizer(self, Subspace.full(self.dim))

    @cached_property
    def _matching_number(self) -> int:
        """nu of the bracket graph, an edge {i, j} per nonzero [x_i, x_j]."""
        return len(blossom_matching(self.brackets))

    def structure_coeffs(self, i: int, j: int) -> Coeffs:
        """[x_i, x_j] as a sparse coefficient dict (any i, j order)."""
        return self._ad.get(i, {}).get(j, {})

    def sparse_bracket(self, u: Coeffs, v: Coeffs) -> Coeffs:
        """[u, v] for sparse u, v, as a sparse dict."""
        out: Coeffs = {}
        for i, c in u.items():
            row = self._ad.get(i, {})
            for m, cm in v.items():
                if m in row:
                    _subtract(out, -c * cm, row[m])
        return out

    def ad_images(self, v: Coeffs) -> dict[int, Coeffs]:
        """{a: [x_a, v]} over the a with a nonzero image, for sparse v."""
        out: dict[int, Coeffs] = {}
        for m, c in v.items():
            for a, w in self._ad.get(m, {}).items():
                _subtract(out.setdefault(a, {}), c, w)  # w = [x_m, x_a] = -[x_a, x_m]
        return {a: w for a, w in out.items() if w}


def check_jacobi(g: LieAlgebra):
    """None if the Jacobi identity holds, else ((i,j,k), residual) with the
    residual a sparse {m: c}, c != 0.

    The residual of i < j < k sums [x_a, [x_b, x_c]] over the cyclic orders
    (a, b, c) of (i, j, k).  It is built by walking bracket chains: for each
    x_m term of a nonzero [x_b, x_c] (b < c) and each a outside {b, c} with
    [x_a, x_m] != 0, that term times [x_a, x_m] goes to the residual of the
    sorted triple (by comparison), negated when b < a < c.  Triples on no chain have zero
    residual.  The returned triple is the lexicographically first violation.
    """
    res: dict[tuple[int, int, int], Coeffs] = {}
    for (b, c), inner in g.brackets.items():
        for m, cm in inner.items():
            for a, w in g._ad.get(m, {}).items():  # w = [x_m, x_a] = -[x_a, x_m]
                if a < b:
                    _subtract(res.setdefault((a, b, c), {}), cm, w)
                elif b < a < c:
                    _subtract(res.setdefault((b, a, c), {}), -cm, w)
                elif a > c:
                    _subtract(res.setdefault((b, c, a), {}), cm, w)
    triple = min((t for t, r in res.items() if r), default=None)
    return None if triple is None else (triple, res[triple])


def _basis_rows(g: LieAlgebra, s: Subspace) -> tuple[Coeffs, ...]:
    """The basis of s as sparse vectors; s must be a subspace of g."""
    if s.ambient_dim != g.dim:
        raise ValueError(f"subspace of Q^{s.ambient_dim} is not in an algebra of dimension {g.dim}")
    return s.rows


def centralizer(g: LieAlgebra, s: Subspace) -> Subspace:
    """{x : [x, v] = 0 for every v in s}: the kernel of one sparse row per
    (basis vector v_t of s, coordinate k), the form x -> coordinate k of [v_t, x].

    Row (t, k) holds sum_m v_t[m] [x_m, x_a]_k at column a, off the adjoint table
    (a sum may cancel to a zero value).  Basis vectors go last first: on a graded
    basis the last bracket only with the first, whose low columns then fill first,
    and the echelon skips most rows (center(F(4,4)) reads 30 of 333, each a pivot).
    """
    rows: list[Coeffs] = []
    for v in reversed(_basis_rows(g, s)):
        cols: dict[int, Coeffs] = {}  # k -> row (t, k)
        for m, c in v.items():
            for a, w in g._ad.get(m, {}).items():  # w = [x_m, x_a]
                for k, x in w.items():
                    row = cols.setdefault(k, {})
                    row[a] = row.get(a, 0) + c * x
        rows += cols.values()
    return Subspace(g.dim, SparseEchelon(rows).kernel(g.dim))


def center(g: LieAlgebra) -> Subspace:
    """z(g), the centralizer of g, built once per algebra."""
    return g._center


def _center_dim(g: LieAlgebra) -> int:
    """dim z(g), z(g) = ker(ad): n minus the rank of the rows ad x_i, {j*n + k: c}.
    A row leads at its last key, j = max(row), k = max(row[j]); if leads are distinct,
    each row is nonzero at its lead where rows of smaller lead are zero, so rank = count."""
    n = g.dim
    if len({(j := max(row), max(row[j])) for row in g._ad.values()}) == len(g._ad):
        return n - len(g._ad)
    return n - rank({j * n + k: c for j, w in row.items() for k, c in w.items()}
                    for row in g._ad.values())


def lower_central_series(g: LieAlgebra) -> list[Subspace]:
    """[g^1, g^2, ...] with g^{k+1} = [g, g^k], computed until the first 0 or a repeat."""
    series, prev = [Subspace.full(g.dim)], None
    while series[-1].dim not in (0, prev):
        prev, vs = series[-1].dim, series[-1].rows
        series.append(Subspace.span(g.dim, (w for v in vs for w in g.ad_images(v).values())))
    return series


def nilpotency_class(g: LieAlgebra) -> int:
    """c with g^c != 0 = g^{c+1}; 0 for the zero algebra; raises if not nilpotent."""
    series = lower_central_series(g)
    if series[-1].dim != 0:
        raise ValueError("algebra is not nilpotent")
    return len(series) - 1


def derived_subalgebra_pair(g: LieAlgebra) -> tuple[Subspace, Subspace]:
    """([g, g], [d, d]): d is spanned by the [x_i, x_j], [d, d] by the nonzero brackets of basis pairs."""
    d1 = Subspace.span(g.dim, g.brackets.values())
    vs = d1.rows
    brackets = (g.sparse_bracket(u, vs[t]) for s, u in enumerate(vs) for t in range(s))
    d2 = Subspace.span(g.dim, [w for w in brackets if w])
    return d1, d2


def abelian_witness(g: LieAlgebra, s: Subspace):
    """None if s is abelian, else a basis pair (u, v) with [u, v] != 0."""
    vs = _basis_rows(g, s)
    for p in range(len(vs)):
        for q in range(p + 1, len(vs)):
            if g.sparse_bracket(vs[p], vs[q]):
                return s.basis[p], s.basis[q]
    return None
