"""Sparse multivariate polynomials over Z or Q and fraction-free matrix rank.

Support for the certified rank path: entries of a structure matrix are
integer linear forms in the dual coordinates, and sparse Bareiss elimination
keeps every intermediate value in Z[y] (exact divisions only), so the
computed rank is the true generic rank, with no probabilistic caveat.

A monomial is a tuple of (variable, exponent) pairs, sorted by variable,
exponents > 0.  The empty tuple is the constant monomial.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction

Monomial = tuple[tuple[int, int], ...]


def _mul_monomials(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps: dict[int, int] = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _div_monomials(a: Monomial, b: Monomial) -> Monomial | None:
    """a / b, or None if b does not divide a."""
    exps = dict(a)
    for v, e in b:
        have = exps.get(v, 0)
        if have < e:
            return None
        if have == e:
            del exps[v]
        else:
            exps[v] = have - e
    return tuple(sorted(exps.items()))


def _grlex_key(m: Monomial):
    # Ascending in the flat key (-deg, v0, -e0, v1, -e1, ...) is descending in
    # graded lex with x0 > x1 > ...: degree, then the exponent of the first variable
    # where equal-degree monomials differ.  Multiplication-compatible, as exact_div needs.
    return (-sum(e for _, e in m), *(x for v, e in m for x in (v, -e)))


def _div(c, d):
    """c / d exactly: an int when both are ints and d divides c, else a Fraction."""
    if type(c) is int and type(d) is int and not c % d:
        return c // d
    return Fraction(c, d)


class Poly:
    """Immutable-by-convention sparse polynomial, coefficients int or Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, Fraction]):
        self.terms = terms

    @staticmethod
    def zero() -> "Poly":
        return Poly({})

    @staticmethod
    def constant(c) -> "Poly":
        c = Fraction(c)
        return Poly({(): c} if c else {})

    @staticmethod
    def variable(v: int) -> "Poly":
        return Poly({((v, 1),): Fraction(1)})

    @staticmethod
    def linear_form(coeffs: dict[int, Fraction]) -> "Poly":
        return Poly({((v, 1),): c for v, c in coeffs.items() if c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return Poly({})
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = _mul_monomials(ma, mb)
                s = out.get(m)
                if s is None:
                    out[m] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        out[m] = s
                    else:
                        del out[m]
        return Poly(out)

    def leading(self):
        """(monomial, coefficient) maximal under graded lex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=_grlex_key)
        return m, self.terms[m]

    def exact_div(self, d: "Poly") -> "Poly":
        """Quotient self / d when the division is exact; raises otherwise.

        When d | self the leading term of every partial remainder stays
        divisible by lt(d), so the reduction loop terminates with remainder
        zero.  Each remainder term gets its graded-lex key once, kept sorted.
        """
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return Poly({})
        dm, dc = d.leading()
        if len(d) == 1:  # a monomial divides term by term, in any order
            quot = {_div_monomials(m, dm): _div(c, dc) for m, c in self.terms.items()}
            if None in quot:
                raise ArithmeticError("inexact polynomial division")
            return Poly(quot)
        rem = dict(self.terms)
        todo = sorted((_grlex_key(m), m) for m in rem)
        quot: dict[Monomial, Fraction] = {}
        while rem:  # todo holds each key of rem once, the leading term first
            m = todo.pop(0)[1]
            c = rem.pop(m)
            if not c:
                continue
            qm = _div_monomials(m, dm)
            if qm is None:
                raise ArithmeticError("inexact polynomial division")
            # Terms come out in descending order, each quotient term once.
            qc = quot[qm] = _div(c, dc)
            for tm, tc in d.terms.items():
                if tm != dm:
                    sm = _mul_monomials(qm, tm)
                    if sm not in rem:
                        insort(todo, (_grlex_key(sm), sm))
                    rem[sm] = rem.get(sm, 0) - qc * tc
        return Poly(quot)

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            mono = "*".join(f"y{v}^{e}" if e > 1 else f"y{v}" for v, e in m)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


def bareiss_rank(matrix: list[list[Poly]]) -> int:
    """Rank of a polynomial matrix by sparse fraction-free Gaussian elimination.

    Rows are kept as {column: nonzero entry}, zero rows dropped.  The pivot is
    a nonzero entry with the fewest terms, to keep intermediate minors small.
    Each other row becomes (piv*a - mir*b) / prev, mir its entry in the pivot
    column (piv*a / prev where it has none), prev the previous pivot.  By
    Sylvester's identity every entry is a minor of the input, so each division
    is exact (integral over Z[y]); Q[y] is a domain, so the pivots count the rank.
    """
    rows = [r for r in ({j: e for j, e in enumerate(row) if e.terms} for row in matrix) if r]
    prev, r = None, 0
    while rows:
        _, bi, bj = min((len(e), i, j) for i, row in enumerate(rows) for j, e in row.items())
        prow = rows.pop(bi)
        piv = prow.pop(bj)
        reduced = []
        for row in rows:
            mir = row.pop(bj, None)
            new = {j: piv * a for j, a in row.items()}
            if mir is not None:
                for j, b in prow.items():
                    new[j] = new[j] - mir * b if j in new else -(mir * b)
            new = {j: e.exact_div(prev) if prev else e for j, e in new.items() if e.terms}
            if new:
                reduced.append(new)
        rows, prev, r = reduced, piv, r + 1
    return r
