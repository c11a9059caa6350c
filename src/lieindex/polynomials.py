"""Certified rank of a matrix of integer linear forms, by fraction-free elimination.

Support for the certified rank path: entries of a structure matrix are
integer linear forms in the dual coordinates y_k, and sparse Bareiss
elimination (Bareiss 1968) keeps every intermediate value in Z[y] (exact
divisions only), so the computed rank is the true generic rank, with no
probabilistic caveat.

The elimination runs in Z[t] after the Kronecker substitution y_k -> t^(B^k),
B = (number of nonzero input rows) + 1.  A polynomial is a dict
{exponent: nonzero int}.  This gives the same pivots, step for step, as the
elimination in Z[y]:

- The substitution is a ring map Z[y] -> Z[t], so every product, difference
  and exact quotient of the elimination maps to the image of the same
  value in Z[y]: the Z[t] loop computes the images of the Z[y] entries.
- By Sylvester's identity every entry the elimination keeps is a minor of
  the input of size at most the number of nonzero rows, B - 1.  A minor of
  size s of linear forms has degree at most s in each variable, so each
  exponent is below B, and distinct monomials map to distinct base-B
  exponents.
- So an entry is zero, or has k terms, exactly when its image is zero or has
  k terms, and the pivot rule sees the same choices.  The products before a
  division may merge terms, but they are only divided: Z[t] is a domain, so
  the quotient is the image of the quotient in Z[y].

Most entries are monomials, which both kernels take term by term: c*t^e
times b shifts the exponents of b by e, merging none, and scales the
coefficients by c, zeroing none; so b / (c*t^e) is exact just when c divides
every coefficient and e is at most every exponent.  Divisors of more terms
use the heap division (9 of 2,830 on the catalogue algebras of dim <= 20).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


def _mul(a: dict, b: dict, out: dict | None = None) -> dict:
    """out + a * b; out, when given, is used up."""
    if out is None and len(a) == 1:
        ((ea, ca),) = a.items()
        return {ea + e: ca * c for e, c in b.items()}
    out = {} if out is None else out
    get = out.get
    b = b.items()
    for ea, ca in a.items():
        for eb, cb in b:
            e = ea + eb
            out[e] = get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _exact_div(a: dict, d: dict) -> dict:
    """a / d in Z[t]; raises ArithmeticError unless d divides a.

    Long division from the leading (largest) exponent down: when d | a the
    leading term of every partial remainder is divisible by that of d.
    """
    top = max(d)
    lead = d[top]
    quot = {}
    if len(d) == 1:  # term by term, as the module docstring says
        for e, c in a.items():
            quot[e - top], r = divmod(c, lead)
            if r or e < top:
                raise ArithmeticError("inexact polynomial division")
        return quot
    tail = [(e - top, c) for e, c in d.items() if e != top]
    rem = dict(a)
    todo = [-e for e in rem]  # a max-heap holding each key of rem once
    heapify(todo)
    while todo:
        e = -heappop(todo)
        c = rem.pop(e)
        if not c:
            continue
        q, r = divmod(c, lead)
        if r or e < top:
            raise ArithmeticError("inexact polynomial division")
        quot[e - top] = q
        for off, dc in tail:  # every new exponent is below e
            s = e + off
            if s not in rem:
                heappush(todo, -s)
            rem[s] = rem.get(s, 0) - q * dc
    return quot


def _nonzero(form: dict) -> dict:
    for c in form.values():
        if not isinstance(c, int):
            raise TypeError(f"coefficients must be int, got {type(c).__name__}")
    return {v: c for v, c in form.items() if c}


def bareiss_rank(rows) -> int:
    """Rank over Q(y) of sparse rows {column: {variable: int coefficient}}.

    Zero forms and rows are dropped.  The pivot is a nonzero entry with the
    fewest terms, to keep intermediate minors small.  Each other row becomes
    (piv*a - mir*b) / prev, mir its entry in the pivot column (piv*a / prev
    where it has none), prev the previous pivot.  Every division is exact;
    Z[t] is a domain, so the pivots count the rank.  The input is unchanged.
    """
    rows = [{j: f for j, f in ((j, _nonzero(form)) for j, form in row.items()) if f} for row in rows]
    rows = [row for row in rows if row]
    base = len(rows) + 1
    rows = [{j: {base**v: c for v, c in f.items()} for j, f in row.items()} for row in rows]
    prev, r = None, 0
    while rows:
        _, bi, bj = min((len(e), i, j) for i, row in enumerate(rows) for j, e in row.items())
        prow = rows.pop(bi)
        piv = prow.pop(bj)
        reduced = []
        for row in rows:
            mir = row.pop(bj, None)
            new = {j: _mul(piv, a) for j, a in row.items()}
            if mir is not None:
                neg = {e: -c for e, c in mir.items()}
                for j, b in prow.items():
                    new[j] = _mul(neg, b, new.get(j))
            new = {j: _exact_div(e, prev) if prev else e for j, e in new.items() if e}
            if new:
                reduced.append(new)
        rows, prev, r = reduced, piv, r + 1
    return r
