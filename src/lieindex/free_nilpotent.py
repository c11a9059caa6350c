"""Free-nilpotent Lie algebras on a Hall basis, and the free metabelian ones.

The Hall family used here is the right-leaning one: a bracket [u, v] of Hall
elements is itself a Hall element when u < v in the Hall order and, if
v = [a, b] is not a generator, a <= u.  The order is length-lex: lower weight
first, generators by index, equal-weight internal nodes by their left, then
right, subtrees; the basis runs in this order.  With generators x1 < x2 this
makes the first basis elements x1, x2, [x1,x2], [x1,[x1,x2]], [x2,[x1,x2]],
matching the bases the verification harness checks against.

The free metabelian algebras are built on the comb Hall trees alone, those
with a generator as every left child (see build_metabelian).

Trees are nested tuples: a generator is an int (0-based), an internal node a
pair (left, right).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from .algebra import LieAlgebra, _integer

DEFAULT_MAX_DIM = 500


class ResourceLimitError(RuntimeError):
    """Construction would exceed the dimension ceiling DEFAULT_MAX_DIM."""


def _check_ceiling(dim: int, what: str) -> None:
    if dim > DEFAULT_MAX_DIM:
        raise ResourceLimitError(f"{what} has dimension {dim}, above the ceiling {DEFAULT_MAX_DIM}")


def mobius(n: int) -> int:
    """Moebius function by trial division; n >= 1."""
    if (n := _integer(n, "n")) < 1:
        raise ValueError("mobius is defined for n >= 1")
    res = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            res = -res
        d += 1
    if n > 1:
        res = -res
    return res


def witt_layer(g: int, m: int) -> int:
    """Dimension of the weight-m homogeneous layer of the free Lie algebra."""
    if (g := _integer(g, "generator count")) < 0 or (m := _integer(m, "weight")) < 1:
        raise ValueError("need g >= 0 generators and weight m >= 1")
    total = 0
    for d in range(1, m + 1):
        if m % d == 0:
            total += mobius(d) * g ** (m // d)
    if total % m:
        raise RuntimeError(f"Witt sum {total} is not divisible by the weight {m}")
    return total // m


def witt_dimension(g: int, c: int) -> tuple[int, int]:
    """(dim of the free c-step algebra on g generators, dim of its top layer)."""
    if (g := _integer(g, "generator count")) < 1 or (c := _integer(c, "class")) < 1:
        raise ValueError("need g >= 1 generators and class c >= 1")
    return sum(witt_layer(g, m) for m in range(1, c + 1)), witt_layer(g, c)


def _metabelian_layer(g: int, m: int) -> int:
    """Dimension of the weight-m layer of the free metabelian algebra (Bahturin)."""
    return g if m == 1 else (m - 1) * math.comb(g + m - 2, m)


def tree_label(t, gen_labels) -> str:
    if isinstance(t, int):
        return gen_labels[t]
    return f"[{tree_label(t[0], gen_labels)},{tree_label(t[1], gen_labels)}]"


@dataclass
class FreeNilpotentAlgebra:
    """A structure-constant algebra together with its bracket-tree basis.

    trees[i] is the bracket tree of basis element i, labelled
    algebra.labels[i].  layer_offsets[w-1] is the index of the first basis
    element of weight w, and layer w is the slice
    [layer_offsets[w-1] : layer_offsets[w]].  The offsets end one entry past
    the last nonempty layer; every layer past it is the empty range(dim, dim).
    """

    algebra: LieAlgebra
    trees: list
    layer_offsets: list[int]

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def layer_range(self, w: int) -> range:
        if w >= len(self.layer_offsets):
            return range(self.dim, self.dim)
        return range(self.layer_offsets[w - 1], self.layer_offsets[w])


class HallBuilder:
    """Hall basis and normal-form rewriting up to a weight cutoff.

    Every tree compared is a basis tree, so the Hall order is index_of
    order; weight[i] is the weight of basis[i].  Rewriting uses
    [u,[a,b]] = [[u,a],b] + [a,[u,b]] when u < a; at fixed total weight every
    recursive call strictly increases the first argument in the Hall order,
    so the recursion is well founded.  Results are memoized, which makes the
    computed constants independent of the order in which pairs are requested.
    """

    def __init__(self, g: int, c: int):
        self.c = c
        self._memo: dict = {}
        self.layers: list[list] = [[], list(range(g))]  # layers[w] = trees of weight w
        self.basis = list(range(g))
        self.weight = [1] * g
        self.index_of = {t: t for t in range(g)}
        pos = self.index_of
        for w in range(2, c + 1):
            # u runs through rising weights, u and v each through a layer in
            # Hall order: the pairs come out sorted by (pos[u], pos[v]).
            found = [
                (u, v)
                for wu in self._left_weights(w)
                for u in self.layers[wu]
                for v in self.layers[w - wu]
                if pos[u] < pos[v] and (isinstance(v, int) or pos[v[0]] <= pos[u])
            ]
            self.layers.append(found)
            pos.update((t, i) for i, t in enumerate(found, len(self.basis)))
            self.basis += found
            self.weight += [w] * len(found)

    def _left_weights(self, w: int):
        """The weights of u over the pairs [u, v] that may make a tree of weight w
        (u < v, so weight(u) <= w / 2)."""
        return range(1, w // 2 + 1)

    def rewrite(self, u, v) -> dict:
        """[u, v] as {tree: int coefficient} over the Hall basis."""
        pu, pv = self.index_of[u], self.index_of[v]
        if pu == pv or self.weight[pu] + self.weight[pv] > self.c:
            return {}
        if pu > pv:
            return {t: -c for t, c in self.rewrite(v, u).items()}
        cached = self._memo.get((u, v))
        if cached is not None:
            return cached
        if isinstance(v, int) or self.index_of[v[0]] <= pu:
            res = {(u, v): 1}
        else:
            a, b = v
            res: dict = {}
            for w, cw in self.rewrite(u, a).items():
                for t, ct in self.rewrite(w, b).items():
                    res[t] = res.get(t, 0) + cw * ct
            for w, cw in self.rewrite(u, b).items():
                for t, ct in self.rewrite(a, w).items():
                    res[t] = res.get(t, 0) + cw * ct
            res = {t: c for t, c in res.items() if c}
        self._memo[(u, v)] = res
        return res

    def bracket_coeffs(self, i: int, j: int) -> dict[int, int]:
        """[basis[i], basis[j]] as {basis index: int coefficient}."""
        return {self.index_of[t]: c for t, c in self.rewrite(self.basis[i], self.basis[j]).items()}


class _CombBuilder(HallBuilder):
    """The comb Hall trees, those with a generator as every left child.

    Layer w pairs generators with comb trees of weight w - 1.  Rewriting runs
    modulo I (see build_metabelian): a bracket of two non-generators is 0.
    """

    def _left_weights(self, w: int):
        return (1,)

    def rewrite(self, u, v) -> dict:
        if not (isinstance(u, int) or isinstance(v, int)):
            return {}
        return super().rewrite(u, v)


def build_free_nilpotent(g: int, c: int) -> FreeNilpotentAlgebra:
    """Free nilpotent-of-class-c Lie algebra F(g, c) on g generators."""
    return _build_on_hall_trees(g, c, comb=False)


def build_metabelian(g: int, c: int) -> FreeNilpotentAlgebra:
    """Free metabelian algebra M(g, c): F(g, c) modulo the ideal
    I = [[F, F], [F, F]], on the comb Hall trees.

    A non-comb Hall tree has a node whose two subtrees both lie in [F, F], so
    that node lies in I and the tree in I.  The comb trees thus span F / I.
    Their layer counts are checked against Bahturin's
    dim M(g, c) = g + sum_{k=2..c} (k-1) C(g+k-2, k), so their images are a
    basis of F / I.  Hall trees are independent in F, so the non-comb trees
    are then a basis of I.  Rewriting runs in F / I: two trees that are not
    generators lie in [F, F], so their bracket lies in I, and so does every
    bracket with it, as I is an ideal.  None of these has a comb coordinate,
    so the rewrite returns {} for the pair, and every tree it touches is a
    comb basis tree.
    """
    return _build_on_hall_trees(g, c, comb=True)


def _build_on_hall_trees(g: int, c: int, comb: bool) -> FreeNilpotentAlgebra:
    if (g := _integer(g, "generator count")) < 1 or (c := _integer(c, "class")) < 1:
        raise ValueError("need g >= 1 generators and class c >= 1")
    kind = "metabelian" if comb else "free nilpotent"
    # The layer sizes stop at the first partial sum above the ceiling, and
    # before the first empty layer (g = 1), past which every layer is empty;
    # the builder stops there too.
    layer_size, sizes = _metabelian_layer if comb else witt_layer, []
    for w in range(1, c + 1):
        size = layer_size(g, w)
        if not size:
            break
        sizes.append(size)
        quotient = f": its class-{w} quotient" if w < c else ""
        _check_ceiling(sum(sizes), f"{kind} algebra with g={g}, c={c}{quotient}")
    builder = (_CombBuilder if comb else HallBuilder)(g, len(sizes))
    if [len(layer) for layer in builder.layers[1:]] != sizes:
        raise RuntimeError("Hall layer count is off")
    trees = builder.basis
    gen_labels = [f"x{i + 1}" for i in range(g)]
    n = len(trees)
    brackets = {}
    for i in range(g if comb else n):  # in M(g, c) a pair of non-generators is 0
        wi = builder.weight[i]
        for j in range(i + 1, n):
            if wi + builder.weight[j] > c:
                break  # the trees run in ascending weight
            coeffs = builder.bracket_coeffs(i, j)
            if coeffs:
                brackets[(i, j)] = coeffs
    alg = LieAlgebra(n, tuple(tree_label(t, gen_labels) for t in trees), brackets)
    return FreeNilpotentAlgebra(alg, trees, list(accumulate(sizes, initial=0)))


def build_fg3_explicit_basis(g: int) -> FreeNilpotentAlgebra:
    """The class-3 free algebra on the explicit basis x_i, x_ij, x_ijk.

    x_ij = [x_i, x_j] for 1 <= i < j <= g, ordered (1,2),(1,3),(2,3),(1,4)...;
    x_ijk = [x_i, [x_j, x_k]] for 1 <= j < k <= g and 1 <= i <= k, ordered by
    (k, j, i).  Brackets [x_i, x_jk] with i > k are rewritten through the
    Jacobi identity as -x_jki + x_kji.  Useful because the distinguished
    functionals in the verification harness are written in these coordinates.
    """
    if (g := _integer(g, "generator count")) < 2:
        raise ValueError("need at least two generators")
    total, top = witt_dimension(g, 3)
    _check_ceiling(total, f"explicit class-3 basis with g={g}")
    pairs = sorted(
        ((i, j) for j in range(2, g + 1) for i in range(1, j)), key=lambda p: (p[1], p[0])
    )
    triples = [
        (i, j, k)
        for k in range(2, g + 1)
        for j in range(1, k)
        for i in range(1, k + 1)
    ]
    triples.sort(key=lambda t: (t[2], t[1], t[0]))
    gen_labels = [f"x{i}" for i in range(1, g + 1)]
    labels = (
        gen_labels
        + [f"x_{i}{j}" for (i, j) in pairs]
        + [f"x_{i}{j}{k}" for (i, j, k) in triples]
    )
    pair_at = {p: g + t for t, p in enumerate(pairs)}
    triple_at = {t: g + len(pairs) + s for s, t in enumerate(triples)}
    brackets: dict[tuple[int, int], dict[int, int]] = {}
    for (i, j) in pairs:
        brackets[(i - 1, j - 1)] = {pair_at[(i, j)]: 1}
    for (j, k) in pairs:
        col = pair_at[(j, k)]
        for i in range(1, g + 1):
            if i <= k:
                coeffs = {triple_at[(i, j, k)]: 1}
            else:
                coeffs = {triple_at[(j, k, i)]: -1, triple_at[(k, j, i)]: 1}
            brackets[(i - 1, col)] = coeffs
    alg = LieAlgebra(len(labels), tuple(labels), brackets)
    trees = (
        [i for i in range(g)]
        + [(i - 1, j - 1) for (i, j) in pairs]
        + [(i - 1, (j - 1, k - 1)) for (i, j, k) in triples]
    )
    if len(labels) != total or len(triples) != top:
        raise RuntimeError("explicit basis counts differ from the Witt formula")
    return FreeNilpotentAlgebra(alg, trees, [0, g, g + len(pairs), total])
