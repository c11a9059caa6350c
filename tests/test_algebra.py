import random
from fractions import Fraction

import pytest
import sympy

from lieindex.algebra import (
    LieAlgebra,
    Subspace,
    _center_dim,
    abelian_witness,
    center,
    centralizer,
    check_jacobi,
    derived_subalgebra_pair,
    lower_central_series,
    nilpotency_class,
)
from lieindex.filiform import build_G, build_L, build_Q, random_adapted_deformation
from lieindex.free_nilpotent import build_fg3_explicit_basis, build_free_nilpotent, build_metabelian
from lieindex.graphs import SimpleGraph, build_graph_algebra
from lieindex.index import alpha_sandwich, ooms_criterion
from lieindex.serialize import algebra_from_dict, algebra_to_dict, dumps
from lieindex.verify import _CORPUS
from test_index import rescaled, shifted


def heisenberg():
    return LieAlgebra(3, None, {(0, 1): {2: 1}})


def two_step_free():
    # Two generators, class 3: basis x1, x2, [x1,x2], [x1,[x1,x2]], [x2,[x1,x2]].
    return LieAlgebra(
        5, None, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}
    )


def centralizer_oracle(g, vectors):
    # Stacked dense ad-constraint rows: coordinate m of [x, v] for every v, m.
    rows = []
    for v in vectors:
        images = [g.bracket(g.basis_vector(i), list(v)) for i in range(g.dim)]
        for m in range(g.dim):
            row = [images[i][m] for i in range(g.dim)]
            if any(row):
                rows.append(row)
    kernel = sympy.Matrix(len(rows), g.dim, [sympy.Rational(x) for row in rows for x in row]).nullspace()
    return Subspace.from_vectors(g.dim, [list(v) for v in kernel])


def center_oracle(g):
    return centralizer_oracle(g, [g.basis_vector(j) for j in range(g.dim)])


def change_basis(g, p):
    # Structure constants on the new basis e'_a = sum_i p[i][a] e_i.
    n = g.dim
    pinv = sympy.Matrix([[sympy.Rational(x) for x in row] for row in p]).inv()
    cols = [[p[i][a] for i in range(n)] for a in range(n)]
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = g.bracket(cols[a], cols[b])
            coeffs = {
                r: sum(Fraction(pinv[r, k]) * w[k] for k in range(n) if w[k])
                for r in range(n)
            }
            brackets[(a, b)] = coeffs
    return LieAlgebra(n, None, brackets)


def rational_basis_change(n):
    # Upper bidiagonal with non-integer diagonal: dense inverse, rational constants.
    return [
        [Fraction(2 * i + 3, i + 2) if j == i else Fraction(-1) if j == i + 1 else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]


def random_rational(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 4))


def random_algebra(rng, n):
    # Random rational constants: most violate the Jacobi identity.
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                brackets[(i, j)] = {k: random_rational(rng) for k in rng.sample(range(n), rng.randint(1, 2))}
    return LieAlgebra(n, None, brackets)


def random_two_step(rng, n):
    # Brackets of the first p basis vectors land in the span of the rest,
    # which is central: every such algebra satisfies the Jacobi identity.
    p = rng.randint(2, n - 1)
    brackets = {}
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < 0.6:
                brackets[(i, j)] = {k: random_rational(rng) for k in rng.sample(range(p, n), 1)}
    return LieAlgebra(n, None, brackets)


def perturbed(rng, g):
    # One structure constant of g moved by a nonzero rational.
    brackets = {key: dict(c) for key, c in g.brackets.items()}
    i = rng.randrange(g.dim - 1)
    coeffs = brackets.setdefault((i, rng.randrange(i + 1, g.dim)), {})
    k = rng.randrange(g.dim)
    coeffs[k] = coeffs.get(k, 0) + rng.choice([1, -1, Fraction(1, 2)])
    return LieAlgebra(g.dim, g.labels, brackets)


def dense_bracket(g, x, y):
    # Read straight off the stored upper triangle, independent of LieAlgebra's lookups.
    out = [Fraction(0)] * g.dim
    for (i, j), coeffs in g.brackets.items():
        f = x[i] * y[j] - x[j] * y[i]
        for k, c in coeffs.items():
            out[k] += f * c
    return out


def jacobi_oracle(g):
    # Every triple, in lexicographic order.
    e = [g.basis_vector(i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                terms = (dense_bracket(g, e[a], dense_bracket(g, e[b], e[c]))
                         for a, b, c in ((i, j, k), (j, k, i), (k, i, j)))
                res = [sum(t) for t in zip(*terms)]
                if any(res):
                    return (i, j, k), res
    return None


def as_fractions(g):
    # The same algebra with every structure constant handed in as a Fraction.
    brackets = {key: {k: Fraction(c) for k, c in coeffs.items()} for key, coeffs in g.brackets.items()}
    return LieAlgebra(g.dim, g.labels, brackets)


def built_algebras():
    return [
        heisenberg(),
        two_step_free(),
        build_free_nilpotent(2, 4).algebra,
        build_metabelian(3, 3).algebra,
        build_L(7).algebra,
        build_G(9, 5).algebra,
        change_basis(build_free_nilpotent(2, 4).algebra, rational_basis_change(8)),
    ]


class TestConstruction:
    def test_rejects_bad_keys(self):
        with pytest.raises(ValueError):
            LieAlgebra(3, None, {(1, 0): {2: 1}})
        with pytest.raises(ValueError):
            LieAlgebra(3, None, {(0, 0): {2: 1}})
        with pytest.raises(ValueError):
            LieAlgebra(3, None, {(0, 3): {2: 1}})
        with pytest.raises(ValueError):
            LieAlgebra(3, None, {(0, 1): {3: 1}})
        with pytest.raises(ValueError):
            LieAlgebra(-1)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LieAlgebra(2, ("a",))
        with pytest.raises(ValueError):
            LieAlgebra(2, ("a", "a"))

    def test_drops_zero_coefficients(self):
        g = LieAlgebra(3, None, {(0, 1): {2: 0}, (0, 2): {1: Fraction(0)}})
        assert g.brackets == {}

    def test_default_labels(self):
        assert heisenberg().labels == ("x1", "x2", "x3")

    def test_antisymmetry_of_lookup(self):
        g = heisenberg()
        assert g.structure_coeffs(0, 1) == {2: Fraction(1)}
        assert g.structure_coeffs(1, 0) == {2: Fraction(-1)}
        assert g.structure_coeffs(1, 1) == {}
        for g in built_algebras():
            for i in range(g.dim):
                assert g.structure_coeffs(i, i) == {}
                for j in range(g.dim):
                    assert g.structure_coeffs(j, i) == {
                        k: -c for k, c in g.structure_coeffs(i, j).items()
                    }

    def test_bracket_of_vectors(self):
        g = heisenberg()
        x = [Fraction(2), Fraction(1), Fraction(0)]
        y = [Fraction(1), Fraction(3), Fraction(5)]
        # [2x1 + x2, x1 + 3x2] = (2*3 - 1*1) [x1, x2]
        assert g.bracket(x, y) == [Fraction(0), Fraction(0), Fraction(5)]
        assert g.bracket(y, x) == [Fraction(0), Fraction(0), Fraction(-5)]
        with pytest.raises(ValueError):
            g.bracket([1, 2], y)

    def test_ad_images_match_ad_vector(self):
        rng = random.Random(5)
        for g in built_algebras():
            for _ in range(10):
                # Zero coefficients may occur in v; they contribute nothing.
                v = {m: random_rational(rng) for m in rng.sample(range(g.dim), rng.randint(1, 3))}
                images = {a: g.ad_vector(a, v) for a in range(g.dim)}
                assert g.ad_images(v) == {a: w for a, w in images.items() if w}
        # [x0, x1 - x2] cancels to zero and is left out.
        g = LieAlgebra(4, None, {(0, 1): {3: 1}, (0, 2): {3: 1}})
        assert g.ad_images({1: Fraction(1), 2: Fraction(-1)}) == {}

    def test_ad_vector(self):
        g = two_step_free()
        assert g.ad_vector(0, {1: Fraction(2)}) == {2: Fraction(2)}
        assert g.ad_vector(0, {1: Fraction(2), 2: Fraction(0)}) == {2: Fraction(2)}
        assert g.ad_vector(2, {0: Fraction(1), 1: Fraction(1)}) == {
            3: Fraction(-1),
            4: Fraction(-1),
        }


INTEGRAL_BUILDS = [
    pytest.param(lambda: build_free_nilpotent(3, 3).algebra, id="F3,3"),
    pytest.param(lambda: build_fg3_explicit_basis(3).algebra, id="F3,3-explicit"),
    pytest.param(lambda: build_metabelian(3, 4).algebra, id="M3,4"),
    pytest.param(lambda: build_graph_algebra(SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))), id="C4"),
    pytest.param(lambda: build_L(6).algebra, id="L6"),
    pytest.param(lambda: build_Q(8).algebra, id="Q8"),
    pytest.param(lambda: build_G(9, 5).algebra, id="G9,5"),
    pytest.param(lambda: random_adapted_deformation(build_Q(8), 3).algebra, id="Q8-deformed"),
    pytest.param(lambda: random_adapted_deformation(build_G(9, 5), 4).algebra, id="G9,5-deformed"),
]


class TestConstantTypes:
    @pytest.mark.parametrize("build", INTEGRAL_BUILDS)
    def test_builders_give_int_constants(self, build):
        g = build()
        assert g.brackets
        assert {type(c) for coeffs in g.brackets.values() for c in coeffs.values()} == {int}
        assert g == as_fractions(g)

    def test_integral_fraction_becomes_int(self):
        g = LieAlgebra(3, None, {(0, 1): {2: Fraction(4, 2)}})
        assert g.brackets == {(0, 1): {2: 2}}
        assert type(g.brackets[(0, 1)][2]) is int
        assert type(g.structure_coeffs(1, 0)[2]) is int

    def test_non_integral_fraction_stays_exact(self):
        g = LieAlgebra(3, None, {(0, 1): {2: Fraction(1, 2)}, (0, 2): {1: Fraction(-6, 3)}})
        assert g.brackets == {(0, 1): {2: Fraction(1, 2)}, (0, 2): {1: -2}}
        assert type(g.brackets[(0, 1)][2]) is Fraction
        assert type(g.brackets[(0, 2)][1]) is int

    @pytest.mark.parametrize("build", INTEGRAL_BUILDS[:3] + [
        pytest.param(lambda: change_basis(build_free_nilpotent(2, 4).algebra, rational_basis_change(8)),
                     id="F2,4-rational"),
    ])
    def test_serialized_bytes_do_not_depend_on_the_input_type(self, build):
        g = build()
        payload = dumps(algebra_to_dict(g))
        assert dumps(algebra_to_dict(as_fractions(g))) == payload
        assert dumps(algebra_to_dict(algebra_from_dict(algebra_to_dict(g)))) == payload


class TestJacobi:
    def test_valid_algebras(self):
        assert check_jacobi(heisenberg()) is None
        assert check_jacobi(two_step_free()) is None
        assert check_jacobi(LieAlgebra(4)) is None

    def test_detects_violation(self):
        bad = LieAlgebra(3, None, {(0, 1): {2: 1}, (0, 2): {1: 1}, (1, 2): {1: 1}})
        violation = check_jacobi(bad)
        assert violation is not None
        triple, residual = violation
        assert triple == (0, 1, 2)
        assert residual == [Fraction(0), Fraction(0), Fraction(1)]

    def test_matches_all_triples_oracle(self):
        rng = random.Random(11)
        violating = 0
        for _ in range(150):
            n = rng.randint(3, 7)
            for g in (random_algebra(rng, n), random_two_step(rng, n)):
                expected = jacobi_oracle(g)
                violating += expected is not None
                assert check_jacobi(g) == expected
        assert 30 <= violating <= 150

    def test_perturbed_built_algebras_match_oracle(self):
        rng = random.Random(12)
        for g in built_algebras():
            assert check_jacobi(g) is None
            for _ in range(4):
                bad = perturbed(rng, g)
                assert check_jacobi(bad) == jacobi_oracle(bad)


class TestSubspace:
    def test_canonical_basis(self):
        a = Subspace.from_vectors(3, [[2, 4, 0], [0, 0, 3]])
        b = Subspace.from_vectors(3, [[1, 2, 1], [0, 0, -1]])
        assert a == b
        assert a.basis == (
            (Fraction(1), Fraction(2), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        )

    def test_membership_and_sum(self):
        s = Subspace.from_vectors(3, [[1, 1, 0]])
        assert s.contains_vector([2, 2, 0])
        assert not s.contains_vector([1, 0, 0])
        t = s.sum_with(Subspace.from_vectors(3, [[0, 0, 1]]))
        assert t.dim == 2
        assert t.contains(s)
        assert not s.contains(t)
        assert Subspace.full(3).contains(t)
        assert t.contains(Subspace.zero(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.from_vectors(3, [[1, 2]])


class TestCenter:
    def test_heisenberg(self):
        z = center(heisenberg())
        assert z.dim == 1
        assert z.contains_vector([0, 0, 1])

    def test_matches_constraint_oracle(self):
        abelian_plus = LieAlgebra(4, None, {(0, 1): {2: 1}})  # h3 + line
        f34 = build_free_nilpotent(3, 4).algebra
        f34_rational = change_basis(f34, rational_basis_change(f34.dim))
        assert check_jacobi(f34_rational) is None
        for g in (heisenberg(), two_step_free(), LieAlgebra(3), abelian_plus, f34, f34_rational):
            assert center(g) == center_oracle(g)
        assert center(f34_rational).dim == center(f34).dim == 18

    def test_centralizer(self):
        g = heisenberg()
        c = centralizer(g, Subspace.from_vectors(3, [[1, 0, 0]]))
        assert c == Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 1]])
        assert centralizer(g, Subspace.zero(3)) == Subspace.full(3)

    def test_centralizer_of_non_coordinate_subspace(self):
        g = two_step_free()
        s = Subspace.from_vectors(5, [[1, 1, 0, 0, 0], [0, 0, 2, Fraction(1, 3), 0]])
        c = centralizer(g, s)
        assert c == centralizer_oracle(g, s.basis)
        assert c == Subspace.from_vectors(5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])

    def test_zero_algebra(self):
        assert center(LieAlgebra(0)).dim == 0

    def test_dimension_from_the_rank_of_ad(self):
        # index() reads dim z(g) as n - rank(ad); center() builds the basis.
        families = (_CORPUS.free, _CORPUS.explicit, _CORPUS.meta, _CORPUS.graphs, _CORPUS.filiform)
        corpus = [e.algebra for family in families for e in family.values()]
        assert len(corpus) == 220
        l5, f34, m34 = build_L(5).algebra, build_free_nilpotent(3, 4).algebra, build_metabelian(3, 4).algebra
        copies = [shifted(l5), shifted(f34), shifted(m34), rescaled(f34), rescaled(shifted(m34))]
        assert any(type(c) is Fraction for g in copies for cc in g.brackets.values() for c in cc.values())
        for g in corpus + copies + [LieAlgebra(0), LieAlgebra(3)]:
            assert _center_dim(g) == center(g).dim, g


class TestSeries:
    def test_lower_central_series(self):
        dims = [s.dim for s in lower_central_series(two_step_free())]
        assert dims == [5, 3, 2, 0]
        assert nilpotency_class(two_step_free()) == 3
        assert nilpotency_class(heisenberg()) == 2
        assert nilpotency_class(LieAlgebra(2)) == 1
        assert nilpotency_class(LieAlgebra(0)) == 0

    def test_not_nilpotent(self):
        # [e0, e1] = e1 is solvable but not nilpotent.
        g = LieAlgebra(2, None, {(0, 1): {1: 1}})
        assert check_jacobi(g) is None
        with pytest.raises(ValueError):
            nilpotency_class(g)

    def test_derived_pair(self):
        d1, d2 = derived_subalgebra_pair(two_step_free())
        assert (d1.dim, d2.dim) == (3, 0)


class TestSubalgebras:
    def test_abelian_witness(self):
        g = two_step_free()
        assert abelian_witness(g, Subspace.from_vectors(5, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]])) is None
        w = abelian_witness(g, Subspace.full(5))
        assert w is not None
        u, v = w
        assert any(g.bracket(u, v))
        assert abelian_witness(g, Subspace.zero(5)) is None

    @pytest.mark.parametrize(
        "call",
        [
            centralizer,
            abelian_witness,
            ooms_criterion,
            lambda g, h: alpha_sandwich(g, h, chi=1),
        ],
        ids=["centralizer", "abelian_witness", "ooms_criterion", "alpha_sandwich"],
    )
    def test_subspace_of_another_ambient_space(self, call):
        # span(e3) in Q^4 is no subspace of the 3-dimensional Heisenberg
        # algebra; each call once answered as if it were.
        h = Subspace.from_vectors(4, [[0, 0, 1, 0]])
        with pytest.raises(ValueError, match=r"subspace of Q\^4 is not in an algebra of dimension 3"):
            call(heisenberg(), h)
