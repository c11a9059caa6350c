import hashlib
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from lieindex import algebra as algebra_module
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
from lieindex.index import LinearFunctional, alpha_sandwich, index, ooms_criterion, stabilizer
from lieindex.linalg import SparseEchelon
from lieindex.serialize import (
    algebra_from_dict,
    algebra_to_dict,
    dumps,
    format_scalar,
    report_to_dict,
    stabilizer_to_dict,
)

from families import (
    ad_table,
    assert_exact,
    bracket_oracle,
    calls_to,
    catalogue_algebras,
    center_oracle,
    centralizer_oracle,
    change_basis,
    heisenberg,
    jacobi_oracle,
    rational_basis_change,
    rescaled_basis,
    shifted_basis,
)


def two_step_free():
    # Two generators, class 3: basis x1, x2, [x1,x2], [x1,[x1,x2]], [x2,[x1,x2]].
    return LieAlgebra(
        5, None, {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}
    )


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
        # Indices are ints: a float coefficient index was once truncated
        # ({1.5: 1} stored as {1: 1}), and a float bracket key made index() raise TypeError.
        for brackets in (
            {(0, 1): {1.5: 1}},
            {(0, 1): {2.0: 1}},
            {(0.5, 1): {2: 1}},
            {(0, 1.0): {2: 1}},
            {(False, True): {2: 1}},
            {(0, 1): {True: 1}},
            {(0, 1): {"2": 1}},
        ):
            with pytest.raises(ValueError, match="must be integers|must be an integer"):
                LieAlgebra(3, None, brackets)

    def test_dimension_is_an_int(self):
        # True built a dim-1 algebra printed as "dim": true; a numpy dim did not serialize.
        for dim in (True, False, 2.0, "3", Fraction(3)):
            with pytest.raises(ValueError, match=re.escape(f"dimension must be an int, got {dim!r}")):
                LieAlgebra(dim)
        with pytest.raises(ValueError, match="dimension must be nonnegative"):
            LieAlgebra(-1)
        g, plain = (LieAlgebra(d, None, {(0, 1): {2: 1}}) for d in (np.int64(3), 3))
        assert type(g.dim) is int and g == plain
        assert dumps(algebra_to_dict(g)) == dumps(algebra_to_dict(plain))
        assert dumps(report_to_dict(index(g))) == dumps(report_to_dict(index(plain)))

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
        x = {0: Fraction(2), 1: Fraction(1)}
        y = {0: Fraction(1), 1: Fraction(3), 2: Fraction(5)}
        # [2x1 + x2, x1 + 3x2 + 5x3] = (2*3 - 1*1) [x1, x2]
        assert g.sparse_bracket(x, y) == bracket_oracle(g, x, y) == {2: 5}
        assert g.sparse_bracket(y, x) == {2: -5}

    def test_ad_images_match_ad_vector(self):
        rng = random.Random(5)
        for g in built_algebras():
            for _ in range(10):
                # Zero coefficients may occur in v; they contribute nothing.
                v = {m: random_rational(rng) for m in rng.sample(range(g.dim), rng.randint(1, 3))}
                images = dict(enumerate(ad_table(g, v)))
                assert g.ad_images(v) == {a: w for a, w in images.items() if w}
                assert all(g.sparse_bracket({a: 1}, v) == w for a, w in images.items())
        # [x0, x1 - x2] cancels to zero and is left out.
        g = LieAlgebra(4, None, {(0, 1): {3: 1}, (0, 2): {3: 1}})
        assert g.ad_images({1: Fraction(1), 2: Fraction(-1)}) == {}

    def test_ad_vector(self):
        # ad x_i applied to a sparse v is sparse_bracket({i: 1}, v).
        g = two_step_free()
        cases = [(0, {1: Fraction(2)}, {2: Fraction(2)}),
                 (0, {1: Fraction(2), 2: Fraction(0)}, {2: Fraction(2)}),
                 (2, {0: Fraction(1), 1: Fraction(1)}, {3: Fraction(-1), 4: Fraction(-1)})]
        for i, v, expected in cases:
            assert ad_table(g, v)[i] == g.sparse_bracket({i: 1}, v) == expected
        # Two terms of u cancel: [x0 + x1, x0 - x1] = -2 [x0, x1].
        assert g.sparse_bracket({0: 1, 1: 1}, {0: 1, 1: -1}) == {2: -2}
        assert g.sparse_bracket({0: 1, 1: 1}, {0: 1, 1: 1}) == {}


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

    def test_numpy_integers_become_int(self):
        g = LieAlgebra(3, None, {(0, 1): {2: np.int64(3)}})
        assert type(g.brackets[(0, 1)][2]) is int
        assert LinearFunctional.of([np.int64(1), 0, 0]).coords == (1, 0, 0)

    def test_non_integral_fraction_stays_exact(self):
        g = LieAlgebra(3, None, {(0, 1): {2: Fraction(1, 2)}, (0, 2): {1: Fraction(-6, 3)}})
        assert g.brackets == {(0, 1): {2: Fraction(1, 2)}, (0, 2): {1: -2}}
        assert type(g.brackets[(0, 1)][2]) is Fraction
        assert type(g.brackets[(0, 2)][1]) is int

    @pytest.mark.parametrize("c", [0.1, 2.0, True, False, pytest.param("0.1", id="str"),
                                   pytest.param(Decimal("0.1"), id="Decimal")])
    def test_floats_and_bools_are_refused(self, c):
        # 0.1 was stored as its binary expansion, 3602879701896397/36028797018963968.
        # Fraction(c) also parses decimal notation, which algebra_from_dict refuses.
        with pytest.raises(ValueError, match=r"^coefficient 2 of bracket \(0,1\) must be an int or Fraction, got "):
            LieAlgebra(3, None, {(0, 1): {2: c}})

    @pytest.mark.parametrize("build", INTEGRAL_BUILDS[:3] + [
        pytest.param(lambda: change_basis(build_free_nilpotent(2, 4).algebra, rational_basis_change(8)),
                     id="F2,4-rational"),
    ])
    def test_serialized_bytes_do_not_depend_on_the_input_type(self, build):
        g = build()
        payload = dumps(algebra_to_dict(g))
        assert dumps(algebra_to_dict(as_fractions(g))) == payload
        assert dumps(algebra_to_dict(algebra_from_dict(algebra_to_dict(g)))) == payload


class TestValueRepresentation:
    # Sparse values are ints when integral and Fractions otherwise; no result and
    # no printed byte depends on which.
    def test_subspace_equality_ignores_the_representation(self):
        assert Subspace(2, ({0: 1},)) == Subspace(2, ({0: Fraction(1)},))
        assert Subspace.full(2) == Subspace(2, ({0: Fraction(1)}, {1: Fraction(1)}))
        assert Subspace.full(2).basis == ((1, 0), (0, 1))
        assert all(type(x) is Fraction for v in Subspace.full(2).basis for x in v)

    def test_integral_quotients_of_fraction_rows_are_ints(self):
        # Rows (3/2, 1/2, 0) and (0, 4/3, 2/3): the rref rows are (3, 1, 0) and
        # (-6, 0, 1), the kernel is spanned by (1, -3, 6), and (1/2, 3/2, 0)
        # reduces to (-4, 0, 0).
        ech = SparseEchelon([{0: Fraction(3, 2), 1: Fraction(1, 2)}, {1: Fraction(4, 3), 2: Fraction(2, 3)}])
        red, kernel, reduced = ech.rref(), ech.kernel(3), ech.reduce({0: Fraction(1, 2), 1: Fraction(3, 2)})
        assert (red, kernel, reduced) == ({1: {1: 1, 0: 3}, 2: {2: 1, 0: -6}}, ({0: 1, 1: -3, 2: 6},), {0: -4})
        assert {type(x) for row in (*red.values(), *kernel, reduced) for x in row.values()} == {int}
        assert_exact(ech.reduce({0: Fraction(1, 3)}).values())

    def test_stabilizer_bytes_of_a_rational_functional(self):
        g = build_free_nilpotent(2, 4).algebra
        ell = LinearFunctional.of([Fraction(1, 2), 0, -3, Fraction(2, 3), 1, 0, Fraction(-5, 4), Fraction(6, 3)])
        assert dumps(stabilizer_to_dict(ell, stabilizer(g, ell))) == (
            '{"dim":8,"form_rank":4,"functional":{"coords":["1/2","0","-3","2/3","1","0","-5/4","2"]},'
            '"stabilizer_basis":[["0","0","1","124/75","8/15","0","0","0"],["0","0","0","0","0","1","0","0"],'
            '["0","0","0","0","0","0","1","0"],["0","0","0","0","0","0","0","1"]],"stabilizer_dim":4}'
        )
        g = build_G(7, 5).algebra
        ell = LinearFunctional.of([Fraction(1, 2), 0, -3, Fraction(2, 3), 1, 5, Fraction(-5, 4)])
        assert dumps(stabilizer_to_dict(ell, stabilizer(g, ell))) == (
            '{"dim":7,"form_rank":4,"functional":{"coords":["1/2","0","-3","2/3","1","5","-5/4"]},'
            '"stabilizer_basis":[["0","0","0","1","0","4/5","0"],["0","0","0","0","1","4","0"],'
            '["0","0","0","0","0","0","1"]],"stabilizer_dim":3}'
        )

    def test_integer_functional_matches_its_fraction_copy(self):
        for g in (build_free_nilpotent(2, 4).algebra, change_basis(build_metabelian(3, 4).algebra, shifted_basis(29))):
            ell = index(g, want_witness=True).witness
            assert {type(c) for c in ell.coords} == {int}
            copy = LinearFunctional(tuple(map(Fraction, ell.coords)))
            assert copy == ell
            assert dumps(stabilizer_to_dict(copy, stabilizer(g, copy))) == dumps(stabilizer_to_dict(ell, stabilizer(g, ell)))


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
        assert residual == {2: 1}

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
        s = Subspace.span(3, [{0: 1, 1: 1}])
        assert s.contains(Subspace.span(3, [{0: 2, 1: 2}]))
        assert not s.contains(Subspace.span(3, [{0: 1}]))
        t = Subspace.span(3, s.rows + ({2: 1},))
        assert t.dim == 2 and t == Subspace.from_vectors(3, [[1, 1, 0], [0, 0, 1]])
        assert t.contains(s)
        assert not s.contains(t)
        assert Subspace.full(3).contains(t)
        assert t.contains(Subspace.zero(3))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.from_vectors(3, [[1, 2]])

    @pytest.mark.parametrize("x", [0.5, 1.0, True, pytest.param("1", id="str"),
                                   pytest.param(Decimal("1"), id="Decimal")])
    def test_from_vectors_refuses_inexact_values(self, x):
        # 1.0 was stored as a float row value, and True and "1" went through.
        with pytest.raises(ValueError, match=r"^coordinate 0 of vector 1 must be an int or Fraction, got "):
            Subspace.from_vectors(3, [[0, 0, 1], [x, 0, 0]])

    def test_from_vectors_stores_exact_values(self):
        s = Subspace.from_vectors(3, [[np.int64(2), Fraction(4, 2), 0], [0, 0, Fraction(3, 1)]])
        assert s.rows == ({0: 1, 1: 1}, {2: 1})
        assert {type(x) for row in s.rows for x in row.values()} == {int}
        assert Subspace.from_vectors(2, [[Fraction(1, 2), 1]]).rows == ({0: 1, 1: 2},)

    def test_containment_across_ambient_dimensions_is_refused(self):
        a = Subspace.from_vectors(2, [[1, 0]])
        for call in (
            lambda: a.contains(Subspace.from_vectors(3, [[0, 0, 1]])),
            lambda: a.contains(Subspace.from_vectors(3, [[1, 0, 0]])),
            lambda: a.contains(Subspace.zero(3)),
            lambda: Subspace.from_vectors(2, [[1, 0, 5]]),
        ):
            with pytest.raises(ValueError, match="does not match ambient dimension"):
                call()

    def test_rows_are_sparse_rref(self):
        s = Subspace.from_vectors(4, [[0, 2, 4, 0], [0, 0, 0, 3], [0, 1, 2, 5]])
        assert s.rows == ({1: 1, 2: 2}, {3: 1})
        assert_exact(x for row in s.rows for x in row.values())
        assert Subspace.full(2).rows == ({0: 1}, {1: 1})
        assert center(heisenberg()).rows == ({2: 1},)

    def test_subspace_bytes_stable(self):
        # The stabilizer report and the dense bases of the series, the derived pair,
        # the center and the centralizer of [g, g], on coordinate and shifted bases.
        def dense(s):
            return [[format_scalar(c) for c in v] for v in s.basis]

        algebras = [
            build_free_nilpotent(4, 4).algebra,
            build_free_nilpotent(3, 5).algebra,
            build_metabelian(3, 5).algebra,
            change_basis(build_free_nilpotent(3, 4).algebra, shifted_basis(32)),
            change_basis(build_metabelian(3, 4).algebra, shifted_basis(29)),
            build_G(11, 5).algebra,
        ]
        out = []
        for g in algebras:
            d1, d2 = derived_subalgebra_pair(g)
            ell = index(g, want_witness=True).witness
            out.append([
                stabilizer_to_dict(ell, stabilizer(g, ell)),
                [dense(s) for s in lower_central_series(g)],
                [dense(d1), dense(d2)],
                dense(center(g)),
                dense(centralizer(g, d1)),
            ])
        assert hashlib.sha256(dumps(out).encode()).hexdigest() == (
            "eca3379ad8ab3205093e8193467c10bb8c7682bf91dbb34ac927eef44815d9bf"
        )


class TestCenter:
    def test_heisenberg(self):
        z = center(heisenberg())
        assert z.dim == 1
        assert z.contains(Subspace.span(3, [{2: 1}]))

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
        assert c == centralizer_oracle(g, s.rows)
        assert c == Subspace.from_vectors(5, [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])

    def test_zero_algebra(self):
        assert center(LieAlgebra(0)).dim == 0

    @pytest.mark.parametrize(
        "build",
        [lambda: change_basis(build_free_nilpotent(3, 4).algebra, rational_basis_change(32)),
         lambda: change_basis(build_metabelian(3, 4).algebra, shifted_basis(29))],
        ids=["F(3,4)-rational", "M(3,4)-shifted"],
    )
    def test_walks_match_references(self, build, monkeypatch):
        # Each term of the lower central series and [g, g]: their basis rows
        # have several terms, whose brackets cancel in sums.
        g = build()
        subspaces = lower_central_series(g) + [derived_subalgebra_pair(g)[0]]
        built = []

        def watched(rows, p=0):
            rows = list(rows)
            built.extend(rows)
            return echelon(rows, p)

        echelon = algebra_module.SparseEchelon
        monkeypatch.setattr(algebra_module, "SparseEchelon", watched)
        cancelled = 0
        for u in subspaces:
            built.clear()
            c = centralizer(g, u)
            cancelled += any(0 in row.values() for row in built)
            assert c == centralizer_oracle(g, u.rows)
        assert cancelled  # some row (t, k) holds a sum that came to zero
        for u in subspaces:
            rows = u.rows
            for p in range(len(rows)):
                for q in range(p, min(len(rows), p + 4)):
                    assert g.sparse_bracket(rows[p], rows[q]) == bracket_oracle(g, rows[p], rows[q])

    def test_dimension_from_the_rank_of_ad(self, monkeypatch):
        # index() reads dim z(g) as n - rank(ad), or as n minus the count of
        # nonzero rows ad x_i when their leads are distinct; center() builds the basis.
        corpus = [g for _, g in catalogue_algebras()]
        assert len(corpus) == 220
        l5, f34, m34 = build_L(5).algebra, build_free_nilpotent(3, 4).algebra, build_metabelian(3, 4).algebra
        copies = [change_basis(g, shifted_basis(g.dim)) for g in (l5, f34, m34)]
        copies += [change_basis(f34, rescaled_basis(32)), change_basis(copies[2], rescaled_basis(29))]
        assert any(type(c) is Fraction for g in copies for cc in g.brackets.values() for c in cc.values())
        ranked = calls_to(monkeypatch, algebra_module, "rank")
        for g in corpus + copies + [LieAlgebra(0), LieAlgebra(3)]:
            assert _center_dim(g) == center(g).dim, g
        assert 0 < len(ranked) < len(corpus) + len(copies)  # both branches run

    def test_distinct_leads_need_no_elimination(self, monkeypatch):
        def refused(rows):
            raise AssertionError("rank(ad) called")

        algebras = [build_free_nilpotent(4, 4).algebra, build_free_nilpotent(3, 5).algebra,
                    build_metabelian(3, 5).algebra]
        monkeypatch.setattr(algebra_module, "rank", refused)
        assert [_center_dim(g) for g in algebras] == [60, 48, 24]

    def test_colliding_leads_fall_back_to_the_rank(self):
        # ad x0 = -ad x1 share their lead, so z = span{x0 + x1, x3} is no
        # coordinate subspace and only one row of ad is empty.
        g = LieAlgebra(4, None, {(0, 2): {3: 1}, (1, 2): {3: -1}})
        assert check_jacobi(g) is None
        assert _center_dim(g) == center(g).dim == index(g).center_dim == 2
        assert center(g) == Subspace.from_vectors(4, [[1, 1, 0, 0], [0, 0, 0, 1]])


class TestSeries:
    def test_lower_central_series(self):
        dims = [s.dim for s in lower_central_series(two_step_free())]
        assert dims == [5, 3, 2, 0]
        assert nilpotency_class(two_step_free()) == 3
        assert nilpotency_class(heisenberg()) == 2
        assert nilpotency_class(LieAlgebra(2)) == 1
        assert nilpotency_class(LieAlgebra(0)) == 0

    def test_zero_algebra_series_ends_at_its_first_zero(self):
        assert [s.dim for s in lower_central_series(LieAlgebra(0))] == [0]
        assert [s.dim for s in lower_central_series(LieAlgebra(2))] == [2, 0]

    def test_not_nilpotent(self):
        # [e0, e1] = e1 is solvable but not nilpotent: the series ends at its repeat.
        g = LieAlgebra(2, None, {(0, 1): {1: 1}})
        assert check_jacobi(g) is None
        assert [s.dim for s in lower_central_series(g)] == [2, 1, 1]
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
        assert bracket_oracle(g, dict(enumerate(u)), dict(enumerate(v)))
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
