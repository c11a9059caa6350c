import hashlib
import math
from fractions import Fraction
from itertools import count

import numpy as np
import pytest
import sympy

from lieindex import free_nilpotent
from lieindex.algebra import (
    Subspace,
    center,
    check_jacobi,
    derived_subalgebra_pair,
    lower_central_series,
    nilpotency_class,
)
from lieindex.free_nilpotent import (
    HallBuilder,
    ResourceLimitError,
    build_fg3_explicit_basis,
    build_free_nilpotent,
    build_metabelian,
    mobius,
    tree_label,
    witt_dimension,
    witt_layer,
)
from lieindex.index import index
from lieindex.serialize import algebra_to_dict, dumps

from families import jacobi_oracle


def weight(t) -> int:
    return 1 if isinstance(t, int) else weight(t[0]) + weight(t[1])


def assert_layers_by_weight(built, top):
    """Check that layer_range(w) holds exactly the trees of weight w, up to top."""
    for w in range(1, top + 1):
        assert list(built.layer_range(w)) == [
            i for i, t in enumerate(built.trees) if weight(t) == w
        ], w


class TestWitt:
    def test_mobius_against_sympy(self):
        for n in range(1, 200):
            assert mobius(n) == sympy.mobius(n)
        with pytest.raises(ValueError):
            mobius(0)

    def test_layer_values(self):
        assert [witt_layer(2, m) for m in range(1, 6)] == [2, 1, 2, 3, 6]
        assert [witt_layer(3, m) for m in range(1, 5)] == [3, 3, 8, 18]
        assert witt_layer(4, 3) == 20
        assert witt_layer(1, 1) == 1
        assert witt_layer(1, 2) == 0

    def test_total_dimensions(self):
        assert witt_dimension(2, 3) == (5, 2)
        assert witt_dimension(3, 3) == (14, 8)
        assert witt_dimension(2, 4) == (8, 3)
        assert witt_dimension(3, 4) == (32, 18)
        assert witt_dimension(4, 4) == (90, 60)
        assert witt_dimension(3, 5) == (80, 48)
        assert witt_dimension(5, 5) == (829, 624)
        with pytest.raises(ValueError):
            witt_dimension(0, 3)
        with pytest.raises(ValueError):
            witt_dimension(2, 0)

    def test_counts_are_ints(self):
        # witt_dimension(2.5, 2) once raised a RuntimeError about the Witt sum.
        for g, c in ((2.5, 2), (True, 3), (2, 3.0), (np.int64(2), True)):
            with pytest.raises(ValueError, match="must be an int"):
                witt_dimension(g, c)
        assert witt_dimension(np.int64(3), np.int64(3)) == (14, 8)

    def test_mobius_and_layer_arguments_are_checked(self):
        # mobius(True) once gave 1 and mobius(2.5) -1; witt_layer(2.5, 2) raised a
        # RuntimeError, witt_layer(2, 0) a ZeroDivisionError, and witt_layer(2, -1) gave 0.
        for n in (True, 2.5, "3"):
            with pytest.raises(ValueError, match=f"^n must be an int, got {n!r}$"):
                mobius(n)
        for g, m in ((2.5, 2), (True, 2), (2, 2.0), (2, False)):
            with pytest.raises(ValueError, match="must be an int"):
                witt_layer(g, m)
        for g, m in ((2, 0), (2, -1), (-1, 2)):
            with pytest.raises(ValueError, match="need g >= 0 generators and weight m >= 1"):
                witt_layer(g, m)
        assert mobius(np.int64(30)) == -1
        assert witt_layer(np.int64(2), np.int64(5)) == 6
        assert [witt_layer(0, m) for m in (1, 2, 3)] == [0, 0, 0]


class TestTrees:
    def test_label(self):
        assert tree_label((0, (1, 2)), ["x1", "x2", "x3"]) == "[x1,[x2,x3]]"
        assert tree_label(2, ["a", "b", "c"]) == "c"

    def test_layers_hold_the_trees_of_their_weight(self):
        for built, c in [
            (build_free_nilpotent(3, 4), 4),
            (build_free_nilpotent(1, 5), 5),
            (build_fg3_explicit_basis(4), 3),
        ]:
            assert_layers_by_weight(built, c + 1)

    def test_construction_bytes_stable(self):
        # sha256 over the algebra, the trees and the layer sizes of every
        # F(g, c) and M(g, c) with g = 2..6 and dim <= 500, g = 1 with c <= 12,
        # and the explicit class-3 bases on 2..6 generators, in that order.
        def builds():
            for c in range(1, 13):
                yield build_free_nilpotent(1, c), c
                yield build_metabelian(1, c), c
            for g in range(2, 7):
                for build in (build_free_nilpotent, build_metabelian):
                    for c in count(1):
                        try:
                            built = build(g, c)
                        except ResourceLimitError:
                            break
                        yield built, c
            for g in range(2, 7):
                yield build_fg3_explicit_basis(g), 3

        digest = hashlib.sha256()
        n = 0
        for built, c in builds():
            sizes = [len(built.layer_range(w)) for w in range(1, c + 1)]
            digest.update(dumps([algebra_to_dict(built.algebra), built.trees, sizes]).encode())
            n += 1
        assert n == 117
        assert digest.hexdigest() == "12cd763bc76e4606b2268902a0f778b77a6fb61797f049ea54cd45148ee72353"


class TestFreeNilpotent:
    def test_f23_structure_constants(self):
        built = build_free_nilpotent(2, 3)
        assert built.dim == 5
        assert built.algebra.labels == (
            "x1",
            "x2",
            "[x1,x2]",
            "[x1,[x1,x2]]",
            "[x2,[x1,x2]]",
        )
        assert built.algebra.brackets == {
            (0, 1): {2: Fraction(1)},
            (0, 2): {3: Fraction(1)},
            (1, 2): {4: Fraction(1)},
        }

    def test_layers_match_witt(self):
        for g, c in [(2, 3), (3, 3), (2, 4), (3, 4), (2, 5)]:
            built = build_free_nilpotent(g, c)
            for w in range(1, c + 1):
                assert len(built.layer_range(w)) == witt_layer(g, w)
            assert built.dim == witt_dimension(g, c)[0]

    def test_jacobi(self):
        for g, c in [(2, 4), (3, 3), (3, 4), (2, 5)]:
            assert check_jacobi(build_free_nilpotent(g, c).algebra) is None

    def test_center_is_top_layer(self):
        for g, c in [(2, 3), (3, 3), (2, 4), (3, 4)]:
            built = build_free_nilpotent(g, c)
            alg = built.algebra
            top = Subspace.span(alg.dim, ({i: 1} for i in built.layer_range(c)))
            assert center(alg) == top

    def test_series_dims_are_layer_suffix_sums(self):
        built = build_free_nilpotent(3, 3)
        dims = [s.dim for s in lower_central_series(built.algebra)]
        assert dims == [14, 11, 8, 0]

    def test_resource_guard(self, monkeypatch):
        with pytest.raises(ResourceLimitError):
            build_free_nilpotent(5, 5)
        # F(3,7) (dimension 508) and M(3,12) (641) are just above the cap of
        # 500: each builder checks its own dimension before any Hall work.
        monkeypatch.setattr(free_nilpotent, "HallBuilder", None)
        with pytest.raises(ResourceLimitError, match="dimension 508, above the ceiling 500"):
            build_free_nilpotent(3, 7)
        with pytest.raises(ResourceLimitError, match="dimension 641, above the ceiling 500"):
            build_metabelian(3, 12)

    def test_counts_are_ints(self):
        # True once built as 1; a numpy count builds as the plain int does.
        for build, g, c in ((build_free_nilpotent, True, 3), (build_metabelian, 2, True),
                            (build_free_nilpotent, 2.0, 3), (build_metabelian, 2, "3")):
            with pytest.raises(ValueError, match="must be an int"):
                build(g, c)
        for build in (build_free_nilpotent, build_metabelian):
            ours, plain = build(np.int64(2), np.int64(4)), build(2, 4)
            assert ours.algebra == plain.algebra and ours.layer_offsets == plain.layer_offsets
            assert dumps(algebra_to_dict(ours.algebra)) == dumps(algebra_to_dict(plain.algebra))

    def test_builder_memo_is_order_independent(self):
        g, c = 3, 3
        forward = HallBuilder(g, c)
        backward = HallBuilder(g, c)
        n = len(forward.basis)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        got_f = {p: forward.bracket_coeffs(*p) for p in pairs}
        got_b = {p: backward.bracket_coeffs(*p) for p in reversed(pairs)}
        assert got_f == got_b

    def test_generator_brackets_have_no_relations(self):
        # Weight-2 layer of the free algebra: [xi, xj] for i < j are a basis.
        built = build_free_nilpotent(4, 2)
        assert built.dim == 4 + 6
        seen = set()
        for i in range(4):
            for j in range(i + 1, 4):
                coeffs = built.algebra.structure_coeffs(i, j)
                assert len(coeffs) == 1 and set(coeffs.values()) == {Fraction(1)}
                seen.add(next(iter(coeffs)))
        assert seen == set(range(4, 10))


class TestMetabelian:
    def test_dimensions(self):
        assert build_metabelian(3, 3).dim == 14
        assert build_metabelian(3, 4).dim == 29
        assert build_metabelian(4, 3).dim == 30
        assert build_metabelian(2, 6).dim == 17

    def test_low_class_equals_free(self):
        # No derived-of-derived brackets below class 4.
        assert build_metabelian(3, 3).algebra == build_free_nilpotent(3, 3).algebra

    def test_derived_subalgebra_is_abelian(self):
        for g, c in [(2, 4), (2, 5), (3, 4)]:
            meta = build_metabelian(g, c)
            assert check_jacobi(meta.algebra) is None
            d1, d2 = derived_subalgebra_pair(meta.algebra)
            assert d2.dim == 0
            free = build_free_nilpotent(g, c)
            _, free_d2 = derived_subalgebra_pair(free.algebra)
            assert meta.dim == free.dim - free_d2.dim

    def test_layer_offsets(self):
        meta = build_metabelian(2, 4)
        assert [len(meta.layer_range(w)) for w in range(1, 5)] == [2, 1, 2, 3]

    def test_one_generator_stops_at_the_empty_layer(self):
        # Every layer past the first is empty; each still has its range.  The
        # offsets end past the last nonempty layer, so no list has c entries.
        for build in (build_free_nilpotent, build_metabelian):
            built = build(1, 50)
            assert built.dim == 1 and built.algebra.brackets == {}
            assert [len(built.layer_range(w)) for w in range(1, 51)] == [1] + [0] * 49
            huge = build(1, 10**13)
            assert huge.trees == [0] and huge.layer_offsets == [0, 1]
            assert len(huge.layer_range(10**13)) == 0

    def test_comb_layers_match_bahturin(self):
        # Layer k of M(g, c) has dimension (k-1) C(g+k-2, k) for k >= 2; the
        # comb trees count it for every g, c >= 2 with dim M(g, c) <= 500.
        checked = 0
        for g in range(2, 32):  # dim M(32, 2) = 528
            for c in range(2, 500):
                sizes = [g] + [(k - 1) * math.comb(g + k - 2, k) for k in range(2, c + 1)]
                if sum(sizes) > 500:
                    break
                layers = free_nilpotent._CombBuilder(g, c).layers
                assert [len(layer) for layer in layers[1:]] == sizes, (g, c)
                checked += 1
        assert checked == 82

    def test_comb_rewriting_stays_on_the_comb_basis(self, monkeypatch):
        # Rewriting modulo [[F, F], [F, F]] never leaves the comb trees.
        builders = []

        class Recording(free_nilpotent._CombBuilder):
            def __init__(self, g, c):
                super().__init__(g, c)
                builders.append(self)

        monkeypatch.setattr(free_nilpotent, "_CombBuilder", Recording)
        for g, c in [(2, 8), (3, 5), (4, 5)]:
            basis = set(build_metabelian(g, c).trees)
            memo = builders.pop()._memo
            assert memo
            for (u, v), res in memo.items():
                assert {u, v} <= basis and set(res) <= basis, (g, c, u, v)

    def test_tree_labels_are_the_algebra_labels(self):
        for g, c in [(2, 6), (3, 5), (4, 4)]:
            meta = build_metabelian(g, c)
            gen_labels = [f"x{i + 1}" for i in range(g)]
            assert tuple(tree_label(t, gen_labels) for t in meta.trees) == meta.algebra.labels
            assert_layers_by_weight(meta, c)

    def test_reach_beyond_the_free_ceiling(self):
        # Each F(g, c) below is above the ceiling of 500; M(g, c) is not.
        # Thm 5.2: the index of M(g, c) is dim - 2g.
        for g, c, dim in [(5, 5, 384), (4, 6, 299), (2, 20, 192)]:
            alg = build_metabelian(g, c).algebra
            assert alg.dim == dim
            assert check_jacobi(alg) is None
            assert index(alg).index == dim - 2 * g
        alg = build_metabelian(3, 7).algebra
        assert alg.dim == 136
        assert nilpotency_class(alg) == 7
        d1, d2 = derived_subalgebra_pair(alg)
        assert d1.dim == 136 - 3 and d2.dim == 0


class TestExplicitClassThree:
    def test_matches_hall_route_in_size(self):
        for g in (2, 3, 4):
            built = build_fg3_explicit_basis(g)
            assert built.dim == witt_dimension(g, 3)[0]
            assert check_jacobi(built.algebra) is None

    def test_labels_and_rewrite(self):
        built = build_fg3_explicit_basis(3)
        labels = built.algebra.labels
        at = {s: i for i, s in enumerate(labels)}
        assert labels[:3] == ("x1", "x2", "x3")
        assert at["x_12"] < at["x_13"] < at["x_23"]
        # [x3, x_12] = -x_123 + x_213
        coeffs = built.algebra.structure_coeffs(at["x3"], at["x_12"])
        assert coeffs == {at["x_123"]: Fraction(-1), at["x_213"]: Fraction(1)}
        # [x1, x_23] stays a basis vector.
        assert built.algebra.structure_coeffs(at["x1"], at["x_23"]) == {
            at["x_123"]: Fraction(1)
        }

    def test_triple_ordering(self):
        built = build_fg3_explicit_basis(2)
        assert built.algebra.labels == ("x1", "x2", "x_12", "x_112", "x_212")

    def test_isomorphic_to_hall_route(self):
        # Same bracket values on generator pairs after matching dimensions,
        # plus equal lower-central-series dimensions.
        for g in (2, 3):
            a = build_fg3_explicit_basis(g).algebra
            b = build_free_nilpotent(g, 3).algebra
            assert [s.dim for s in lower_central_series(a)] == [
                s.dim for s in lower_central_series(b)
            ]

    def test_rejects_single_generator(self):
        with pytest.raises(ValueError):
            build_fg3_explicit_basis(1)

    def test_dimension_ceiling(self, monkeypatch):
        # g = 11 once built dim 506, and g = 12 died on two equal labels x_112
        # (the pair (1,12) and the triple (1,1,2)): the ceiling comes first now.
        assert build_fg3_explicit_basis(10).dim == 385
        monkeypatch.setattr(free_nilpotent, "LieAlgebra", None)
        for g, dim in ((11, 506), (12, 650)):
            with pytest.raises(ResourceLimitError, match=f"dimension {dim}, above the ceiling 500"):
                build_fg3_explicit_basis(g)

    def test_generator_count_is_an_int(self):
        for g in (True, 3.0, "3"):
            with pytest.raises(ValueError, match="generator count must be an int"):
                build_fg3_explicit_basis(g)
        built = build_fg3_explicit_basis(np.int64(3))
        assert built.algebra == build_fg3_explicit_basis(3).algebra
        assert dumps(algebra_to_dict(built.algebra)) == dumps(algebra_to_dict(build_fg3_explicit_basis(3).algebra))


def test_random_jacobi_spot_checks():
    # A larger build: every triple, bracketed off the stored constants by the test-side oracle.
    assert jacobi_oracle(build_free_nilpotent(4, 3).algebra) is None
