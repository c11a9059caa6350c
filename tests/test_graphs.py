import hashlib
import random
import re
from fractions import Fraction

import networkx as nx
import pytest

from lieindex.algebra import center, check_jacobi, nilpotency_class
from lieindex.free_nilpotent import build_free_nilpotent, build_metabelian
from lieindex.graphs import (
    SimpleGraph,
    build_graph_algebra,
    graph_index,
    matching_functional,
    matching_number,
    matching_number_exhaustive,
    validate_matching,
)
from lieindex.index import index, stabilizer
from lieindex.matching import blossom_matching

from families import catalogue_algebras, form_matrix


def complete(n):
    return SimpleGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


def path(n):
    return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle(n):
    return SimpleGraph(n, tuple(sorted((i, (i + 1) % n)) for i in range(n)))


def petersen():
    g = nx.petersen_graph()
    return SimpleGraph(10, tuple(tuple(sorted(e)) for e in g.edges()))


def nx_matching_number(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.vertex_count))
    g.add_edges_from(graph.edges)
    return len(nx.max_weight_matching(g, maxcardinality=True))


class TestSimpleGraph:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimpleGraph(3, ((0, 0),))
        with pytest.raises(ValueError):
            SimpleGraph(3, ((1, 0),))
        with pytest.raises(ValueError):
            SimpleGraph(3, ((0, 3),))
        with pytest.raises(ValueError):
            SimpleGraph(3, ((0, 1), (0, 1)))
        with pytest.raises(ValueError):
            SimpleGraph(-1, ())

    def test_edge_must_be_a_pair(self):
        for e in ((0, 1, 2), (0,)):
            with pytest.raises(ValueError, match=re.escape(f"edge {e!r} must be a pair")):
                SimpleGraph(3, (e,))

    def test_edges_are_sorted(self):
        g = SimpleGraph(4, ((2, 3), (0, 1)))
        assert g.edges == ((0, 1), (2, 3))

    def test_dict_round_trip(self):
        g = cycle(5)
        assert SimpleGraph.from_dict(g.to_dict()) == g
        with pytest.raises(ValueError):
            SimpleGraph.from_dict({"vertices": 3})
        with pytest.raises(ValueError):
            SimpleGraph.from_dict({"vertices": "3", "edges": []})


class TestGraphAlgebra:
    def test_triangle(self):
        alg = build_graph_algebra(complete(3))
        assert alg.dim == 6
        assert alg.labels == ("v1", "v2", "v3", "v1^v2", "v1^v3", "v2^v3")
        assert alg.brackets == {
            (0, 1): {3: Fraction(1)},
            (0, 2): {4: Fraction(1)},
            (1, 2): {5: Fraction(1)},
        }

    def test_two_step_with_edge_count_center(self):
        for g in (complete(4), path(5), cycle(6)):
            alg = build_graph_algebra(g)
            assert check_jacobi(alg) is None
            assert nilpotency_class(alg) == 2
            # Isolated vertices stay central; here every vertex has an edge.
            assert center(alg).dim == len(g.edges)

    def test_single_edge_is_heisenberg(self):
        alg = build_graph_algebra(SimpleGraph(2, ((0, 1),)))
        assert alg.dim == 3
        assert index(alg).index == 1


class TestMatching:
    def test_frozen_values(self):
        assert matching_number(complete(4))[0] == 2
        assert matching_number(cycle(5))[0] == 2
        assert matching_number(cycle(6))[0] == 3
        assert matching_number(path(7))[0] == 3
        assert matching_number(SimpleGraph(4, ()))[0] == 0
        assert matching_number(petersen())[0] == 5

    def test_matching_is_valid(self):
        for g in (complete(5), cycle(7), petersen()):
            m = matching_number(g)[1]
            validate_matching(g, m)  # must not raise

    def test_blossom_vs_exhaustive_and_networkx(self):
        rng = random.Random(2024)
        graphs = [complete(4), cycle(5), cycle(6), path(6), petersen()]
        for t in range(60):
            n = rng.randint(1, 9)
            edges = tuple(
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.45
            )
            graphs.append(SimpleGraph(n, edges))
        for g in graphs:
            nu = matching_number(g)[0]
            assert nu == matching_number_exhaustive(g)
            assert nu == nx_matching_number(g)

    @staticmethod
    def pruning_graphs(rng):
        """Graphs where searches fail and their trees are pruned: random graphs
        with n up to 60 at mixed densities, stars and unions of stars (many
        exposed vertices), and the bracket graphs of F(g,c) and M(g,c)."""
        graphs = []
        for _ in range(80):
            n = rng.randint(2, 60)
            density = rng.choice((0.03, 0.05, 0.08, 0.2, 0.5))
            graphs.append(SimpleGraph(n, tuple(
                (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density)))
        for _ in range(20):
            n = rng.randint(3, 60)
            hubs = rng.sample(range(n), rng.randint(1, min(4, n - 1)))
            edges = {tuple(sorted((h, v))) for h in hubs for v in range(n) if v != h and rng.random() < 0.6}
            graphs.append(SimpleGraph(n, tuple(sorted(edges))))
        for build, g, c in ((build_free_nilpotent, 2, 5), (build_free_nilpotent, 2, 8),
                            (build_free_nilpotent, 3, 4), (build_free_nilpotent, 3, 5),
                            (build_free_nilpotent, 4, 4), (build_free_nilpotent, 6, 3),
                            (build_metabelian, 3, 5), (build_metabelian, 4, 4)):
            alg = build(g, c).algebra
            assert alg.dim <= 200
            graphs.append(SimpleGraph(alg.dim, tuple(sorted(alg.brackets))))
        return graphs

    def test_pruned_blossom_vs_networkx(self):
        # blossom_matching drops the tree of each failed search.  A vertex still
        # exposed at the end was a root whose search failed, so every graph with
        # two such vertices among those with an edge searches past a pruned tree.
        graphs = self.pruning_graphs(random.Random(2727_27))
        pruned = 0
        for g in graphs:
            nu, m = matching_number(g)
            validate_matching(g, m)
            assert nu == nx_matching_number(g)
            if g.vertex_count <= 9:
                assert nu == matching_number_exhaustive(g)
            pruned += len({v for e in g.edges for v in e}) - 2 * nu >= 2
        assert pruned >= len(graphs) // 3

    def test_isolated_vertices_change_nothing(self):
        # blossom_matching searches only the vertices that carry an edge, so
        # interleaving isolated ones maps the compact graph's matching across.
        rng = random.Random(2525)
        for _ in range(60):
            m = rng.randint(1, 9)
            compact = tuple((i, j) for i in range(m) for j in range(i + 1, m) if rng.random() < 0.45)
            n = m + rng.randint(0, 9)
            at = sorted(rng.sample(range(n), m))  # compact vertex t is vertex at[t]
            edges = tuple((at[i], at[j]) for i, j in compact)
            got = blossom_matching(n, edges)
            assert got == tuple((at[i], at[j]) for i, j in blossom_matching(m, compact))
            assert len(got) == nx_matching_number(SimpleGraph(n, edges))

    def test_validate_matching_rejects(self):
        g = path(4)
        with pytest.raises(ValueError):
            validate_matching(g, [(0, 2)])
        with pytest.raises(ValueError):
            validate_matching(g, [(0, 1), (1, 2)])
        assert validate_matching(g, [(2, 1)]) == ((1, 2),)

    def test_validate_matching_refuses_what_a_graph_refuses(self):
        # [(True, 0)] once came back as ((0, True),), and [(0, 1, 2)] was
        # reported as the non-edge (0, 2).  Each now gets SimpleGraph's message.
        g = path(4)
        with pytest.raises(ValueError, match=re.escape("edge (True,0) must satisfy 0 <= i < j < n")):
            validate_matching(g, [(True, 0)])
        with pytest.raises(ValueError, match=re.escape("edge (0, 1, 2) must be a pair")):
            validate_matching(g, [(0, 1, 2)])
        for e in ((True, 0), (1, True), (0, 1.0), (0, 1, 2), (0,), (0, 4)):
            with pytest.raises(ValueError) as refused:
                SimpleGraph(4, (e,))
            with pytest.raises(ValueError, match=re.escape(str(refused.value))):
                validate_matching(g, [e])

    @staticmethod
    def digest(matchings) -> str:
        return hashlib.sha256(repr(list(matchings)).encode()).hexdigest()

    def test_random_matchings_bytes_stable(self):
        # graph-index prints the matching itself, so the edges blossom_matching
        # picks are pinned, not only their number: seeded graphs with n <= 40,
        # edges in random order and orientation.
        rng = random.Random(2727)
        matchings = []
        for _ in range(300):
            n = rng.randint(1, 40)
            density = rng.choice((0.05, 0.1, 0.2, 0.4))
            edges = [(i, j) if rng.random() < 0.5 else (j, i)
                     for i in range(n) for j in range(i + 1, n) if rng.random() < density]
            rng.shuffle(edges)
            matchings.append(blossom_matching(n, edges))
        assert self.digest(matchings) == (
            "27132c9ce1b363f1c13cff2236631a104f0bf62eb4effd0e0bff59a7fd1152d2"
        )

    def test_bracket_graph_matchings_bytes_stable(self):
        # The rank ceiling's matchings, on the bracket graphs {i, j} with [x_i, x_j] != 0.
        corpus = catalogue_algebras()
        assert len(corpus) == 220
        assert self.digest(blossom_matching(g.dim, g.brackets) for _, g in corpus) == (
            "9b6312dbdcd14ec68ae040bb0372bcabcc34791f0c584f531756a74beecd3b42"
        )


class TestGraphIndex:
    def test_complete_four(self):
        res = graph_index(complete(4))
        assert res.index == res.report.index == 6
        assert res.report.dim == 10

    def test_named_cases(self):
        # dim |V| + |E| minus twice the matching number.
        assert graph_index(path(2)).index == 1
        with pytest.raises(ValueError, match="trials"):
            graph_index(path(2), trials=0)
        assert graph_index(cycle(5)).index == 6
        assert graph_index(cycle(6)).index == 6
        assert graph_index(path(7)).index == 7
        assert graph_index(SimpleGraph(3, ())).index == 3

    def test_random_graphs_agree(self):
        rng = random.Random(99)
        for _ in range(15):
            n = rng.randint(1, 7)
            edges = tuple(
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.5
            )
            g = SimpleGraph(n, edges)
            res = graph_index(g)
            assert res.index == res.report.index
            assert res.index == g.vertex_count + len(g.edges) - 2 * matching_number(g)[0]


class TestMatchingFunctional:
    def test_stabilizer_dimension_drops_per_edge(self):
        # Any matching m gives a stabilizer of dim exactly dim - 2|m|,
        # maximum matchings give the generic value.
        g = path(5)
        alg = build_graph_algebra(g)
        dim = alg.dim
        for m in ([], [(0, 1)], [(0, 1), (2, 3)]):
            ell = matching_functional(g, m)
            assert stabilizer(alg, ell).dim == dim - 2 * len(m)
            assert dim - form_matrix(alg, ell).rank() == dim - 2 * len(m)

    def test_functional_coordinates(self):
        g = path(3)
        ell = matching_functional(g, [(1, 2)])
        assert ell.coords == (0, 0, 0, 0, 1)

    def test_petersen_maximum_matching_functional(self):
        g = petersen()
        m = matching_number(g)[1]
        alg = build_graph_algebra(g)
        assert stabilizer(alg, matching_functional(g, m)).dim == graph_index(g).index == 25 - 10
