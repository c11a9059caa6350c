"""Graph Lie algebras and maximum matchings.

A simple graph G on n vertices with m edges yields a 2-step nilpotent
algebra of dimension n + m: vertex generators v_i, one central wedge
generator per edge, and [v_i, v_j] = the wedge of an edge exactly when
{i, j} is an edge.  The index of that algebra is n + m - 2 * matching
number, which gives two independent computation routes (combinatorial and
rank-based); disagreement between them is a hard internal error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import LieAlgebra
from .index import (
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    IndexReport,
    LinearFunctional,
    _check_trials,
    index,
)
from .free_nilpotent import _check_ceiling
from .matching import blossom_matching

Edge = tuple[int, int]


def _edge(e, n: int, ordered: bool = True) -> Edge:
    """e as a pair (i, j) of int vertices with 0 <= i < j < n; unordered, e may be (j, i)."""
    if len(e) != 2:
        raise ValueError(f"edge {e!r} must be a pair")
    i, j = e
    if not ordered and type(i) is type(j) is int and i > j:
        i, j = j, i
    if not (type(i) is type(j) is int and 0 <= i < j < n):  # bool is no vertex
        raise ValueError(f"edge ({i!r},{j!r}) must satisfy 0 <= i < j < n")
    return i, j


@dataclass(frozen=True)
class SimpleGraph:
    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        n = self.vertex_count
        if type(n) is not int or n < 0:  # bool is no count
            raise ValueError("vertex count must be a nonnegative integer")
        seen = set()
        for e in self.edges:
            if (e := _edge(e, n)) in seen:
                raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(seen)))

    @classmethod
    def from_dict(cls, d: dict) -> "SimpleGraph":
        if not isinstance(d, dict) or "vertices" not in d or "edges" not in d:
            raise ValueError('graph JSON needs "vertices" and "edges"')
        edges = d["edges"]
        if not (isinstance(edges, list) and all(isinstance(e, list) for e in edges)):
            raise ValueError("edges must be a list of [i, j] lists")
        return cls(d["vertices"], tuple(map(tuple, edges)))

    def to_dict(self) -> dict:
        return {"vertices": self.vertex_count, "edges": [list(e) for e in self.edges]}


def build_graph_algebra(graph: SimpleGraph) -> LieAlgebra:
    n, m = graph.vertex_count, len(graph.edges)
    _check_ceiling(n + m, f"graph algebra on {n} vertices and {m} edges")
    labels = [f"v{i + 1}" for i in range(n)] + [
        f"v{i + 1}^v{j + 1}" for (i, j) in graph.edges
    ]
    brackets = {(i, j): {n + e: 1} for e, (i, j) in enumerate(graph.edges)}
    return LieAlgebra(n + m, tuple(labels), brackets)


def matching_number(graph: SimpleGraph) -> tuple[int, tuple[Edge, ...]]:
    """(matching number, a maximum matching), by blossom contraction."""
    m = blossom_matching(graph.edges)
    return len(m), m


def matching_number_exhaustive(graph: SimpleGraph) -> int:
    """Independent oracle: exhaustive search over vertex subsets, memoized.

    Exponential in the vertex count (fine for n <= ~16); used to
    cross-validate the blossom search in tests and the verification harness.
    """
    n = graph.vertex_count
    adj_mask = [0] * n
    for i, j in graph.edges:
        adj_mask[i] |= 1 << j
        adj_mask[j] |= 1 << i

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == 0:
            return 0
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        out = best(rest)
        free = adj_mask[v] & rest
        while free:
            low = free & -free
            u = low.bit_length() - 1
            free ^= low
            cand = 1 + best(rest & ~(1 << u))
            if cand > out:
                out = cand
        return out

    result = best((1 << n) - 1)
    best.cache_clear()
    return result


def validate_matching(graph: SimpleGraph, matching) -> tuple[Edge, ...]:
    edge_set = set(graph.edges)
    used = set()
    out = []
    for e in matching:
        if (e := _edge(e, graph.vertex_count, ordered=False)) not in edge_set:
            raise ValueError(f"matching edge {e} is not a graph edge")
        if e[0] in used or e[1] in used:
            raise ValueError(f"matching is not vertex-disjoint at edge {e}")
        used.update(e)
        out.append(e)
    return tuple(sorted(out))


def matching_functional(graph: SimpleGraph, matching) -> LinearFunctional:
    """Sum of duals of the wedge coordinates of the matched edges."""
    matching = validate_matching(graph, matching)
    n = graph.vertex_count
    coords = [0] * (n + len(graph.edges))
    pos = {e: n + t for t, e in enumerate(graph.edges)}
    for e in matching:
        coords[pos[e]] = 1
    return LinearFunctional.of(coords)


@dataclass(frozen=True)
class GraphIndexResult:
    matching: tuple[Edge, ...]  # maximum: report.index = report.dim - 2 * len(matching)
    report: IndexReport


def graph_index(
    graph: SimpleGraph,
    *,
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    prime: int | None = None,
) -> GraphIndexResult:
    _check_trials(trials)
    # Built first, so the dimension ceiling also bounds the matching search.
    alg = build_graph_algebra(graph)
    nu, witness = matching_number(graph)
    via_matching = alg.dim - 2 * nu
    report = index(alg, trials=trials, seed=seed, prime=prime)
    if report.index != via_matching:
        raise RuntimeError(
            "graph index mismatch between matching and rank routes "
            f"({via_matching} vs {report.index}); this is a bug"
        )
    return GraphIndexResult(witness, report)

