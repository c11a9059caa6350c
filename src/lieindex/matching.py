"""Maximum matchings by augmenting paths with blossom contraction, for
graphs.matching_number and LieAlgebra's matching number (index's rank ceiling).  The search runs on the
vertices with an edge, relabelled in order: isolated ones cost nothing.

Each exposed vertex roots one search.  A failed search leaves a Hungarian
tree T, every vertex it labelled: outer (queued) or inner (never queued).
Later searches skip edges into T for good (Edmonds, "Paths, trees, and
flowers", 1965).  Proof: when the search fails, the outer vertices of T form
|A| + 1 blossoms of odd size (single vertices included), A the inner ones; the
matching pairs off T less its root; and every neighbour of an outer vertex is
in A or in its own blossom.  So a matching of G has at most (|b| - 1)/2 edges
inside each blossom b, at most |A| at A and at most nu(G - T) others: at most
(|T| - 1)/2 + nu(G - T), which T's own edges and a maximum matching of G - T
attain.  The searches after the failure run on G - T, where the same holds,
and a run in which no search fails ends perfect; by induction the result is
maximum.  An exposed vertex whose neighbours all lie in such trees would fail
at once with T = {itself}, and no live vertex can reach it: it is not searched.
"""

from collections import deque


def blossom_matching(edges) -> tuple[tuple[int, int], ...]:
    """A maximum matching of the graph with the edges (i, j), as pairs (i, j) with i < j."""
    edges = list(edges)
    vertices = sorted({v for e in edges for v in e})
    label = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)  # from here on, vertices are the relabelled range(n)
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[label[i]].append(label[j])
        adj[label[j]].append(label[i])
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    used = [False] * n  # outer: in the queue
    dead = [False] * n  # in the tree of a failed search

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, blossom: list[bool]):
        while base[v] != b:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            parent[v] = child
            child = match[v]
            v = parent[match[v]]

    def find_path(root: int) -> bool:
        parent[:] = [-1] * n
        base[:] = range(n)
        used[:] = [False] * n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if dead[to] or base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and parent[match[to]] != -1):
                    # Odd cycle: contract the blossom at the common base.
                    curbase = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    for i in range(n):
                        if blossom[base[i]]:
                            base[i] = curbase
                            if not used[i]:
                                used[i] = True
                                q.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        u = to
                        while u != -1:
                            pv = parent[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    q.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1 and not all(dead[u] for u in adj[v]) and not find_path(v):
            dead[:] = [d or u or t != -1 for d, u, t in zip(dead, used, parent)]
    return tuple((vertices[v], vertices[match[v]]) for v in range(n) if v < match[v])
