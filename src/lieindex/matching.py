"""Maximum matchings by augmenting paths with blossom contraction, for
graphs.matching_number and the rank ceiling of index.  The search runs on the
vertices with an edge, relabelled in order: isolated ones cost nothing."""

from collections import deque


def blossom_matching(n: int, edges) -> tuple[tuple[int, int], ...]:
    """A maximum matching of the graph on range(n) with the edges (i, j)."""
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

    def lca(a: int, b: int) -> int:
        used = [False] * n
        while True:
            a = base[a]
            used[a] = True
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if used[b]:
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
        used = [False] * n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
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
        if match[v] == -1:
            find_path(v)
    return tuple((vertices[v], vertices[match[v]]) for v in range(n) if v < match[v])
