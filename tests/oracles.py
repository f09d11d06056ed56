"""Brute-force reference counts, independent of the library's counting code,
and a reference swap chain, independent of the library's sampler.

Everything here works from a plain edge list with set-membership lookups,
so the only library surface it touches is ``DirectedGraph.edges()``.
"""

import random
from collections import Counter, defaultdict


def brute_closure_counts(edges, edge_set=None):
    """O(m^2) wedge census over ordered pairs of edges sharing exactly one node.

    Returns (wedges, closed): ``wedges[(head, x, y)]`` and
    ``closed[(head, x, y, z)]`` with directions as 'i'/'o' characters.
    """
    edges = list(edges)
    if edge_set is None:
        edge_set = set(edges)
    wedges = Counter()
    closed = Counter()
    for e1 in edges:
        ends1 = set(e1)
        for e2 in edges:
            if e1 == e2:
                continue
            shared = ends1 & set(e2)
            if len(shared) != 1:
                continue
            (v,) = shared
            u = e1[0] if e1[1] == v else e1[1]
            w = e2[0] if e2[1] == v else e2[1]
            x = "o" if e1 == (u, v) else "i"
            y = "o" if e2 == (v, w) else "i"
            wedges[(u, x, y)] += 1
            if (w, u) in edge_set:
                closed[(u, x, y, "i")] += 1
            if (u, w) in edge_set:
                closed[(u, x, y, "o")] += 1
    return wedges, closed


def brute_clustering_counts(n, edges):
    """Per-center pair census: ``denoms[(u, x, y)]`` ordered neighbor pairs
    (v, w) with v in N_x(u), w in N_y(u), v != w; ``closed`` those with the
    w -> v edge present."""
    edge_set = set(edges)
    in_nbrs = defaultdict(list)
    out_nbrs = defaultdict(list)
    for a, b in edges:
        out_nbrs[a].append(b)
        in_nbrs[b].append(a)
    denoms = Counter()
    closed = Counter()
    for u in range(n):
        for x in "io":
            firsts = in_nbrs[u] if x == "i" else out_nbrs[u]
            for y in "io":
                seconds = in_nbrs[u] if y == "i" else out_nbrs[u]
                for v in firsts:
                    for w in seconds:
                        if v == w:
                            continue
                        denoms[(u, x, y)] += 1
                        if (w, v) in edge_set:
                            closed[(u, x, y)] += 1
    return denoms, closed


def brute_reciprocal_degrees(n, edges):
    edge_set = set(edges)
    return [
        sum(1 for v in range(n) if v != u and (u, v) in edge_set and (v, u) in edge_set)
        for u in range(n)
    ]


def brute_has_edge(edges, u, v):
    return any(e == (u, v) for e in edges)


def is_acyclic(n, edges):
    """Kahn's algorithm; True when a full topological order exists."""
    indeg = [0] * n
    out_nbrs = defaultdict(list)
    for a, b in edges:
        out_nbrs[a].append(b)
        indeg[b] += 1
    queue = [u for u in range(n) if indeg[u] == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in out_nbrs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == n


def swap_chain_reference(n, edges, attempts, seed, accepted=False):
    """One double-edge-swap chain, one proposal at a time.

    Slots hold edges as ``u * n + v``; each attempt draws slots i, j with
    ``random.Random(seed).randrange(m)`` and rewires (a->b, c->d) to
    (a->d, c->b) unless i == j or that makes a self-loop or a duplicate.
    ``accepted`` runs until ``attempts`` swaps are applied, raising
    RuntimeError after ``max(200 * attempts, 1000)`` attempts. Returns the
    final edges in slot order and a Counter keyed by outcome name
    ("swapped", "rejected_same_edge", "rejected_self_loop",
    "rejected_multi_edge").
    """
    slots = [u * n + v for u, v in edges]
    edge_set = set(slots)
    m = len(slots)
    rng = random.Random(seed)
    counts = Counter()

    def attempt():
        i = rng.randrange(m)
        j = rng.randrange(m)
        if i == j:
            return "rejected_same_edge"
        e1 = slots[i]
        e2 = slots[j]
        a, b = divmod(e1, n)
        c, d = divmod(e2, n)
        if a == d or c == b:
            return "rejected_self_loop"
        p1 = a * n + d
        p2 = c * n + b
        if p1 in edge_set or p2 in edge_set:
            return "rejected_multi_edge"
        edge_set.remove(e1)
        edge_set.remove(e2)
        edge_set.add(p1)
        edge_set.add(p2)
        slots[i] = p1
        slots[j] = p2
        return "swapped"

    if not accepted:
        for _ in range(attempts):
            counts[attempt()] += 1
    else:
        cap = max(200 * attempts, 1000)
        total = 0
        while counts["swapped"] < attempts:
            if total >= cap:
                raise RuntimeError(f"only {counts['swapped']} swaps after {total} attempts")
            counts[attempt()] += 1
            total += 1
    return [divmod(e, n) for e in slots], counts
