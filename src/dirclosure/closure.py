"""Head-based directed closure coefficients.

A directed wedge is an ordered pair of directed edges sharing exactly one
node (the center). The non-center end of the first edge is the head, the
non-center end of the second edge the tail. Wedge type ``xy``: ``x`` is the
first edge's direction relative to the head, ``y`` the second edge's
direction relative to the center. A wedge is i-closed if the edge
tail->head exists and o-closed if head->tail exists. The closure
coefficient for ``(x, y, z)`` at head ``u`` is the fraction of xy-wedges
headed at ``u`` that are z-closed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Mapping

import numpy as np

from .graph import IN, OUT, DirectedGraph, Direction

WedgeType = tuple[Direction, Direction]

WEDGE_TYPES: tuple[WedgeType, ...] = ((IN, IN), (IN, OUT), (OUT, IN), (OUT, OUT))


@dataclass(frozen=True, order=True)
class CoefficientKey:
    """The (x, y, z) triple selecting wedge type and closing direction."""

    x: Direction
    y: Direction
    z: Direction

    @property
    def wedge_type(self) -> WedgeType:
        return (self.x, self.y)

    @property
    def label(self) -> str:
        return f"closure_{self.x}{self.y}_{self.z}"

    def __str__(self) -> str:
        return self.label


ALL_KEYS: tuple[CoefficientKey, ...] = tuple(
    CoefficientKey(x, y, z) for x in (IN, OUT) for y in (IN, OUT) for z in (IN, OUT)
)

# Pairs of global coefficients that are equal in every directed graph: the
# two members of each pair count the same closed structure, read from the
# head of the first edge vs. the head of the second.
SYMMETRIC_PAIRS: tuple[tuple[CoefficientKey, CoefficientKey], ...] = (
    (CoefficientKey(IN, IN, IN), CoefficientKey(OUT, OUT, OUT)),
    (CoefficientKey(IN, IN, OUT), CoefficientKey(OUT, OUT, IN)),
    (CoefficientKey(IN, OUT, IN), CoefficientKey(IN, OUT, OUT)),
    (CoefficientKey(OUT, IN, IN), CoefficientKey(OUT, IN, OUT)),
)


def wedge_label(xy: WedgeType) -> str:
    return f"{xy[0]}{xy[1]}"


@dataclass(frozen=True)
class NodeClosureProfile:
    """Per-node wedge counts, closed-wedge counts, and the 8 coefficients."""

    node: int
    wedges: Mapping[WedgeType, int]
    closed: Mapping[CoefficientKey, int]

    def defined(self, xy: WedgeType) -> bool:
        return self.wedges[xy] > 0

    def coefficient(self, key: CoefficientKey) -> float | None:
        """W^z_xy(u) / W_xy(u), or None when no xy-wedge has head u."""
        w = self.wedges[key.wedge_type]
        if w == 0:
            return None
        return self.closed[key] / w


# Candidate neighbor pairs checked per step of the triangle sweep; bounds
# the sweep's working memory independently of the graph size.
PAIR_CHUNK = 1 << 18


@dataclass(frozen=True)
class Census:
    """Per-node wedge counts of a graph, as int64 arrays indexed by node.

    ``wedges[xy]`` counts xy-wedges by head and ``closed[key]`` the z-closed
    ones among them. ``clustering[xy]`` counts closed center-based xy-wedges
    by center: the same closed wedges as ``closed[(complement(x), y, IN)]``,
    credited to the center instead of the head.
    """

    wedges: dict[WedgeType, np.ndarray]
    closed: dict[CoefficientKey, np.ndarray]
    clustering: dict[WedgeType, np.ndarray]


def census(g: DirectedGraph) -> Census:
    """Wedge, closed-wedge and clustering counts of every node.

    Wedge counts come from degree arithmetic: a head's xy-wedges through
    center v number d_y(v), less one when the head is itself a
    y-neighbor of v. Closed wedges all lie in triangles of the underlying
    undirected graph. Orienting each pair from lower to higher (degree, id)
    rank finds every triangle once, at its lowest-ranked node, among pairs
    of that node's forward neighbors (O(m^1.5) checks); each of the six
    (head, center, tail) orderings of a triangle then closes a wedge of
    key (x, y, z) exactly when its three directed edges are present.
    """
    n = g.n
    nodes = np.arange(n)
    out_ptr, out_idx = g.adjacency(OUT)
    src = np.repeat(nodes, np.diff(out_ptr))
    keys = src * n + out_idx  # sorted, since out_idx is sorted within each row

    def has_arc(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return _contains(keys, p * n + q)

    degrees = {IN: g.degrees(IN), OUT: g.degrees(OUT)}
    wedges: dict[WedgeType, np.ndarray] = {}
    for x in (IN, OUT):
        ptr, centers = g.adjacency(x)
        heads = np.repeat(nodes, np.diff(ptr))
        for y in (IN, OUT):
            head_is_tail = has_arc(heads, centers) if y is IN else has_arc(centers, heads)
            sums = np.concatenate(([0], np.cumsum(degrees[y][centers] - head_is_tail)))
            wedges[(x, y)] = sums[ptr[1:]] - sums[ptr[:-1]]
    counts = Census(
        wedges=wedges,
        closed={key: np.zeros(n, dtype=np.int64) for key in ALL_KEYS},
        clustering={xy: np.zeros(n, dtype=np.int64) for xy in WEDGE_TYPES},
    )

    pairs = np.sort(np.minimum(src, out_idx) * n + np.maximum(src, out_idx))
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # sort-based: np.unique hashes int64, far slower
    p, q = np.divmod(pairs, n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((nodes, np.bincount(p, minlength=n) + np.bincount(q, minlength=n)))] = nodes
    p_first = rank[p] < rank[q]
    lower, higher = np.where(p_first, p, q), np.where(p_first, q, p)
    order = np.lexsort((higher, lower))
    lower, higher = lower[order], higher[order]
    # forward edge e is paired with each later forward edge of the same
    # node; pairs are generated PAIR_CHUNK at a time, in edge order
    later = np.cumsum(np.bincount(lower, minlength=n))[lower] - 1 - np.arange(lower.size)
    ends = np.cumsum(later)
    starts = ends - later
    e0 = 0
    while e0 < lower.size:
        e1 = max(int(np.searchsorted(ends, starts[e0] + PAIR_CHUNK, side="right")), e0 + 1)
        first = np.repeat(np.arange(e0, e1), later[e0:e1])
        second = first + 1 + np.arange(first.size) - np.repeat(starts[e0:e1] - starts[e0], later[e0:e1])
        b, c = higher[first], higher[second]  # b < c: forward lists are sorted
        closes = _contains(pairs, b * n + c)
        corners = (lower[first][closes], b[closes], c[closes])
        arc = {(i, j): has_arc(corners[i], corners[j]) for i, j in permutations(range(3), 2)}
        for h, v, t in permutations(range(3)):
            head_edge = {OUT: arc[h, v], IN: arc[v, h]}  # relative to the head
            tail_edge = {OUT: arc[v, t], IN: arc[t, v]}  # relative to the center
            closing = {OUT: arc[h, t], IN: arc[t, h]}
            for key in ALL_KEYS:
                hit = head_edge[key.x] & tail_edge[key.y] & closing[key.z]
                counts.closed[key] += np.bincount(corners[h][hit], minlength=n)
                if key.z is IN:
                    counts.clustering[(key.x.complement, key.y)] += np.bincount(corners[v][hit], minlength=n)
        e0 = e1
    return counts


def _contains(sorted_keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Elementwise membership of ``wanted`` in ``sorted_keys``."""
    return sorted_keys[np.minimum(np.searchsorted(sorted_keys, wanted), sorted_keys.size - 1)] == wanted


def per_node(columns: Mapping) -> list[dict]:
    """Turn ``{key: per-node array}`` into one ``{key: int}`` dict per node."""
    return [dict(zip(columns, row)) for row in zip(*(col.tolist() for col in columns.values()))]


def closure_profiles(g: DirectedGraph) -> list[NodeClosureProfile]:
    """Profiles for every node, in id order."""
    counts = census(g)
    return [
        NodeClosureProfile(node=u, wedges=wedges, closed=closed)
        for u, (wedges, closed) in enumerate(zip(per_node(counts.wedges), per_node(counts.closed)))
    ]


def average_closure(
    g: DirectedGraph, profiles: list[NodeClosureProfile] | None = None
) -> dict[CoefficientKey, float]:
    """Node-mean of each local coefficient, counting undefined ones as 0.

    Uses an exact (order-insensitive) float sum, so the result does not
    depend on node ordering or any partitioning of the node sweep.
    """
    if g.n == 0:
        raise ValueError("average closure undefined for an empty graph")
    if profiles is None:
        profiles = closure_profiles(g)
    out: dict[CoefficientKey, float] = {}
    for key in ALL_KEYS:
        xy = key.wedge_type
        terms = [p.closed[key] / p.wedges[xy] for p in profiles if p.wedges[xy] > 0]
        out[key] = math.fsum(terms) / g.n
    return out


def global_closure(
    g: DirectedGraph, profiles: list[NodeClosureProfile] | None = None
) -> dict[CoefficientKey, float | None]:
    """Closed-wedge fraction over the whole graph, per coefficient key.

    Integer totals are accumulated before the single division; a key whose
    wedge total is zero maps to None.
    """
    if profiles is None:
        profiles = closure_profiles(g)
    wedge_totals = {xy: sum(p.wedges[xy] for p in profiles) for xy in WEDGE_TYPES}
    out: dict[CoefficientKey, float | None] = {}
    for key in ALL_KEYS:
        denom = wedge_totals[key.wedge_type]
        if denom == 0:
            out[key] = None
        else:
            out[key] = sum(p.closed[key] for p in profiles) / denom
    return out


def check_symmetry(
    global_coefficients: Mapping[CoefficientKey, float | None],
) -> dict[tuple[CoefficientKey, CoefficientKey], float]:
    """Residuals |a - b| for the four always-equal global coefficient pairs.

    Both members undefined gives residual 0; one defined and one undefined
    is a structural violation and is reported as ``math.inf``.
    """
    residuals: dict[tuple[CoefficientKey, CoefficientKey], float] = {}
    for a, b in SYMMETRIC_PAIRS:
        va, vb = global_coefficients[a], global_coefficients[b]
        if va is None and vb is None:
            residuals[(a, b)] = 0.0
        elif va is None or vb is None:
            residuals[(a, b)] = math.inf
        else:
            residuals[(a, b)] = abs(va - vb)
    return residuals
