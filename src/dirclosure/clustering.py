"""Center-based directed clustering coefficients.

For center ``u`` and type ``(x, y)``, the wedges are ordered pairs
``(v, u, w)`` where the u-v edge has direction ``x`` relative to ``u``, the
u-w edge has direction ``y`` relative to ``u``, and the two edges share only
``u`` (so ``v != w``). A wedge is closed when the edge ``w -> v`` exists.
The same wedge set, read from ``v`` as the head, has closure type
``(complement(x), y)``, which is what ties these coefficients to the
head-based ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .closure import WEDGE_TYPES, WedgeType, census, per_node, wedge_label
from .graph import IN, OUT, DirectedGraph


@dataclass(frozen=True)
class NodeClusteringProfile:
    """Per-type wedge denominators, closed counts, and coefficients at one node."""

    node: int
    denominators: Mapping[WedgeType, int]
    closed: Mapping[WedgeType, int]

    def defined(self, xy: WedgeType) -> bool:
        return self.denominators[xy] > 0

    def coefficient(self, xy: WedgeType) -> float | None:
        d = self.denominators[xy]
        if d == 0:
            return None
        return self.closed[xy] / d


def clustering_label(xy: WedgeType) -> str:
    return f"clustering_{wedge_label(xy)}"


def clustering_profiles(g: DirectedGraph) -> list[NodeClusteringProfile]:
    """Clustering profiles of every node, in id order.

    Denominators come from degree arithmetic: d_x(d_x - 1) for equal
    directions, d_x*d_y - r(u) for mixed ones (reciprocal pairs would put
    both edges on the same neighbor). Closed counts come from the census.
    """
    d = {IN: g.degrees(IN), OUT: g.degrees(OUT)}
    recip = g.reciprocal_degrees()
    denominators = {(x, y): d[x] * (d[x] - 1) if x is y else d[x] * d[y] - recip for x, y in WEDGE_TYPES}
    closed = census(g).clustering
    return [
        NodeClusteringProfile(node=u, denominators=denominator_row, closed=closed_row)
        for u, (denominator_row, closed_row) in enumerate(zip(per_node(denominators), per_node(closed)))
    ]


def mean_clustering(
    g: DirectedGraph, profiles: list[NodeClusteringProfile] | None = None
) -> dict[WedgeType, float]:
    """Node-mean of each clustering coefficient with undefined taken as 0."""
    if g.n == 0:
        raise ValueError("mean clustering undefined for an empty graph")
    if profiles is None:
        profiles = clustering_profiles(g)
    out: dict[WedgeType, float] = {}
    for xy in WEDGE_TYPES:
        terms = [p.closed[xy] / p.denominators[xy] for p in profiles if p.denominators[xy] > 0]
        out[xy] = math.fsum(terms) / g.n
    return out
