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

from dataclasses import dataclass
from typing import Mapping

from .closure import WEDGE_TYPES, Census, WedgeType, census, node_mean, per_node, wedge_label
from .graph import DirectedGraph


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
    """Clustering profiles of every node, in id order, read from the census."""
    counts = census(g)
    return [
        NodeClusteringProfile(node=u, denominators=denominator_row, closed=closed_row)
        for u, (denominator_row, closed_row) in enumerate(zip(per_node(counts.pairs), per_node(counts.clustering)))
    ]


def mean_clustering(counts: Census) -> dict[WedgeType, float]:
    """Node-mean of each clustering coefficient with undefined taken as 0."""
    if counts.n == 0:
        raise ValueError("mean clustering undefined for an empty graph")
    return {xy: node_mean(counts.clustering[xy], counts.pairs[xy]) for xy in WEDGE_TYPES}
