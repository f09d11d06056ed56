"""Directed-graph core: adjacency storage, edge-list ingestion, degrees, moments.

Graphs are simple (no self-loops, no duplicate directed edges) and immutable
after construction, so every query below is safe to call concurrently.
Reciprocated pairs (u->v and v->u) are kept as two independent edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np


class Direction(Enum):
    """Edge direction relative to a reference node: incoming or outgoing."""

    IN = "i"
    OUT = "o"

    @property
    def complement(self) -> "Direction":
        return Direction.OUT if self is Direction.IN else Direction.IN

    def __str__(self) -> str:
        return self.value


IN = Direction.IN
OUT = Direction.OUT


class EdgeListFormatError(ValueError):
    """Raised for a malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_number: int, line: str, reason: str):
        self.line_number = line_number
        self.line = line
        super().__init__(f"line {line_number}: {reason}: {line!r}")


@dataclass(frozen=True)
class LoadWarnings:
    """Counts of silently repaired defects during edge-list ingestion."""

    duplicate_edges: int = 0
    self_loops: int = 0

    def any(self) -> bool:
        return self.duplicate_edges > 0 or self.self_loops > 0


class DirectedGraph:
    """Simple directed graph stored as sorted out- and in-adjacency CSR arrays.

    Nodes are dense integers ``0..n-1``; the optional ``labels`` list maps
    each dense id back to the original token it was parsed from. Edges may
    be given as an iterable of ``(source, destination)`` pairs or as an
    ``(m, 2)`` integer array.
    """

    __slots__ = ("n", "m", "_out", "_in", "labels")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray, labels: Sequence[str] | None = None):
        if n < 0:
            raise ValueError("node count must be non-negative")
        if labels is not None and len(labels) != n:
            raise ValueError("labels length must equal node count")
        if isinstance(edges, np.ndarray):
            pairs = edges.astype(np.int64).reshape(-1, 2)
        else:
            pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64).reshape(-1, 2)
        src, dst = pairs[:, 0], pairs[:, 1]
        outside = (pairs < 0).any(axis=1) | (pairs >= n).any(axis=1)
        if outside.any():
            u, v = pairs[outside.argmax()]
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        loops = src == dst
        if loops.any():
            u = src[loops.argmax()]
            raise ValueError(f"self-loop ({u},{u}) not allowed")
        keys = np.sort(src * n + dst)
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            u, v = divmod(int(keys[repeated.argmax()]), n)
            raise ValueError(f"duplicate edge ({u},{v})")
        self.n = n
        self.m = len(keys)
        self._out = _csr(n, keys)
        self._in = _csr(n, np.sort(dst * n + src))
        self.labels = list(labels) if labels is not None else None

    # -- whole-graph arrays (read-only) -------------------------------------

    def adjacency(self, direction: Direction) -> tuple[np.ndarray, np.ndarray]:
        """CSR arrays ``(ptr, idx)``: the ``direction``-neighbors of ``u`` are
        ``idx[ptr[u]:ptr[u + 1]]`` in increasing order."""
        return self._in if direction is IN else self._out

    def degrees(self, direction: Direction) -> np.ndarray:
        return np.diff(self.adjacency(direction)[0])

    def reciprocal_degrees(self) -> np.ndarray:
        """Per node, the number of neighbors v with both u->v and v->u."""
        ptr, idx = self._out
        src = np.repeat(np.arange(self.n), np.diff(ptr))
        return np.bincount(src[np.isin(idx * self.n + src, src * self.n + idx)], minlength=self.n)

    # -- per-node queries ----------------------------------------------------

    def _check_node(self, u: int) -> None:
        if not (0 <= u < self.n):
            raise ValueError(f"node {u} out of range for n={self.n}")

    def _row(self, u: int, direction: Direction) -> np.ndarray:
        self._check_node(u)
        ptr, idx = self.adjacency(direction)
        return idx[ptr[u] : ptr[u + 1]]

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(self._row(u, OUT).tolist())

    def in_neighbors(self, u: int) -> tuple[int, ...]:
        return tuple(self._row(u, IN).tolist())

    def has_edge(self, u: int, v: int) -> bool:
        row = self._row(u, OUT)
        self._check_node(v)
        i = row.searchsorted(v)
        return bool(i < row.size and row[i] == v)

    def in_degree(self, u: int) -> int:
        return self._row(u, IN).size

    def out_degree(self, u: int) -> int:
        return self._row(u, OUT).size

    def reciprocal_degree(self, u: int) -> int:
        """Number of neighbors v with both u->v and v->u present."""
        return np.intersect1d(self._row(u, OUT), self._row(u, IN), assume_unique=True).size

    def edges(self) -> Iterator[tuple[int, int]]:
        """All directed edges, ordered by (source, destination)."""
        ptr, idx = self._out
        return zip(np.repeat(np.arange(self.n), np.diff(ptr)).tolist(), idx.tolist())

    def token(self, u: int) -> str:
        self._check_node(u)
        return self.labels[u] if self.labels is not None else str(u)

    def degree_pairs(self) -> list[tuple[int, int]]:
        """Joint degree sequence [(in_degree, out_degree)] over all nodes."""
        return list(zip(self.degrees(IN).tolist(), self.degrees(OUT).tolist()))

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, m={self.m})"


def _csr(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only CSR arrays of sorted ``row * n + column`` keys."""
    ptr = np.searchsorted(keys, np.arange(n + 1, dtype=np.int64) * n)
    idx = keys % n
    ptr.flags.writeable = False
    idx.flags.writeable = False
    return ptr, idx


@dataclass(frozen=True)
class DegreeMoments:
    """Size and second-order moments of a joint degree sequence.

    ``m_xy`` is the mean of ``d_x(u) * d_y(u)`` over all nodes; the integer
    cross-products are summed exactly (Python ints) before the division.
    """

    n: int
    m: int
    m_ii: float
    m_io: float
    m_oo: float

    @classmethod
    def from_degree_pairs(cls, pairs: Sequence[tuple[int, int]]) -> "DegreeMoments":
        n = len(pairs)
        if n == 0:
            raise ValueError("moments undefined for an empty degree sequence")
        s_ii = sum(di * di for di, _ in pairs)
        s_io = sum(di * do for di, do in pairs)
        s_oo = sum(do * do for _, do in pairs)
        m = sum(di for di, _ in pairs)
        if m != sum(do for _, do in pairs):
            raise ValueError("in- and out-degree totals differ; not a valid joint sequence")
        return cls(n=n, m=m, m_ii=s_ii / n, m_io=s_io / n, m_oo=s_oo / n)

    def moment(self, x: Direction, y: Direction) -> float:
        if x is y:
            return self.m_ii if x is IN else self.m_oo
        return self.m_io


def degree_moments(g: DirectedGraph) -> DegreeMoments:
    """Second-order degree moments of ``g``; raises on an empty graph."""
    if g.n == 0:
        raise ValueError("moments undefined for an empty graph")
    return DegreeMoments.from_degree_pairs(g.degree_pairs())


def load_edge_list(source: IO[str] | str | Path) -> tuple[DirectedGraph, LoadWarnings]:
    """Parse a whitespace-separated edge list into a simple directed graph.

    Each non-comment line holds two node tokens (source, destination); lines
    starting with '#' and blank lines are ignored, as is a UTF-8 byte-order
    mark opening the first line. Tokens are mapped to dense ids in
    first-appearance order. Duplicate edges are dropped and self-loops
    removed, each counted in the returned warnings. Reciprocated pairs stay
    as two edges.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)

    ids: dict[str, int] = {}
    ends: list[int] = []
    for line_number, raw in enumerate(source, start=1):
        if line_number == 1:
            raw = raw.removeprefix("\ufeff")
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListFormatError(line_number, raw.rstrip("\n"), f"expected 2 tokens, got {len(parts)}")
        for token in parts:
            ends.append(ids.setdefault(token, len(ids)))

    n = len(ids)
    pairs = np.array(ends, dtype=np.int64).reshape(-1, 2)
    kept = pairs[pairs[:, 0] != pairs[:, 1]]
    _, first = np.unique(kept[:, 0] * n + kept[:, 1], return_index=True)
    graph = DirectedGraph(n, kept[first], labels=list(ids))
    repaired = LoadWarnings(duplicate_edges=len(kept) - len(first), self_loops=len(pairs) - len(kept))
    return graph, repaired


def write_edge_list(g: DirectedGraph, sink: IO[str]) -> None:
    """Write ``g`` as a two-column edge list using original tokens."""
    for u, v in g.edges():
        sink.write(f"{g.token(u)} {g.token(v)}\n")


def write_id_map(g: DirectedGraph, sink: IO[str]) -> None:
    """Write the dense-id to token mapping as CSV ``dense_id,token``."""
    sink.write("dense_id,token\n")
    for u in range(g.n):
        sink.write(f"{u},{g.token(u)}\n")
