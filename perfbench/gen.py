"""Seeded synthetic edge lists for the benchmark workloads.

Every generator draws with numpy in O(n + m log n) total: edge endpoints
come from one vectorised search in the cumulative weight table, and
duplicates and self-loops are removed with one ``np.unique`` per batch.
The same ``(seed, shape)`` always gives the same file.

Nodes are dense ints ``0..n-1`` and are written under a seeded random
relabelling, so the program's first-appearance id order differs from the
generator's rank order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EdgeList:
    """A simple digraph as parallel arrays, plus the lines injected as defects.

    ``src``/``dst`` hold the simple graph the program should load (no
    self-loops, no duplicates). ``lines`` is the file order, repairs included.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    lines: np.ndarray  # shape (k, 2): the written edge-list lines
    duplicates: int
    self_loops: int

    @property
    def m(self) -> int:
        return len(self.src)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{a} {b}\n" for a, b in self.lines.tolist()))

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.bincount(self.dst, minlength=self.n),
            np.bincount(self.src, minlength=self.n),
        )

    def reciprocal(self) -> np.ndarray:
        """Per edge, whether its reverse edge is also present."""
        keys = np.sort(self.src * self.n + self.dst)
        rev = self.dst * self.n + self.src
        pos = np.minimum(np.searchsorted(keys, rev), len(keys) - 1)
        return keys[pos] == rev

    def descriptors(self) -> dict:
        d_in, d_out = self.degrees()
        present = (d_in + d_out) > 0
        return {
            "n": int(present.sum()),
            "m": self.m,
            "max_in_degree": int(d_in.max()),
            "max_out_degree": int(d_out.max()),
            "sum_din_dout": int((d_in * d_out).sum()),
            "sum_din_sq": int((d_in * d_in).sum()),
            "sum_dout_sq": int((d_out * d_out).sum()),
            "reciprocal_edges": int(self.reciprocal().sum()),
            "duplicate_lines": self.duplicates,
            "self_loop_lines": self.self_loops,
            "lines": len(self.lines),
        }


def _distinct_edges(rng: np.random.Generator, n: int, m: int, cdf_out, cdf_in) -> np.ndarray:
    """First ``m`` distinct non-loop edge keys ``u*n+v`` in draw order."""
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        k = int((m - len(keys)) * 1.3) + 64
        src = np.searchsorted(cdf_out, rng.random(k) * cdf_out[-1], side="right")
        dst = np.searchsorted(cdf_in, rng.random(k) * cdf_in[-1], side="right")
        src = np.minimum(src, n - 1)
        dst = np.minimum(dst, n - 1)
        drawn = src.astype(np.int64) * n + dst
        keys = np.concatenate([keys, drawn[src != dst]])
        _, first = np.unique(keys, return_index=True)
        keys = keys[np.sort(first)]
    return keys[:m]


def _finish(rng: np.random.Generator, n: int, keys: np.ndarray, repair_share: float) -> EdgeList:
    """Relabel nodes, inject duplicate and self-loop lines, shuffle line order."""
    perm = rng.permutation(n)
    src = perm[keys // n]
    dst = perm[keys % n]
    lines = np.stack([src, dst], axis=1)
    duplicates = self_loops = int(round(repair_share / 2 * len(keys)))
    if duplicates:
        copies = lines[rng.integers(0, len(lines), duplicates)]
        present = np.flatnonzero(np.bincount(np.concatenate([src, dst]), minlength=n))
        loops = rng.choice(present, self_loops)
        lines = np.concatenate([lines, copies, np.stack([loops, loops], axis=1)])
        lines = lines[rng.permutation(len(lines))]
    return EdgeList(n, src, dst, lines, duplicates, self_loops)


def skewed(seed: int, n: int, m: int, alpha: float, repair_share: float = 0.0) -> EdgeList:
    """Rank-power digraph: node of rank r gets weight (1 + r) ** -alpha as
    both source and target, so in-hubs are out-hubs too."""
    rng = np.random.default_rng(seed)
    cdf = np.cumsum((1.0 + np.arange(n)) ** -alpha)
    return _finish(rng, n, _distinct_edges(rng, n, m, cdf, cdf), repair_share)


def uniform(seed: int, n: int, m: int, repair_share: float = 0.0) -> EdgeList:
    """Near-uniform digraph: endpoints uniform over the n nodes."""
    rng = np.random.default_rng(seed)
    cdf = np.arange(1, n + 1, dtype=float)
    return _finish(rng, n, _distinct_edges(rng, n, m, cdf, cdf), repair_share)
