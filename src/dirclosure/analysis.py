"""Cross-node analyses and per-node feature export.

The feature matrix is the per-node predictor set: degrees, reciprocal-edge
count, the eight closure coefficients, and the four clustering
coefficients, with definedness flags. Undefined values serialize as empty
cells; floats use 17 significant digits so a re-parse is bit-identical.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from itertools import chain
from typing import IO, Mapping

import numpy as np

from .closure import (
    ALL_KEYS,
    WEDGE_TYPES,
    Census,
    CoefficientKey,
    average_closure,
    census,
    global_closure,
    wedge_label,
)
from .clustering import clustering_label, mean_clustering
from .graph import IN, OUT, DirectedGraph, degree_moments

FLOAT_FORMAT = ".17g"


def format_value(value: float | None) -> str:
    return "" if value is None else format(value, FLOAT_FORMAT)


FEATURE_COLUMNS: tuple[str, ...] = (
    ("dense_id", "token", "d_in", "d_out", "d_recip")
    + tuple(key.label for key in ALL_KEYS)
    + tuple(clustering_label(xy) for xy in WEDGE_TYPES)
    + tuple(f"{key.label}_defined" for key in ALL_KEYS)
    + tuple(f"{clustering_label(xy)}_defined" for xy in WEDGE_TYPES)
)


def _int_cells(values: np.ndarray) -> list[str]:
    return [str(v) for v in values.tolist()]


def _ratio_cells(closed: np.ndarray, total: np.ndarray) -> list[str]:
    """closed/total per node in ``FLOAT_FORMAT``, empty where total is 0."""
    ratios = (closed / np.maximum(total, 1)).tolist()
    return [format_value(r) if t > 0 else "" for r, t in zip(ratios, total.tolist())]


def _flag_cells(total: np.ndarray) -> list[str]:
    return ["1" if t > 0 else "0" for t in total.tolist()]


def _node_columns(g: DirectedGraph) -> dict[str, list[str]]:
    return {"dense_id": [str(u) for u in range(g.n)], "token": [g.token(u) for u in range(g.n)]}


def _write_columns(columns: dict[str, list[str]], sink: IO[str]) -> int:
    """Write named per-node columns as CSV (returns the row count)."""
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*columns.values()))
    return len(columns["dense_id"])


def export_features(
    g: DirectedGraph, labels: Mapping[str, str] | None, sink: IO[str]
) -> int:
    """Write one feature row per node as CSV (returns the row count).

    Column order is ``FEATURE_COLUMNS``, with a ``label`` column inserted
    after ``token`` when a token->label mapping is given. Label tokens not
    present in the graph are skipped with a warning.
    """
    columns = _node_columns(g)
    if labels is not None:
        missing = sorted(set(labels) - set(columns["token"]))
        if missing:
            warnings.warn(
                f"{len(missing)} label token(s) not present in the graph, skipped: "
                f"{', '.join(missing[:5])}{'...' if len(missing) > 5 else ''}"
            )
        columns["label"] = [labels.get(token, "") for token in columns["token"]]
    counts = census(g)
    columns["d_in"] = _int_cells(g.degrees(IN))
    columns["d_out"] = _int_cells(g.degrees(OUT))
    columns["d_recip"] = _int_cells(g.reciprocal_degrees())
    for key in ALL_KEYS:
        columns[key.label] = _ratio_cells(counts.closed[key], counts.wedges[key.wedge_type])
    for xy in WEDGE_TYPES:
        columns[clustering_label(xy)] = _ratio_cells(counts.clustering[xy], counts.pairs[xy])
    for key in ALL_KEYS:
        columns[f"{key.label}_defined"] = _flag_cells(counts.wedges[key.wedge_type])
    for xy in WEDGE_TYPES:
        columns[f"{clustering_label(xy)}_defined"] = _flag_cells(counts.pairs[xy])
    return _write_columns(columns, sink)


def write_closure_csv(g: DirectedGraph, counts: Census, sink: IO[str]) -> int:
    """Per-node closure detail: wedge counts, closed counts, coefficients."""
    columns = _node_columns(g)
    for xy in WEDGE_TYPES:
        columns[f"wedges_{wedge_label(xy)}"] = _int_cells(counts.wedges[xy])
    for key in ALL_KEYS:
        columns[f"closed_{key.label.removeprefix('closure_')}"] = _int_cells(counts.closed[key])
    for key in ALL_KEYS:
        columns[key.label] = _ratio_cells(counts.closed[key], counts.wedges[key.wedge_type])
    for xy in WEDGE_TYPES:
        columns[f"defined_{wedge_label(xy)}"] = _flag_cells(counts.wedges[xy])
    return _write_columns(columns, sink)


def write_clustering_csv(g: DirectedGraph, counts: Census, sink: IO[str]) -> int:
    """Per-node clustering detail: denominators, closed counts, coefficients."""
    columns = _node_columns(g)
    for xy in WEDGE_TYPES:
        columns[f"pairs_{wedge_label(xy)}"] = _int_cells(counts.pairs[xy])
    for xy in WEDGE_TYPES:
        columns[f"closed_{wedge_label(xy)}"] = _int_cells(counts.clustering[xy])
    for xy in WEDGE_TYPES:
        columns[clustering_label(xy)] = _ratio_cells(counts.clustering[xy], counts.pairs[xy])
    for xy in WEDGE_TYPES:
        columns[f"defined_{wedge_label(xy)}"] = _flag_cells(counts.pairs[xy])
    return _write_columns(columns, sink)


def read_labels(source: IO[str]) -> dict[str, str]:
    """Read a two-column CSV ``token,label``; a literal header row is allowed,
    as is a UTF-8 byte-order mark opening the first line."""
    lines = iter(source)
    first = next(lines, "").removeprefix("\ufeff")
    out: dict[str, str] = {}
    for i, row in enumerate(csv.reader(chain([first], lines))):
        if not row:
            continue
        if len(row) != 2:
            raise ValueError(f"label row {i + 1}: expected 2 columns, got {len(row)}")
        if i == 0 and [c.strip().lower() for c in row] == ["token", "label"]:
            continue
        out[row[0]] = row[1]
    return out


def edge_label_tallies(
    g: DirectedGraph, labels: Mapping[str, str]
) -> dict[tuple[str | None, str | None], int]:
    """Count directed edges by (source label, destination label).

    Unlabeled endpoints fall in the ``None`` bucket.
    """
    tallies: dict[tuple[str | None, str | None], int] = {}
    for u, v in g.edges():
        pair = (labels.get(g.token(u)), labels.get(g.token(v)))
        tallies[pair] = tallies.get(pair, 0) + 1
    return tallies


@dataclass(frozen=True)
class CorrelationMatrix:
    """Pairwise-complete Pearson correlations of the 8 closure coefficients.

    ``values[i][j]`` is None when fewer than two nodes define both
    coefficients or either column has zero variance over the shared nodes;
    ``counts[i][j]`` is the shared-node count.
    """

    keys: tuple[CoefficientKey, ...]
    values: tuple[tuple[float | None, ...], ...]
    counts: tuple[tuple[int, ...], ...]

    def entry(self, a: CoefficientKey, b: CoefficientKey) -> float | None:
        return self.values[self.keys.index(a)][self.keys.index(b)]


def closure_correlation_matrix(g: DirectedGraph) -> CorrelationMatrix:
    """Correlation structure of the local closure coefficients across nodes.

    Nodes where either coefficient of a pair is undefined are dropped for
    that pair (pairwise-complete); zero substitution would manufacture
    correlation out of shared definedness patterns.
    """
    if g.n < 2:
        raise ValueError("correlation needs at least 2 nodes")
    per_head = census(g)
    ratios = [(per_head.closed[key], per_head.wedges[key.wedge_type]) for key in ALL_KEYS]
    columns = np.column_stack([np.divide(c, w, out=np.full(g.n, np.nan), where=w > 0) for c, w in ratios])
    k = len(ALL_KEYS)
    values: list[list[float | None]] = [[None] * k for _ in range(k)]
    counts: list[list[int]] = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            mask = ~np.isnan(columns[:, i]) & ~np.isnan(columns[:, j])
            shared = int(mask.sum())
            counts[i][j] = counts[j][i] = shared
            if shared < 2:
                continue
            a = columns[mask, i]
            b = columns[mask, j]
            sa = float(a.std())
            sb = float(b.std())
            if sa == 0.0 or sb == 0.0:
                continue
            if i == j:
                values[i][j] = 1.0
                continue
            r = float(np.cov(a, b, bias=True)[0, 1] / (sa * sb))
            r = max(-1.0, min(1.0, r))
            values[i][j] = values[j][i] = r
    return CorrelationMatrix(
        keys=ALL_KEYS,
        values=tuple(tuple(row) for row in values),
        counts=tuple(tuple(row) for row in counts),
    )


def write_correlation_csv(matrix: CorrelationMatrix, sink: IO[str]) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow([""] + [key.label for key in matrix.keys])
    for key, row in zip(matrix.keys, matrix.values):
        writer.writerow([key.label] + [format_value(v) for v in row])


def summary_report(g: DirectedGraph) -> dict:
    """Whole-graph summary: size, moments, all 16 closure values, the 4
    clustering means, and how many nodes lack each wedge type."""
    if g.n == 0:
        raise ValueError("summary undefined for an empty graph")
    mom = degree_moments(g)
    counts = census(g)
    averages = average_closure(counts)
    globals_ = global_closure(counts)
    means = mean_clustering(counts)
    undefined = {wedge_label(xy): int((counts.wedges[xy] == 0).sum()) for xy in WEDGE_TYPES}
    return {
        "nodes": g.n,
        "edges": g.m,
        "moments": {"m_ii": mom.m_ii, "m_io": mom.m_io, "m_oo": mom.m_oo},
        "average_closure": {key.label: averages[key] for key in ALL_KEYS},
        "global_closure": {key.label: globals_[key] for key in ALL_KEYS},
        "mean_clustering": {clustering_label(xy): means[xy] for xy in WEDGE_TYPES},
        "undefined_wedge_heads": undefined,
    }
