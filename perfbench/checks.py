"""Output checks for the benchmark workloads.

Every check recomputes what it expects from the generated edge list, with
code independent of the program under test, and returns a list of failure
messages (empty when the output is correct). No check pins output bytes:
the version string and the null-model random stream may change between
commits without failing a run.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

from gen import EdgeList

WEDGES = ("ii", "io", "oi", "oo")
CLOSURE = tuple(f"closure_{xy}_{z}" for xy in WEDGES for z in "io")
CLUSTERING = tuple(f"clustering_{xy}" for xy in WEDGES)
# Global coefficients that count the same closed structure, so they are
# equal in every digraph (read from the head of the first or second edge).
SYMMETRIC_PAIRS = (
    ("closure_ii_i", "closure_oo_o"),
    ("closure_ii_o", "closure_oo_i"),
    ("closure_io_i", "closure_io_o"),
    ("closure_oi_i", "closure_oi_o"),
)


class Recount:
    """Per-node degrees and wedge totals of an edge list, by degree arithmetic.

    For head u, an xy-wedge picks a center v among u's x-neighbours and a
    tail among v's y-neighbours other than u, so W_xy(u) sums d_y(v) over
    the centers, less one per center where u itself is a y-neighbour of v.
    """

    def __init__(self, el: EdgeList):
        self.el = el
        s, t = el.src, el.dst
        r = el.reciprocal().astype(np.int64)
        self.d_in, self.d_out = el.degrees()
        self.present = (self.d_in + self.d_out) > 0
        self.recip = np.bincount(s, weights=r, minlength=el.n).astype(np.int64)

        def per_node(nodes, values):
            return np.bincount(nodes, weights=values, minlength=el.n).astype(np.int64)

        self.wedges = {
            "ii": per_node(t, self.d_in[s] - r),
            "io": per_node(t, self.d_out[s] - 1),
            "oi": per_node(s, self.d_in[t] - 1),
            "oo": per_node(s, self.d_out[t] - r),
        }
        d = {"i": self.d_in, "o": self.d_out}
        self.pairs = {
            xy: d[xy[0]] * (d[xy[0]] - 1) if xy[0] == xy[1] else d[xy[0]] * d[xy[1]] - self.recip
            for xy in WEDGES
        }

    def undefined_heads(self) -> dict[str, int]:
        return {xy: int(((self.wedges[xy] == 0) & self.present).sum()) for xy in WEDGES}


def _unit_or_none(name: str, value) -> list[str]:
    if value is None:
        return []
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        return [f"{name}={value!r} outside [0,1]"]
    return []


def _pairs_equal(where: str, values: dict) -> list[str]:
    return [
        f"{where}: {a}={values[a]!r} != {b}={values[b]!r}"
        for a, b in SYMMETRIC_PAIRS
        if values[a] != values[b]
    ]


def check_repairs(stderr: str, el: EdgeList) -> list[str]:
    """The duplicate and self-loop counts the program reports match the injected ones."""
    dup = re.search(r"(\d+) duplicate", stderr)
    loops = re.search(r"(\d+) self-loop", stderr)
    got = (int(dup.group(1)) if dup else 0, int(loops.group(1)) if loops else 0)
    want = (el.duplicates, el.self_loops)
    return [] if got == want else [f"repairs reported {got}, injected {want}"]


def check_stats(text: str, rc: Recount) -> list[str]:
    doc = json.loads(text)
    errors = []
    n = int(rc.present.sum())
    if (doc["nodes"], doc["edges"]) != (n, rc.el.m):
        errors.append(f"nodes/edges {doc['nodes']}/{doc['edges']} != {n}/{rc.el.m}")
    moments = {
        "m_ii": int((rc.d_in * rc.d_in).sum()) / n,
        "m_io": int((rc.d_in * rc.d_out).sum()) / n,
        "m_oo": int((rc.d_out * rc.d_out).sum()) / n,
    }
    if doc["moments"] != moments:
        errors.append(f"moments {doc['moments']} != {moments}")
    for section in ("average_closure", "global_closure", "mean_clustering"):
        for name, value in doc[section].items():
            errors += _unit_or_none(f"{section}.{name}", value)
    errors += _pairs_equal("global_closure", doc["global_closure"])
    if doc["undefined_wedge_heads"] != rc.undefined_heads():
        errors.append(f"undefined_wedge_heads {doc['undefined_wedge_heads']} != {rc.undefined_heads()}")
    return errors


def _adjacency(el: EdgeList) -> tuple[dict[int, set], dict[int, set]]:
    out_sets: dict[int, set] = {}
    in_sets: dict[int, set] = {}
    for u, v in zip(el.src.tolist(), el.dst.tolist()):
        out_sets.setdefault(u, set()).add(v)
        in_sets.setdefault(v, set()).add(u)
    return in_sets, out_sets


def brute_force_node(u: int, in_sets: dict, out_sets: dict) -> dict[str, float | None]:
    """All 12 coefficients of node u by enumerating its wedges one by one."""
    nbrs = {"i": lambda v: in_sets.get(v, set()), "o": lambda v: out_sets.get(v, set())}
    in_u, out_u = nbrs["i"](u), nbrs["o"](u)
    values: dict[str, float | None] = {}
    for xy in WEDGES:
        x, y = xy
        wedges = closed_i = closed_o = 0
        for v in nbrs[x](u):
            for w in nbrs[y](v):
                if w != u:
                    wedges += 1
                    closed_i += w in in_u
                    closed_o += w in out_u
        values[f"closure_{xy}_i"] = closed_i / wedges if wedges else None
        values[f"closure_{xy}_o"] = closed_o / wedges if wedges else None
        pairs = closed = 0
        for v in nbrs[x](u):
            for w in nbrs[y](u):
                if w != v:
                    pairs += 1
                    closed += v in nbrs["o"](w)
        values[f"clustering_{xy}"] = closed / pairs if pairs else None
    return values


def brute_force_sample(rc: Recount, seed: int, extra: int = 40) -> dict[int, dict]:
    """Brute-force coefficients of the ten highest-degree nodes plus ``extra``
    seeded random ones."""
    degree = rc.d_in + rc.d_out
    present = np.flatnonzero(rc.present)
    top = present[np.lexsort((present, -degree[present]))][:10]
    rng = np.random.default_rng(seed)
    nodes = sorted(set(top.tolist()) | set(rng.choice(present, extra, replace=False).tolist()))
    in_sets, out_sets = _adjacency(rc.el)
    return {u: brute_force_node(u, in_sets, out_sets) for u in nodes}


def _cell(value: str) -> float | None:
    return None if value == "" else float(value)


def check_features(text: str, rc: Recount, sample: dict[int, dict]) -> list[str]:
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    errors = []
    n = int(rc.present.sum())
    if len(rows) != n:
        return [f"{len(rows)} feature rows, expected {n}"]
    tokens = np.array([int(row["token"]) for row in rows])
    if not np.array_equal(np.sort(tokens), np.flatnonzero(rc.present)):
        return ["feature rows do not cover the nodes of the input once each"]
    for column, want in (("d_in", rc.d_in), ("d_out", rc.d_out), ("d_recip", rc.recip)):
        got = np.array([int(row[column]) for row in rows])
        if not np.array_equal(got, want[tokens]):
            errors.append(f"column {column} differs from the degree recount")
    expected_defined = {name: rc.wedges[name[8:10]] > 0 for name in CLOSURE}
    expected_defined.update({name: rc.pairs[name[11:13]] > 0 for name in CLUSTERING})
    for name, want in expected_defined.items():
        got = np.array([row[f"{name}_defined"] == "1" for row in rows])
        if not np.array_equal(got, want[tokens]):
            errors.append(f"column {name}_defined differs from the wedge recount")
        empty = np.array([row[name] == "" for row in rows])
        if not np.array_equal(empty, ~got):
            errors.append(f"column {name} is empty exactly where not defined: violated")
        for row in rows:
            errors += _unit_or_none(f"{name}[{row['token']}]", _cell(row[name]))
    by_token = {int(row["token"]): row for row in rows}
    for u, want in sample.items():
        got = {name: _cell(by_token[u][name]) for name in want}
        if got != want:
            errors.append(f"node {u}: coefficients {got} != brute force {want}")
    return errors[:20]


def dense_oracle(rc: Recount) -> tuple[dict[str, float], dict[str, float | None]]:
    """Average and global closure of a small graph from dense matrix products.

    With A_o = A and A_i = A^T, the xy-wedges at head u are
    rowsum(A_x A_y) - diag(A_x A_y), and the z-closed ones rowsum((A_x A_y) o A_z).
    """
    present = np.flatnonzero(rc.present)
    index = np.full(rc.el.n, -1)
    index[present] = np.arange(len(present))
    a = np.zeros((len(present), len(present)), dtype=np.int64)
    a[index[rc.el.src], index[rc.el.dst]] = 1
    mats = {"o": a, "i": a.T}
    average: dict[str, float] = {}
    global_: dict[str, float | None] = {}
    for xy in WEDGES:
        prod = mats[xy[0]] @ mats[xy[1]]
        wedges = prod.sum(axis=1) - np.diag(prod)
        for z in "io":
            closed = (prod * mats[z]).sum(axis=1)
            label = f"closure_{xy}_{z}"
            average[label] = math.fsum(
                c / w for c, w in zip(closed.tolist(), wedges.tolist()) if w > 0
            ) / len(present)
            total = int(wedges.sum())
            global_[label] = int(closed.sum()) / total if total else None
    return average, global_


def check_nullmodel(text: str, rc: Recount, samples: int, oracle) -> list[str]:
    doc = json.loads(text)
    errors = []
    attempts = max(20 * rc.el.m, 10_000)
    if (doc["samples"], doc["attempts"]) != (samples, attempts):
        errors.append(f"samples/attempts {doc['samples']}/{doc['attempts']} != {samples}/{attempts}")
    totals = doc["swap_totals"]
    if sum(totals.values()) != samples * attempts or not totals.get("swapped"):
        errors.append(f"swap_totals {totals} do not sum to {samples}x{attempts} with swaps")
    for section, want in zip(("average", "global"), oracle):
        stats = doc[section]
        for name, entry in stats.items():
            errors += _unit_or_none(f"{section}.{name}.mean", entry["mean"])
            if entry["std"] is not None and entry["std"] < 0:
                errors.append(f"{section}.{name}.std negative")
            if sum(entry["hist"]["counts"]) != entry["defined_samples"] or entry["defined_samples"] > samples:
                errors.append(f"{section}.{name}: histogram counts != defined samples")
        empirical = {name: entry["empirical"] for name, entry in stats.items()}
        if empirical != want:
            errors.append(f"{section} empirical {empirical} != dense recount {want}")
    errors += _pairs_equal("global mean", {k: v["mean"] for k, v in doc["global"].items()})
    errors += _pairs_equal("global empirical", {k: v["empirical"] for k, v in doc["global"].items()})
    return errors
