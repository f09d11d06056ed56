import io
import random
from itertools import accumulate
from pathlib import Path

import pytest

from dirclosure import DirectedGraph, load_edge_list

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

SOC_LAWYER_NAMES = ("soc-lawyer.txt", "soc-Lawyer.txt", "ELadv.txt")
FW_FLORIDA_NAMES = ("fw-florida.txt", "fw-Florida.txt", "FW-baywet.txt")
FW_FLORIDA_LABEL_NAMES = ("fw-florida-labels.csv", "fw-Florida-labels.csv")
SOC_LAWYER_LABEL_NAMES = ("soc-lawyer-labels.csv", "soc-Lawyer-labels.csv")


def find_data_file(names):
    for name in names:
        path = DATA_DIR / name
        if path.exists():
            return path
    return None


def graph_from_text(text: str) -> DirectedGraph:
    graph, _ = load_edge_list(io.StringIO(text))
    return graph


def random_digraph(rng: random.Random, n: int, p: float) -> DirectedGraph:
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return DirectedGraph(n, edges)


def synthetic_heavy_tail_graph(
    n: int = 100, m: int = 1300, seed: int = 987123, alpha: float = 0.5, offset: int = 6
) -> DirectedGraph:
    """Deterministic graph with a right-skewed joint degree sequence.

    A spanning cycle guarantees min in/out degree 1, then edges accumulate
    under rank-decaying source and target weights (independent rank
    orderings, so in- and out-degree are not locked together). The tail is
    tempered (``(offset + rank) ** -alpha``): at the default size degrees
    span roughly 4..33, skewed but light enough that the leading-order
    null-model formulas stay accurate at n=100. Heavier tails put the
    asymptotics visibly outside their regime at this scale.
    """
    rng = random.Random(seed)
    edges = {(u, (u + 1) % n) for u in range(n)}
    out_rank = list(range(n))
    in_rank = list(range(n))
    rng.shuffle(out_rank)
    rng.shuffle(in_rank)
    # cumulative weights built once: choices(weights=...) rebuilds them per
    # call (O(n) per draw) and draws the same values from them
    out_cum = list(accumulate((offset + out_rank[u]) ** -alpha for u in range(n)))
    in_cum = list(accumulate((offset + in_rank[u]) ** -alpha for u in range(n)))
    nodes = list(range(n))
    while len(edges) < m:
        u = rng.choices(nodes, cum_weights=out_cum)[0]
        v = rng.choices(nodes, cum_weights=in_cum)[0]
        if u != v:
            edges.add((u, v))
    return DirectedGraph(n, sorted(edges))


@pytest.fixture
def ffw_triangle() -> DirectedGraph:
    return graph_from_text("a b\nb c\na c")


@pytest.fixture
def cycle3() -> DirectedGraph:
    return graph_from_text("a b\nb c\nc a")


@pytest.fixture(scope="session")
def soc_lawyer() -> DirectedGraph:
    path = find_data_file(SOC_LAWYER_NAMES)
    if path is None:
        pytest.skip(
            "soc-Lawyer dataset not present (expected one of "
            f"{', '.join(SOC_LAWYER_NAMES)} under data/): criterion skipped"
        )
    graph, _ = load_edge_list(path)
    return graph


@pytest.fixture(scope="session")
def fw_florida() -> DirectedGraph:
    path = find_data_file(FW_FLORIDA_NAMES)
    if path is None:
        pytest.skip(
            "fw-Florida dataset not present (expected one of "
            f"{', '.join(FW_FLORIDA_NAMES)} under data/): criterion skipped"
        )
    graph, _ = load_edge_list(path)
    return graph


def _load_labels(names, what: str) -> dict:
    path = find_data_file(names)
    if path is None:
        pytest.skip(f"{what} label file not present under data/: check skipped")
    from dirclosure import read_labels

    with open(path, "r", encoding="utf-8", newline="") as fh:
        return read_labels(fh)


@pytest.fixture(scope="session")
def fw_florida_labels() -> dict:
    return _load_labels(FW_FLORIDA_LABEL_NAMES, "fw-Florida")


@pytest.fixture(scope="session")
def soc_lawyer_labels() -> dict:
    return _load_labels(SOC_LAWYER_LABEL_NAMES, "soc-Lawyer")
