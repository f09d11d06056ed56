"""Directed configuration-model machinery.

Two halves. First, leading-order expectations of the closure and clustering
coefficients over the uniform distribution of simple directed graphs with a
fixed joint degree sequence; each is a closed form in the sequence's size
and second-order moments. Second, a degree-preserving double-edge-swap
chain that samples that distribution, plus a batch experiment comparing
sampled coefficient distributions against the closed forms.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .closure import (
    ALL_KEYS,
    CoefficientKey,
    WedgeType,
    average_closure,
    census,
    global_closure,
)
from .graph import IN, DirectedGraph, DegreeMoments, degree_moments

# ---------------------------------------------------------------------------
# Closed-form expectations
# ---------------------------------------------------------------------------


def _require_edges(mom: DegreeMoments) -> None:
    if mom.m <= 0:
        raise ValueError("expectations undefined for a degree sequence with no edges")


def _tail_factor(mom: DegreeMoments, key: CoefficientKey) -> float:
    # expected spare stubs at the wedge tail: M_{y~ z~} minus one matched
    # stub when the closing direction coincides with the tail's wedge edge
    value = mom.moment(key.y.complement, key.z.complement)
    if key.y is key.z:
        value -= mom.m / mom.n
    return value


def expected_local_closure(mom: DegreeMoments, d_in: int, d_out: int, key: CoefficientKey) -> float:
    """Leading-order expected local closure coefficient for one node.

    The node enters only through its degree in the closing direction; one
    stub is discounted when the wedge's first edge already uses it. The
    value is clamped at 0 when the discount turns the factor negative
    (degree 0 in the closing direction), where the asymptotic formula is
    outside its regime.
    """
    _require_edges(mom)
    d_z = d_in if key.z is IN else d_out
    head = d_z - (1 if key.x is key.z else 0)
    value = mom.n * head / (mom.m * mom.m) * _tail_factor(mom, key)
    return value if value > 0.0 else 0.0


def expected_average_closure(mom: DegreeMoments, key: CoefficientKey) -> float:
    """Leading-order expected average closure coefficient.

    Equals the node-mean of the local expectations whenever no per-node
    clamping occurs; clamped at 0 for sequences with fewer edges than nodes
    and a same-direction first and closing edge.
    """
    _require_edges(mom)
    head = mom.m - (mom.n if key.x is key.z else 0)
    value = head / (mom.m * mom.m) * _tail_factor(mom, key)
    return value if value > 0.0 else 0.0


def expected_global_closure(mom: DegreeMoments, key: CoefficientKey) -> float:
    """Leading-order expected global closure coefficient."""
    _require_edges(mom)
    head = mom.moment(key.x, key.z)
    if key.x is key.z:
        head -= mom.m / mom.n
    value = _tail_factor(mom, key) * head * mom.n * mom.n / (mom.m ** 3)
    return value if value > 0.0 else 0.0


def expected_clustering(mom: DegreeMoments, xy: WedgeType) -> float:
    """Expected center-based clustering coefficient.

    A wedge centered at a node is, read from its head, a wedge of type
    (complement(x), y) closed in the incoming direction, and under the
    null model the closing probability does not depend on the center.
    """
    return expected_global_closure(mom, CoefficientKey(xy[0].complement, xy[1], IN))


# ---------------------------------------------------------------------------
# Double-edge-swap sampling
# ---------------------------------------------------------------------------


class SwapResult(Enum):
    SWAPPED = "swapped"
    REJECTED_SAME_EDGE = "rejected_same_edge"
    REJECTED_SELF_LOOP = "rejected_self_loop"
    REJECTED_MULTI_EDGE = "rejected_multi_edge"


class CountMode(Enum):
    """Whether a chain length counts swap attempts or accepted swaps."""

    ATTEMPTED = "attempted"
    ACCEPTED = "accepted"


@dataclass(frozen=True)
class SwapChainConfig:
    attempts: int
    seed: int
    count_mode: CountMode = CountMode.ATTEMPTED

    def __post_init__(self) -> None:
        if self.attempts < 0:
            raise ValueError("attempts must be non-negative")


def default_attempts(m: int) -> int:
    return max(20 * m, 10_000)


class EdgeSwapState:
    """Mutable edge-slot view of a graph used by the swap chain.

    Slot ``i`` holds the edge ``src[i] -> dst[i]``, in ``g.edges()`` order.
    ``src`` never changes: a swap of slots i and j, (a->b, c->d) to
    (a->d, c->b), exchanges ``dst[i]`` and ``dst[j]``. ``keys`` holds every
    edge as ``u * n + v`` for the duplicate checks. The joint degree
    sequence is invariant under every swap.
    """

    __slots__ = ("n", "labels", "src", "dst", "keys")

    def __init__(self, g: DirectedGraph):
        self.n = g.n
        self.labels = g.labels
        edges = list(g.edges())
        self.src = [u for u, _ in edges]
        self.dst = [v for _, v in edges]
        self.keys = {u * g.n + v for u, v in edges}

    def run(self, rng: random.Random, attempts: int) -> tuple[int, int, int, int]:
        """Make ``attempts`` uniform proposals; returns the count of each
        ``SwapResult`` in member order (swapped, same slot, self-loop,
        multi-edge).

        Each proposal draws slots i then j, each exactly as
        ``rng.randrange(m)`` would (``getrandbits(m.bit_length())``, redrawn
        while >= m), and rewires (a->b, c->d) to (a->d, c->b) unless i == j
        or that makes a self-loop or a duplicate edge.
        """
        m = len(self.src)
        if m < 2:
            raise ValueError("double edge swap needs at least 2 edges")
        n = self.n
        src = self.src
        dst = self.dst
        keys = self.keys
        getrandbits = rng.getrandbits
        k = m.bit_length()
        same = loops = multi = 0
        for _ in range(attempts):
            i = getrandbits(k)
            while i >= m:
                i = getrandbits(k)
            j = getrandbits(k)
            while j >= m:
                j = getrandbits(k)
            if i == j:
                same += 1
                continue
            a = src[i]
            b = dst[i]
            c = src[j]
            d = dst[j]
            if a == d or c == b:
                loops += 1
                continue
            p1 = a * n + d
            p2 = c * n + b
            if p1 in keys or p2 in keys:
                multi += 1
                continue
            keys.remove(a * n + b)
            keys.remove(c * n + d)
            keys.add(p1)
            keys.add(p2)
            dst[i] = d
            dst[j] = b
        return attempts - same - loops - multi, same, loops, multi

    def to_graph(self) -> DirectedGraph:
        return DirectedGraph(self.n, np.column_stack((self.src, self.dst)), labels=self.labels)


def run_swap_chain(g: DirectedGraph, cfg: SwapChainConfig) -> tuple[DirectedGraph, Counter]:
    """Run one seeded swap chain from ``g``; returns (graph, outcome counts).

    The chain is ``EdgeSwapState.run`` on ``random.Random(cfg.seed)``, so its
    slot draws are those of ``randrange(m)`` on that generator. In ACCEPTED
    mode the chain runs until ``cfg.attempts`` swaps are applied, with a
    safety cap of 200x that many attempts so graphs admitting no swap fail
    loudly instead of spinning. It runs in batches of at most the swaps
    still missing: a proposal applies at most one swap, so no batch
    overshoots and the attempt sequence is that of one attempt at a time.
    """
    if g.m < 2:
        raise ValueError("swap sampling needs at least 2 edges")
    state = EdgeSwapState(g)
    rng = random.Random(cfg.seed)
    if cfg.count_mode is CountMode.ATTEMPTED:
        tallies = state.run(rng, cfg.attempts)
    else:
        cap = max(200 * cfg.attempts, 1000)
        tallies = (0, 0, 0, 0)
        while tallies[0] < cfg.attempts:
            total = sum(tallies)
            if total >= cap:
                raise RuntimeError(
                    f"only {tallies[0]} of {cfg.attempts} swaps "
                    f"accepted after {total} attempts; graph may admit no swaps"
                )
            batch = state.run(rng, min(cfg.attempts - tallies[0], cap - total))
            tallies = tuple(t + b for t, b in zip(tallies, batch))
    return state.to_graph(), Counter(dict(zip(SwapResult, tallies)))


_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def sample_seed(seed: int, index: int) -> int:
    """Per-sample seed for sample ``index``: splitmix64(seed ^ splitmix64(index)).

    Fixed mixing function so experiments are reproducible and samples can
    be generated independently (and in parallel) from the base seed.
    """
    return _splitmix64((seed & _MASK64) ^ _splitmix64(index & _MASK64))


# ---------------------------------------------------------------------------
# Batch experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientStats:
    """Sampled distribution of one coefficient next to theory and data."""

    mean: float | None
    std: float | None
    theory: float
    empirical: float | None
    hist_edges: tuple[float, ...]
    hist_counts: tuple[int, ...]
    defined_samples: int

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "theory": self.theory,
            "empirical": self.empirical,
            "hist": {"edges": list(self.hist_edges), "counts": list(self.hist_counts)},
            "defined_samples": self.defined_samples,
        }


@dataclass(frozen=True)
class NullModelReport:
    samples: int
    attempts: int
    count_mode: CountMode
    seed: int
    bins: int
    average: dict[CoefficientKey, CoefficientStats]
    global_coefficients: dict[CoefficientKey, CoefficientStats]
    swap_totals: dict[SwapResult, int]

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "attempts": self.attempts,
            "count_mode": self.count_mode.value,
            "seed": self.seed,
            "bins": self.bins,
            "swap_totals": {result.value: count for result, count in self.swap_totals.items()},
            "average": {key.label: stats.to_dict() for key, stats in self.average.items()},
            "global": {key.label: stats.to_dict() for key, stats in self.global_coefficients.items()},
        }


def _summarize(
    values: list[float], theory: float, empirical: float | None, bins: int
) -> CoefficientStats:
    if not values:
        return CoefficientStats(None, None, theory, empirical, (), (), 0)
    k = len(values)
    mean = math.fsum(values) / k
    if k >= 2:
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (k - 1))
    else:
        std = None
    counts, edges = np.histogram(values, bins=bins)
    return CoefficientStats(
        mean=mean,
        std=std,
        theory=theory,
        empirical=empirical,
        hist_edges=tuple(float(e) for e in edges),
        hist_counts=tuple(int(c) for c in counts),
        defined_samples=k,
    )


def run_null_experiment(
    g: DirectedGraph, samples: int, cfg: SwapChainConfig, bins: int = 50
) -> NullModelReport:
    """Sample ``samples`` null-model graphs and summarize all 16 coefficients.

    Sample ``k`` uses an independent chain seeded with
    ``sample_seed(cfg.seed, k)``, so any sample can be reproduced on its
    own with ``run_swap_chain(g, replace(cfg, seed=sample_seed(cfg.seed, k)))``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if bins < 1:
        raise ValueError("need at least one histogram bin")
    mom = degree_moments(g)
    base = census(g)
    empirical_avg = average_closure(base)
    empirical_glob = global_closure(base)

    avg_values: dict[CoefficientKey, list[float]] = {key: [] for key in ALL_KEYS}
    glob_values: dict[CoefficientKey, list[float]] = {key: [] for key in ALL_KEYS}
    totals: Counter = Counter({result: 0 for result in SwapResult})
    for index in range(samples):
        sampled, outcomes = run_swap_chain(g, replace(cfg, seed=sample_seed(cfg.seed, index)))
        totals.update(outcomes)
        counts = census(sampled)
        for key, value in average_closure(counts).items():
            avg_values[key].append(value)
        for key, value in global_closure(counts).items():
            if value is not None:
                glob_values[key].append(value)

    average = {
        key: _summarize(
            avg_values[key], expected_average_closure(mom, key), empirical_avg[key], bins
        )
        for key in ALL_KEYS
    }
    global_coefficients = {
        key: _summarize(
            glob_values[key], expected_global_closure(mom, key), empirical_glob[key], bins
        )
        for key in ALL_KEYS
    }
    return NullModelReport(
        samples=samples,
        attempts=cfg.attempts,
        count_mode=cfg.count_mode,
        seed=cfg.seed,
        bins=bins,
        average=average,
        global_coefficients=global_coefficients,
        swap_totals=dict(totals),
    )
