"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criteria needing the
soc-Lawyer or fw-Florida datasets skip with a notice when the files are
not present under data/ (see data/README.md); the null-model criterion
falls back to a synthetic degree sequence in that case.
"""

import math
import random
import time

import pytest

from dirclosure import (
    ALL_KEYS,
    IN,
    OUT,
    WEDGE_TYPES,
    CoefficientKey,
    DegreeMoments,
    DirectedGraph,
    ExtremalSpec,
    SwapChainConfig,
    average_closure,
    build_extremal,
    check_symmetry,
    claimed_io_closure,
    closure_profiles,
    degree_moments,
    edge_label_tallies,
    expected_average_closure,
    expected_global_closure,
    expected_local_closure,
    global_closure,
    clustering_profiles,
    load_edge_list,
    mean_clustering,
    run_null_experiment,
    run_swap_chain,
    sample_seed,
    write_edge_list,
)
from dirclosure.cli import main as cli_main

from .conftest import (
    FW_FLORIDA_NAMES,
    SOC_LAWYER_NAMES,
    find_data_file,
    random_digraph,
    synthetic_heavy_tail_graph,
)
from .oracles import brute_closure_counts, brute_clustering_counts

KEY_IOI = CoefficientKey(IN, OUT, IN)
KEY_IOO = CoefficientKey(IN, OUT, OUT)

NULL_SAMPLES = 200
NULL_ATTEMPTS = 10_000
NULL_SEED = 20240810


def _report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: PASS — {detail}")


def _available_datasets():
    out = []
    for label, names in (("soc-Lawyer", SOC_LAWYER_NAMES), ("fw-Florida", FW_FLORIDA_NAMES)):
        path = find_data_file(names)
        if path is not None:
            graph, _ = load_edge_list(path)
            out.append((label, graph))
    return out


@pytest.fixture(scope="module")
def null_base_graph():
    """soc-Lawyer when present, otherwise the synthetic fallback sequence."""
    path = find_data_file(SOC_LAWYER_NAMES)
    if path is not None:
        graph, _ = load_edge_list(path)
        return "soc-Lawyer", graph
    return "synthetic(n=100)", synthetic_heavy_tail_graph()


def test_criterion_1_symmetry():
    """Global-coefficient symmetry residuals stay below 1e-12 everywhere."""
    start = time.perf_counter()
    rng = random.Random(424242)
    checked = 0
    for _ in range(400):
        g = random_digraph(rng, rng.randint(2, 60), rng.uniform(0.02, 0.15))
        residuals = check_symmetry(global_closure(g))
        assert all(r <= 1e-12 for r in residuals.values())
        checked += 1
    for _ in range(100):
        g = random_digraph(rng, rng.randint(2, 12), 0.5)
        residuals = check_symmetry(global_closure(g))
        assert all(r <= 1e-12 for r in residuals.values())
        checked += 1
    datasets = _available_datasets()
    for label, g in datasets:
        residuals = check_symmetry(global_closure(g))
        assert all(r <= 1e-12 for r in residuals.values()), label
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
    _report(1, f"residuals <= 1e-12 on {checked} graphs ({len(datasets)} datasets) in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    """Closed-form counts equal brute-force enumeration, integer-exactly."""
    start = time.perf_counter()
    rng = random.Random(515151)
    for trial in range(200):
        n = rng.randint(1, 25)
        p = rng.uniform(0.05, 0.4) if trial % 4 else rng.uniform(0.4, 0.6)
        g = random_digraph(rng, n, p)
        edges = list(g.edges())
        oracle_wedges, oracle_closed = brute_closure_counts(edges)
        oracle_denoms, _ = brute_clustering_counts(n, edges)
        for u, (profile, clustering) in enumerate(zip(closure_profiles(g), clustering_profiles(g))):
            for xy in WEDGE_TYPES:
                assert profile.wedges[xy] == oracle_wedges[(u, str(xy[0]), str(xy[1]))]
            for key in ALL_KEYS:
                assert profile.closed[key] == oracle_closed[(u, str(key.x), str(key.y), str(key.z))]
            for xy in WEDGE_TYPES:
                assert clustering.denominators[xy] == oracle_denoms[(u, str(xy[0]), str(xy[1]))]
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"
    _report(2, f"200 random graphs match O(m^2)/O(n^3) oracles exactly in {elapsed:.1f}s")


def test_criterion_3_soc_lawyer_reproduction(soc_lawyer):
    mom = degree_moments(soc_lawyer)
    assert soc_lawyer.n == 71
    assert soc_lawyer.m == 892
    assert mom.m_ii == pytest.approx(227.41, abs=0.01)
    assert mom.m_io == pytest.approx(166.15, abs=0.01)
    assert mom.m_oo == pytest.approx(208.65, abs=0.01)
    averages = average_closure(soc_lawyer)
    assert averages[KEY_IOI] == pytest.approx(0.263, abs=0.001)
    assert averages[KEY_IOO] == pytest.approx(0.362, abs=0.001)
    _report(3, "soc-Lawyer sizes, moments, and io-closure averages reproduced")


def test_criterion_4_fw_florida_tallies(fw_florida, fw_florida_labels):
    mom = degree_moments(fw_florida)
    assert fw_florida.n == 128
    assert fw_florida.m == 2106
    assert mom.m_ii == pytest.approx(493.08, abs=0.01)
    assert mom.m_io == pytest.approx(201.92, abs=0.01)
    assert mom.m_oo == pytest.approx(451.62, abs=0.01)
    tallies = edge_label_tallies(fw_florida, fw_florida_labels)
    grouped = {"ff": 0, "nn": 0, "fn": 0, "nf": 0}
    for (src, dst), count in tallies.items():
        assert src is not None and dst is not None, "every node needs a label"
        bucket = ("f" if src == "fish" else "n") + ("f" if dst == "fish" else "n")
        grouped[bucket] += count
    assert grouped["ff"] == 268
    assert grouped["nn"] == 699
    assert grouped["fn"] == 648
    assert grouped["nf"] == 491
    _report(4, "fw-Florida sizes, moments, and labeled edge tallies reproduced")


def test_criterion_5_null_model_concentration(null_base_graph):
    """Sampled coefficient means concentrate on the closed-form expectations."""
    source, g = null_base_graph
    start = time.perf_counter()
    cfg = SwapChainConfig(attempts=NULL_ATTEMPTS, seed=NULL_SEED)
    report = run_null_experiment(g, NULL_SAMPLES, cfg)
    mom = degree_moments(g)
    worst = 0.0
    for key in ALL_KEYS:
        for section, theory_fn in (
            (report.average, expected_average_closure),
            (report.global_coefficients, expected_global_closure),
        ):
            stats = section[key]
            theory = theory_fn(mom, key)
            assert stats.theory == theory
            assert stats.defined_samples == NULL_SAMPLES
            if theory < 0.02:
                assert abs(stats.mean - theory) <= 0.005, key.label
            else:
                rel = abs(stats.mean - theory) / theory
                worst = max(worst, rel)
                assert rel <= 0.05, f"{key.label}: {rel:.2%}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min budget"
    _report(
        5,
        f"{NULL_SAMPLES} samples from {source}: worst relative gap {worst:.2%} "
        f"(tolerance 5%) in {elapsed:.1f}s",
    )


def test_criterion_6_clustering_correspondence(null_base_graph):
    """Node-mean clustering on the same samples matches the flipped-type
    incoming-closure expectation within 10%."""
    source, g = null_base_graph
    mom = degree_moments(g)
    sums = {xy: [] for xy in WEDGE_TYPES}
    for index in range(NULL_SAMPLES):
        sampled, _ = run_swap_chain(
            g, SwapChainConfig(attempts=NULL_ATTEMPTS, seed=sample_seed(NULL_SEED, index))
        )
        for xy, value in mean_clustering(sampled).items():
            sums[xy].append(value)
    worst = 0.0
    for xy in WEDGE_TYPES:
        theory = expected_global_closure(mom, CoefficientKey(xy[0].complement, xy[1], IN))
        sample_mean = math.fsum(sums[xy]) / NULL_SAMPLES
        rel = abs(sample_mean - theory) / theory
        worst = max(worst, rel)
        assert rel <= 0.10, f"clustering_{xy[0]}{xy[1]}: {rel:.2%}"
    _report(6, f"clustering node-means on {source} within 10% of theory (worst {worst:.2%})")


def test_criterion_7_expectation_summation_identity():
    """Average expectation equals the node-mean of local expectations.

    Test sequences all have min in/out degree >= 1: that is the regime
    where no local value is clamped, so the identity is exact.
    """
    sequences: list[list[tuple[int, int]]] = []
    sequences.append(synthetic_heavy_tail_graph().degree_pairs())
    sequences.append([(3, 3)] * 12)
    sequences.append([(1, 1)] * 5)
    rng = random.Random(616161)
    for _ in range(5):
        n = rng.randint(3, 50)
        cycle = {(u, (u + 1) % n) for u in range(n)}
        extra = {(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.15}
        sequences.append(DirectedGraph(n, sorted(cycle | extra)).degree_pairs())
    for label, g in _available_datasets():
        pairs = g.degree_pairs()
        if min(min(p) for p in pairs) >= 1:
            sequences.append(pairs)
        else:
            print(f"criterion 7 notice: {label} has zero-degree nodes, outside the exact regime")
    for pairs in sequences:
        mom = DegreeMoments.from_degree_pairs(pairs)
        n = len(pairs)
        for key in ALL_KEYS:
            mean_local = math.fsum(expected_local_closure(mom, di, do, key) for di, do in pairs) / n
            assert expected_average_closure(mom, key) == pytest.approx(mean_local, abs=1e-12)
    _report(7, f"identity exact to 1e-12 on {len(sequences)} degree sequences x 8 keys")


def test_criterion_8_extremal_construction():
    singleton = ExtremalSpec(1, 1, 1, 1)
    claimed = claimed_io_closure(singleton)
    averages = average_closure(build_extremal(singleton))
    assert claimed == (0.125, 0.125)
    assert averages[KEY_IOI] == 0.125
    assert averages[KEY_IOO] == 0.125

    doubled = ExtremalSpec(2, 1, 1, 1)
    claimed_i, _ = claimed_io_closure(doubled)
    computed = average_closure(build_extremal(doubled))[KEY_IOI]
    assert claimed_i == pytest.approx(0.2, abs=1e-15)
    assert computed == pytest.approx(0.1, abs=1e-15)
    # the tool must flag the divergence rather than merge the two numbers
    assert abs(claimed_i - computed) > 1e-12
    _report(8, "(1,1,1,1) agrees at 0.125; (2,1,1,1) reports claimed 0.2 vs computed 0.1")


def test_criterion_9_cli_determinism(tmp_path):
    graph_path = tmp_path / "null-input.txt"
    with open(graph_path, "w", encoding="utf-8") as fh:
        write_edge_list(synthetic_heavy_tail_graph(n=40, m=200), fh)
    ffw_path = tmp_path / "ffw.txt"
    ffw_path.write_text("a b\nb c\na c\n")

    invocations = [
        ["closure", str(ffw_path), "--format", "json"],
        ["stats", str(graph_path), "--format", "csv"],
        [
            "nullmodel",
            str(graph_path),
            "--samples",
            "10",
            "--swaps",
            "1000",
            "--seed",
            "11",
            "--format",
            "json",
        ],
        ["features", str(graph_path)],
    ]
    for index, argv in enumerate(invocations):
        first = tmp_path / f"out-{index}-a"
        second = tmp_path / f"out-{index}-b"
        assert cli_main(argv + ["--out", str(first)]) == 0
        assert cli_main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes(), argv[0]
    _report(9, f"{len(invocations)} CLI invocations byte-identical across reruns")
