import math
import random

import pytest

from dirclosure import (
    ALL_KEYS,
    IN,
    OUT,
    SYMMETRIC_PAIRS,
    WEDGE_TYPES,
    CoefficientKey,
    CountMode,
    DegreeMoments,
    DirectedGraph,
    EdgeSwapState,
    SwapChainConfig,
    SwapResult,
    average_closure,
    census,
    default_attempts,
    degree_moments,
    expected_average_closure,
    expected_clustering,
    expected_global_closure,
    expected_local_closure,
    global_closure,
    run_null_experiment,
    run_swap_chain,
    sample_seed,
)

from dirclosure import nullmodel

from .conftest import graph_from_text, random_digraph
from .oracles import swap_chain_reference

# Table-style inputs for the closed-form checks: size and second-order
# moments only, no dataset needed.
LAWYER_MOMENTS = DegreeMoments(n=71, m=892, m_ii=227.41, m_io=166.15, m_oo=208.65)


class ScriptedRng:
    """Stand-in rng whose getrandbits() replays a fixed script."""

    def __init__(self, *values):
        self.values = list(values)

    def getrandbits(self, k):
        value = self.values.pop(0)
        assert 0 <= value < 2**k
        return value


def slots(state):
    return list(zip(state.src, state.dst)), set(state.keys)


class TestExpectedLocal:
    def test_triangle_degree_sequence(self, ffw_triangle):
        mom = degree_moments(ffw_triangle)
        value = expected_local_closure(mom, 2, 0, CoefficientKey(IN, OUT, IN))
        assert value == pytest.approx(1 / 9, abs=1e-15)

    def test_single_stub_cancelled_by_indicator(self):
        mom = DegreeMoments(n=4, m=4, m_ii=1.0, m_io=1.0, m_oo=1.0)
        for y in (IN, OUT):
            assert expected_local_closure(mom, 1, 3, CoefficientKey(IN, y, IN)) == 0.0

    def test_negative_head_factor_clamped(self):
        mom = DegreeMoments(n=4, m=4, m_ii=1.0, m_io=1.0, m_oo=1.0)
        assert expected_local_closure(mom, 0, 3, CoefficientKey(IN, OUT, IN)) == 0.0

    def test_lawyer_moments_arithmetic(self):
        value = expected_local_closure(LAWYER_MOMENTS, 5, 20, CoefficientKey(IN, OUT, OUT))
        exact = 71 * 20 / 892**2 * (227.41 - 892 / 71)
        assert value == pytest.approx(exact, rel=1e-15)
        assert value == pytest.approx(0.3835, abs=3e-4)

    def test_zero_edges_rejected(self):
        mom = DegreeMoments(n=3, m=0, m_ii=0.0, m_io=0.0, m_oo=0.0)
        with pytest.raises(ValueError):
            expected_local_closure(mom, 0, 0, CoefficientKey(IN, IN, IN))


class TestExpectedAverage:
    def test_lawyer_moments_io_pair(self):
        value_o = expected_average_closure(LAWYER_MOMENTS, CoefficientKey(IN, OUT, OUT))
        value_i = expected_average_closure(LAWYER_MOMENTS, CoefficientKey(IN, OUT, IN))
        assert value_o == pytest.approx(892 / 892**2 * (227.41 - 892 / 71), rel=1e-15)
        assert value_o == pytest.approx(0.2409, abs=1e-4)
        assert value_i == pytest.approx((892 - 71) / 892**2 * 166.15, rel=1e-15)
        assert value_i == pytest.approx(0.1714, abs=1e-4)
        # predicted asymmetry points the same way as the observed one
        assert value_o > value_i

    def test_regular_sequence_closed_form(self):
        n, d = 12, 3
        mom = DegreeMoments.from_degree_pairs([(d, d)] * n)
        m = n * d
        value = expected_average_closure(mom, CoefficientKey(IN, OUT, IN))
        assert value == pytest.approx((m - n) / m**2 * d * d, rel=1e-15)

    def test_matches_mean_of_locals_when_degrees_positive(self):
        # min in/out degree 1 keeps every local factor non-negative, the
        # regime where the node-mean identity is exact
        rng = random.Random(909)
        for _ in range(10):
            n = rng.randint(3, 40)
            extra = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.2]
            cycle = [(u, (u + 1) % n) for u in range(n)]
            g = DirectedGraph(n, sorted(set(cycle) | set(extra)))
            mom = degree_moments(g)
            pairs = g.degree_pairs()
            for key in ALL_KEYS:
                mean_local = math.fsum(
                    expected_local_closure(mom, di, do, key) for di, do in pairs
                ) / n
                assert expected_average_closure(mom, key) == pytest.approx(
                    mean_local, abs=1e-12
                )


class TestExpectedGlobal:
    def test_lawyer_moments_ioi(self):
        value = expected_global_closure(LAWYER_MOMENTS, CoefficientKey(IN, OUT, IN))
        exact = 166.15 * (227.41 - 892 / 71) * 71**2 / 892**3
        assert value == pytest.approx(exact, rel=1e-15)
        assert value == pytest.approx(0.2536, abs=1e-4)

    def test_symmetric_pairs_agree(self):
        rng = random.Random(910)
        for _ in range(10):
            g = random_digraph(rng, rng.randint(2, 30), rng.uniform(0.05, 0.4))
            if g.m == 0:
                continue
            mom = degree_moments(g)
            for a, b in SYMMETRIC_PAIRS:
                assert abs(
                    expected_global_closure(mom, a) - expected_global_closure(mom, b)
                ) <= 1e-12

    def test_single_edge_boundary(self):
        mom = DegreeMoments.from_degree_pairs([(0, 1), (1, 0)])
        for key in ALL_KEYS:
            assert expected_global_closure(mom, key) >= 0.0


class TestExpectedClustering:
    def test_delegates_to_incoming_closure_of_flipped_type(self):
        for xy in WEDGE_TYPES:
            flipped = CoefficientKey(xy[0].complement, xy[1], IN)
            assert expected_clustering(LAWYER_MOMENTS, xy) == expected_global_closure(
                LAWYER_MOMENTS, flipped
            )

    def test_lawyer_moments_oo(self):
        value = expected_clustering(LAWYER_MOMENTS, (OUT, OUT))
        assert value == expected_global_closure(LAWYER_MOMENTS, CoefficientKey(IN, OUT, IN))
        assert value == pytest.approx(0.2536, abs=1e-4)


class TestDoubleEdgeSwap:
    def test_unconstrained_swap(self):
        state = EdgeSwapState(graph_from_text("a b\nc d"))
        assert state.run(ScriptedRng(0, 1), 1) == (1, 0, 0, 0)
        edges, keys = slots(state)
        assert set(edges) == {(0, 3), (2, 1)}
        assert keys == {0 * 4 + 3, 2 * 4 + 1}

    def test_self_loop_rejected(self):
        g = graph_from_text("a b\nc a")
        state = EdgeSwapState(g)
        before = slots(state)
        assert state.run(ScriptedRng(0, 1), 1) == (0, 0, 1, 0)
        assert slots(state) == before

    def test_duplicate_rejected(self):
        # edges a->b, a->d, c->b; swapping (c->b, a->d) would recreate a->b
        g = graph_from_text("a b\nc b\na d")
        state = EdgeSwapState(g)
        assert slots(state)[0] == [(0, 1), (0, 3), (2, 1)]
        before = slots(state)
        assert state.run(ScriptedRng(2, 1), 1) == (0, 0, 0, 1)
        assert slots(state) == before

    def test_same_slot_rejected(self):
        state = EdgeSwapState(graph_from_text("a b\nc d"))
        before = slots(state)
        assert state.run(ScriptedRng(1, 1), 1) == (0, 1, 0, 0)
        assert slots(state) == before

    def test_fewer_than_two_edges_rejected(self):
        state = EdgeSwapState(graph_from_text("a b"))
        with pytest.raises(ValueError):
            state.run(random.Random(0), 1)


class TestSwapChain:
    def test_zero_attempts_is_identity(self):
        g = graph_from_text("a b\nc d\nd a")
        out, _ = run_swap_chain(g, SwapChainConfig(attempts=0, seed=5))
        assert list(out.edges()) == list(g.edges())

    def test_preserves_joint_degree_sequence_and_simplicity(self):
        rng = random.Random(911)
        for trial in range(10):
            g = random_digraph(rng, rng.randint(5, 30), 0.25)
            if g.m < 2:
                continue
            out, _ = run_swap_chain(g, SwapChainConfig(attempts=2000, seed=trial))
            assert out.degree_pairs() == g.degree_pairs()
            # DirectedGraph construction rejects loops/duplicates, so
            # rebuilding is itself the simplicity check
            assert out.m == g.m

    def test_deterministic_for_equal_config(self):
        g = random_digraph(random.Random(912), 20, 0.3)
        cfg = SwapChainConfig(attempts=500, seed=99)
        first, _ = run_swap_chain(g, cfg)
        second, _ = run_swap_chain(g, cfg)
        assert list(first.edges()) == list(second.edges())

    def test_small_graph_rejected(self):
        with pytest.raises(ValueError):
            run_swap_chain(graph_from_text("a b"), SwapChainConfig(attempts=1, seed=0))

    def test_accepted_mode_counts_accepted(self):
        g = random_digraph(random.Random(913), 25, 0.3)
        _, counts = run_swap_chain(
            g, SwapChainConfig(attempts=50, seed=1, count_mode=CountMode.ACCEPTED)
        )
        assert counts[SwapResult.SWAPPED] == 50

    def test_accepted_mode_fails_loudly_when_no_swap_possible(self, ffw_triangle):
        cfg = SwapChainConfig(attempts=1, seed=1, count_mode=CountMode.ACCEPTED)
        with pytest.raises(RuntimeError):
            run_swap_chain(ffw_triangle, cfg)

    def test_matches_reference_chain(self):
        # at m = 2^k a slot draw takes k + 1 bits and half the draws are
        # redrawn; m = 2^k + 1 takes as many bits with fewer redraws
        rng = random.Random(917)
        graphs = [random_digraph(rng, rng.randint(3, 25), rng.uniform(0.05, 0.4)) for _ in range(12)]
        pairs = [(u, v) for u in range(6) for v in range(6) if u != v]
        for m in (2, 3, 4, 8, 9, 16, 17):
            for _ in range(3):
                graphs.append(DirectedGraph(6, rng.sample(pairs, m)))
        for index, g in enumerate(graphs):
            if g.m < 2:
                continue
            for mode, attempts in ((CountMode.ATTEMPTED, 300), (CountMode.ACCEPTED, 40)):
                cfg = SwapChainConfig(attempts=attempts, seed=index, count_mode=mode)
                accepted = mode is CountMode.ACCEPTED
                try:
                    ref_edges, ref_counts = swap_chain_reference(
                        g.n, list(g.edges()), attempts, index, accepted
                    )
                except RuntimeError:
                    with pytest.raises(RuntimeError):
                        run_swap_chain(g, cfg)
                    continue
                out, counts = run_swap_chain(g, cfg)
                assert list(out.edges()) == sorted(ref_edges)
                assert {r.value: c for r, c in counts.items()} == {
                    r.value: ref_counts[r.value] for r in SwapResult
                }

    def test_default_attempts_floor(self):
        assert default_attempts(10) == 10_000
        assert default_attempts(892) == 17_840


class TestSampleSeed:
    def test_deterministic_and_distinct(self):
        seeds = [sample_seed(7, k) for k in range(1000)]
        assert seeds == [sample_seed(7, k) for k in range(1000)]
        assert len(set(seeds)) == 1000

    def test_base_seed_changes_stream(self):
        assert sample_seed(1, 0) != sample_seed(2, 0)


@pytest.fixture(scope="module")
def experiment():
    g = random_digraph(random.Random(914), 30, 0.25)
    cfg = SwapChainConfig(attempts=1000, seed=17)
    return g, cfg, run_null_experiment(g, 25, cfg, bins=10)


class TestNullExperiment:
    def test_single_sample_mean_is_that_sample(self):
        g = random_digraph(random.Random(915), 20, 0.3)
        cfg = SwapChainConfig(attempts=400, seed=3)
        report = run_null_experiment(g, 1, cfg)
        sampled, _ = run_swap_chain(g, SwapChainConfig(attempts=400, seed=sample_seed(3, 0)))
        averages = average_closure(census(sampled))
        for key in ALL_KEYS:
            assert report.average[key].mean == averages[key]

    def test_histogram_counts_sum_to_defined_samples(self, experiment):
        _, _, report = experiment
        for section in (report.average, report.global_coefficients):
            for stats in section.values():
                assert sum(stats.hist_counts) == stats.defined_samples
                if stats.defined_samples:
                    assert stats.hist_edges[0] <= stats.mean <= stats.hist_edges[-1]

    def test_theory_and_empirical_attached(self, experiment):
        g, _, report = experiment
        mom = degree_moments(g)
        empirical = average_closure(census(g))
        for key in ALL_KEYS:
            assert report.average[key].theory == expected_average_closure(mom, key)
            assert report.average[key].empirical == empirical[key]

    def test_report_serializes_and_is_deterministic(self, experiment):
        g, cfg, report = experiment
        again = run_null_experiment(g, 25, cfg, bins=10)
        assert report.to_dict() == again.to_dict()
        import json

        json.dumps(report.to_dict())

    def test_rejects_zero_samples(self, experiment):
        g, cfg, _ = experiment
        with pytest.raises(ValueError):
            run_null_experiment(g, 0, cfg)

    def test_rejects_zero_bins_before_sampling(self, experiment, monkeypatch):
        g, cfg, _ = experiment

        def no_chain(*args, **kwargs):
            raise AssertionError("swap chain ran before bins were checked")

        monkeypatch.setattr(nullmodel, "run_swap_chain", no_chain)
        with pytest.raises(ValueError, match="bin"):
            run_null_experiment(g, 3, cfg, bins=0)

    def test_sampled_graphs_keep_symmetry_property(self):
        from dirclosure import check_symmetry

        g = random_digraph(random.Random(916), 25, 0.3)
        for k in range(5):
            sampled, _ = run_swap_chain(
                g, SwapChainConfig(attempts=500, seed=sample_seed(8, k))
            )
            residuals = check_symmetry(global_closure(census(sampled)))
            assert all(r <= 1e-12 for r in residuals.values())


def test_chain_visits_small_state_space_uniformly():
    """All-4-node in/out-degree-1 sequence: the 9 fixed-point-free
    permutation digraphs should each appear with ~1/9 frequency."""
    start = DirectedGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    counts = {}
    n_chains = 6000
    for k in range(n_chains):
        g, _ = run_swap_chain(start, SwapChainConfig(attempts=60, seed=sample_seed(5, k)))
        state = tuple(g.edges())
        counts[state] = counts.get(state, 0) + 1
    assert len(counts) == 9
    for count in counts.values():
        assert 0.085 <= count / n_chains <= 0.145
