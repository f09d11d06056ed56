import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirclosure import (
    ALL_KEYS,
    IN,
    OUT,
    SYMMETRIC_PAIRS,
    WEDGE_TYPES,
    CoefficientKey,
    DirectedGraph,
    average_closure,
    census,
    check_symmetry,
    closure_profiles,
    degree_moments,
    global_closure,
)

from dirclosure import closure

from .conftest import random_digraph
from .oracles import brute_closure_counts

KEY_IOI = CoefficientKey(IN, OUT, IN)
KEY_IOO = CoefficientKey(IN, OUT, OUT)
KEY_OOO = CoefficientKey(OUT, OUT, OUT)
KEY_OOI = CoefficientKey(OUT, OUT, IN)
KEY_III = CoefficientKey(IN, IN, IN)


def assert_matches_oracle(g: DirectedGraph):
    wedges, closed = brute_closure_counts(list(g.edges()))
    for u, profile in enumerate(closure_profiles(g)):
        for xy in WEDGE_TYPES:
            assert profile.wedges[xy] == wedges[(u, str(xy[0]), str(xy[1]))]
        for key in ALL_KEYS:
            assert profile.closed[key] == closed[(u, str(key.x), str(key.y), str(key.z))]


class TestKeys:
    def test_eight_distinct_keys_in_canonical_order(self):
        assert len(set(ALL_KEYS)) == 8
        assert [k.label for k in ALL_KEYS] == [
            "closure_ii_i",
            "closure_ii_o",
            "closure_io_i",
            "closure_io_o",
            "closure_oi_i",
            "closure_oi_o",
            "closure_oo_i",
            "closure_oo_o",
        ]

    def test_complement_is_involution(self):
        assert IN.complement is OUT
        assert OUT.complement is IN
        assert IN.complement.complement is IN


class TestWedgeCounts:
    def test_feedforward_triangle_hand_counts(self, ffw_triangle):
        a, _, c = closure_profiles(ffw_triangle)
        assert a.wedges[(OUT, OUT)] == 1
        assert a.wedges[(OUT, IN)] == 1
        assert a.wedges[(IN, IN)] == 0
        assert c.wedges[(IN, IN)] == 1
        assert c.wedges[(IN, OUT)] == 1

    def test_cycle_has_no_mixed_wedges(self, cycle3):
        for profile in closure_profiles(cycle3):
            assert profile.wedges[(OUT, IN)] == 0
            assert profile.wedges[(IN, OUT)] == 0

    def test_closed_counts_on_triangle(self, ffw_triangle):
        a, _, c = closure_profiles(ffw_triangle)
        assert a.closed[KEY_OOO] == 1
        assert a.closed[KEY_OOI] == 0
        assert c.closed[KEY_III] == 1
        assert c.closed[KEY_IOI] == 1

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(101)
        for _ in range(25):
            n = rng.randint(1, 25)
            g = random_digraph(rng, n, rng.uniform(0.05, 0.35))
            assert_matches_oracle(g)

    def test_matches_brute_force_on_dense_reciprocal_graphs(self):
        rng = random.Random(202)
        for _ in range(10):
            g = random_digraph(rng, rng.randint(2, 10), 0.6)
            assert_matches_oracle(g)


class TestCensus:
    def test_chunked_triangle_sweep_matches_one_pass(self, monkeypatch):
        rng = random.Random(404)
        graphs = [random_digraph(rng, rng.randint(2, 30), rng.uniform(0.1, 0.6)) for _ in range(10)]
        one_pass = [census(g) for g in graphs]
        monkeypatch.setattr(closure, "PAIR_CHUNK", 3)
        for g, expected in zip(graphs, one_pass):
            chunked = census(g)
            for field in ("wedges", "closed", "clustering"):
                for key, counts in getattr(expected, field).items():
                    assert getattr(chunked, field)[key].tolist() == counts.tolist()

    def test_edgeless_graph_counts_zero(self):
        counts = census(DirectedGraph(4, []))
        for field in (counts.wedges, counts.closed, counts.clustering):
            assert all(values.tolist() == [0] * 4 for values in field.values())


class TestLocalClosure:
    def test_triangle_profiles(self, ffw_triangle):
        prof_a, _, prof_c = closure_profiles(ffw_triangle)
        assert prof_a.coefficient(KEY_OOO) == 1.0
        assert prof_a.coefficient(KEY_OOI) == 0.0
        assert prof_a.coefficient(KEY_IOI) is None
        assert prof_a.coefficient(KEY_IOO) is None
        assert not prof_a.defined((IN, OUT))
        assert prof_c.coefficient(KEY_III) == 1.0
        assert prof_c.coefficient(KEY_IOI) == 1.0

    def test_isolated_node_all_undefined(self):
        g = DirectedGraph(3, [(1, 2)])
        profile = closure_profiles(g)[0]
        assert all(profile.coefficient(key) is None for key in ALL_KEYS)

    def test_closed_never_exceeds_wedges(self):
        rng = random.Random(55)
        for _ in range(15):
            g = random_digraph(rng, rng.randint(1, 20), 0.3)
            for profile in closure_profiles(g):
                for key in ALL_KEYS:
                    assert profile.closed[key] <= profile.wedges[key.wedge_type]


class TestAverageClosure:
    def test_feedforward_triangle(self, ffw_triangle):
        averages = average_closure(ffw_triangle)
        assert averages[KEY_OOO] == pytest.approx(1 / 3, abs=1e-15)
        assert averages[KEY_IOI] == pytest.approx(1 / 3, abs=1e-15)
        assert averages[KEY_IOO] == pytest.approx(1 / 3, abs=1e-15)

    def test_cycle(self, cycle3):
        averages = average_closure(cycle3)
        assert averages[CoefficientKey(OUT, OUT, IN)] == pytest.approx(1.0)
        assert averages[KEY_OOO] == 0.0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            average_closure(DirectedGraph(0, []))


class TestGlobalClosure:
    def test_feedforward_triangle(self, ffw_triangle):
        globals_ = global_closure(ffw_triangle)
        assert globals_[KEY_OOO] == 1.0
        assert globals_[KEY_III] == 1.0
        assert globals_[KEY_IOI] == 0.5
        assert globals_[KEY_IOO] == 0.5

    def test_cycle_undefined_types(self, cycle3):
        globals_ = global_closure(cycle3)
        for key in ALL_KEYS:
            if key.wedge_type in ((IN, OUT), (OUT, IN)):
                assert globals_[key] is None
            else:
                assert globals_[key] is not None

    def test_equals_wedge_weighted_local_mean(self):
        rng = random.Random(77)
        for _ in range(20):
            g = random_digraph(rng, rng.randint(1, 25), 0.25)
            profiles = closure_profiles(g)
            globals_ = global_closure(g, profiles)
            for key in ALL_KEYS:
                weights = [p.wedges[key.wedge_type] for p in profiles]
                if sum(weights) == 0:
                    assert globals_[key] is None
                    continue
                weighted = math.fsum(
                    w * p.coefficient(key) for w, p in zip(weights, profiles) if w > 0
                ) / sum(weights)
                assert globals_[key] == pytest.approx(weighted, abs=1e-12)


class TestWedgeTotalsVsMoments:
    def test_exact_integer_identities(self):
        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 30)
            g = random_digraph(rng, n, rng.uniform(0.05, 0.4))
            profiles = closure_profiles(g)
            mom = degree_moments(g)
            recip_total = sum(g.reciprocal_degree(u) for u in range(n))
            total = lambda xy: sum(p.wedges[xy] for p in profiles)
            assert total((OUT, IN)) == round(n * mom.m_ii) - g.m
            assert total((IN, OUT)) == round(n * mom.m_oo) - g.m
            assert total((IN, IN)) == round(n * mom.m_io) - recip_total
            assert total((OUT, OUT)) == round(n * mom.m_io) - recip_total


class TestSymmetry:
    def test_triangle_residuals_exactly_zero(self, ffw_triangle):
        residuals = check_symmetry(global_closure(ffw_triangle))
        assert all(r == 0.0 for r in residuals.values())

    def test_random_graphs_within_tolerance(self):
        rng = random.Random(4242)
        for _ in range(200):
            g = random_digraph(rng, rng.randint(2, 50), rng.uniform(0.02, 0.3))
            residuals = check_symmetry(global_closure(g))
            assert all(r <= 1e-12 for r in residuals.values())

    def test_both_undefined_gives_zero(self, cycle3):
        residuals = check_symmetry(global_closure(cycle3))
        io_pair = SYMMETRIC_PAIRS[2]
        assert residuals[io_pair] == 0.0

    def test_mixed_definedness_is_violation(self):
        values = {key: 0.5 for key in ALL_KEYS}
        values[CoefficientKey(OUT, OUT, OUT)] = None
        residuals = check_symmetry(values)
        assert residuals[SYMMETRIC_PAIRS[0]] == math.inf


@st.composite
def hypothesis_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return DirectedGraph(n, edges)


@given(hypothesis_digraphs())
@settings(max_examples=80, deadline=None)
def test_defined_coefficients_lie_in_unit_interval(g):
    for profile in closure_profiles(g):
        for key in ALL_KEYS:
            value = profile.coefficient(key)
            if value is not None:
                assert 0.0 <= value <= 1.0


@given(hypothesis_digraphs())
@settings(max_examples=80, deadline=None)
def test_symmetry_holds_on_arbitrary_graphs(g):
    residuals = check_symmetry(global_closure(g))
    assert all(r <= 1e-12 for r in residuals.values())


@given(hypothesis_digraphs())
@settings(max_examples=50, deadline=None)
def test_results_independent_of_node_relabeling(g):
    rng = random.Random(9)
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabeled = DirectedGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    original = global_closure(g)
    shuffled = global_closure(relabeled)
    for key in ALL_KEYS:
        if original[key] is None:
            assert shuffled[key] is None
        else:
            assert shuffled[key] == pytest.approx(original[key], abs=1e-12)
