import random

import pytest

from dirclosure import (
    IN,
    OUT,
    WEDGE_TYPES,
    DirectedGraph,
    census,
    closure_profiles,
    clustering_profiles,
    mean_clustering,
)

from .conftest import graph_from_text, random_digraph
from .oracles import brute_clustering_counts


class TestLocalClustering:
    def test_feedforward_triangle_center(self, ffw_triangle):
        b = 1
        profile = clustering_profiles(ffw_triangle)[b]
        assert profile.denominators[(IN, OUT)] == 1
        assert profile.coefficient((IN, OUT)) == 0.0
        assert profile.coefficient((OUT, IN)) == 1.0
        assert profile.coefficient((IN, IN)) is None
        assert profile.coefficient((OUT, OUT)) is None

    def test_two_edge_star_undefined_same_direction_types(self):
        # x -> u, u -> y: only one edge in each direction at u
        g = graph_from_text("x u\nu y")
        profile = clustering_profiles(g)[1]
        assert profile.coefficient((IN, IN)) is None
        assert profile.coefficient((OUT, OUT)) is None
        assert profile.denominators[(IN, OUT)] == 1

    def test_mixed_denominator_excludes_reciprocal_pairs(self):
        g = graph_from_text("a b\nb a\nc b")
        # at b: d_in=2, d_out=1, r=1, so mixed denominators are 2*1-1=1
        profile = clustering_profiles(g)[1]
        assert profile.denominators[(IN, OUT)] == 1
        assert profile.denominators[(OUT, IN)] == 1

    def test_matches_brute_force(self):
        rng = random.Random(301)
        for _ in range(25):
            n = rng.randint(1, 25)
            g = random_digraph(rng, n, rng.uniform(0.05, 0.45))
            denoms, closed = brute_clustering_counts(n, list(g.edges()))
            for u, profile in enumerate(clustering_profiles(g)):
                for xy in WEDGE_TYPES:
                    oracle_key = (u, str(xy[0]), str(xy[1]))
                    assert profile.denominators[xy] == denoms[oracle_key]
                    assert profile.closed[xy] == closed[oracle_key]

    def test_defined_values_in_unit_interval(self):
        rng = random.Random(302)
        for _ in range(10):
            g = random_digraph(rng, rng.randint(1, 15), 0.4)
            for profile in clustering_profiles(g):
                for xy in WEDGE_TYPES:
                    value = profile.coefficient(xy)
                    if value is not None:
                        assert 0.0 <= value <= 1.0


class TestMeanClustering:
    def test_feedforward_triangle_means(self, ffw_triangle):
        means = mean_clustering(census(ffw_triangle))
        assert means[(OUT, IN)] == pytest.approx(1 / 3, abs=1e-15)
        assert means[(IN, OUT)] == 0.0
        assert means[(IN, IN)] == pytest.approx(1 / 6, abs=1e-15)
        assert means[(OUT, OUT)] == pytest.approx(1 / 6, abs=1e-15)

    def test_triangle_free_graph_all_zero(self):
        g = graph_from_text("a b\nb c\nc d\nd a")
        means = mean_clustering(census(g))
        assert all(value == 0.0 for value in means.values())

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            mean_clustering(census(DirectedGraph(0, [])))


class TestCenterHeadDuality:
    def test_denominator_totals_equal_wedge_totals(self):
        # the wedges centered at u with type (x, y) are exactly the wedges
        # headed at their first neighbor with type (complement(x), y)
        rng = random.Random(303)
        for _ in range(20):
            n = rng.randint(1, 25)
            g = random_digraph(rng, n, rng.uniform(0.05, 0.4))
            profiles = closure_profiles(g)
            cl_profiles = clustering_profiles(g)
            for xy in WEDGE_TYPES:
                head_type = (xy[0].complement, xy[1])
                wedge_total = sum(p.wedges[head_type] for p in profiles)
                denom_total = sum(p.denominators[xy] for p in cl_profiles)
                assert denom_total == wedge_total
