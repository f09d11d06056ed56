import pytest

from dirclosure import (
    ALL_KEYS,
    IN,
    OUT,
    CoefficientKey,
    ExtremalSpec,
    average_closure,
    build_extremal,
    claimed_io_closure,
    closure_profiles,
    node_classes,
)

from .oracles import brute_closure_counts, is_acyclic

KEY_IOI = CoefficientKey(IN, OUT, IN)
KEY_IOO = CoefficientKey(IN, OUT, OUT)


class TestConstruction:
    def test_all_singleton_classes(self):
        g = build_extremal(ExtremalSpec(1, 1, 1, 1))
        assert (g.n, g.m) == (4, 4)
        # ids: c1=0, c2=1, c3=2, c4=3
        assert set(g.edges()) == {(2, 3), (2, 1), (1, 0), (2, 0)}

    def test_block_sizes(self):
        g = build_extremal(ExtremalSpec(2, 1, 1, 1))
        assert (g.n, g.m) == (5, 6)

    def test_edge_count_formula_and_acyclicity(self):
        for sizes in [(1, 1, 1, 1), (2, 1, 1, 1), (3, 2, 1, 2), (4, 4, 4, 4), (9, 3, 1, 1)]:
            spec = ExtremalSpec(*sizes)
            g = build_extremal(spec)
            assert g.m == spec.edge_count
            assert g.n == spec.total
            assert is_acyclic(g.n, list(g.edges()))

    def test_degree_profile(self):
        spec = ExtremalSpec(3, 2, 4, 5)
        g = build_extremal(spec)
        classes = node_classes(spec)
        for u in range(g.n):
            if classes[u] == 4:
                assert (g.in_degree(u), g.out_degree(u)) == (spec.n3, 0)
            elif classes[u] == 3:
                assert (g.in_degree(u), g.out_degree(u)) == (0, spec.n1 + spec.n2 + spec.n4)
            elif classes[u] == 2:
                assert (g.in_degree(u), g.out_degree(u)) == (spec.n3, spec.n1)
            else:
                assert (g.in_degree(u), g.out_degree(u)) == (spec.n2 + spec.n3, 0)

    def test_rejects_empty_class(self):
        with pytest.raises(ValueError):
            ExtremalSpec(0, 1, 1, 1)


class TestClaimedVersusComputed:
    def test_singleton_classes_agree_exactly(self):
        spec = ExtremalSpec(1, 1, 1, 1)
        claimed_i, claimed_o = claimed_io_closure(spec)
        assert claimed_i == 0.125
        assert claimed_o == 0.125
        averages = average_closure(build_extremal(spec))
        assert averages[KEY_IOI] == 0.125
        assert averages[KEY_IOO] == 0.125

    def test_same_class_tails_create_divergence(self):
        # with two C1 nodes each C1 head gains io-wedges whose tail is the
        # other C1 node, so the cross-class closed form overshoots
        spec = ExtremalSpec(2, 1, 1, 1)
        claimed_i, _ = claimed_io_closure(spec)
        assert claimed_i == pytest.approx(0.2, abs=1e-15)
        g = build_extremal(spec)
        c1_profile = closure_profiles(g)[0]
        assert c1_profile.wedges[(IN, OUT)] == 4
        assert c1_profile.closed[KEY_IOI] == 1
        averages = average_closure(g)
        assert averages[KEY_IOI] == pytest.approx(0.1, abs=1e-15)
        assert abs(claimed_i - averages[KEY_IOI]) > 0.05

    def test_engine_counts_match_brute_force(self):
        for sizes in [(1, 1, 1, 1), (2, 1, 1, 1), (2, 3, 2, 1)]:
            g = build_extremal(ExtremalSpec(*sizes))
            wedges, closed = brute_closure_counts(list(g.edges()))
            for u, profile in enumerate(closure_profiles(g)):
                for key in ALL_KEYS:
                    assert profile.wedges[key.wedge_type] == wedges[(u, str(key.x), str(key.y))]
                    assert profile.closed[key] == closed[(u, str(key.x), str(key.y), str(key.z))]
