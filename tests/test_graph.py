import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirclosure import (
    IN,
    OUT,
    DegreeMoments,
    DirectedGraph,
    EdgeListFormatError,
    degree_moments,
    load_edge_list,
    write_edge_list,
    write_id_map,
)

from .conftest import graph_from_text, random_digraph
from .oracles import brute_has_edge, brute_reciprocal_degrees


@st.composite
def small_digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return DirectedGraph(n, edges)


class TestLoadEdgeList:
    def test_feedforward_triangle(self):
        g, warnings = load_edge_list(io.StringIO("a b\nb c\na c"))
        assert (g.n, g.m) == (3, 3)
        assert not warnings.any()
        assert g.labels == ["a", "b", "c"]

    def test_dedupe_and_self_loops(self):
        g, warnings = load_edge_list(io.StringIO("a b\na b\na a"))
        assert (g.n, g.m) == (2, 1)
        assert warnings.duplicate_edges == 1
        assert warnings.self_loops == 1

    def test_empty_input_is_empty_graph(self):
        g, warnings = load_edge_list(io.StringIO(""))
        assert (g.n, g.m) == (0, 0)
        assert not warnings.any()

    def test_comments_and_blank_lines_ignored(self):
        g, _ = load_edge_list(io.StringIO("# header\n\na b\n  \n# tail\nb c\n"))
        assert (g.n, g.m) == (3, 2)

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EdgeListFormatError) as excinfo:
            load_edge_list(io.StringIO("a b\na b c\n"))
        assert excinfo.value.line_number == 2

    def test_reciprocated_pair_kept_as_two_edges(self):
        g, _ = load_edge_list(io.StringIO("a b\nb a"))
        assert g.m == 2
        assert g.has_edge(0, 1) and g.has_edge(1, 0)

    def test_first_appearance_ordering(self):
        g, _ = load_edge_list(io.StringIO("x y\nz x"))
        assert g.labels == ["x", "y", "z"]

    def test_utf8_byte_order_mark_is_not_a_token_character(self, tmp_path):
        text = "\ufeffa b\nb a\n"
        path = tmp_path / "bom.txt"
        path.write_text(text, encoding="utf-8")
        for source in (io.StringIO(text), path):
            g, warnings = load_edge_list(source)
            assert g.labels == ["a", "b"]
            assert (g.n, g.m) == (2, 2)
            assert not warnings.any()


class TestDirectedGraph:
    def test_degrees_on_triangle(self, ffw_triangle):
        assert ffw_triangle.out_degree(0) == 2
        assert ffw_triangle.in_degree(2) == 2
        assert ffw_triangle.in_degree(0) == 0

    def test_degree_out_of_range(self, ffw_triangle):
        with pytest.raises(ValueError):
            ffw_triangle.in_degree(3)
        with pytest.raises(ValueError):
            ffw_triangle.out_degree(-1)

    def test_has_edge(self, ffw_triangle):
        assert ffw_triangle.has_edge(0, 2)
        assert not ffw_triangle.has_edge(2, 0)
        with pytest.raises(ValueError):
            ffw_triangle.has_edge(0, 99)

    def test_reciprocal_degree(self, ffw_triangle):
        assert [ffw_triangle.reciprocal_degree(u) for u in range(3)] == [0, 0, 0]
        g = graph_from_text("a b\nb a")
        assert g.reciprocal_degree(0) == 1

    def test_rejects_self_loop_and_duplicate(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, [(0, 0)])
        with pytest.raises(ValueError):
            DirectedGraph(2, [(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            DirectedGraph(2, [(0, 5)])

    def test_adjacency_arrays_are_read_only(self, ffw_triangle):
        for direction in (IN, OUT):
            for array in ffw_triangle.adjacency(direction):
                with pytest.raises(ValueError):
                    array[0] = 1

    def test_adjacency_sorted_and_consistent(self):
        rng = random.Random(7)
        g = random_digraph(rng, 15, 0.3)
        for u in range(g.n):
            out = g.out_neighbors(u)
            assert list(out) == sorted(out)
            for v in out:
                assert u in g.in_neighbors(v)

    def test_reciprocal_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 20)
            g = random_digraph(rng, n, rng.uniform(0.05, 0.5))
            expected = brute_reciprocal_degrees(n, list(g.edges()))
            assert [g.reciprocal_degree(u) for u in range(n)] == expected

    def test_has_edge_matches_linear_scan(self):
        rng = random.Random(13)
        g = random_digraph(rng, 12, 0.25)
        edges = list(g.edges())
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert g.has_edge(u, v) == brute_has_edge(edges, u, v)


class TestMoments:
    def test_feedforward_triangle_exact(self, ffw_triangle):
        mom = degree_moments(ffw_triangle)
        assert mom.m_ii == pytest.approx(5 / 3, abs=0)
        assert mom.m_oo == pytest.approx(5 / 3, abs=0)
        assert mom.m_io == pytest.approx(1 / 3, abs=0)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            degree_moments(DirectedGraph(0, []))

    def test_from_degree_pairs_matches_graph(self):
        rng = random.Random(3)
        g = random_digraph(rng, 18, 0.2)
        assert DegreeMoments.from_degree_pairs(g.degree_pairs()) == degree_moments(g)

    def test_moment_accessor(self, ffw_triangle):
        mom = degree_moments(ffw_triangle)
        assert mom.moment(IN, IN) == mom.m_ii
        assert mom.moment(IN, OUT) == mom.m_io
        assert mom.moment(OUT, IN) == mom.m_io
        assert mom.moment(OUT, OUT) == mom.m_oo


class TestRoundTrip:
    def test_serialize_reload_identical(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_digraph(rng, rng.randint(1, 25), 0.2)
            buffer = io.StringIO()
            write_edge_list(g, buffer)
            buffer.seek(0)
            reloaded, warnings = load_edge_list(buffer)
            assert not warnings.any()
            # token-keyed adjacency must match; dense ids may be permuted
            original = {(g.token(u), g.token(v)) for u, v in g.edges()}
            restored = {(reloaded.token(u), reloaded.token(v)) for u, v in reloaded.edges()}
            assert original == restored
            assert reloaded.m == g.m

    def test_id_map_output(self, ffw_triangle):
        buffer = io.StringIO()
        write_id_map(ffw_triangle, buffer)
        assert buffer.getvalue() == "dense_id,token\n0,a\n1,b\n2,c\n"


@given(small_digraphs())
@settings(max_examples=60, deadline=None)
def test_degree_sums_equal_edge_count(g):
    assert sum(g.in_degree(u) for u in range(g.n)) == g.m
    assert sum(g.out_degree(u) for u in range(g.n)) == g.m


@given(small_digraphs())
@settings(max_examples=60, deadline=None)
def test_reciprocal_degree_sum_is_even(g):
    assert sum(g.reciprocal_degree(u) for u in range(g.n)) % 2 == 0


@given(small_digraphs())
@settings(max_examples=60, deadline=None)
def test_io_moment_integer_identity(g):
    if g.n == 0:
        return
    mom = degree_moments(g)
    total = sum(g.in_degree(u) * g.out_degree(u) for u in range(g.n))
    assert mom.m_io * g.n == pytest.approx(total, rel=1e-12)
    assert total == round(mom.m_io * g.n)
