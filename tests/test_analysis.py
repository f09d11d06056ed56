import csv
import io
import json
import random
from collections import Counter

import pytest

from dirclosure import (
    ALL_KEYS,
    IN,
    OUT,
    WEDGE_TYPES,
    CoefficientKey,
    DirectedGraph,
    average_closure,
    census,
    check_symmetry,
    closure_correlation_matrix,
    closure_profiles,
    edge_label_tallies,
    export_features,
    mean_clustering,
    read_labels,
    summary_report,
)
from dirclosure.analysis import (
    FEATURE_COLUMNS,
    format_value,
    write_closure_csv,
    write_clustering_csv,
    write_correlation_csv,
)

from .conftest import graph_from_text, random_digraph


def doubled_graph() -> DirectedGraph:
    """Triangle plus a pendant, every edge reciprocated.

    With all edges two-way the eight closure coefficients coincide node by
    node (values 1, 2/3, 2/3, 0), which pins every correlation entry to 1.
    """
    text = "\n".join(f"{u} {v}\n{v} {u}" for u, v in [("a", "b"), ("a", "c"), ("b", "c"), ("a", "d")])
    return graph_from_text(text)


class TestCorrelationMatrix:
    def test_pointwise_equal_columns_give_unit_correlation(self):
        matrix = closure_correlation_matrix(doubled_graph())
        a = CoefficientKey(IN, IN, IN)
        b = CoefficientKey(OUT, OUT, IN)
        assert matrix.entry(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_with_unit_diagonal(self):
        g = random_digraph(random.Random(21), 30, 0.2)
        matrix = closure_correlation_matrix(g)
        k = len(matrix.keys)
        for i in range(k):
            for j in range(k):
                assert matrix.values[i][j] == matrix.values[j][i]
                assert matrix.counts[i][j] == matrix.counts[j][i]
            if matrix.values[i][i] is not None:
                assert matrix.values[i][i] == 1.0

    def test_zero_variance_column_is_undefined(self, cycle3):
        # in a directed 3-cycle every defined coefficient is constant
        matrix = closure_correlation_matrix(cycle3)
        iii = matrix.keys.index(CoefficientKey(IN, IN, IN))
        assert matrix.values[iii][iii] is None
        assert matrix.counts[iii][iii] == 3

    def test_undefined_pairs_have_no_entry_but_counted(self, cycle3):
        matrix = closure_correlation_matrix(cycle3)
        ioi = matrix.keys.index(CoefficientKey(IN, OUT, IN))
        assert matrix.counts[ioi][ioi] == 0
        assert matrix.values[ioi][ioi] is None

    def test_invariant_under_node_relabeling(self):
        rng = random.Random(22)
        g = random_digraph(rng, 25, 0.25)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = DirectedGraph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        m1 = closure_correlation_matrix(g)
        m2 = closure_correlation_matrix(relabeled)
        for i in range(8):
            for j in range(8):
                v1, v2 = m1.values[i][j], m2.values[i][j]
                if v1 is None:
                    assert v2 is None
                else:
                    assert v2 == pytest.approx(v1, abs=1e-12)

    def test_entries_bounded(self):
        g = random_digraph(random.Random(23), 40, 0.15)
        matrix = closure_correlation_matrix(g)
        for row in matrix.values:
            for value in row:
                if value is not None:
                    assert -1.0 <= value <= 1.0

    def test_requires_two_nodes(self):
        with pytest.raises(ValueError):
            closure_correlation_matrix(DirectedGraph(1, []))

    def test_csv_shape(self):
        buffer = io.StringIO()
        write_correlation_csv(closure_correlation_matrix(doubled_graph()), buffer)
        rows = list(csv.reader(io.StringIO(buffer.getvalue())))
        assert len(rows) == 9
        assert all(len(row) == 9 for row in rows)
        assert rows[0][1] == "closure_ii_i"


class TestFeatureExport:
    def test_triangle_rows(self, ffw_triangle):
        buffer = io.StringIO()
        count = export_features(ffw_triangle, None, buffer)
        assert count == 3
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert len(rows) == 3
        row_a = rows[0]
        assert (row_a["d_in"], row_a["d_out"], row_a["d_recip"]) == ("0", "2", "0")
        assert float(row_a["closure_oo_o"]) == 1.0
        assert row_a["closure_io_i"] == ""
        assert row_a["closure_io_i_defined"] == "0"
        assert row_a["closure_oo_o_defined"] == "1"

    def test_column_order_documented(self, ffw_triangle):
        buffer = io.StringIO()
        export_features(ffw_triangle, None, buffer)
        header = buffer.getvalue().splitlines()[0].split(",")
        assert header == list(FEATURE_COLUMNS)

    def test_label_column_inserted_and_unknown_tokens_warn(self, ffw_triangle):
        buffer = io.StringIO()
        with pytest.warns(UserWarning, match="not present"):
            export_features(ffw_triangle, {"a": "high", "zz": "low"}, buffer)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        assert rows[0]["label"] == "high"
        assert rows[1]["label"] == ""
        header = buffer.getvalue().splitlines()[0].split(",")
        assert header[:3] == ["dense_id", "token", "label"]

    def test_roundtrip_is_bit_identical(self):
        g = random_digraph(random.Random(24), 25, 0.3)
        buffer = io.StringIO()
        export_features(g, None, buffer)
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        profiles = closure_profiles(g)
        for row in rows:
            u = int(row["dense_id"])
            for key in ALL_KEYS:
                reparsed = row[key.label]
                value = profiles[u].coefficient(key)
                if value is None:
                    assert reparsed == ""
                else:
                    assert float(reparsed) == value

    def test_format_value_roundtrip(self):
        for value in [1 / 3, 2 / 7, 1e-17, 0.1 + 0.2, 1.0]:
            assert float(format_value(value)) == value
        assert format_value(None) == ""


class TestPerNodeCsv:
    def test_closure_csv_contents(self, ffw_triangle):
        buffer = io.StringIO()
        assert write_closure_csv(ffw_triangle, census(ffw_triangle), buffer) == 3
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        row_a = rows[0]
        assert row_a["wedges_oo"] == "1"
        assert row_a["closed_oo_o"] == "1"
        assert float(row_a["closure_oo_o"]) == 1.0
        assert row_a["defined_io"] == "0"

    def test_clustering_csv_contents(self, ffw_triangle):
        buffer = io.StringIO()
        assert write_clustering_csv(ffw_triangle, census(ffw_triangle), buffer) == 3
        rows = list(csv.DictReader(io.StringIO(buffer.getvalue())))
        row_b = rows[1]
        assert row_b["pairs_oi"] == "1"
        assert float(row_b["clustering_oi"]) == 1.0
        assert row_b["clustering_oo"] == ""


class TestLabels:
    def test_read_labels_with_and_without_header(self):
        assert read_labels(io.StringIO("token,label\na,x\nb,y\n")) == {"a": "x", "b": "y"}
        assert read_labels(io.StringIO("a,x\nb,y\n")) == {"a": "x", "b": "y"}

    def test_read_labels_ignores_byte_order_mark(self):
        assert read_labels(io.StringIO("\ufefftoken,label\na,x\n")) == {"a": "x"}
        assert read_labels(io.StringIO("\ufeffa,x\nb,y\n")) == {"a": "x", "b": "y"}
        assert read_labels(io.StringIO('\ufeff"a",x\n')) == {"a": "x"}

    def test_read_labels_bad_row(self):
        with pytest.raises(ValueError):
            read_labels(io.StringIO("a,x,extra\n"))

    def test_edge_label_tallies_match_direct_traversal(self):
        rng = random.Random(25)
        g = random_digraph(rng, 20, 0.3)
        labels = {g.token(u): rng.choice(["red", "blue"]) for u in range(g.n)}
        tallies = edge_label_tallies(g, labels)
        direct = Counter((labels[g.token(u)], labels[g.token(v)]) for u, v in g.edges())
        assert tallies == dict(direct)
        assert sum(tallies.values()) == g.m

    def test_unlabeled_endpoints_fall_in_none_bucket(self, ffw_triangle):
        tallies = edge_label_tallies(ffw_triangle, {"a": "x"})
        assert tallies[("x", None)] == 2
        assert tallies[(None, None)] == 1


class TestDatasetChecks:
    """Dataset-bound structure checks; skipped unless files exist under data/."""

    def test_lawyer_correlation_splits_by_closing_direction(self, soc_lawyer):
        matrix = closure_correlation_matrix(soc_lawyer)
        within, across = [], []
        for i, a in enumerate(matrix.keys):
            for j, b in enumerate(matrix.keys):
                if i >= j or matrix.values[i][j] is None:
                    continue
                (within if a.z is b.z else across).append(matrix.values[i][j])
        assert within and across
        assert sum(within) / len(within) > sum(across) / len(across)

    def test_lawyer_status_edge_tallies(self, soc_lawyer, soc_lawyer_labels):
        tallies = edge_label_tallies(soc_lawyer, soc_lawyer_labels)
        assert tallies[("partner", "partner")] == 395
        assert tallies[("associate", "associate")] == 196
        assert tallies[("partner", "associate")] == 59
        assert tallies[("associate", "partner")] == 242


class TestSummaryReport:
    def test_triangle_summary(self, ffw_triangle):
        summary = summary_report(ffw_triangle)
        assert summary["nodes"] == 3
        assert summary["edges"] == 3
        assert summary["moments"]["m_io"] == pytest.approx(1 / 3)
        averages = average_closure(census(ffw_triangle))
        for key in ALL_KEYS:
            assert summary["average_closure"][key.label] == averages[key]
        means = mean_clustering(census(ffw_triangle))
        assert summary["mean_clustering"]["clustering_oi"] == means[(OUT, IN)]
        assert summary["undefined_wedge_heads"] == {"ii": 2, "io": 1, "oi": 1, "oo": 2}

    def test_summary_globals_pass_symmetry(self):
        g = random_digraph(random.Random(26), 30, 0.2)
        summary = summary_report(g)
        by_key = {key.label: key for key in ALL_KEYS}
        globals_ = {by_key[name]: value for name, value in summary["global_closure"].items()}
        assert all(r <= 1e-12 for r in check_symmetry(globals_).values())

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            summary_report(DirectedGraph(0, []))

    def test_json_compatible(self, ffw_triangle):
        json.dumps(summary_report(ffw_triangle))
