import csv
import json
import sys
import warnings

import pytest

from dirclosure import closure, degree_moments, expected_average_closure, load_edge_list, summary_report
from dirclosure.cli import main

FFW = "a b\nb c\na c\n"


@pytest.fixture
def ffw_file(tmp_path):
    path = tmp_path / "ffw.txt"
    path.write_text(FFW)
    return path


def run(argv):
    return main([str(part) for part in argv])


class TestClosureCommand:
    def test_table_output(self, ffw_file, capsys):
        assert run(["closure", ffw_file]) == 0
        out = capsys.readouterr().out
        assert "# tool=dirclosure" in out
        assert "# input_sha256=" in out
        assert "average\tclosure_oo_o\t0.3333" in out
        assert "global\tclosure_oo_o\t1.0000" in out
        assert "symmetry_residual\tclosure_ii_i~closure_oo_o\t0.0000" in out

    def test_json_output(self, ffw_file, tmp_path):
        out_path = tmp_path / "closure.json"
        assert run(["closure", ffw_file, "--format", "json", "--out", out_path]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["meta"]["version"]
        assert doc["average"]["closure_oo_o"] == pytest.approx(1 / 3)
        assert doc["global"]["closure_io_i"] == 0.5

    def test_per_node_file(self, ffw_file, tmp_path, capsys):
        per_node = tmp_path / "per_node.csv"
        assert run(["closure", ffw_file, "--per-node", per_node, "--out", tmp_path / "t.tsv"]) == 0
        lines = [l for l in per_node.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert len(rows) == 3
        assert rows[0]["token"] == "a"


class TestStatsCommand:
    def test_json_matches_library(self, ffw_file, tmp_path):
        out_path = tmp_path / "stats.json"
        assert run(["stats", ffw_file, "--format", "json", "--out", out_path]) == 0
        doc = json.loads(out_path.read_text())
        g, _ = load_edge_list(str(ffw_file))
        expected = summary_report(g)
        assert doc["nodes"] == expected["nodes"]
        assert doc["average_closure"] == expected["average_closure"]
        assert doc["undefined_wedge_heads"] == expected["undefined_wedge_heads"]

    def test_table_lists_moments(self, ffw_file, capsys):
        assert run(["stats", ffw_file]) == 0
        out = capsys.readouterr().out
        assert "m_io\t0.3333" in out
        assert "nodes\t3" in out


class TestExpectedCommand:
    def test_values_match_library(self, ffw_file, tmp_path):
        out_path = tmp_path / "expected.json"
        assert run(["expected", ffw_file, "--format", "json", "--out", out_path]) == 0
        doc = json.loads(out_path.read_text())
        g, _ = load_edge_list(str(ffw_file))
        mom = degree_moments(g)
        from dirclosure import ALL_KEYS

        for key in ALL_KEYS:
            assert doc["expected_average"][key.label] == expected_average_closure(mom, key)


class TestNullmodelCommand:
    def test_byte_identical_reruns(self, ffw_file, tmp_path):
        # the triangle admits no swaps but the pipeline is exercised end to end
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = ["nullmodel", ffw_file, "--samples", "5", "--swaps", "50", "--seed", "7", "--format", "json"]
        assert run(argv + ["--out", out_a]) == 0
        assert run(argv + ["--out", out_b]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_meta_echoes_effective_seed_and_defaults(self, ffw_file, capsys):
        assert run(["nullmodel", ffw_file, "--samples", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "# seed=3" in out
        assert "# swaps=10000" in out  # default floor echoed
        assert "# count_mode=attempted" in out


class TestExtremalCommand:
    def test_divergent_sizes_reported(self, tmp_path):
        out_path = tmp_path / "extremal.json"
        edges_path = tmp_path / "extremal-edges.txt"
        class_path = tmp_path / "classes.csv"
        assert (
            run(
                [
                    "extremal",
                    "--classes",
                    "2,1,1,1",
                    "--format",
                    "json",
                    "--out",
                    out_path,
                    "--edges-out",
                    edges_path,
                    "--class-map",
                    class_path,
                ]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        assert doc["claimed"]["closure_io_i"] == pytest.approx(0.2)
        assert doc["computed_average"]["closure_io_i"] == pytest.approx(0.1)
        assert doc["claim_matches_computed"]["closure_io_i"] is False
        g, _ = load_edge_list(str(edges_path))
        assert (g.n, g.m) == (5, 6)
        class_rows = class_path.read_text().splitlines()
        assert class_rows[0] == "token,class"
        assert len(class_rows) == 6

    def test_singleton_sizes_agree(self, tmp_path, capsys):
        out_path = tmp_path / "extremal.json"
        assert run(["extremal", "--classes", "1,1,1,1", "--format", "json", "--out", out_path]) == 0
        doc = json.loads(out_path.read_text())
        assert doc["claim_matches_computed"] == {"closure_io_i": True, "closure_io_o": True}

    def test_bad_classes_is_error(self, capsys):
        assert run(["extremal", "--classes", "1,2"]) == 1
        assert "error:" in capsys.readouterr().err


class TestFeaturesCommand:
    def test_with_labels_and_id_map(self, ffw_file, tmp_path):
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text("token,label\na,source\nc,sink\n")
        out_path = tmp_path / "features.csv"
        id_map = tmp_path / "ids.csv"
        assert (
            run(["features", ffw_file, "--labels", labels_path, "--out", out_path, "--id-map", id_map])
            == 0
        )
        lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert rows[0]["label"] == "source"
        assert rows[1]["label"] == ""
        assert id_map.read_text().startswith("dense_id,token\n")


    def test_labels_with_byte_order_mark(self, ffw_file, tmp_path):
        labels_path = tmp_path / "labels.csv"
        labels_path.write_text("\ufeffa,source\nc,sink\n", encoding="utf-8")
        out_path = tmp_path / "features.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an unmatched label token would warn
            assert run(["features", ffw_file, "--labels", labels_path, "--out", out_path]) == 0
        lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        assert [row["label"] for row in rows] == ["source", "", "sink"]


class TestOneCensusPerGraph:
    """Each subcommand counts wedges once per graph it analyses."""

    @pytest.fixture
    def census_calls(self, monkeypatch):
        calls = []
        original = closure.census

        def counting(g):
            calls.append(g.n)
            return original(g)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dirclosure" and getattr(module, "census", None) is original:
                monkeypatch.setattr(module, "census", counting)
        return calls

    @pytest.mark.parametrize(
        "subcommand, per_node", [("stats", False), ("features", False), ("closure", True), ("clustering", True)]
    )
    def test_one_census(self, subcommand, per_node, ffw_file, tmp_path, census_calls):
        argv = [subcommand, ffw_file, "--out", tmp_path / "out.txt"]
        if per_node:
            argv += ["--per-node", tmp_path / "per_node.csv"]
        assert run(argv) == 0
        assert census_calls == [3]

    def test_nullmodel_one_census_per_sample_plus_input(self, tmp_path, census_calls):
        path = tmp_path / "square.txt"
        path.write_text("a b\nb c\nc d\nd a\na c\n")
        assert run(["nullmodel", path, "--samples", "3", "--swaps", "20", "--out", tmp_path / "null.tsv"]) == 0
        assert census_calls == [4] * 4


class TestCorrCommand:
    def test_matrix_csv(self, ffw_file, tmp_path):
        out_path = tmp_path / "corr.csv"
        assert run(["corr", ffw_file, "--out", out_path]) == 0
        data_lines = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.reader(data_lines))
        assert len(rows) == 9 and len(rows[0]) == 9


class TestClusteringCommand:
    def test_table(self, ffw_file, capsys):
        assert run(["clustering", ffw_file]) == 0
        out = capsys.readouterr().out
        assert "clustering_oi\t0.3333" in out


class TestErrors:
    def test_missing_input_exits_1(self, tmp_path, capsys):
        assert run(["stats", tmp_path / "missing.txt"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_malformed_input_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("a b c\n")
        assert run(["stats", path]) == 1
        assert "line 1" in capsys.readouterr().err
