"""Golden CLI outputs: every subcommand and format, compared byte for byte.

Inputs live in ``tests/golden``: ``mixed.txt`` (reciprocal pairs, a
duplicate line, self-loops, an isolated node) and ``extremal-2111.txt``
(the graph ``extremal --classes 2,1,1,1`` writes). Each case runs the CLI
from that directory, so the ``input=`` line in the output metadata is the
bare file name. A change that alters an output on purpose bumps the
version and rewrites the expected files with

    PYTHONPATH=src python -m tests.test_golden
"""

import os
import sys
import tempfile
from pathlib import Path

import pytest

from dirclosure.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
INPUTS = ("mixed", "extremal-2111")
FORMATS = ("tsv", "csv", "json")
# flags whose value names a file the CLI writes
OUTPUT_FLAGS = ("--out", "--per-node", "--id-map", "--edges-out", "--class-map")
NULL_ARGS = ["--samples", "3", "--swaps", "200", "--seed", "1"]


def _cases() -> dict[str, list[str]]:
    cases: dict[str, list[str]] = {}
    for stem in INPUTS:
        source = f"{stem}.txt"
        for fmt in FORMATS:
            # sidecars ride along with the tsv run of each subcommand
            sidecar = fmt == "tsv"
            for command, extra in (
                ("stats", ["--id-map", "ids.csv"] if sidecar else []),
                ("closure", ["--per-node", "per_node.csv"] if sidecar else []),
                ("clustering", ["--per-node", "per_node.csv"] if sidecar else []),
                ("corr", []),
                ("expected", []),
                ("nullmodel", NULL_ARGS),
            ):
                cases[f"{stem}-{command}-{fmt}"] = [command, source, "--format", fmt, *extra, "--out", "out"]
        labels = ["--labels", "labels.csv"] if stem == "mixed" else []
        cases[f"{stem}-features-csv"] = ["features", source, *labels, "--id-map", "ids.csv", "--out", "out"]
    cases["mixed-nullmodel-accepted-json"] = [
        "nullmodel", "mixed.txt", "--format", "json", *NULL_ARGS, "--count-mode", "accepted", "--out", "out",
    ]
    for fmt in FORMATS:
        extra = ["--edges-out", "edges.txt", "--class-map", "classes.csv"] if fmt == "tsv" else []
        cases[f"extremal-{fmt}"] = ["extremal", "--classes", "2,1,1,1", "--format", fmt, *extra, "--out", "out"]
    return cases


CASES = _cases()


def run_case(argv: list[str], out_dir: Path) -> dict[str, bytes]:
    """Run one case from the golden directory; returns {output name: bytes}."""
    argv = list(argv)
    names = []
    for i, part in enumerate(argv[:-1]):
        if part in OUTPUT_FLAGS:
            names.append(argv[i + 1])
            argv[i + 1] = str(out_dir / argv[i + 1])
    previous = os.getcwd()
    os.chdir(GOLDEN)
    try:
        assert main(argv) == 0, argv
    finally:
        os.chdir(previous)
    return {name: (out_dir / name).read_bytes() for name in names}


@pytest.mark.filterwarnings("ignore:1 label token")  # labels.csv names a token absent from the graph
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_matches_golden(case, tmp_path):
    for name, produced in run_case(CASES[case], tmp_path).items():
        assert produced == (EXPECTED / f"{case}.{name}").read_bytes(), f"{case}: {name}"


def test_every_expected_file_belongs_to_a_case():
    named = {
        f"{case}.{argv[i + 1]}"
        for case, argv in CASES.items()
        for i, flag in enumerate(argv[:-1])
        if flag in OUTPUT_FLAGS
    }
    assert named == {path.name for path in EXPECTED.iterdir()}


if __name__ == "__main__":
    EXPECTED.mkdir(exist_ok=True)
    for path in EXPECTED.iterdir():
        path.unlink()
    with tempfile.TemporaryDirectory() as work:
        for case, argv in CASES.items():
            for name, data in run_case(argv, Path(work)).items():
                (EXPECTED / f"{case}.{name}").write_bytes(data)
    print(f"wrote {len(list(EXPECTED.iterdir()))} files for {len(CASES)} cases", file=sys.stderr)
