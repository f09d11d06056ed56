"""Command-line front end.

Every output document embeds the tool version, an input checksum, and the
effective configuration (as ``# key=value`` comment lines, or a ``meta``
object in JSON), so identical invocations on identical inputs are
byte-identical — including null-model runs, which are fully seeded.
Tables round to 4 decimals and show undefined values as NA; CSV/JSON carry
full precision with undefined as empty/null.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from typing import IO, Iterator

from . import __version__
from .analysis import (
    closure_correlation_matrix,
    export_features,
    format_value,
    read_labels,
    summary_report,
    write_closure_csv,
    write_clustering_csv,
    write_correlation_csv,
)
from .closure import (
    ALL_KEYS,
    WEDGE_TYPES,
    CoefficientKey,
    average_closure,
    census,
    check_symmetry,
    global_closure,
)
from .clustering import clustering_label, mean_clustering
from .extremal import ExtremalSpec, build_extremal, claimed_io_closure, node_classes
from .graph import IN, OUT, DirectedGraph, degree_moments, load_edge_list, write_edge_list, write_id_map
from .nullmodel import (
    CountMode,
    SwapChainConfig,
    default_attempts,
    expected_average_closure,
    expected_clustering,
    expected_global_closure,
    run_null_experiment,
)


@contextmanager
def _sink(path: str | None) -> Iterator[IO[str]]:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _load_graph(args: argparse.Namespace) -> DirectedGraph:
    graph, load_warnings = load_edge_list(args.input)
    if load_warnings.any():
        print(
            f"warning: repaired input: {load_warnings.duplicate_edges} duplicate edge(s), "
            f"{load_warnings.self_loops} self-loop(s)",
            file=sys.stderr,
        )
    if args.id_map:
        with open(args.id_map, "w", encoding="utf-8", newline="") as fh:
            write_id_map(graph, fh)
    return graph


def _meta(args: argparse.Namespace, **extra) -> dict:
    meta = {"tool": "dirclosure", "version": __version__, "subcommand": args.subcommand}
    if getattr(args, "input", None) is not None:
        meta["input"] = args.input
        meta["input_sha256"] = _sha256(args.input)
    meta.update(extra)
    return meta


def _write_comment_meta(sink: IO[str], meta: dict) -> None:
    for key, value in meta.items():
        sink.write(f"# {key}={value}\n")


def _table_value(value: float | None) -> str:
    return "NA" if value is None else f"{value:.4f}"


def _cell(value: float | None, fmt: str) -> str:
    return _table_value(value) if fmt == "tsv" else format_value(value)


def _emit_rows(args: argparse.Namespace, meta: dict, header: list[str], rows: list[list], json_doc: dict) -> None:
    """Write a row-oriented document as tsv (display), csv, or json."""
    with _sink(args.out) as sink:
        if args.format == "json":
            json.dump({"meta": meta, **json_doc}, sink, indent=2)
            sink.write("\n")
            return
        _write_comment_meta(sink, meta)
        separator = "\t" if args.format == "tsv" else ","
        sink.write(separator.join(header) + "\n")
        for row in rows:
            sink.write(separator.join(row) + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_stats(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    summary = summary_report(g)
    meta = _meta(args, format=args.format)
    rows: list[list] = [["nodes", str(summary["nodes"])], ["edges", str(summary["edges"])]]
    for name, value in summary["moments"].items():
        rows.append([name, _cell(value, args.format)])
    for section in ("average_closure", "global_closure", "mean_clustering"):
        for name, value in summary[section].items():
            prefix = "average_" if section == "average_closure" else "global_" if section == "global_closure" else ""
            rows.append([prefix + name, _cell(value, args.format)])
    for name, value in summary["undefined_wedge_heads"].items():
        rows.append([f"undefined_heads_{name}", str(value)])
    _emit_rows(args, meta, ["metric", "value"], rows, summary)
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    counts = census(g)
    averages = average_closure(counts)
    globals_ = global_closure(counts)
    residuals = check_symmetry(globals_)
    meta = _meta(args, format=args.format)
    if args.per_node:
        with open(args.per_node, "w", encoding="utf-8", newline="") as fh:
            _write_comment_meta(fh, _meta(args, document="per_node_closure"))
            write_closure_csv(g, counts, fh)
    rows = []
    for key in ALL_KEYS:
        rows.append(["average", key.label, _cell(averages[key], args.format)])
    for key in ALL_KEYS:
        rows.append(["global", key.label, _cell(globals_[key], args.format)])
    for (a, b), residual in residuals.items():
        rows.append(["symmetry_residual", f"{a.label}~{b.label}", _cell(residual, args.format)])
    json_doc = {
        "average": {k.label: v for k, v in averages.items()},
        "global": {k.label: v for k, v in globals_.items()},
        "symmetry_residuals": {f"{a.label}~{b.label}": r for (a, b), r in residuals.items()},
    }
    _emit_rows(args, meta, ["kind", "coefficient", "value"], rows, json_doc)
    return 0


def _cmd_clustering(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    counts = census(g)
    means = mean_clustering(counts)
    meta = _meta(args, format=args.format)
    if args.per_node:
        with open(args.per_node, "w", encoding="utf-8", newline="") as fh:
            _write_comment_meta(fh, _meta(args, document="per_node_clustering"))
            write_clustering_csv(g, counts, fh)
    rows = [[clustering_label(xy), _cell(means[xy], args.format)] for xy in WEDGE_TYPES]
    json_doc = {"mean_clustering": {clustering_label(xy): means[xy] for xy in WEDGE_TYPES}}
    _emit_rows(args, meta, ["coefficient", "value"], rows, json_doc)
    return 0


def _cmd_corr(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    matrix = closure_correlation_matrix(g)
    meta = _meta(args, format=args.format)
    with _sink(args.out) as sink:
        if args.format == "json":
            doc = {
                "meta": meta,
                "keys": [key.label for key in matrix.keys],
                "values": [list(row) for row in matrix.values],
                "counts": [list(row) for row in matrix.counts],
            }
            json.dump(doc, sink, indent=2)
            sink.write("\n")
        else:
            _write_comment_meta(sink, meta)
            write_correlation_csv(matrix, sink)
    return 0


def _cmd_expected(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    mom = degree_moments(g)
    meta = _meta(args, format=args.format, n=mom.n, m=mom.m)
    rows = []
    for key in ALL_KEYS:
        rows.append(["average", key.label, _cell(expected_average_closure(mom, key), args.format)])
    for key in ALL_KEYS:
        rows.append(["global", key.label, _cell(expected_global_closure(mom, key), args.format)])
    for xy in WEDGE_TYPES:
        rows.append(["clustering", clustering_label(xy), _cell(expected_clustering(mom, xy), args.format)])
    json_doc = {
        "expected_average": {k.label: expected_average_closure(mom, k) for k in ALL_KEYS},
        "expected_global": {k.label: expected_global_closure(mom, k) for k in ALL_KEYS},
        "expected_clustering": {
            clustering_label(xy): expected_clustering(mom, xy) for xy in WEDGE_TYPES
        },
    }
    _emit_rows(args, meta, ["kind", "coefficient", "expected"], rows, json_doc)
    return 0


def _cmd_nullmodel(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    attempts = args.swaps if args.swaps is not None else default_attempts(g.m)
    cfg = SwapChainConfig(attempts=attempts, seed=args.seed, count_mode=CountMode(args.count_mode))
    report = run_null_experiment(g, args.samples, cfg, bins=args.bins)
    meta = _meta(
        args,
        format=args.format,
        samples=args.samples,
        swaps=attempts,
        count_mode=args.count_mode,
        seed=args.seed,
        bins=args.bins,
    )
    rows = []
    for kind, section in (("average", report.average), ("global", report.global_coefficients)):
        for key, stats in section.items():
            rows.append(
                [
                    kind,
                    key.label,
                    _cell(stats.mean, args.format),
                    _cell(stats.std, args.format),
                    _cell(stats.theory, args.format),
                    _cell(stats.empirical, args.format),
                ]
            )
    _emit_rows(args, meta, ["kind", "coefficient", "mean", "std", "theory", "empirical"], rows, report.to_dict())
    return 0


def _cmd_extremal(args: argparse.Namespace) -> int:
    try:
        sizes = tuple(int(part) for part in args.classes.split(","))
    except ValueError:
        raise ValueError(f"--classes expects four comma-separated integers, got {args.classes!r}")
    if len(sizes) != 4:
        raise ValueError(f"--classes expects four comma-separated integers, got {args.classes!r}")
    spec = ExtremalSpec(*sizes)
    g = build_extremal(spec)
    meta = _meta(args, classes=args.classes, format=args.format)
    meta["input_sha256"] = hashlib.sha256(f"classes={args.classes}".encode()).hexdigest()
    if args.edges_out:
        with open(args.edges_out, "w", encoding="utf-8") as fh:
            write_edge_list(g, fh)
    if args.class_map:
        with open(args.class_map, "w", encoding="utf-8", newline="") as fh:
            fh.write("token,class\n")
            for u, cls in enumerate(node_classes(spec)):
                fh.write(f"{g.token(u)},{cls}\n")
    claimed_i, claimed_o = claimed_io_closure(spec)
    averages = average_closure(census(g))
    computed_i = averages[CoefficientKey(IN, OUT, IN)]
    computed_o = averages[CoefficientKey(IN, OUT, OUT)]
    rows = [
        ["closure_io_i", _cell(claimed_i, args.format), _cell(computed_i, args.format)],
        ["closure_io_o", _cell(claimed_o, args.format), _cell(computed_o, args.format)],
    ]
    json_doc = {
        "nodes": g.n,
        "edges": g.m,
        "claimed": {"closure_io_i": claimed_i, "closure_io_o": claimed_o},
        "computed_average": {k.label: v for k, v in averages.items()},
        "claim_matches_computed": {
            "closure_io_i": abs(claimed_i - computed_i) <= 1e-12,
            "closure_io_o": abs(claimed_o - computed_o) <= 1e-12,
        },
    }
    _emit_rows(args, meta, ["coefficient", "claimed", "computed"], rows, json_doc)
    return 0


def _cmd_features(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    labels = None
    if args.labels:
        with open(args.labels, "r", encoding="utf-8", newline="") as fh:
            labels = read_labels(fh)
    meta = _meta(args, labels=args.labels or "")
    with _sink(args.out) as sink:
        _write_comment_meta(sink, meta)
        count = export_features(g, labels, sink)
    print(f"wrote {count} feature rows", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dirclosure", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dirclosure {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sub: argparse.ArgumentParser, with_input: bool = True) -> None:
        if with_input:
            sub.add_argument("input", help="edge-list file (two whitespace-separated tokens per line)")
            sub.add_argument("--id-map", help="also write the dense_id,token mapping CSV here")
        sub.add_argument("--format", choices=("tsv", "csv", "json"), default="tsv")
        sub.add_argument("--out", help="output path (default: stdout)")

    sub = subparsers.add_parser("stats", help="graph summary: sizes, moments, all coefficients")
    add_common(sub)
    sub.set_defaults(handler=_cmd_stats)

    sub = subparsers.add_parser("closure", help="average/global closure coefficients and symmetry residuals")
    add_common(sub)
    sub.add_argument("--per-node", help="write per-node wedge/closure CSV here")
    sub.set_defaults(handler=_cmd_closure)

    sub = subparsers.add_parser("clustering", help="mean directed clustering coefficients")
    add_common(sub)
    sub.add_argument("--per-node", help="write per-node clustering CSV here")
    sub.set_defaults(handler=_cmd_clustering)

    sub = subparsers.add_parser("corr", help="pairwise-complete correlation matrix of closure coefficients")
    add_common(sub)
    sub.set_defaults(handler=_cmd_corr)

    sub = subparsers.add_parser("expected", help="null-model expectations from the input's degree moments")
    add_common(sub)
    sub.set_defaults(handler=_cmd_expected)

    sub = subparsers.add_parser("nullmodel", help="swap-sample null models and compare against theory")
    add_common(sub)
    sub.add_argument("--samples", type=int, default=100)
    sub.add_argument("--swaps", type=int, default=None, help="chain length (default: max(20*m, 10000))")
    sub.add_argument("--count-mode", choices=("attempted", "accepted"), default="attempted")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--bins", type=int, default=50)
    sub.set_defaults(handler=_cmd_nullmodel)

    sub = subparsers.add_parser("extremal", help="build the four-class construction; claimed vs computed")
    add_common(sub, with_input=False)
    sub.add_argument("--classes", required=True, help="four class sizes, e.g. 2,1,1,1")
    sub.add_argument("--edges-out", help="write the generated edge list here")
    sub.add_argument("--class-map", help="write the token,class CSV here")
    sub.set_defaults(handler=_cmd_extremal)

    sub = subparsers.add_parser("features", help="per-node predictor matrix as CSV")
    add_common(sub)
    sub.add_argument("--labels", help="two-column CSV token,label")
    sub.set_defaults(handler=_cmd_features)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
