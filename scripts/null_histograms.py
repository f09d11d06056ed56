#!/usr/bin/env python3
"""Null-model histogram experiment.

Swap-samples configuration-model graphs from an input edge list, then
renders an ASCII histogram per coefficient with the closed-form expectation
(T) and the value on the original network (E) marked, alongside the full
JSON report. Desk-scale companion to the library's `nullmodel` CLI
subcommand, which emits data only.

Example:
    python3 scripts/null_histograms.py data/soc-lawyer.txt --samples 200 --out report.json
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dirclosure import (  # noqa: E402
    CountMode,
    SwapChainConfig,
    SwapResult,
    default_attempts,
    load_edge_list,
    run_null_experiment,
)


def fmt(value):
    """Four decimals, or NA for a missing value (std of one sample, an
    empirical coefficient undefined on the input)."""
    return "NA" if value is None else f"{value:.4f}"


def render_histogram(label, stats, width=48):
    lines = [f"{label}: mean={fmt(stats.mean)} std={fmt(stats.std)} "
             f"theory={fmt(stats.theory)} empirical={fmt(stats.empirical)}"]
    if not stats.hist_counts:
        return lines
    peak = max(stats.hist_counts) or 1
    lo, hi = stats.hist_edges[0], stats.hist_edges[-1]
    span = (hi - lo) or 1.0
    for i, count in enumerate(stats.hist_counts):
        left, right = stats.hist_edges[i], stats.hist_edges[i + 1]
        bar = "#" * round(width * count / peak)
        marks = ""
        if left <= stats.theory < right or (i == len(stats.hist_counts) - 1 and stats.theory == right):
            marks += " T"
        if stats.empirical is not None and (
            left <= stats.empirical < right
            or (i == len(stats.hist_counts) - 1 and stats.empirical == right)
        ):
            marks += " E"
        lines.append(f"  [{left:.4f},{right:.4f}) {bar}{marks}")
    out_of_range = []
    if stats.theory < lo or stats.theory > hi:
        out_of_range.append(f"T={stats.theory:.4f}")
    if stats.empirical is not None and (stats.empirical < lo or stats.empirical > hi):
        out_of_range.append(f"E={stats.empirical:.4f}")
    if out_of_range:
        lines.append(f"  outside sampled range: {', '.join(out_of_range)}")
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="edge-list file")
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--swaps", type=int, default=None)
    parser.add_argument("--count-mode", choices=("attempted", "accepted"), default="attempted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--bins", type=int, default=20)
    parser.add_argument("--out", help="also write the JSON report here")
    args = parser.parse_args()

    graph, _ = load_edge_list(args.input)
    attempts = args.swaps if args.swaps is not None else default_attempts(graph.m)
    cfg = SwapChainConfig(attempts=attempts, seed=args.seed, count_mode=CountMode(args.count_mode))
    print(f"{args.input}: n={graph.n} m={graph.m}; {args.samples} samples x {attempts} {args.count_mode} swaps, seed={args.seed}")
    report = run_null_experiment(graph, args.samples, cfg, bins=args.bins)

    for title, section in (("average", report.average), ("global", report.global_coefficients)):
        print(f"\n== {title} coefficients ==")
        for key, stats in section.items():
            if stats.mean is None:
                print(f"{key.label}: undefined in every sample")
                continue
            print("\n".join(render_histogram(key.label, stats)))
    total = sum(report.swap_totals.values())
    if total:
        accepted = report.swap_totals[SwapResult.SWAPPED]
        print(f"\nswap acceptance: {accepted}/{total} = {accepted / total:.1%}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.out}")


if __name__ == "__main__":
    main()
