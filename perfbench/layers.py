"""Per-layer metrics derived from the spans a traced run writes.

A span's self time is its duration minus the time its child spans cover,
where a child also covers the time the tracer spent counting its result.
The CLI is single-threaded, so children never overlap and their durations
add up. Layers a workload does not exercise report 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "graph.load_s": "s",
    "graph.build_s": "s",
    "graph.nodes": "count",
    "graph.edges": "count",
    "graph.repairs": "count",
    "closure.census_s": "s",
    "closure.aggregate_s": "s",
    "closure.wedges": "count",
    "closure.closed": "count",
    "clustering.census_s": "s",
    "clustering.mean_s": "s",
    "clustering.closed": "count",
    "nullmodel.chain_s": "s",
    "nullmodel.attempt_us": "us",
    "nullmodel.acceptance_rate": "ratio",
    "nullmodel.sample_census_s": "s",
    "nullmodel.sample_s_p50": "s",
    "nullmodel.sample_s_p90": "s",
    "analysis.summary_s": "s",
    "analysis.features_write_s": "s",
    "analysis.bytes_out": "bytes",
    "cli.unattributed_s": "s",
    "cli.cpu_s": "s",
}

CLOSURE_SPANS = ("closure.closure_profiles", "closure.average_closure", "closure.global_closure")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(span: dict) -> float:
    return _duration(span) + span.get("count_s", 0.0)


def _self_times(spans: list[dict]) -> list[float]:
    own = [_duration(span) for span in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= _covered(span)
    return own


def _samples(spans: list[dict]) -> tuple[list[float], float]:
    """Per null-model sample: its chain plus the census that follows it,
    and the summed census time of all sampled graphs."""
    experiments = {s["id"] for s in spans if s["name"] == "nullmodel.run_null_experiment"}
    samples: list[float] = []
    census = 0.0
    for span in sorted((s for s in spans if s["parent"] in experiments), key=lambda s: s["start"]):
        if span["name"] == "nullmodel.run_swap_chain":
            samples.append(_duration(span))
        elif span["name"] in CLOSURE_SPANS and samples:
            samples[-1] += _duration(span)
            census += _duration(span)
    return samples, census


def layer_metrics(spans: list[dict], wall_s: float, cpu_s: float, bytes_out: int) -> dict[str, float]:
    """The PER_LAYER values of one traced run.

    ``wall_s`` is the traced run's own wall time, so ``cli.unattributed_s``
    (interpreter start, imports, argument parsing, checksums and output
    written by the CLI itself) is never negative; ``cpu_s`` is the median
    CPU time of the untraced runs of the same input.
    """
    own = _self_times(spans)
    total: dict[str, float] = defaultdict(float)
    self_total: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for span, own_s in zip(spans, own):
        total[span["name"]] += _duration(span)
        self_total[span["name"]] += own_s
        for key, value in span.get("counts", {}).items():
            counts[f"{span['name']}.{key}"] += value
    samples, sample_census = _samples(spans)
    attempted = counts["nullmodel.run_swap_chain.attempted"]
    deciles = statistics.quantiles(samples, n=10, method="inclusive") if len(samples) > 1 else samples * 9
    roots = sum(_covered(s) for s in spans if s["parent"] is None)
    return {
        "graph.load_s": self_total["graph.load_edge_list"],
        "graph.build_s": total["graph.DirectedGraph"],
        "graph.nodes": counts["graph.load_edge_list.nodes"],
        "graph.edges": counts["graph.load_edge_list.edges"],
        "graph.repairs": counts["graph.load_edge_list.repairs"],
        "closure.census_s": total["closure.closure_profiles"],
        "closure.aggregate_s": self_total["closure.average_closure"] + self_total["closure.global_closure"],
        "closure.wedges": counts["closure.closure_profiles.wedges"],
        "closure.closed": counts["closure.closure_profiles.closed"],
        "clustering.census_s": total["clustering.clustering_profiles"],
        "clustering.mean_s": self_total["clustering.mean_clustering"],
        "clustering.closed": counts["clustering.clustering_profiles.closed"],
        "nullmodel.chain_s": total["nullmodel.run_swap_chain"],
        "nullmodel.attempt_us": self_total["nullmodel.run_swap_chain"] / attempted * 1e6 if attempted else 0.0,
        "nullmodel.acceptance_rate": counts["nullmodel.run_swap_chain.swapped"] / attempted if attempted else 0.0,
        "nullmodel.sample_census_s": sample_census,
        "nullmodel.sample_s_p50": statistics.median(samples) if samples else 0.0,
        "nullmodel.sample_s_p90": deciles[8] if samples else 0.0,
        "analysis.summary_s": self_total["analysis.summary_report"],
        "analysis.features_write_s": self_total["analysis.export_features"],
        "analysis.bytes_out": bytes_out,
        "cli.unattributed_s": wall_s - roots,
        "cli.cpu_s": cpu_s,
    }
