"""Run the dirclosure CLI with timing spans around calls into its layers.

Usage: python3 perfbench/tracer.py SPANS.json RUN_ID -- CLI-ARGS...

The program itself is not changed: before ``cli.main`` runs, the public
functions of each layer are replaced, in every dirclosure module that
holds a reference to them, by wrappers that record a span (name, start,
end, parent, run id). Spans stay in memory and are written as JSON when
the CLI returns. Counts are read from a wrapped call's result right after
its span ends; the time that takes is stored as ``count_s`` so the
analysis can leave it out of the parent's self time. A function that calls
itself (``load_edge_list`` opening a path) gets one span.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import dirclosure
from dirclosure import analysis, cli, closure, clustering, extremal, graph, nullmodel

MODULES = (dirclosure, analysis, cli, closure, clustering, extremal, graph, nullmodel)


def _load_counts(result) -> dict:
    g, repaired = result
    return {"nodes": g.n, "edges": g.m, "repairs": repaired.duplicate_edges + repaired.self_loops}


def _closure_counts(profiles) -> dict:
    return {
        "wedges": sum(sum(p.wedges.values()) for p in profiles),
        "closed": sum(sum(p.closed.values()) for p in profiles),
    }


def _clustering_counts(profiles) -> dict:
    return {"closed": sum(sum(p.closed.values()) for p in profiles)}


def _chain_counts(result) -> dict:
    _, outcomes = result
    return {
        "attempted": sum(outcomes.values()),
        "swapped": outcomes[nullmodel.SwapResult.SWAPPED],
    }


# (module, function name, counts taken from its result)
TRACED = (
    (graph, "load_edge_list", _load_counts),
    (closure, "closure_profiles", _closure_counts),
    (closure, "average_closure", None),
    (closure, "global_closure", None),
    (clustering, "clustering_profiles", _clustering_counts),
    (clustering, "mean_clustering", None),
    (nullmodel, "run_swap_chain", _chain_counts),
    (nullmodel, "run_null_experiment", None),
    (analysis, "summary_report", None),
    (analysis, "export_features", None),
)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]]["name"] == name:
                return fn(*args, **kwargs)  # a recursive call stays inside its caller's span
            span = {
                "id": len(self.spans),
                "name": name,
                "parent": self.stack[-1] if self.stack else None,
                "run": self.run_id,
            }
            self.spans.append(span)
            self.stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span["counts"] = count(result)
                span["count_s"] = time.perf_counter() - span["end"]
            return result

        return traced

    def install(self) -> None:
        for module, attr, count in TRACED:
            original = getattr(module, attr)
            wrapper = self.wrap(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", original, count)
            for holder in MODULES:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
        init = graph.DirectedGraph.__init__
        graph.DirectedGraph.__init__ = self.wrap("graph.DirectedGraph", init)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def main(argv: list[str]) -> int:
    spans_path, run_id, separator, *cli_args = argv
    if separator != "--":
        raise SystemExit("usage: tracer.py SPANS.json RUN_ID -- CLI-ARGS...")
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
