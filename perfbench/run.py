"""dirclosure benchmark: seeded synthetic inputs, one CLI process at a time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload stats-hub --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30     # every workload, one table each

Each run generates its input from ``--seed``, then runs the workload's CLI
command as a closed loop with one client until the measured CLI time
reaches ``--seconds``, checking every output. Before each CLI run it times
one fresh process that imports dirclosure and loads the input
(``setup_s``), with at least ``SETUP_REPEATS`` of them in all. With
``--trace 1`` one more CLI run goes through ``tracer.py`` and the per-layer
metrics come from its spans; end-to-end metrics always come from the
untraced runs. The last line of stdout is the JSON result; everything a
run measured, with the input descriptors and machine facts, also goes to
``perfbench/work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
from checks import (
    Recount,
    brute_force_sample,
    check_features,
    check_nullmodel,
    check_repairs,
    check_stats,
    dense_oracle,
)
from layers import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "dirclosure"
WORK = HERE / "work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
NULL_SAMPLES = 50
# The whole benchmark process must end within this many seconds; a CLI run
# still going at the deadline is killed and counted as failed.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    make: Callable[[int], gen.EdgeList]
    argv: Callable[[str, str, int], list[str]]
    checker: Callable[[gen.EdgeList, int], Callable[[str], list[str]]]


def _stats_checker(el: gen.EdgeList, seed: int):
    rc = Recount(el)
    return lambda text: check_stats(text, rc)


def _features_checker(el: gen.EdgeList, seed: int):
    rc = Recount(el)
    sample = brute_force_sample(rc, seed)
    return lambda text: check_features(text, rc, sample)


def _nullmodel_checker(el: gen.EdgeList, seed: int):
    rc = Recount(el)
    oracle = dense_oracle(rc)
    return lambda text: check_nullmodel(text, rc, NULL_SAMPLES, oracle)


WORKLOADS = {
    "stats-hub": Workload(
        make=lambda seed: gen.skewed(seed, n=10_000, m=100_000, alpha=0.6),
        argv=lambda inp, out, seed: ["stats", inp, "--format", "json", "--out", out],
        checker=_stats_checker,
    ),
    "features-sparse": Workload(
        make=lambda seed: gen.uniform(seed, n=25_000, m=125_000, repair_share=0.01),
        argv=lambda inp, out, seed: ["features", inp, "--out", out],
        checker=_features_checker,
    ),
    "nullmodel-lawyer": Workload(
        make=lambda seed: gen.skewed(seed, n=71, m=892, alpha=0.3),
        argv=lambda inp, out, seed: [
            "nullmodel", inp, "--samples", str(NULL_SAMPLES), "--seed", str(seed),
            "--format", "json", "--out", out,
        ],
        checker=_nullmodel_checker,
    ),
}


@dataclass(frozen=True)
class Process:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stderr: str


class Deadline:
    """Runs commands through ``launch.py`` so that the whole benchmark ends
    within DEADLINE_S; a command still running then is killed."""

    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def expired(self) -> bool:
        return time.monotonic() >= self.end

    def run(self, argv: list[str], stdout: Path, stderr: Path) -> Process:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            return Process(-signal.SIGKILL, 0.0, 0.0, 0.0, "not started: benchmark deadline reached")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        launcher = [sys.executable, str(HERE / "launch.py"), f"{remaining:.3f}", str(stdout), str(stderr), "--"]
        try:
            launched = subprocess.run(
                [*launcher, sys.executable, *argv], env=env, capture_output=True, text=True, timeout=remaining + 5
            )
            report = json.loads(launched.stdout)
        except (subprocess.TimeoutExpired, ValueError) as exc:
            return Process(-signal.SIGKILL, 0.0, 0.0, 0.0, f"launcher failed: {exc!r}")
        return Process(**report, stderr=stderr.read_text(encoding="utf-8", errors="replace"))


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def environment() -> dict:
    """Machine and software facts recorded with every result."""
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        ref = ROOT / ".git" / commit.removeprefix("ref: ")
        if commit.startswith("ref: ") and ref.is_file():
            commit = ref.read_text().strip()
    source = hashlib.sha256()
    for path in sorted(SOURCE.glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy_importable": scipy_version,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: Deadline) -> dict:
    workload = WORKLOADS[name]
    work = WORK / f"{name}-s{seed}"
    work.mkdir(parents=True, exist_ok=True)
    el = workload.make(seed)
    descriptors = el.descriptors()
    inp, out, err, log = work / "input.txt", work / "output", work / "stderr", work / "stdout"
    el.write(str(inp))
    check = workload.checker(el, seed)
    errors: list[str] = []

    # untimed: compile bytecode and warm the file cache
    deadline.run(["-c", "import dirclosure"], log, err)
    setup: list[float] = []

    def time_setup() -> None:
        proc = deadline.run(["-c", "import sys, dirclosure; dirclosure.load_edge_list(sys.argv[1])", str(inp)], log, err)
        setup.append(proc.wall_s)
        if proc.code != 0:
            errors.append(f"setup exit code {proc.code}: {proc.stderr[-500:]}")

    runs: list[Process] = []
    failed = 0
    first_digest = None
    cli = ["-m", "dirclosure.cli", *workload.argv(str(inp), str(out), seed)]

    def checked(proc: Process) -> list[str]:
        nonlocal first_digest
        if proc.code != 0:
            return [f"exit code {proc.code}: {proc.stderr[-500:]}"]
        try:
            problems = check(out.read_text(encoding="utf-8")) + check_repairs(proc.stderr, el)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:  # malformed output
            return [f"output check raised {exc!r}"]
        digest = _digest(out)
        first_digest = first_digest or digest
        if digest != first_digest:
            problems.append("output differs from the first run of this seed")
        return problems

    # Set-up samples alternate with CLI runs, so both medians span the same
    # stretch of time on a machine whose speed drifts.
    while not runs or sum(r.wall_s for r in runs) < seconds:
        time_setup()
        proc = deadline.run(cli, log, err)
        runs.append(proc)
        problems = checked(proc)
        if problems:
            failed += 1
            errors += problems
        if proc.code < 0:
            break
    while len(setup) < SETUP_REPEATS and not deadline.expired():
        time_setup()

    wall = _median([r.wall_s for r in runs])
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "input": descriptors,
        "setup_s_samples": setup,
        "runs": [r.__dict__ for r in runs],
        "end_to_end": {
            "wall_s": wall,
            "setup_s": _median(setup),
            "peak_rss_mb": _median([r.rss_mb for r in runs]),
        },
        "attempted": len(runs),
        "failed": failed,
    }

    if trace:
        spans_path = work / "spans.json"
        traced = deadline.run(
            [str(HERE / "tracer.py"), str(spans_path), f"{name}-s{seed}-traced", "--", *cli[2:]], log, err
        )
        result["attempted"] += 1
        problems = checked(traced)
        if problems:
            result["failed"] += 1
            errors += problems
        spans = json.loads(spans_path.read_text()) if traced.code == 0 else []
        layers = layer_metrics(spans, traced.wall_s, _median([r.cpu_s for r in runs]), out.stat().st_size)
        expected = {"graph.nodes": descriptors["n"], "graph.edges": descriptors["m"],
                    "graph.repairs": el.duplicates + el.self_loops}
        for key, value in expected.items():
            if layers[key] != value:
                errors.append(f"traced {key}={layers[key]} != generator {value}")
        result.update(traced_wall_s=traced.wall_s, tracing_overhead_s=traced.wall_s - wall,
                      spans=str(spans_path.relative_to(ROOT)), per_layer=layers)

    result["errors"] = errors
    result["correct"] = not errors
    return result


def _report(result: dict) -> None:
    """Human-readable summary: every metric with its unit and sample count."""
    runs = result["runs"]
    print(f"== {result['workload']}  seed={result['seed']}  input={json.dumps(result['input'])}")
    print(f"   wall_s       {result['end_to_end']['wall_s']:.4f} s   median of {len(runs)} runs "
          f"(min {min(r['wall_s'] for r in runs):.4f}, max {max(r['wall_s'] for r in runs):.4f})")
    print(f"   setup_s      {result['end_to_end']['setup_s']:.4f} s   median of {len(result['setup_s_samples'])} processes")
    print(f"   peak_rss_mb  {result['end_to_end']['peak_rss_mb']:.1f} MB  median of {len(runs)} runs")
    print(f"   error_rate   {result['failed'] / result['attempted']:.4f}     {result['failed']} failed of {result['attempted']} runs")
    for name, value in result.get("per_layer", {}).items():
        print(f"   {name:26s} {value:.6g} {PER_LAYER[name]}")
    if "tracing_overhead_s" in result:
        print(f"   tracing overhead {result['tracing_overhead_s']:.4f} s (traced run vs median untraced)")
    for problem in result["errors"][:10]:
        print(f"   FAILED CHECK: {problem}")


def _metrics(result: dict, trace: bool) -> dict:
    if trace:
        return {name: {"value": result["per_layer"][name], "unit": unit} for name, unit in PER_LAYER.items()}
    return {name: {"value": result["end_to_end"][name], "unit": unit} for name, unit in END_TO_END.items()}


def _check_manifest() -> None:
    """Metric names here must match the ones BENCHMARK.json declares."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = ([m["name"] for m in manifest["end_to_end"]], [m["name"] for m in manifest["per_layer"]])
    if declared != (list(END_TO_END), list(PER_LAYER)) or sorted(w["name"] for w in manifest["workloads"]) != sorted(WORKLOADS):
        raise SystemExit("perfbench: BENCHMARK.json and perfbench/run.py declare different metrics or workloads")


def main() -> int:
    parser = argparse.ArgumentParser(description="dirclosure benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SOURCE / "cli.py").is_file():
        print(f"perfbench: no dirclosure source under {SOURCE.relative_to(ROOT)}; run from a full checkout", file=sys.stderr)
        return 2
    _check_manifest()

    deadline = Deadline(DEADLINE_S if args.workload != "all" else DEADLINE_S * len(WORKLOADS))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace), deadline) for name in names]
    env = environment()
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    for result in results:
        result["environment"] = env
        path = WORK / "results" / f"{result['workload']}-s{args.seed}-t{args.trace}.json"
        path.write_text(json.dumps(result, indent=2))
        _report(result)
    print(f"   environment: {json.dumps(env)}")

    if len(results) == 1:
        metrics = _metrics(results[0], bool(args.trace))
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in _metrics(r, bool(args.trace)).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
