"""Loom benchmark: one command for the four workloads and their checks.

Run from the repository root::

    python3 perfbench/run.py --workload serve-engine --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing and ``repro.obs``
off.  ``--trace 1`` runs the same input untraced and then traced, and
reports the per-layer metrics plus the tracing overhead.  Each metric is
printed with its unit and sample count, then a run record (machine
fingerprint, seed, sample counts, overhead), and the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when an output check fails and 2 when the program under
test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Per-layer metrics read from the spans: (metric, span name, field).
SPAN_METRICS = (
    ("core.loom.ingest_batch.calls", "core.loom.ingest_batch", "calls"),
    ("core.loom.ingest_batch.self_s", "core.loom.ingest_batch", "self_s"),
    ("core.loom.finalize.self_s", "core.loom.finalize", "self_s"),
    ("core.matching.next_eviction.calls", "core.matching.next_eviction", "calls"),
    ("core.matching.next_eviction.self_s", "core.matching.next_eviction", "self_s"),
    ("core.matching.remove_cluster.self_s", "core.matching.remove_cluster", "self_s"),
    ("core.allocation.allocate.calls", "core.allocation.allocate", "calls"),
    ("core.allocation.allocate.self_s", "core.allocation.allocate", "self_s"),
    ("partitioning.ldg.choose.calls", "partitioning.ldg.choose", "calls"),
    ("partitioning.ldg.choose.self_s", "partitioning.ldg.choose", "self_s"),
    ("serving.engine.serve_root.self_s", "serving.engine.serve_root", "self_s"),
    ("serving.execution.enumerate_root.calls", "serving.execution.enumerate_root", "calls"),
    ("serving.execution.enumerate_root.self_s", "serving.execution.enumerate_root", "self_s"),
    ("serving.execution.splice_segments.self_s", "serving.execution.splice_segments", "self_s"),
    ("runtime.live.submit.calls", "runtime.live.submit", "calls"),
    ("runtime.live.submit.self_s", "runtime.live.submit", "self_s"),
    ("runtime.live.poll_completed.calls", "runtime.live.poll_completed", "calls"),
    ("runtime.live.poll_completed.wait_s", "runtime.live.poll_completed", "total_s"),
    ("runtime.live.ingest.calls", "runtime.live.ingest", "calls"),
    ("runtime.live.ingest.self_s", "runtime.live.ingest", "self_s"),
    ("runtime.live.finalize.self_s", "runtime.live.finalize", "self_s"),
)

#: The auction's zero-bid fallback calls LDG from inside ``allocate``;
#: every other LDG call places a vertex the label gate bypassed.
LDG_SPLIT = (
    ("partitioning.ldg.choose.bypass", lambda parent: parent != "core.allocation.allocate"),
    ("partitioning.ldg.choose.fallback", lambda parent: parent == "core.allocation.allocate"),
)

COUNT_UNITS = {
    "core.matching.windowed_ratio": "ratio",
    "core.matching.matches_created": "count",
    "core.matching.capped_registrations": "count",
    "core.matching.extension_probes": "count",
    "core.allocation.evictions": "count",
    "core.allocation.fallback_ratio": "ratio",
    "core.allocation.edges_per_cluster": "edges/cluster",
    "partitioning.state.imbalance": "ratio",
    "serving.execution.embeddings_per_request": "count/request",
    "serving.execution.border_expansions_per_request": "count/request",
    "runtime.live.hop_messages_per_request": "count/request",
    "runtime.server.steps_per_request": "count/request",
    "runtime.server.requests_skew": "ratio",
    "serving.cache.hit_rate": "ratio",
    "serving.cache.invalidations_per_round": "count/round",
}


def per_layer_units():
    """Every per-layer metric name → unit, in report order."""
    units = {}
    for metric, _span, fld in SPAN_METRICS:
        units[metric] = "count" if fld == "calls" else "s"
    for prefix, _match in LDG_SPLIT:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    units["runtime.live.ingest.p50_ms"] = "ms"
    units["runtime.live.ingest.p90_ms"] = "ms"
    units.update(COUNT_UNITS)
    units["bench.trace_overhead"] = "ratio"
    return units


def layer_metrics(traced: dict, counts: dict):
    """Per-layer metrics from the traced pass.  A layer that did no work in
    this workload's timed phase reads 0."""
    from repro.serving.traffic import percentile

    summary = traced["summary"]
    out = {}
    for metric, span, fld in SPAN_METRICS:
        row = summary.get(span)
        out[metric] = (row[fld] if row else 0, row["calls"] if row else 0)
    ldg = summary.get("partitioning.ldg.choose", {"by_parent": {}})["by_parent"]
    for prefix, match in LDG_SPLIT:
        calls = sum(n for parent, (n, _s) in ldg.items() if match(parent))
        seconds = sum(s for parent, (_n, s) in ldg.items() if match(parent))
        out[f"{prefix}.calls"] = (calls, calls)
        out[f"{prefix}.self_s"] = (seconds, calls)
    rounds = sorted(summary.get("runtime.live.ingest", {"durations": []})["durations"])
    out["runtime.live.ingest.p50_ms"] = (percentile(rounds, 0.50) * 1e3, len(rounds))
    out["runtime.live.ingest.p90_ms"] = (percentile(rounds, 0.90) * 1e3, len(rounds))
    for metric in COUNT_UNITS:
        out[metric] = (counts.get(metric, 0), 1)
    out["bench.trace_overhead"] = (traced["overhead"], 1)
    units = per_layer_units()
    return {name: (value, units[name], n) for name, (value, n) in out.items()}


def machine_fingerprint():
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run_workload(name, args, out=sys.stdout):
    """Run one workload; prints its metrics and record, returns the result
    object for the last line."""
    from workloads import SCALES, WORKLOADS

    outcome = WORKLOADS[name](args.seed, args.seconds, SCALES[args.scale], bool(args.trace))
    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "machine": machine_fingerprint(),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / outcome.attempted if outcome.attempted else 0.0,
        "problems": outcome.problems,
    }
    traced = outcome.record.pop("trace", None)
    counts = outcome.record.pop("layer_counts", {})
    record.update(outcome.record)
    if traced is not None:
        metrics = layer_metrics(traced, counts)
        record["trace_overhead"] = traced["overhead"]
        if args.spans:
            write_spans(traced["tracer"], Path(args.spans), name)
    else:
        metrics = outcome.metrics
    record["samples"] = {metric: n for metric, (_v, _u, n) in metrics.items()}
    print(f"== {name} (seed {args.seed}, trace {args.trace})", file=out)
    for metric, (value, unit, n) in metrics.items():
        print(f"  {metric:<52} {value:>16.6g} {unit:<14} n={n}", file=out)
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}", file=out)
    print("record " + json.dumps(record, sort_keys=True), file=out)
    return {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _n) in metrics.items()},
    }


def write_spans(tracer, path: Path, workload: str) -> None:
    fields = ("name", "start", "end", "parent", "request")
    with path.open("a") as fh:
        for span in tracer.spans:
            fh.write(json.dumps({"workload": workload, **dict(zip(fields, span))}) + "\n")


def build_parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--spans", help="append the traced pass's spans to this JSONL file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro under {ROOT}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; expected one of {list(WORKLOADS)} or 'all'",
              file=sys.stderr)
        return 2
    results = {name: run_workload(name, args) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
