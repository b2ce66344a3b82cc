"""Closed-loop serving benchmark: queries/s and latency per partitioner.

Partitions one synthetic stream with every ``--systems`` entry, then
serves the **identical** sampled request sequence (frequency-weighted
queries, Zipf-skewed roots — root candidates are label sets of the shared
graph, so the sequence is system-independent) through a
:class:`~repro.serving.engine.ServingEngine` over each partitioning, and
reports per system:

* ``hops_per_query`` — real border crossings per request (the live twin
  of the paper's ipt; this is where Loom's placement quality shows),
* ``queries_per_sec`` and p50/p95/p99 latency, where each request is its
  measured local compute plus ``--hop-cost-us`` per hop actually incurred
  (cache hits answer locally and charge nothing) — the modelled network
  round-trip that turns saved hops into saved time,
* ``hops_vs_hash`` — hops/query relative to the Hash baseline,
* ``gain_vs_baseline`` — queries/s vs the committed ``BENCH_serving.json``
  (cross-run, config-guarded; ``python -m repro.experiment gate`` gates
  on it in CI).

Each (system, repeat) runs a fresh engine and cold cache; hops must be
bit-identical across repeats (served results are deterministic — only
timing varies), and timing is best-of ``--repeats``.

**Scaling mode** (on by default, ``--no-scaling`` to skip) then drives the
same traffic through :class:`~repro.runtime.live.LiveCluster` at each
``--scale-shards`` count — real shard-server processes, hops as actual
inter-process messages, up to ``--inflight`` requests overlapping — and
writes one ``results["scaling"]["sN"]`` row per count (queries/s,
p50/p95/p99, hop messages, ``gain_vs_baseline``).  Answers are asserted
bit-identical across shard counts before any timing is reported.  On a
multi-core box the curve shows the scale-out win; on one core it
honestly shows process overhead.

Run from the repository root::

    python benchmarks/bench_serving.py        # writes BENCH_serving.json
    python benchmarks/bench_serving.py --requests 500 --systems hash loom
    python benchmarks/bench_serving.py --scale-shards 1 2 4 8 --inflight 16
"""

import argparse
import json
import platform
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from bench_util import bench_workload, load_baseline, require_baseline

from repro.experiment.registry import namespace_from_parser, trial

from repro.graph.stream import stream_to_graph, synthetic_stream
from repro.partitioning import registry
from repro.partitioning.state import PartitionState
from repro.runtime.live import LiveCluster
from repro.serving import LiveTrafficDriver, ServingEngine, TrafficDriver

DEFAULT_VERTICES = 900
DEFAULT_EDGES = 5_400
DEFAULT_K = 8
DEFAULT_WINDOW = 650  # ≈ 12% of the stream, the CLI's scaled default
DEFAULT_REQUESTS = 2_000
DEFAULT_ZIPF = 1.1
DEFAULT_HOP_COST_US = 50.0
DEFAULT_SYSTEMS = ("hash", "ldg", "fennel", "loom")

CONFIG_KEYS = (
    "vertices",
    "edges",
    "k",
    "seed",
    "window",
    "requests",
    "zipf",
    "hop_cost_us",
    "router",
    "cache",
)

#: Scaling-mode knobs that must match for scaling gains to be comparable.
SCALING_CONFIG_KEYS = (
    "vertices",
    "edges",
    "k",
    "seed",
    "window",
    "zipf",
    "router",
    "cache",
    "scale_system",
    "scale_requests",
    "inflight",
    "scale_shards",
)


def _baseline_qps(baseline, system, args):
    """The committed queries/s for ``system`` — only when the baseline ran
    the identical serving workload."""
    if baseline is None:
        return None
    cfg = baseline.get("config", {})
    current = {key: getattr(args, key) for key in CONFIG_KEYS}
    mismatched = [key for key in CONFIG_KEYS if cfg.get(key) != current[key]]
    if mismatched:
        print(
            f"note: baseline config differs on {', '.join(mismatched)}; "
            f"gain_vs_baseline omitted for {system}",
            file=sys.stderr,
        )
        return None
    return baseline.get("results", {}).get(system, {}).get("queries_per_sec")


def run(args, baseline=None) -> dict:
    workload = bench_workload()
    events = list(synthetic_stream(args.vertices, args.edges, seed=args.seed))
    graph = stream_to_graph(events, name="bench")
    results = {}
    requests = None
    expected_embeddings = None
    for system in args.systems:
        state = PartitionState.for_graph(args.k, graph.num_vertices)
        partitioner = registry.create(
            system,
            state,
            graph=graph,
            workload=workload if system == "loom" else None,
            window_size=args.window if system == "loom" else None,
            seed=args.seed,
        )
        partitioner.ingest_all(events)

        best = None
        reference_hops = None
        for _ in range(max(1, args.repeats)):
            engine = ServingEngine(graph, state, workload, router=args.router, cache=args.cache)
            driver = TrafficDriver(
                engine, seed=args.seed, zipf_s=args.zipf, hop_cost_us=args.hop_cost_us
            )
            if requests is None:
                # Root candidates are graph (not partitioning) properties:
                # one sample serves every system identically.
                requests = driver.sample(args.requests)
            report = driver.run(0, requests=requests, system=system)
            if reference_hops is None:
                reference_hops = report.hops
            elif report.hops != reference_hops:
                raise AssertionError(
                    f"{system}: hops differ between repeats — serving must be deterministic"
                )
            if best is None or report.accounted_seconds < best.accounted_seconds:
                best = report
        # The fairness invariant, enforced: embeddings are a graph property,
        # so every system must answer the replayed sequence identically —
        # a partitioner that re-interns or under-assigns would silently
        # serve different (or empty) results otherwise.
        if expected_embeddings is None:
            expected_embeddings = best.embeddings
        elif best.embeddings != expected_embeddings:
            raise AssertionError(
                f"{system}: served {best.embeddings} embeddings vs "
                f"{expected_embeddings} from {args.systems[0]} — the replayed "
                "request sequence must be partitioning-independent"
            )
        row = best.as_dict()
        del row["system"]
        base_qps = _baseline_qps(baseline, system, args)
        note = ""
        if base_qps:
            row["baseline_queries_per_sec"] = base_qps
            row["gain_vs_baseline"] = round(row["queries_per_sec"] / base_qps, 3)
            note = f", {row['gain_vs_baseline']:.2f}x vs committed"
        results[system] = row
        print(
            f"{system:>7}: {row['queries_per_sec']:>10,.0f} q/s, "
            f"{row['hops_per_query']:.3f} hops/q, p99 {row['p99_ms']:.3f} ms, "
            f"hit rate {row['cache_hit_rate']:.2f}{note}"
        )

    hash_hops = results.get("hash", {}).get("hops_per_query")
    if hash_hops:
        for system, row in results.items():
            row["hops_vs_hash"] = round(row["hops_per_query"] / hash_hops, 3)
        print(
            "hops vs hash: "
            + ", ".join(f"{s} {row['hops_vs_hash']:.2f}x" for s, row in results.items())
        )
    return results


def _baseline_scaling_qps(baseline, label, args):
    """Committed queries/s for scaling row ``label`` — config-guarded."""
    if baseline is None:
        return None
    cfg = baseline.get("scaling_config", {})
    current = {key: getattr(args, key) for key in SCALING_CONFIG_KEYS}
    mismatched = [key for key in SCALING_CONFIG_KEYS if cfg.get(key) != current[key]]
    if mismatched:
        print(
            f"note: scaling baseline config differs on {', '.join(mismatched)}; "
            f"gain_vs_baseline omitted for scaling.{label}",
            file=sys.stderr,
        )
        return None
    return baseline.get("results", {}).get("scaling", {}).get(label, {}).get("queries_per_sec")


def run_scaling(args, baseline=None) -> dict:
    """The multi-core curve: identical traffic through 1/2/4… live shard
    servers, one row per shard count.

    Hops are real inter-process messages here (no modelled ``hop_cost_us``)
    and up to ``--inflight`` requests overlap — so queries/s measures what
    the process topology can actually sustain on the machine's cores.  The
    per-request *answers* must not depend on the shard count; the run
    asserts that before reporting any timing.
    """
    workload = bench_workload()
    events = list(synthetic_stream(args.vertices, args.edges, seed=args.seed))
    graph = stream_to_graph(events, name="bench")
    rows = {}
    requests = None
    golden = None
    for num_shards in args.scale_shards:
        state = PartitionState.for_graph(args.k, graph.num_vertices)
        partitioner = registry.create(
            args.scale_system,
            state,
            graph=graph,
            workload=workload if args.scale_system == "loom" else None,
            window_size=args.window if args.scale_system == "loom" else None,
            seed=args.seed,
        )
        partitioner.ingest_all(events)

        best = None
        for _ in range(max(1, args.repeats)):
            with LiveCluster(
                graph,
                state,
                workload,
                num_shards=num_shards,
                router=args.router,
                cache=args.cache,
            ) as cluster:
                driver = LiveTrafficDriver(cluster, seed=args.seed, zipf_s=args.zipf)
                if requests is None:
                    requests = driver.sample(args.scale_requests)
                report = driver.run(
                    0,
                    requests=requests,
                    system=args.scale_system,
                    inflight=args.inflight,
                    collect_results=True,
                )
            answers = [(r.query, r.root, r.embeddings, r.hops) for r in report.results]
            if golden is None:
                golden = answers
            elif answers != golden:
                raise AssertionError(
                    f"scaling s{num_shards}: answers differ from the first "
                    "shard count — the distributed DFS must be bit-identical"
                )
            if best is None or report.wall_seconds < best.wall_seconds:
                best = report
        label = f"s{num_shards}"
        row = best.as_dict()
        del row["system"]
        base_qps = _baseline_scaling_qps(baseline, label, args)
        note = ""
        if base_qps:
            row["baseline_queries_per_sec"] = base_qps
            row["gain_vs_baseline"] = round(row["queries_per_sec"] / base_qps, 3)
            note = f", {row['gain_vs_baseline']:.2f}x vs committed"
        rows[label] = row
        print(
            f"{label:>7}: {row['queries_per_sec']:>10,.0f} q/s, "
            f"{row['hops_per_query']:.3f} hops/q, {row['hop_messages']} hop msgs, "
            f"p99 {row['p99_ms']:.3f} ms, hit rate {row['cache_hit_rate']:.2f}{note}"
        )
    base = rows.get(f"s{args.scale_shards[0]}", {}).get("queries_per_sec")
    if base:
        for label, row in rows.items():
            row["speedup_vs_one"] = round(row["queries_per_sec"] / base, 3)
        print(
            "scaling: "
            + ", ".join(f"{label} {row['speedup_vs_one']:.2f}x" for label, row in rows.items())
        )
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vertices", type=int, default=DEFAULT_VERTICES)
    parser.add_argument("--edges", type=int, default=DEFAULT_EDGES)
    parser.add_argument("--k", type=int, default=DEFAULT_K)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--window", type=int, default=DEFAULT_WINDOW, help="Loom's sliding-window size"
    )
    parser.add_argument(
        "--requests", type=int, default=DEFAULT_REQUESTS, help="closed-loop requests per system"
    )
    parser.add_argument(
        "--zipf",
        type=float,
        default=DEFAULT_ZIPF,
        help="Zipf skew over each query's roots (0 = uniform)",
    )
    parser.add_argument(
        "--hop-cost-us",
        dest="hop_cost_us",
        type=float,
        default=DEFAULT_HOP_COST_US,
        help="modelled network cost per hop, in µs",
    )
    parser.add_argument("--router", default="candidate-count")
    parser.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="serve without the (query, root) result cache",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing per system (hops must not vary)"
    )
    parser.add_argument("--systems", nargs="+", default=list(DEFAULT_SYSTEMS))
    parser.add_argument(
        "--scale-shards",
        dest="scale_shards",
        type=int,
        nargs="+",
        default=[1, 2, 4],
        help="live shard-server counts for the scaling curve",
    )
    parser.add_argument(
        "--scale-system",
        dest="scale_system",
        default="loom",
        help="partitioner behind the scaling curve",
    )
    parser.add_argument(
        "--scale-requests",
        dest="scale_requests",
        type=int,
        default=1_000,
        help="closed-loop requests per shard count in scaling mode",
    )
    parser.add_argument(
        "--inflight",
        type=int,
        default=8,
        help="concurrent in-flight requests against the live cluster",
    )
    parser.add_argument(
        "--no-scaling",
        dest="scaling",
        action="store_false",
        help="skip the live multi-shard scaling curve",
    )
    parser.add_argument(
        "--out", default=str(Path(__file__).resolve().parent.parent / "BENCH_serving.json")
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="previous results file to compare against (default: --out before overwriting)",
    )
    return parser


@trial("serving")
def serving_trial(ctx):
    """Experiment-service adapter; see ``bench_throughput.throughput_trial``.

    Scaling mode (live shard-server clusters) obeys the same ``scaling``
    flag as the script — set ``scaling = false`` in the spec params to
    skip the multi-process curve.
    """
    args = namespace_from_parser(build_parser(), ctx.params, seed=ctx.seed)
    baseline = require_baseline(args.baseline)
    results = run(args, baseline)
    if args.scaling:
        print("-- live scaling curve --")
        results["scaling"] = run_scaling(args, baseline)
    return results


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    baseline = load_baseline(args.baseline if args.baseline is not None else args.out)
    results = run(args, baseline)
    payload = {
        "benchmark": "partition-local serving (closed-loop queries/s, latency, hops)",
        "config": {key: getattr(args, key) for key in CONFIG_KEYS} | {"repeats": args.repeats},
        "python": platform.python_version(),
        "results": results,
    }
    if args.scaling:
        print("-- live scaling curve --")
        results["scaling"] = run_scaling(args, baseline)
        payload["scaling_config"] = {key: getattr(args, key) for key in SCALING_CONFIG_KEYS}
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")
    print(f"written: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
