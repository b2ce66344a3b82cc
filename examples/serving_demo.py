"""Quickstart: serve a query workload through a partitioning.

Partitions the figure-1 running example with every registry system, then
serves traffic through each partitioning with the serving engine:

1. full enumeration — showing that serving-measured **hops** equal the
   offline executor's inter-partition traversals (the paper's ipt),
2. a closed-loop Zipf traffic run — queries/s, latency percentiles and
   the result cache earning its keep,
3. an online round — streaming more edges through the partitioner while
   serving, with the cache invalidating exactly the affected roots.

Run:  python examples/serving_demo.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.figure1 import figure1_graph, figure1_workload
from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import batched, stream_edges
from repro.partitioning import registry
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor
from repro.serving import ServingEngine, TrafficDriver


def main() -> None:
    graph = figure1_graph()
    workload = figure1_workload()
    events = list(stream_edges(graph, "bfs", seed=0))
    executor = WorkloadExecutor(graph, workload, embedding_limit=None)
    print(f"graph: {graph}")
    print(f"workload: {workload}\n")

    # 1. Hops are the live ipt: serve each partitioning in full and
    #    compare against the offline executor.
    print("system   weighted_ipt  served_hops  (must match)")
    states = {}
    for system in registry.BUILTIN_SYSTEMS:
        state = PartitionState.for_graph(2, graph.num_vertices)
        partitioner = registry.create(
            system, state, graph=graph, workload=workload, window_size=8, seed=0
        )
        partitioner.ingest_all(events)
        states[system] = state
        offline = executor.execute(state, system)
        engine = ServingEngine(graph, state, workload, router="candidate-count")
        served = engine.execute_workload(system)
        assert served.weighted_hops == offline.weighted_ipt
        print(f"{system:>6}   {offline.weighted_ipt:>12.2f}  {served.weighted_hops:>11.2f}")

    # 2. Closed-loop traffic: Zipf-skewed roots make the cache pay off.
    print("\nclosed-loop traffic (500 requests, zipf 1.1, 50µs/hop):")
    for system, state in states.items():
        engine = ServingEngine(graph, state, workload, cache=True)
        driver = TrafficDriver(engine, seed=0, zipf_s=1.1, hop_cost_us=50.0)
        report = driver.run(500, system=system)
        print(
            f"{system:>6}: {report.requests_per_sec:>9,.0f} q/s, "
            f"{report.hops_per_request:.2f} hops/q, "
            f"p99 {report.p99_ms:.4f} ms, "
            f"cache hit rate {report.cache_hit_rate:.2f}"
        )

    # 3. Online serving: ingest through the engine while querying; the
    #    cache invalidates only what new edges can affect.
    print("\nonline round (stream in 3 batches, serve between batches):")
    state = PartitionState.for_graph(2, graph.num_vertices)
    # A small window makes Loom place motif clusters mid-stream; edges
    # whose endpoints it still holds back park in the stores' pending
    # buffer and surface once the placement lands.
    partitioner = registry.create(
        "loom", state, graph=graph, workload=workload, window_size=3, seed=0
    )
    engine = ServingEngine(
        LabelledGraph("live"), state, workload, cache=True, partitioner=partitioner
    )

    def serve_everything():
        for name in engine.query_names():
            for root in engine.root_candidates(name):
                engine.serve_root(name, root)

    for i, chunk in enumerate(batched(events, 3)):
        visible = engine.ingest(chunk)
        serve_everything()
        print(
            f"  batch {i}: +{visible} visible edges, "
            f"pending {engine.index.num_pending}, cache {engine.cache.stats()}"
        )
    engine.finalize()
    serve_everything()
    print(f"  finalize: pending {engine.index.num_pending}, cache {engine.cache.stats()}")


if __name__ == "__main__":
    main()
