"""The benchmark's four workloads over the MusicBrainz stand-in.

Every workload runs on one fixed instance of the stand-in (graph and BFS
stream both generated from :data:`DATASET_SEED`), with its own 5-query
workload and Loom at its defaults (k = 8, the paper's 10k-edge window).
Loom's weighted ipt moves by about 10% between instances and stream
orders, which would drown a regression bound; a fixed instance keeps it an
exact count that repeats run to run.  The ``--seed`` argument drives what
callers send: the Zipf-1.1 request streams of ``serve-engine``,
``serve-live`` and the read bursts in ``ingest-serve-live``.  ``ingest-musicbrainz`` has no
requests, so its input does not depend on the seed.

A workload returns an :class:`Outcome`: end-to-end metrics (untraced pass,
``repro.obs`` off) or per-layer metrics (an untraced and a traced pass
over the same input), failure counts, and the output checks' findings.

Throughput is the median over consecutive chunks of the timed work, and
latency percentiles are medians over chunks of at least 1,000 operations,
so a stall of the shared host during one chunk moves them little.
"""

from __future__ import annotations

import contextlib
import gc
import math
import multiprocessing
import os
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import repro.core.loom as loom_module
import repro.serving.engine as engine_module
from repro.core.loom import LoomPartitioner
from repro.datasets import musicbrainz
from repro.graph.labelled_graph import LabelledGraph
from repro.graph.stream import bfs_stream
from repro.partitioning.state import PartitionState
from repro.runtime.live import LiveCluster
from repro.serving.engine import ServingEngine
from repro.serving.traffic import LiveTrafficDriver, percentile, sample_requests

from checks import assignment_digest, assignment_problems
from tracing import Tracer

DATASET_SEED = 0
K = 8
ZIPF_S = 1.1
NUM_SHARDS = 2
#: Requests in flight from the one driver process: the box's core count.
INFLIGHT = 2
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Latencies are cut into consecutive chunks of at least this many
#: operations, so each chunk's p99 has ten samples beyond it, and at most
#: ``MAX_CHUNKS`` of them.
MIN_CHUNK_OPS = 1_000
MAX_CHUNKS = 10
#: A shard that stops answering fails the run well inside its time limit.
REQUEST_TIMEOUT_S = 30.0

clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Input sizes.  Request counts are per second of ``--seconds``: each
    run does a fixed amount of work sized to take about that long on a
    2-core box, so count metrics compare exactly across commits."""

    ingest_vertices: int
    ingest_batch: int
    ingest_passes_per_s: float
    serve_vertices: int
    engine_requests_per_s: int
    live_requests_per_s: int
    rounds: int
    burst_per_s: int


SCALES = {
    "full": Scale(
        ingest_vertices=40_000,
        ingest_batch=96,
        ingest_passes_per_s=0.5,
        serve_vertices=12_000,
        engine_requests_per_s=8_000,
        live_requests_per_s=1_200,
        rounds=120,
        burst_per_s=4,
    ),
    "tiny": Scale(
        ingest_vertices=600,
        ingest_batch=16,
        ingest_passes_per_s=1.0,
        serve_vertices=500,
        engine_requests_per_s=60,
        live_requests_per_s=30,
        rounds=12,
        burst_per_s=2,
    ),
}


@dataclass
class Outcome:
    #: name → (value, unit, sample count)
    metrics: Dict[str, Tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    record: Dict[str, object] = field(default_factory=dict)


@dataclass
class Chunk:
    """One slice of timed work: operations done and busy seconds."""

    ops: int
    busy_s: float


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------
def _stand_in(num_vertices: int):
    graph = musicbrainz.build_graph(num_vertices, seed=DATASET_SEED)
    events = list(bfs_stream(graph, seed=DATASET_SEED))
    return graph, musicbrainz.build_workload(), events


def _partitioned(num_vertices: int):
    """The serving workloads' input: Loom's partitioning of the stand-in."""
    graph, workload, events = _stand_in(num_vertices)
    state = PartitionState.for_graph(K, graph.num_vertices)
    LoomPartitioner(state, workload).ingest_all(events)
    return graph, workload, state


def _split(items, parts: int) -> list:
    size = max(1, -(-len(items) // parts))
    return [items[i : i + size] for i in range(0, len(items), size)]


def _chunk_count(timed_ops: int) -> int:
    return max(1, min(MAX_CHUNKS, timed_ops // MIN_CHUNK_OPS))


def _vm_hwm_mb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus each live child process."""
    return _vm_hwm_mb("self") + sum(_vm_hwm_mb(c.pid) for c in multiprocessing.active_children())


def latency_summary(latencies: List[float], wall: float):
    """(p50, p90, p99) in ms by nearest rank: medians of the per-chunk
    values over consecutive chunks of at least :data:`MIN_CHUNK_OPS`
    operations, or over all of them when there are fewer.  p99 is None
    then, having fewer than ten samples beyond it.  Failed operations are
    recorded as ``inf`` and rank beyond every completed one; a percentile
    that lands on one reads as ``wall``."""
    parts = _split(latencies, _chunk_count(len(latencies)))
    per_chunk = [[percentile(sorted(part), q) for q in (0.50, 0.90, 0.99)] for part in parts]
    p50, p90, p99 = (
        (wall if math.isinf(v) else v) * 1e3
        for v in (statistics.median(row[i] for row in per_chunk) for i in range(3))
    )
    return p50, p90, p99 if len(parts[0]) >= MIN_CHUNK_OPS else None


def _quality(graph, state, workload) -> Tuple[float, int, int]:
    """Uncapped full-workload pass: (weighted ipt, hops, requests)."""
    report = ServingEngine(graph, state, workload).execute_workload()
    roots = sum(q.roots_scanned for q in report.queries)
    return report.weighted_hops, report.total_hops, roots


def _median_setup(build: Callable[[], object], close: Callable[[object], None]):
    """Build ``SETUPS`` times; returns the last build and the durations."""
    durations = []
    built = None
    for _ in range(SETUPS):
        if built is not None:
            close(built)
        start = clock()
        built = build()
        durations.append(clock() - start)
    return built, durations


def _e2e(
    outcome: Outcome,
    setups: List[float],
    chunks: List[Chunk],
    latencies: List[float],
    hops: int,
    hop_requests: int,
    weighted_ipt: float,
    rss: float,
) -> None:
    timed = [c for c in chunks if c.busy_s > 0] or [Chunk(0, 1.0)]
    wall = sum(c.busy_s for c in chunks)
    p50, p90, p99 = latency_summary(latencies or [math.inf], wall)
    outcome.metrics.update(
        {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "throughput_per_s": (
                statistics.median(c.ops / c.busy_s for c in timed),
                "1/s",
                sum(c.ops for c in chunks),
            ),
            "latency_p50_ms": (p50, "ms", len(latencies)),
            "latency_p90_ms": (p90, "ms", len(latencies)),
            "hops_per_request": (hops / max(hop_requests, 1), "hops/request", hop_requests),
            "weighted_ipt": (weighted_ipt, "hops", 1),
            "peak_rss_mb": (rss, "MB", 1),
        }
    )
    outcome.record.update(
        latency_p99_ms=p99,
        latency_chunks=_chunk_count(len(latencies)),
        throughput_chunks=[{"ops": c.ops, "busy_s": c.busy_s} for c in chunks],
    )


def _traced_pass(run_pass: Callable[[Optional[Tracer]], dict], outcome: Outcome) -> dict:
    """One untraced and one traced pass over the same input; the traced
    pass must produce the same outputs (digest) as the untraced one."""
    plain = run_pass(None)
    tracer = Tracer()
    traced = run_pass(tracer)
    if traced["digest"] != plain["digest"]:
        outcome.problems.append("traced pass output digest differs from the untraced pass")
    traced["summary"] = tracer.summary()
    traced["tracer"] = tracer
    traced["overhead"] = traced["wall"] / plain["wall"] - 1.0 if plain["wall"] > 0 else 0.0
    outcome.attempted += plain["attempted"] + traced["attempted"]
    outcome.failed += plain["failed"] + traced["failed"]
    return traced


def _trace_loom(tracer: Tracer, partitioner: LoomPartitioner) -> None:
    tracer.wrap_method(partitioner, "ingest_batch", "core.loom.ingest_batch")
    tracer.wrap_method(partitioner, "finalize", "core.loom.finalize")
    tracer.wrap_method(partitioner.matcher, "next_eviction", "core.matching.next_eviction")
    tracer.wrap_method(partitioner.matcher, "remove_cluster", "core.matching.remove_cluster")
    tracer.wrap_method(partitioner.allocator, "allocate", "core.allocation.allocate")
    tracer.patch_global(loom_module, "ldg_choose_ids", "partitioning.ldg.choose")


def loom_counts(partitioner: LoomPartitioner) -> Dict[str, float]:
    m = partitioner.matcher.stats
    s = partitioner.stats
    sizes = partitioner.state.sizes()
    mean = sum(sizes) / len(sizes)
    evictions = s["evictions"]
    return {
        "core.matching.windowed_ratio": m.edges_windowed / max(m.edges_offered, 1),
        "core.matching.matches_created": m.matches_created,
        "core.matching.capped_registrations": m.capped_registrations,
        "core.matching.extension_probes": m.extension_probes,
        "core.allocation.evictions": evictions,
        "core.allocation.fallback_ratio": s["fallback_allocations"] / max(evictions, 1),
        "core.allocation.edges_per_cluster": s["cluster_edges_assigned"] / max(evictions, 1),
        "partitioning.state.imbalance": max(sizes) / mean if mean else 0.0,
    }


class _Recorder:
    """Sits between :class:`LiveTrafficDriver` and the cluster: stamps each
    request's submit and completion times, and collects ``(query, root)``
    answers in :attr:`results` for the caller to check and clear."""

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self.started: Dict[int, Tuple[Tuple[str, int], float]] = {}
        self.latencies: List[float] = []
        self.results: List[Tuple[Tuple[str, int], object]] = []
        self.hops = self.embeddings = self.hits = self.misses = 0
        self.error = ""

    def __getattr__(self, name):
        return getattr(self._cluster, name)

    def submit(self, query_name: str, root: int) -> int:
        start = clock()
        request_id = self._cluster.submit(query_name, root)
        self.started[request_id] = ((query_name, root), start)
        return request_id

    def poll_completed(self, timeout=None):
        finished = self._cluster.poll_completed(timeout)
        end = clock()
        for request_id, result, cached in finished:
            key, start = self.started.pop(request_id)
            self.latencies.append(end - start)
            self.results.append((key, result))
            self.hops += result.hops
            self.embeddings += result.num_embeddings
            if cached is True:
                self.hits += 1
            elif cached is False:
                self.misses += 1
        return finished

    def drive(self, requests) -> bool:
        """Replay ``requests`` closed-loop at :data:`INFLIGHT`.  False when a
        request raised (timeout, dead shard): every request still in flight
        then counts as failed."""
        try:
            LiveTrafficDriver(self).run(0, requests=requests, inflight=INFLIGHT)
        except Exception as exc:  # the run's boundary: record, then stop
            self.error = f"{type(exc).__name__}: {exc}"
            self.latencies.extend([math.inf] * len(self.started))
            return False
        return True

    @property
    def completed(self) -> int:
        return sum(1 for lat in self.latencies if not math.isinf(lat))


def _cluster_counts(cluster: LiveCluster, recorder: _Recorder, rounds: int) -> Dict[str, float]:
    shards = cluster.shard_stats()
    served = [s.requests_served for s in shards]
    completed = max(recorder.completed, 1)
    cached = recorder.hits + recorder.misses
    invalidations = sum((s.cache_stats or {}).get("invalidations", 0) for s in shards)
    return {
        "runtime.live.hop_messages_per_request": cluster.hop_messages_sent / completed,
        "runtime.server.steps_per_request": sum(s.steps_executed for s in shards) / completed,
        "runtime.server.requests_skew": max(served) / (sum(served) / len(served))
        if sum(served)
        else 0.0,
        "serving.cache.hit_rate": recorder.hits / cached if cached else 0.0,
        "serving.cache.invalidations_per_round": invalidations / max(rounds, 1),
    }


# ----------------------------------------------------------------------
# ingest-musicbrainz
# ----------------------------------------------------------------------
def ingest_musicbrainz(seed: int, seconds: float, scale: Scale, trace: bool) -> Outcome:
    """Loom alone over the 40k-vertex stream, fed in fixed-size batches and
    finalized; each batch and the finalize are one timed operation."""
    outcome = Outcome()

    def run_pass(tracer: Optional[Tracer]) -> dict:
        start = clock()
        graph, workload, events = _stand_in(scale.ingest_vertices)
        state = PartitionState.for_graph(K, graph.num_vertices)
        loom = LoomPartitioner(state, workload)
        setup = clock() - start
        if tracer is not None:
            _trace_loom(tracer, loom)
        step = scale.ingest_batch
        operations = [
            partial(loom.ingest_batch, events[i : i + step]) for i in range(0, len(events), step)
        ] + [loom.finalize]
        latencies: List[float] = []
        gc.collect()
        begin = clock()
        try:
            for operation in operations:
                t0 = clock()
                try:
                    operation()
                except Exception as exc:  # a failed batch ends the pass
                    outcome.problems.append(f"ingest raised {type(exc).__name__}: {exc}")
                    latencies.append(math.inf)
                    break
                latencies.append(clock() - t0)
        finally:
            wall = clock() - begin
            if tracer is not None:
                tracer.restore()
        outcome.problems.extend(assignment_problems(state, graph.vertices()))
        failed = sum(1 for lat in latencies if math.isinf(lat))
        return {
            "setup": setup,
            "wall": wall,
            "chunk": Chunk(len(events) if not failed else 0, wall),
            "latencies": latencies,
            "attempted": len(latencies),
            "failed": failed,
            "digest": assignment_digest(state),
            "graph": graph,
            "workload": workload,
            "state": state,
            "loom": loom,
        }

    if trace:
        traced = _traced_pass(run_pass, outcome)
        outcome.record["layer_counts"] = loom_counts(traced["loom"])
        outcome.record["trace"] = traced
        return outcome

    passes = max(SETUPS, round(seconds * scale.ingest_passes_per_s))
    results = []
    for _ in range(passes):
        if results:  # only the last pass's graph and state are scored
            for heavy in ("graph", "workload", "state", "loom"):
                del results[-1][heavy]
        results.append(run_pass(None))
    if len({r["digest"] for r in results}) != 1:
        outcome.problems.append("repeated ingest passes produced different assignments")
    last = results[-1]
    weighted_ipt, hops, roots = _quality(last["graph"], last["state"], last["workload"])
    outcome.attempted = sum(r["attempted"] for r in results)
    outcome.failed = sum(r["failed"] for r in results)
    _e2e(
        outcome,
        [r["setup"] for r in results],
        [r["chunk"] for r in results],
        [lat for r in results for lat in r["latencies"]],
        hops=hops,
        hop_requests=roots,
        weighted_ipt=weighted_ipt,
        rss=peak_rss_mb(),
    )
    outcome.record.update(digest=last["digest"])
    return outcome


# ----------------------------------------------------------------------
# serve-engine
# ----------------------------------------------------------------------
def _serve_engine_loop(engine: ServingEngine, requests, tracer: Optional[Tracer]) -> dict:
    """One caller, closed loop, every request timed."""
    chunks: List[Chunk] = []
    latencies: List[float] = []
    failures: List[int] = []
    hops = embeddings = border = 0
    serve_root = engine.serve_root
    gc.collect()
    for part in _split(list(enumerate(requests)), _chunk_count(len(requests))):
        begin = clock()
        for index, (name, root) in part:
            if tracer is not None:
                tracer.request = index
            t0 = clock()
            try:
                result = serve_root(name, root)
            except Exception:  # a raised request is a failed request
                latencies.append(math.inf)
                failures.append(index)
                continue
            latencies.append(clock() - t0)
            hops += result.hops
            embeddings += result.num_embeddings
            border += result.border_expansions
        chunks.append(Chunk(len(part), clock() - begin))
    return {
        "chunks": chunks,
        "latencies": latencies,
        "wall": sum(c.busy_s for c in chunks),
        "failures": failures,
        "hops": hops,
        "embeddings": embeddings,
        "border": border,
        "attempted": len(requests),
        "failed": len(failures),
        "digest": (hops, embeddings, border),
    }


def _recount_problems(engine: ServingEngine, requests, loop: dict) -> List[str]:
    """The loop's hop and embedding totals must equal one fresh answer per
    distinct request times its count (answers are deterministic)."""
    failed = set(loop["failures"])
    counts = Counter(req for i, req in enumerate(requests) if i not in failed)
    hops = embeddings = 0
    for (name, root), n in counts.items():
        result = engine.serve_root(name, root)
        hops += n * result.hops
        embeddings += n * result.num_embeddings
    if (hops, embeddings) != (loop["hops"], loop["embeddings"]):
        return [
            f"served totals (hops {loop['hops']}, embeddings {loop['embeddings']}) != "
            f"recount ({hops}, {embeddings})"
        ]
    return []


def serve_engine(seed: int, seconds: float, scale: Scale, trace: bool) -> Outcome:
    """In-process serving of the request stream, cache off."""
    outcome = Outcome()
    num_requests = max(1, int(scale.engine_requests_per_s * seconds))

    def build():
        graph, workload, state = _partitioned(scale.serve_vertices)
        return graph, workload, state, ServingEngine(graph, state, workload, cache=None)

    (graph, workload, state, engine), setups = _median_setup(build, lambda _built: None)
    outcome.problems.extend(assignment_problems(state, graph.vertices()))
    requests = sample_requests(engine, num_requests, seed, ZIPF_S)

    if trace:

        def run_pass(tracer: Optional[Tracer]) -> dict:
            if tracer is not None:
                tracer.wrap_method(engine, "serve_root", "serving.engine.serve_root")
                for name in ("enumerate_root", "splice_segments"):
                    tracer.patch_global(engine_module, name, f"serving.execution.{name}")
            try:
                return _serve_engine_loop(engine, requests, tracer)
            finally:
                if tracer is not None:
                    tracer.restore()

        traced = _traced_pass(run_pass, outcome)
        completed = max(len(requests) - traced["failed"], 1)
        outcome.record["layer_counts"] = {
            "serving.execution.embeddings_per_request": traced["embeddings"] / completed,
            "serving.execution.border_expansions_per_request": traced["border"] / completed,
        }
        outcome.record["trace"] = traced
        return outcome

    loop = _serve_engine_loop(engine, requests, None)
    outcome.problems.extend(_recount_problems(engine, requests, loop))
    weighted_ipt, _hops, _roots = _quality(graph, state, workload)
    outcome.attempted, outcome.failed = loop["attempted"], loop["failed"]
    _e2e(
        outcome,
        setups,
        loop["chunks"],
        loop["latencies"],
        hops=loop["hops"],
        hop_requests=loop["attempted"] - loop["failed"],
        weighted_ipt=weighted_ipt,
        rss=peak_rss_mb(),
    )
    return outcome


# ----------------------------------------------------------------------
# serve-live and ingest-serve-live
# ----------------------------------------------------------------------
def _boot_cluster(graph, state, workload, cache: bool, partitioner=None) -> LiveCluster:
    return LiveCluster(
        graph,
        state,
        workload,
        num_shards=NUM_SHARDS,
        cache=cache,
        partitioner=partitioner,
        request_timeout=REQUEST_TIMEOUT_S,
    )


@contextlib.contextmanager
def _one_cpu():
    """Run the driver and its shard processes (which inherit the affinity)
    on one CPU.  On a shared 2-vCPU host the second vCPU comes and goes
    with the host's load: spread over both, the live workloads moved 25-35%
    (ingest rounds) and 2-3x (serving) between runs of the same code; on
    one they hold within about 10%."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


def _trace_cluster(tracer: Tracer, cluster: LiveCluster) -> None:
    tracer.wrap_method(cluster, "submit", "runtime.live.submit", request_from_result=True)
    tracer.wrap_method(cluster, "poll_completed", "runtime.live.poll_completed")
    tracer.wrap_method(cluster, "ingest", "runtime.live.ingest")
    tracer.wrap_method(cluster, "finalize", "runtime.live.finalize")


def serve_live(seed: int, seconds: float, scale: Scale, trace: bool) -> Outcome:
    """The request stream through a fresh 2-shard cluster, cache off,
    replayed closed-loop by :class:`LiveTrafficDriver` with 2 in flight.

    With the cache on, the latency tail is the first miss on each heavy
    root, so which heavy roots a seed touched moved p99 by 25-30% between
    seeds; with it off every request crosses the transport, which is what
    this workload is for.  ``ingest-serve-live`` keeps the cache.
    """
    with _one_cpu():
        return _serve_live(seed, seconds, scale, trace)


def _serve_live(seed: int, seconds: float, scale: Scale, trace: bool) -> Outcome:
    outcome = Outcome()
    num_requests = max(1, int(scale.live_requests_per_s * seconds))
    graph, workload, state = _partitioned(scale.serve_vertices)
    outcome.problems.extend(assignment_problems(state, graph.vertices()))
    reference = ServingEngine(graph, state, workload)
    requests = sample_requests(reference, num_requests, seed, ZIPF_S)

    def run_pass(tracer: Optional[Tracer]) -> dict:
        def build():
            g, w, s = _partitioned(scale.serve_vertices)
            return _boot_cluster(g, s, w, cache=False)

        cluster, setups = _median_setup(build, LiveCluster.close)
        chunks: List[Chunk] = []
        counts: Dict[str, float] = {}
        changed_answers = 0
        try:
            if tracer is not None:
                _trace_cluster(tracer, cluster)
            recorder = _Recorder(cluster)
            gc.collect()
            for part in _split(requests, _chunk_count(len(requests))):
                begin = clock()
                if not recorder.drive(part):
                    outcome.problems.append(f"serve-live stopped: {recorder.error}")
                    break
                chunks.append(Chunk(len(part), clock() - begin))
                # Untimed: every answer must equal the in-process engine's.
                changed_answers += sum(
                    reference.serve_root(*key) != answer for key, answer in recorder.results
                )
                recorder.results.clear()
            if tracer is not None:
                tracer.restore()
            if not recorder.error:
                counts = _cluster_counts(cluster, recorder, rounds=0)
            rss = peak_rss_mb()
        finally:
            cluster.close()
        if changed_answers:
            outcome.problems.append(
                f"{changed_answers} live answers differ from the in-process engine's"
            )
        return {
            "setups": setups,
            "wall": sum(c.busy_s for c in chunks),
            "chunks": chunks,
            "recorder": recorder,
            "counts": counts,
            "rss": rss,
            "attempted": len(recorder.latencies),
            "failed": len(recorder.latencies) - recorder.completed,
            "digest": (recorder.hops, recorder.embeddings),
        }

    if trace:
        traced = _traced_pass(run_pass, outcome)
        outcome.record["layer_counts"] = traced["counts"]
        outcome.record["trace"] = traced
        return outcome

    result = run_pass(None)
    recorder = result["recorder"]
    weighted_ipt, _hops, _roots = _quality(graph, state, workload)
    outcome.attempted, outcome.failed = result["attempted"], result["failed"]
    _e2e(
        outcome,
        result["setups"],
        result["chunks"],
        recorder.latencies,
        hops=recorder.hops,
        hop_requests=recorder.completed,
        weighted_ipt=weighted_ipt,
        rss=result["rss"],
    )
    return outcome


def ingest_serve_live(seed: int, seconds: float, scale: Scale, trace: bool) -> Outcome:
    """A 2-shard cluster with Loom attached and the cache on grows from an
    empty graph in ingest rounds, each followed by a closed-loop read burst
    (2 in flight); ``finalize`` ends it.

    The timed operation is the ingest round, from the ``ingest`` call until
    every shard acknowledged the batch (so until it is visible): throughput
    is edges per second of rounds and the latencies are the rounds'.  The
    reads' p50 moved by 15-35% between runs and their tail by more, so their
    latencies go to the run record and their layers to the traced run.  In
    untraced runs an in-process engine with its own Loom ingests the same
    batches between rounds (untimed), and every read must equal its answer
    for the same (query, root) and round.
    As for the ingest workload, ``hops_per_request`` scores the final
    partitioning, through the live full-workload pass after ``finalize``.
    """
    outcome = Outcome()
    burst = max(1, int(scale.burst_per_s * seconds))
    with _one_cpu():
        return _ingest_serve_live(outcome, seed, scale, trace, burst)


def _ingest_serve_live(outcome: Outcome, seed: int, scale: Scale, trace: bool, burst: int):
    def run_pass(tracer: Optional[Tracer], full_check: bool) -> dict:
        def build():
            graph, workload, events = _stand_in(scale.serve_vertices)
            state = PartitionState.for_graph(K, graph.num_vertices)
            loom = LoomPartitioner(state, workload)
            cluster = _boot_cluster(LabelledGraph("musicbrainz"), state, workload, True, loom)
            return cluster, graph, events

        (cluster, graph, events), setups = _median_setup(build, lambda built: built[0].close())
        loom = cluster.partitioner
        mirror = None
        if full_check:
            state = PartitionState.for_graph(K, graph.num_vertices)
            mirror = ServingEngine(
                LabelledGraph("musicbrainz"),
                state,
                cluster.workload,
                partitioner=LoomPartitioner(state, cluster.workload),
            )
        batches = _split(events, scale.rounds)
        chunks: List[Chunk] = []
        round_latencies: List[float] = []
        changed_answers = 0
        ok = True
        try:
            if tracer is not None:
                _trace_loom(tracer, loom)
                _trace_cluster(tracer, cluster)
            recorder = _Recorder(cluster)
            gc.collect()
            begin = clock()
            for group in _split(list(enumerate(batches)), MAX_CHUNKS):
                edges = 0
                ingest_s = 0.0
                for r, batch in group:
                    t0 = clock()
                    try:
                        cluster.ingest(batch)
                    except Exception as exc:  # a failed round ends the run
                        outcome.problems.append(f"ingest round raised {type(exc).__name__}: {exc}")
                        round_latencies.append(math.inf)
                        ok = False
                        break
                    round_latencies.append(clock() - t0)
                    ingest_s += round_latencies[-1]
                    edges += len(batch)
                    try:
                        requests = sample_requests(cluster, burst, f"{seed}/{r}", ZIPF_S)
                    except ValueError:  # no root candidate is visible yet
                        requests = []
                    if requests and not recorder.drive(requests):
                        outcome.problems.append(f"read burst stopped: {recorder.error}")
                        ok = False
                        break
                    if mirror is not None:
                        mirror.ingest(batch)
                        changed_answers += sum(
                            mirror.serve_root(*key) != answer for key, answer in recorder.results
                        )
                    recorder.results.clear()
                chunks.append(Chunk(edges, ingest_s))
                if not ok:
                    break
            if ok:
                try:
                    cluster.finalize()
                except Exception as exc:
                    outcome.problems.append(f"finalize raised {type(exc).__name__}: {exc}")
                    round_latencies.append(math.inf)
                    ok = False
            wall = clock() - begin
            if tracer is not None:
                tracer.restore()
            if changed_answers:
                outcome.problems.append(
                    f"{changed_answers} live reads differ from the in-process engine's answers"
                )
            counts: Dict[str, float] = {}
            weighted_ipt = 0.0
            full_pass = (0, 0)
            if ok:
                counts = _cluster_counts(cluster, recorder, rounds=len(round_latencies))
                counts.update(loom_counts(loom))
                outcome.problems.extend(assignment_problems(cluster.state, graph.vertices()))
                weighted_ipt = (
                    ServingEngine(cluster.graph, cluster.state, cluster.workload)
                    .execute_workload()
                    .weighted_hops
                )
                if mirror is not None:
                    mirror.finalize()
                    if assignment_digest(mirror.state) != assignment_digest(cluster.state):
                        outcome.problems.append("in-process Loom placed the stream differently")
                    live = cluster.execute_workload()
                    full_pass = (live.total_hops, sum(q.roots_scanned for q in live.queries))
                    if live.weighted_hops != weighted_ipt:
                        outcome.problems.append(
                            f"live full-workload weighted hops {live.weighted_hops} "
                            f"!= engine's {weighted_ipt}"
                        )
            rss = peak_rss_mb()
        finally:
            cluster.close()
        failed_rounds = sum(1 for lat in round_latencies if math.isinf(lat))
        return {
            "setups": setups,
            "wall": wall,
            "chunks": chunks,
            "round_latencies": round_latencies,
            "recorder": recorder,
            "counts": counts,
            "weighted_ipt": weighted_ipt,
            "full_pass": full_pass,
            "rss": rss,
            "attempted": len(round_latencies) + (1 if ok else 0) + len(recorder.latencies),
            "failed": failed_rounds + len(recorder.latencies) - recorder.completed,
            "digest": (assignment_digest(cluster.state), recorder.hops, recorder.embeddings),
        }

    if trace:
        # No in-process mirror here: its Loom would share the patched LDG
        # name and land in the spans, and both passes must do equal work.
        traced = _traced_pass(lambda tracer: run_pass(tracer, False), outcome)
        outcome.record["layer_counts"] = traced["counts"]
        outcome.record["trace"] = traced
        return outcome

    result = run_pass(None, full_check=True)
    outcome.attempted, outcome.failed = result["attempted"], result["failed"]
    hops, roots = result["full_pass"]
    _e2e(
        outcome,
        result["setups"],
        result["chunks"],
        result["round_latencies"],
        hops=hops,
        hop_requests=roots,
        weighted_ipt=result["weighted_ipt"],
        rss=result["rss"],
    )
    recorder = result["recorder"]
    read_p50, read_p90, read_p99 = latency_summary(recorder.latencies or [math.inf], 0.0)
    outcome.record.update(
        rounds=len(result["round_latencies"]),
        burst=burst,
        reads=len(recorder.latencies),
        read_p50_ms=read_p50,
        read_p90_ms=read_p90,
        read_p99_ms=read_p99,
    )
    return outcome


WORKLOADS = {
    "ingest-musicbrainz": ingest_musicbrainz,
    "serve-engine": serve_engine,
    "serve-live": serve_live,
    "ingest-serve-live": ingest_serve_live,
}
