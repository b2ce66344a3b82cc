"""The benchmark's own tests: ``python -m pytest perfbench -q`` from the root.

Every workload runs at the tiny scale, so the whole file takes seconds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from checks import assignment_problems
from tracing import Tracer

from repro.core.loom import LoomPartitioner
from repro.partitioning.state import PartitionState
from repro.query.executor import WorkloadExecutor
from repro.runtime.live import LiveCluster
from repro.serving.engine import ServingEngine

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = workloads.SCALES["tiny"]


def _run_all(trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_named_metric_with_its_unit(trace, section):
    proc = _run_all(trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    names = {w["name"] for w in SPEC["workloads"]}
    assert names == set(workloads.WORKLOADS)
    expected = {
        f"{w}/{m['name']}": m["unit"] for w in names for m in SPEC[section]
    }
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == expected
    for metric in SPEC[section]:
        assert f" {metric['name']} " in proc.stdout  # printed line with unit and n=
    assert "n=" in proc.stdout and '"machine"' in proc.stdout


def test_end_to_end_metrics_are_never_zero():
    for name, fn in workloads.WORKLOADS.items():
        outcome = fn(5, 1.0, TINY, False)
        assert not outcome.problems, (name, outcome.problems)
        zero = [m for m, (value, _u, _n) in outcome.metrics.items() if value <= 0]
        assert not zero, (name, zero)


def test_engine_weighted_hops_equal_uncapped_executor_count():
    graph, workload, events = workloads._stand_in(400)
    state = PartitionState.for_graph(workloads.K, graph.num_vertices)
    LoomPartitioner(state, workload).ingest_all(events)
    served = ServingEngine(graph, state, workload).execute_workload()
    executed = WorkloadExecutor(graph, workload, embedding_limit=None).execute(state)
    assert [q.hops for q in served.queries] == [q.cut_traversals for q in executed.queries]
    assert served.weighted_hops == executed.weighted_ipt > 0


def test_flipped_assignment_fails_the_check(monkeypatch):
    finalize = LoomPartitioner.finalize

    def finalize_then_flip(self):
        finalize(self)
        vector = self.state.assignment_vector
        vector[0] = (vector[0] + 1) % self.state.k

    monkeypatch.setattr(LoomPartitioner, "finalize", finalize_then_flip)
    outcome = workloads.ingest_musicbrainz(1, 1.0, TINY, False)
    assert any("partitions" in p for p in outcome.problems)


def test_over_capacity_partition_fails_the_check():
    state = PartitionState(2, 1)
    for v in ("a", "b"):
        state.assign_id(state.intern(v), 0)
    assert any("capacity" in p for p in assignment_problems(state, ["a", "b"]))
    assert any("unassigned" in p for p in assignment_problems(state, ["a", "b", "c"]))


@pytest.mark.parametrize("workload", ["serve_live", "ingest_serve_live"])
def test_altered_live_answer_fails_the_check(monkeypatch, workload):
    poll = LiveCluster.poll_completed
    altered = []

    def poll_and_alter(self, timeout=None):
        finished = poll(self, timeout)
        if finished and not altered:
            request_id, result, cached = finished[0]
            finished[0] = (request_id, dataclasses.replace(result, hops=result.hops + 1), cached)
            altered.append(request_id)
        return finished

    monkeypatch.setattr(LiveCluster, "poll_completed", poll_and_alter)
    outcome = getattr(workloads, workload)(1, 1.0, TINY, False)
    assert altered
    assert any("differ from the in-process engine" in p for p in outcome.problems)


def test_injected_failing_request_raises_error_rate(monkeypatch):
    serve_root = ServingEngine.serve_root
    calls = []

    def fail_third(self, query_name, root):
        calls.append(root)
        if len(calls) == 3:
            raise RuntimeError("injected")
        return serve_root(self, query_name, root)

    monkeypatch.setattr(ServingEngine, "serve_root", fail_third)
    outcome = workloads.serve_engine(1, 1.0, TINY, False)
    assert outcome.failed == 1 and outcome.attempted == int(TINY.engine_requests_per_s)
    assert not outcome.problems  # the other answers still check out

    args = run.build_parser().parse_args(
        ["--workload", "serve-engine", "--seconds", "1", "--scale", "tiny"]
    )
    calls.clear()
    lines = []

    class Sink:
        def write(self, text):
            lines.append(text)

    result = run.run_workload("serve-engine", args, out=Sink())
    assert result["failed"] == 1
    record = json.loads("".join(lines).split("record ", 1)[1].splitlines()[0])
    assert record["error_rate"] > 0


def test_live_failure_counts_requests_in_flight(monkeypatch):
    poll = LiveCluster.poll_completed
    calls = []

    def poll_then_die(self, timeout=None):
        calls.append(1)
        if len(calls) == 4:
            raise RuntimeError("injected shard failure")
        return poll(self, timeout)

    monkeypatch.setattr(LiveCluster, "poll_completed", poll_then_die)
    outcome = workloads.ingest_serve_live(1, 1.0, TINY, False)
    assert outcome.failed >= 1
    assert any("stopped" in p for p in outcome.problems)


def test_tracer_self_time_and_restore():
    import repro.core.loom as loom_module

    class Box:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    box = Box()
    tracer = Tracer()
    original = loom_module.ldg_choose_ids
    tracer.wrap_method(box, "outer", "outer")
    tracer.wrap_method(box, "inner", "inner")
    tracer.patch_global(loom_module, "ldg_choose_ids", "ldg")
    assert box.outer() == 2
    tracer.restore()
    assert "outer" not in vars(box) and loom_module.ldg_choose_ids is original
    summary = tracer.summary()
    assert summary["outer"]["calls"] == summary["inner"]["calls"] == 1
    outer = summary["outer"]
    assert outer["self_s"] == pytest.approx(outer["total_s"] - summary["inner"]["total_s"])
    assert summary["inner"]["by_parent"] == {"outer": [1, summary["inner"]["self_s"]]}


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-engine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
