"""The experiment service: spec expansion, runner, results DB, gate.

Covers the runner contract end to end: deterministic matrix expansion,
resume-skips-completed-trials, failed-trial isolation (a crashing trial
records a failed row and the run continues), the append-only SQLite
round-trip, and a reduced-scale run of real bench trials in parallel
workers.  The gate tests replay the committed ``BENCH_*.json`` payloads
through the DB and assert ``experiment gate`` passes them at the
thresholds CI uses — and fails on an injected slowdown.
"""

import json
from pathlib import Path

import pytest

from repro.experiment import (
    ExperimentSpec,
    ResultsDB,
    run_experiment,
)
from repro.experiment.db import flatten_metrics, gain_metrics
from repro.experiment.gate import gate_experiment, load_spec_for_gate
from repro.experiment.spec import SpecError, derive_seed, load_spec

REPO = Path(__file__).resolve().parent.parent


def synthetic_spec(trials, name="synthetic-test", seed=0):
    return ExperimentSpec.from_mapping(
        {"experiment": {"name": name, "seed": seed}, "trial": trials}
    )


class TestSpecExpansion:
    def test_matrix_times_repeats(self):
        spec = synthetic_spec(
            [
                {
                    "bench": "synthetic",
                    "repeats": 2,
                    "matrix": {"k": [2, 3], "window": [10]},
                }
            ]
        )
        assert [t.trial_id for t in spec.trials] == [
            "synthetic[k=2,window=10]#r1",
            "synthetic[k=2,window=10]#r2",
            "synthetic[k=3,window=10]#r1",
            "synthetic[k=3,window=10]#r2",
        ]
        # Repeats of one group share params and seed (same workload,
        # independent timings).
        first, second = spec.trials[0], spec.trials[1]
        assert first.group == second.group
        assert first.seed == second.seed
        assert first.params == {"k": 2, "window": 10}

    def test_expansion_is_deterministic(self):
        table = {
            "bench": "synthetic",
            "repeats": 3,
            "matrix": {"k": [2, 3, 4], "cache": [True, False]},
        }
        a = synthetic_spec([table])
        b = synthetic_spec([table])
        assert [(t.trial_id, t.seed) for t in a.trials] == [
            (t.trial_id, t.seed) for t in b.trials
        ]
        assert a.spec_hash == b.spec_hash

    def test_seeds_derive_from_group_not_rng(self):
        spec = synthetic_spec([{"bench": "synthetic", "matrix": {"k": [2, 3]}}])
        seeds = {t.trial_id: t.seed for t in spec.trials}
        assert seeds["synthetic[k=2]"] == derive_seed(0, "synthetic[k=2]")
        assert seeds["synthetic[k=2]"] != seeds["synthetic[k=3]"]

    def test_explicit_seed_wins(self):
        spec = synthetic_spec([{"bench": "synthetic", "params": {"seed": 7}}])
        assert spec.trials[0].seed == 7

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown key"):
            synthetic_spec([{"bench": "synthetic", "threads": 4}])

    def test_duplicate_trial_id_rejected(self):
        with pytest.raises(SpecError, match="duplicate trial id"):
            synthetic_spec([{"bench": "synthetic"}, {"bench": "synthetic"}])

    def test_json_round_trip(self):
        spec = synthetic_spec(
            [
                {
                    "bench": "synthetic",
                    "matrix": {"k": [2, 3]},
                    "gate": {"threshold": 0.6, "strict": True},
                }
            ]
        )
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash

    def test_committed_specs_parse(self):
        for name in ("ci-smoke.toml", "ci-baseline.toml", "nightly.toml"):
            spec, modules = load_spec(REPO / "experiments" / name)
            assert spec.trials, name
            assert all(Path(m).exists() for m in modules if m.endswith(".py"))


class TestResultsDB:
    def test_trial_metrics_round_trip(self, tmp_path):
        with ResultsDB(tmp_path / "r.db") as db:
            exp = db.ensure_experiment("t", "hash", "{}")
            row = db.record_trial(
                exp,
                trial_id="a",
                bench="synthetic",
                params={"k": 2},
                seed=5,
                status="ok",
                duration_seconds=0.5,
                metrics={"edges_per_sec": 10.5, "note": "text", "flag": 1.0},
            )
            metrics = db.metrics_for(row)
            assert metrics == {"edges_per_sec": 10.5, "note": "text", "flag": 1.0}
            trial = db.latest_trials(exp)[0]
            assert json.loads(trial["params_json"]) == {"k": 2}
            assert trial["seed"] == 5

    def test_append_only_latest_row_wins(self, tmp_path):
        with ResultsDB(tmp_path / "r.db") as db:
            exp = db.ensure_experiment("t", "hash", "{}")
            db.record_trial(
                exp,
                trial_id="a",
                bench="synthetic",
                params={},
                seed=0,
                status="failed",
                duration_seconds=0.0,
                metrics={},
                traceback_text="boom",
            )
            assert db.completed_trial_ids(exp) == set()
            db.record_trial(
                exp,
                trial_id="a",
                bench="synthetic",
                params={},
                seed=0,
                status="ok",
                duration_seconds=0.1,
                metrics={},
            )
            assert db.completed_trial_ids(exp) == {"a"}
            rows = db.latest_trials(exp)
            assert len(rows) == 1 and rows[0]["status"] == "ok"

    def test_experiment_reused_for_same_spec_hash(self, tmp_path):
        with ResultsDB(tmp_path / "r.db") as db:
            first = db.ensure_experiment("t", "hash", "{}")
            assert db.ensure_experiment("t", "hash", "{}") == first
            assert db.ensure_experiment("t", "hash2", "{}") != first

    def test_flatten_metrics_shapes(self):
        flat = flatten_metrics(
            {
                "loom": {"s1": {"rate": 10, "ok": True}},
                "note": "hi",
                "seq": [1, 2],
                "skip": None,
            }
        )
        assert flat == {
            "loom.s1.rate": 10.0,
            "loom.s1.ok": 1.0,
            "note": "hi",
            "seq": "[1, 2]",
        }

    def test_gain_metrics_filter(self):
        gains = gain_metrics({"a.gain_vs_baseline": 0.9, "a.rate": 10.0, "b": "x"})
        assert gains == {"a.gain_vs_baseline": 0.9}


class TestRunner:
    def test_synthetic_run_and_resume(self, tmp_path):
        spec = synthetic_spec(
            [{"bench": "synthetic", "repeats": 2, "matrix": {"k": [2, 3]}}]
        )
        db_path = str(tmp_path / "r.db")
        first = run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        assert (first.executed, first.skipped, first.failed) == (4, 0, 0)
        # Resume: every trial's latest row is ok, so nothing reruns.
        second = run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        assert (second.executed, second.skipped, second.failed) == (0, 4, 0)
        with ResultsDB(db_path) as db:
            rows = db.latest_trials(first.experiment_id)
            assert len(rows) == 4
            for row in rows:
                metrics = db.metrics_for(row["id"])
                assert metrics["seed"] == float(row["seed"])

    def test_failed_trial_isolation(self, tmp_path):
        spec = synthetic_spec(
            [
                {"bench": "synthetic", "id": "boom", "params": {"fail": True}},
                {"bench": "synthetic", "id": "fine"},
            ]
        )
        db_path = str(tmp_path / "r.db")
        summary = run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        # The crash is one failed row; the run continued to the next trial.
        assert (summary.executed, summary.failed) == (2, 1)
        with ResultsDB(db_path) as db:
            rows = {r["trial_id"]: r for r in db.latest_trials(summary.experiment_id)}
            assert rows["fine"]["status"] == "ok"
            assert rows["boom"]["status"] == "failed"
            assert "asked to fail" in rows["boom"]["traceback"]
            # A failed trial fails the gate with a nonzero exit.
            assert gate_experiment(db, spec, echo=lambda _: None) == 1
        # Rerunning retries the failure (it is not in the resume skip set).
        retry = run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        assert (retry.executed, retry.skipped, retry.failed) == (1, 1, 1)

    def test_parallel_workers(self, tmp_path):
        spec = synthetic_spec(
            [{"bench": "synthetic", "matrix": {"k": [1, 2, 3, 4]}}]
        )
        summary = run_experiment(
            spec, str(tmp_path / "r.db"), workers=2, echo=lambda _: None
        )
        assert (summary.executed, summary.failed) == (4, 0)

    def test_parallel_failed_trial_isolation(self, tmp_path):
        spec = synthetic_spec(
            [
                {"bench": "synthetic", "id": "boom", "params": {"fail": True}},
                {"bench": "synthetic", "id": "fine-1"},
                {"bench": "synthetic", "id": "fine-2"},
            ]
        )
        db_path = str(tmp_path / "r.db")
        summary = run_experiment(spec, db_path, workers=2, echo=lambda _: None)
        assert (summary.executed, summary.failed) == (3, 1)
        with ResultsDB(db_path) as db:
            rows = {r["trial_id"]: r for r in db.latest_trials(summary.experiment_id)}
            assert rows["boom"]["status"] == "failed"
            assert rows["fine-1"]["status"] == "ok"
            assert rows["fine-2"]["status"] == "ok"

    def test_spec_workers_pin_respected(self, tmp_path):
        spec = ExperimentSpec.from_mapping(
            {
                "experiment": {"name": "pin", "workers": 1},
                "trial": [{"bench": "synthetic"}],
            }
        )
        assert spec.workers == 1
        summary = run_experiment(spec, str(tmp_path / "r.db"), echo=lambda _: None)
        assert summary.ok


#: (committed payload, the gate threshold / strictness CI uses for it).
COMMITTED_GATES = [
    ("BENCH_throughput.json", {"threshold": 0.85, "strict": True}),
    ("BENCH_matcher.json", {"threshold": 0.85, "strict": True}),
    ("BENCH_scaling.json", {"threshold": 0.6}),
    ("BENCH_serving.json", {"threshold": 0.6, "strict": True}),
]


def replay_committed_payloads(db_path, scale_gain=None):
    """A DB whose trial rows are the committed BENCH_*.json results."""
    spec = synthetic_spec(
        [
            {"bench": "synthetic", "id": Path(name).stem, "gate": gate}
            for name, gate in COMMITTED_GATES
        ],
        name="committed-replay",
    )
    with ResultsDB(db_path) as db:
        exp = db.ensure_experiment(spec.name, spec.spec_hash, spec.to_json())
        for name, _ in COMMITTED_GATES:
            payload = json.loads((REPO / name).read_text())
            metrics = flatten_metrics(payload.get("results", {}))
            if scale_gain:
                target, factor = scale_gain
                for key in list(metrics):
                    if key.endswith("gain_vs_baseline") and target in (Path(name).stem, key):
                        metrics[key] = metrics[key] * factor
            db.record_trial(
                exp,
                trial_id=Path(name).stem,
                bench="synthetic",
                params={},
                seed=0,
                status="ok",
                duration_seconds=0.0,
                metrics=metrics,
            )
    return spec


class TestGateOnCommittedBaselines:
    def test_reproduces_check_regression_verdicts(self, tmp_path):
        """Acceptance case: the committed payloads pass the DB gate at
        each payload's CI threshold and strictness."""
        db_path = str(tmp_path / "r.db")
        spec = replay_committed_payloads(db_path)
        with ResultsDB(db_path) as db:
            assert gate_experiment(db, spec, echo=lambda _: None) == 0

    def test_fails_on_injected_slowdown(self, tmp_path):
        db_path = str(tmp_path / "r.db")
        spec = replay_committed_payloads(
            db_path, scale_gain=("BENCH_throughput", 0.1)
        )
        lines = []
        with ResultsDB(db_path) as db:
            assert gate_experiment(db, spec, echo=lines.append) == 1
        assert any("REGRESSION" in line for line in lines)

    def test_strict_trial_with_no_gains_fails(self, tmp_path):
        spec = synthetic_spec(
            [{"bench": "synthetic", "gate": {"strict": True}}], name="strict-test"
        )
        db_path = str(tmp_path / "r.db")
        run_experiment(spec, db_path, workers=1, echo=lambda _: None)
        with ResultsDB(db_path) as db:
            assert gate_experiment(db, spec, echo=lambda _: None) == 1

    def test_gate_spec_from_db_json(self, tmp_path):
        """`gate --db results.db` alone: the spec comes back out of the DB."""
        db_path = str(tmp_path / "r.db")
        spec = replay_committed_payloads(db_path)
        with ResultsDB(db_path) as db:
            recovered = load_spec_for_gate(db)
            assert recovered == spec
            assert gate_experiment(db, recovered, echo=lambda _: None) == 0


class TestEndToEndBenchTrials:
    def test_reduced_scale_spec_run(self, tmp_path):
        """Real bench trials (matcher + throughput) through parallel
        workers, persisted to SQLite, and gated."""
        spec = ExperimentSpec.from_mapping(
            {
                "experiment": {
                    "name": "e2e-smoke",
                    "seed": 0,
                    "trial_modules": [
                        str(REPO / "benchmarks" / "bench_matcher.py"),
                        str(REPO / "benchmarks" / "bench_throughput.py"),
                    ],
                },
                "trial": [
                    {
                        "bench": "matcher",
                        "params": {
                            "edges": 1500,
                            "vertices": 300,
                            "window": 300,
                            "repeats": 1,
                            "seed": 0,
                        },
                    },
                    {
                        "bench": "throughput",
                        "params": {
                            "edges": 3000,
                            "vertices": 600,
                            "loom_edges": 1000,
                            "loom_window": 200,
                            "repeats": 1,
                            "seed": 0,
                        },
                    },
                ],
            }
        )
        db_path = str(tmp_path / "r.db")
        summary = run_experiment(spec, db_path, workers=2, echo=lambda _: None)
        assert (summary.executed, summary.failed) == (2, 0)
        with ResultsDB(db_path) as db:
            rows = {r["trial_id"]: r for r in db.latest_trials(summary.experiment_id)}
            matcher = db.metrics_for(rows["matcher"]["id"])
            assert matcher["edges_per_sec"] > 0
            assert "captured_output" in matcher
            throughput = db.metrics_for(rows["throughput"]["id"])
            assert any(key.endswith(".current_edges_per_sec") for key in throughput)
            # No comparable baseline → nothing gated, non-strict gate passes.
            assert gate_experiment(db, spec, echo=lambda _: None) == 0
