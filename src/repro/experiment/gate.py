"""The regression gate over the results DB.

``experiment gate`` reads the results DB: for every trial in a spec it
finds the latest result row and judges it —

* a **failed** trial fails the gate (the traceback is echoed),
* a trial with **no row at all** fails the gate (the spec was not run),
* every ``*gain_vs_baseline`` metric below the trial's gate threshold is
  a regression and fails the gate,
* a **strict** trial with no gain metrics at all fails the gate (a
  baseline config that silently became incomparable),
* a missing-but-expected baseline is reported by *name* — benches raise
  ``baseline file missing: <path>`` which lands in the failed row's
  traceback, never as an unhandled KeyError.

The spec (and with it each trial's threshold/strictness) is read from
the DB's stored canonical JSON by default, so ``gate --db results.db``
needs nothing else; ``--spec`` overrides it for gating freshly edited
thresholds without a rerun.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.experiment.db import ResultsDB, baseline_rate_for, gain_metrics, rate_for
from repro.experiment.spec import ExperimentSpec


def gate_experiment(
    db: ResultsDB,
    spec: ExperimentSpec,
    echo: Callable[[str], None] = print,
) -> int:
    """Judge every gated trial of ``spec``; returns a process exit code."""
    experiment = db.latest_experiment(spec.name)
    if experiment is None:
        echo(f"gate: no experiment named {spec.name!r} in this DB — run the spec first")
        return 1
    rows = {row["trial_id"]: row for row in db.latest_trials(experiment["id"])}

    failures: List[str] = []
    table: List[str] = [
        f"  {'trial / metric':<44} {'baseline':>12} {'current':>12} {'gain':>8}  status"
    ]
    gated_rows = 0
    for trial in spec.trials:
        if not trial.gate.enabled:
            continue
        row = rows.get(trial.trial_id)
        if row is None:
            failures.append(f"{trial.trial_id}: no result row (run the spec first)")
            continue
        if row["status"] != "ok":
            tail = (row["traceback"] or "").strip().splitlines()
            detail = tail[-1] if tail else "no traceback recorded"
            failures.append(f"{trial.trial_id}: trial FAILED — {detail}")
            continue
        metrics = db.metrics_for(row["id"])
        gains = gain_metrics(metrics)
        if not gains:
            if trial.gate.strict:
                failures.append(
                    f"{trial.trial_id}: no gain_vs_baseline metrics "
                    "(baseline missing or incomparable) — strict trial"
                )
            continue
        for name in gains:
            gated_rows += 1
            gain = gains[name]
            current = rate_for(metrics, name)
            baseline = baseline_rate_for(metrics, name)
            ok = gain >= trial.gate.threshold
            label = f"{trial.trial_id}:{name[: -len('.gain_vs_baseline')] or '<root>'}"
            if name == "gain_vs_baseline":
                label = trial.trial_id
            status = "ok" if ok else f"REGRESSION (< {trial.gate.threshold:g}x)"
            baseline_cell = f"{baseline:>12,.0f}" if baseline is not None else f"{'?':>12}"
            current_cell = f"{current:>12,.0f}" if current is not None else f"{'?':>12}"
            table.append(
                f"  {label:<44} {baseline_cell} {current_cell} {gain:>7.2f}x  {status}"
            )
            if not ok:
                failures.append(
                    f"{label}: gain {gain:.2f}x below threshold {trial.gate.threshold:g}x"
                )

    if gated_rows:
        echo(f"{spec.name} (experiment #{experiment['id']}):")
        for line in table:
            echo(line)
    else:
        echo(f"{spec.name}: no gain_vs_baseline rows — nothing to gate")
    if failures:
        echo("")
        echo(f"gate FAILED — {len(failures)} problem(s):")
        for failure in failures:
            echo(f"  - {failure}")
        return 1
    echo("gate passed")
    return 0


def load_spec_for_gate(
    db: ResultsDB,
    spec_path: Optional[str] = None,
    experiment_name: Optional[str] = None,
) -> ExperimentSpec:
    """The gate's spec: an explicit file, or the DB's stored canonical JSON."""
    if spec_path is not None:
        from repro.experiment.spec import load_spec

        spec, _ = load_spec(spec_path)
        return spec
    experiment = db.latest_experiment(experiment_name)
    if experiment is None:
        target = f"named {experiment_name!r}" if experiment_name else "at all"
        raise ValueError(f"no experiment {target} in this DB")
    return ExperimentSpec.from_json(experiment["spec_json"])
