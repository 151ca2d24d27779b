"""Tests of the benchmark itself: span arithmetic, correctness gates, and a
smoke run of both workloads on tiny inputs that checks every metric is
emitted with its unit.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import run
from tracing import Span, self_times, union_length

ROOT = Path(__file__).resolve().parent.parent

# Every end-to-end metric each workload prints, with its unit.
END_TO_END = {
    "protocol": {
        "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
        "failed_share": "ratio", "exact_s": "s", "relabel_s": "s", "salun_s": "s",
        "forget_gap_pts.relabel": "pts", "forget_gap_pts.salun": "pts",
    },
    "audit": {
        "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
        "failed_share": "ratio", "eval_request_s.p50": "s", "eval_request_s.p90": "s",
        "eval_samples_per_s": "samples/s",
    },
}


def _span(id, start, end, parent=None, name="x"):
    return Span(id=id, name=name, start=start, end=end, parent=parent, run_id="r")


class TestSpanArithmetic:
    def test_union_merges_overlaps_and_gaps(self):
        assert union_length([]) == 0.0
        assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == 4.0

    def test_self_time_subtracts_union_of_children(self):
        spans = [
            _span(0, 0.0, 10.0),
            _span(1, 1.0, 4.0, parent=0),
            _span(2, 3.0, 6.0, parent=0),  # overlaps its sibling
            _span(3, 9.0, 12.0, parent=0),  # sticks out of the parent
            _span(4, 2.0, 3.0, parent=1),  # grandchild: only its parent's business
        ]
        selfs = self_times(spans)
        # The children cover [1, 6] and [9, 10] of the parent's [0, 10].
        assert selfs[0] == pytest.approx(4.0)
        assert selfs[1] == pytest.approx(2.0)
        assert selfs[2] == pytest.approx(3.0)
        assert selfs[3] == pytest.approx(3.0)
        assert selfs[4] == pytest.approx(1.0)


class TestReportGates:
    def _report(self):
        import workloads

        cfg = workloads.smoke_config(0)

        def cell(algorithm, sweep):
            evals = {
                name: {"macro_auroc": 0.7, "per_class": {"0": 0.6}, "per_group": {"0": 0.8}}
                for name in ("retain", "forget", "test")
            }
            return {"algorithm": algorithm, "repeat": 0, "fraction": 0.15,
                    "evals": evals, "sweep": sweep}

        row = {"forget_macro": 0.5, "test_macro": 0.6}
        cells = [cell("exact", None), cell("relabel", [row]), cell("salun", [row])]
        return workloads, cfg, {"cells": cells, "incomplete": [], "difficulty": []}

    def test_clean_report_passes(self):
        workloads, cfg, report = self._report()
        outcome = workloads.Outcome()
        workloads.check_report(cfg, report, outcome)
        assert outcome.failed == 0

    def test_each_gate_counts_its_failures(self):
        workloads, cfg, report = self._report()
        report["cells"][1]["sweep"] = []
        report["cells"][2]["evals"]["test"] = {
            "macro_auroc": float("nan"), "per_class": {"0": 1.5}, "per_group": {}
        }
        report["incomplete"] = [{"algorithm": "salun"}]
        outcome = workloads.Outcome()
        workloads.check_report(cfg, report, outcome)
        # One incomplete cell, one cell too many, one missing grid point, two bad AUROCs.
        assert outcome.failed == 5


def _run(capsys, workload, trace, seed=3):
    # main() pins the BLAS thread variables; keep them out of this process.
    with mock.patch.dict(os.environ):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                         "--trace", str(trace), "--smoke"])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


def _record(workload, trace, seed=3):
    path = run.BUILD_DIR / f"{workload}-seed{seed}-trace{trace}-smoke.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("workload", ["protocol", "audit"])
def test_smoke_untraced_emits_every_end_to_end_metric(capsys, workload):
    code, result = _run(capsys, workload, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    assert all(v["value"] > 0 for v in result["metrics"].values())
    record = _record(workload, 0)
    assert {k: v["unit"] for k, v in record["metrics"].items()} == END_TO_END[workload]
    assert set(record["environment"]) == {
        "python", "numpy", "blas", "blas_threads", "cpu_count", "commit"
    }
    assert set(record["environment"]["blas_threads"].values()) == {"1"}


@pytest.mark.parametrize("workload", ["protocol", "audit"])
def test_smoke_traced_emits_every_per_layer_metric_and_repeats_counts(capsys, workload):
    import unforget.nn_core
    import unforget.optim

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    runs = [_run(capsys, workload, 1) for _ in range(2)]
    for code, result in runs:
        assert code == 0 and result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == listed
    deterministic = [
        name for name in listed
        if name.endswith((".calls", ".distinct_ratio"))
        or name in ("harness.sweep.failed_points", "harness.incomplete_cells")
    ]
    first, second = (r["metrics"] for _, r in runs)
    assert {n: first[n]["value"] for n in deterministic} == {
        n: second[n]["value"] for n in deterministic
    }
    # The wrappers are gone once the traced round has ended.
    assert unforget.optim.loss_and_grad is unforget.nn_core.loss_and_grad
    if workload == "protocol":
        assert first["nn_core.loss_and_grad.train.calls"]["value"] > 0
        assert first["harness.stage.pretrain_s"]["value"] > 0
    else:
        assert first["data.load_dataset.busy_s"]["value"] > 0


def test_audit_gate_fails_a_wrong_answer(capsys, monkeypatch):
    import unforget.cli

    real = unforget.cli.evaluate

    def off_by_one_sample(model, ds, set_name=""):
        result = real(model, ds, set_name)
        return type(result)(**{**result.__dict__, "n_samples": result.n_samples + 1})

    monkeypatch.setattr(unforget.cli, "evaluate", off_by_one_sample)
    code, result = _run(capsys, "audit", 0)
    assert code == 1
    assert not result["correct"]
    # Every request fails; the pin check, which does not go through the CLI, passes.
    assert result["failed"] == result["attempted"] - 1 > 0


@pytest.mark.parametrize("workload", ["protocol", "audit"])
def test_pin_fails_a_change_that_repeats_on_every_run(capsys, monkeypatch, workload):
    """A slightly different optimizer gives every run the same wrong
    numbers: the rounds agree with each other, and only the pin sees it."""
    import unforget.optim
    import workloads

    real = unforget.optim.adam_step

    def drifting_adam_step(params, grads, state, lr, mask=None):
        return real(params, grads, state, lr * 1.01, mask)

    monkeypatch.setattr(unforget.optim, "adam_step", drifting_adam_step)
    code, result = _run(capsys, workload, 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == (workloads.SETUP_PASSES if workload == "protocol" else 1)
    assert "pin seed" in " ".join(_record(workload, 0)["problems"])


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "protocol", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout == ""
