"""Smoke tests of the benchmark record script, bench/record.py.

One ``--repeats 2 --json`` run of the script serves every test that reads
its output."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from unforget.harness import default_arch, default_config, run_experiment, strip_timing

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "record.py"
COLUMNS = {"wall_s", "cpu_s", "minflt", "minflt_total", "maxrss_mb", "run_delay_s", "steal_ticks"}
STAGES = ("datagen", "split", "pretrain", "exact", "relabel_sweep", "salun_sweep", "eval", "emit")
SETTINGS = (("train", 32), ("saliency", 256), ("eval", 256))  # in-pass tables: (setting, batch)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """(the JSON record, the stdout lines) of one ``--repeats 2`` run."""
    out = tmp_path_factory.mktemp("record") / "record.json"
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "2", "--json", str(out)],
        capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.read_text()), run.stdout.splitlines()


def load_script():
    spec = importlib.util.spec_from_file_location("record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spread(doc, name) -> bool:
    """``{name}_ms`` is positive and lies between its own quartiles."""
    return 0 < doc[f"{name}_p25_ms"] <= doc[f"{name}_ms"] <= doc[f"{name}_p75_ms"]


def test_prints_every_layer_in_the_three_settings_at_one_blas_thread(recorded):
    _, lines = recorded
    assert any(line.startswith(("BLAS threads 1 ", "BLAS threads unknown ")) for line in lines)
    assert any(line.startswith("env blas: ") for line in lines)
    assert not any(line.startswith("isolated ") for line in lines)
    n = len(default_arch().layers)
    for setting, batch in SETTINGS:
        rows = [line.split()[1:] for line in lines
                if line.startswith(f"in-pass {setting} ") and line.split()[3].isdigit()]
        assert [r[2] for r in rows] == [str(i) for i in range(n)]
        assert all(r[1] == str(batch) for r in rows)
        for r in rows:  # each median with its quartiles: "ms [p25 p75]", "-" for no backward
            fwd, fwd25, fwd75 = (float(t.strip("[]")) for t in r[4:7])
            assert 0 < fwd25 <= fwd <= fwd75
            if setting == "eval":
                assert r[7:] == ["-", "[-", "-]"]
            else:
                bwd, bwd25, bwd75 = (float(t.strip("[]")) for t in r[7:])
                assert 0 < bwd25 <= bwd <= bwd75


def test_json_holds_environment_and_the_in_pass_tables(recorded):
    doc, lines = recorded
    assert (doc["repeats"], doc["layer_calls"]) == (2, 80)
    assert doc["blas_threads_reported"] in ("1", "unknown")
    assert doc["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"python", "numpy", "blas", "cpu_count", "commit"} <= set(doc["environment"])
    record, root = load_script(), SCRIPT.parents[1]
    code = {"sha256": record.code_digest(root), "dirty": record.code_dirty(root)}
    assert doc["code"] == code and f"code sha256 {code['sha256']} dirty {code['dirty']}" in lines
    # Every fresh reading holds the slow-spell deltas over its command, None where unreadable.
    assert all(r[key] is None or r[key] >= 0 for name in ("eval", "run")
               for r in doc["fresh"][name]["readings"] for key in ("run_delay_s", "steal_ticks"))
    # Layers are timed only inside the engine's own passes.
    assert "isolated" not in doc
    assert list(doc["in_pass"]) == [setting for setting, _ in SETTINGS]
    names = [f"{type(layer).__name__}(" for layer in default_arch().layers]
    for (setting, batch), name in zip(SETTINGS, ("loss_and_grad", "loss_and_grad", "forward")):
        table = doc["in_pass"][setting]
        rows = table["layers"]
        assert (table["batch"], table["pass"]) == (batch, name)
        assert [r["index"] for r in rows] == list(range(len(names)))
        assert all(r["layer"].startswith(name) for r, name in zip(rows, names))
        assert all(spread(r, "forward") for r in rows)
        assert table["step_ms"] >= table["layers_ms"] > 0 and spread(table, "step")
        assert 0 <= table["minflt_per_step"] <= table["minflt_max"]
        line = next(l for l in lines if l.startswith(f"in-pass {setting} "))
        assert line.split()[3] == "0"
    # Eval passes run no backward; steps with a cache skip layer 0's input
    # gradient but still time its backward (the parameter gradients), and a
    # saliency chunk runs eval-mode BatchNorm's backward.
    assert all(r["backward_ms"] is r["backward_p25_ms"] is r["backward_p75_ms"] is None
               for r in doc["in_pass"]["eval"]["layers"])
    for setting in ("train", "saliency"):
        assert all(spread(r, "backward") for r in doc["in_pass"][setting]["layers"])
    train = doc["in_pass"]["train"]
    assert spread(train, "adam_step") and spread(train, "adam_step_masked")
    assert all("adam_step_ms" not in doc["in_pass"][s] for s in ("saliency", "eval"))
    assert any(l.startswith("in-pass train") and "adam_step:" in l for l in lines)


def test_two_fresh_readings_each_with_quartiles(recorded):
    doc, lines = recorded
    fresh = doc["fresh"]
    assert (doc["repeats"], fresh["corpus_samples"], fresh["run_patients"]) == (2, 20_000, 20)
    for name in ("eval", "run"):
        readings = fresh[name]["readings"]
        assert len(readings) == 2
        for r in readings:
            assert r["code"] == 0 and r["wall_s"] > 0 and r["cpu_s"] > 0 and r["maxrss_mb"] > 0
            assert 0 < r["minflt"] <= r["minflt_total"]
        # The same command computes the same answer in every fresh process.
        assert readings[0]["answer_sha256"] == readings[1]["answer_sha256"]
        quartiles = fresh[name]["quartiles"]
        assert set(quartiles) == COLUMNS
        for col, q in quartiles.items():
            assert q["p25"] <= q["median"] <= q["p75"]
            assert min(r[col] for r in readings) <= q["median"] <= max(r[col] for r in readings)
    rows = [line.split()[1:3] for line in lines if line.startswith("fresh ")]
    assert rows[1:] == [["eval", "0"], ["run", "0"], ["eval", "1"], ["run", "1"],
                        ["eval", "p25"], ["eval", "med"], ["eval", "p75"],
                        ["run", "p25"], ["run", "med"], ["run", "p75"]]


def test_run_stages_all_present_and_positive(recorded):
    doc, lines = recorded
    assert set(doc["stages"]) == {f"harness.stage.{stage}_s" for stage in STAGES}
    assert all(seconds > 0 for seconds in doc["stages"].values())
    assert sum(line.startswith("stage harness.stage.") for line in lines) == len(STAGES)


def test_output_mismatch_names_command_and_readings():
    record = load_script()
    same = [{"answer_sha256": "a" * 64}, {"answer_sha256": "a" * 64}]
    differ = [{"answer_sha256": "a" * 64}, {"answer_sha256": "b" * 64}]
    assert record.output_mismatches({"eval": same, "run": same}) == []
    (message,) = record.output_mismatches({"eval": same, "run": differ})
    assert message.startswith("run: ")
    assert f"#0 {'a' * 64}" in message and f"#1 {'b' * 64}" in message


def test_run_answer_is_its_stripped_report(recorded):
    # Not its stdout, which names the temporary directory of each invocation.
    doc, _ = recorded
    record = load_script()
    cfg = default_config()
    cfg = replace(cfg, dataset=replace(cfg.dataset, num_patients=record.RUN_PATIENTS), repeats=1)
    text = json.dumps(strip_timing(run_experiment(cfg).to_dict()), sort_keys=True)
    for reading in doc["fresh"]["run"]["readings"]:
        assert reading["answer_sha256"] == hashlib.sha256(text.encode()).hexdigest()


def test_allocation_peaks_of_the_three_passes(recorded):
    doc, lines = recorded
    peaks = doc["peak_alloc_mib"]
    assert list(peaks) == ["train_loss_and_grad_32", "saliency_loss_and_grad_256", "eval_forward_256"]
    assert all(mib > 0 for mib in peaks.values())
    # A 256-row step with a cache holds more than a 32-row one or a tiled eval pass.
    assert peaks["saliency_loss_and_grad_256"] > max(peaks["train_loss_and_grad_32"],
                                                     peaks["eval_forward_256"])
    printed = {line.split()[1]: float(line.split()[2]) for line in lines
               if line.startswith("peak_alloc_mib ")}
    assert printed == pytest.approx(peaks, abs=1e-3)


def test_code_digest_names_the_measured_files(tmp_path):
    record = load_script()
    for root in (tmp_path / "a", tmp_path / "b"):
        for rel, text in (("src/pkg/mod.py", "x = 1\n"), ("bench/run.py", "y = 2\n"),
                          ("src/notes.txt", "not code\n")):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
    a, b = tmp_path / "a", tmp_path / "b"
    assert record.code_digest(a) == record.code_digest(b)
    (b / "src/notes.txt").write_text("still not code\n")  # not a *.py file
    assert record.code_digest(a) == record.code_digest(b)
    (b / "src/pkg/mod.py").write_text("x = 2\n")  # a one-byte edit
    assert record.code_digest(a) != record.code_digest(b)
    assert record.code_dirty(a) is None  # not a git checkout


def test_failing_child_raises_with_its_stderr():
    record = load_script()
    with pytest.raises(RuntimeError, match="exited 3:\nboom"):
        record.child("import sys; sys.stderr.write('boom'); sys.exit(3)")
