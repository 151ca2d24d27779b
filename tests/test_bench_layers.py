"""Smoke tests of the per-layer timing script, bench/layers.py."""

import json
import subprocess
import sys
from pathlib import Path

from unforget.harness import default_arch

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_prints_every_layer_in_both_settings_at_one_blas_thread():
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "2"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = run.stdout.splitlines()
    assert any(line.startswith(("BLAS threads 1 ", "BLAS threads unknown ")) for line in lines)
    assert any(line.startswith("env blas: ") for line in lines)
    n = len(default_arch().layers)
    for mode, batch in (("train", "32"), ("eval", "256")):
        rows = [line.split() for line in lines if line.startswith(mode)]
        assert [r[2] for r in rows[:n]] == [str(i) for i in range(n)]
        assert rows[n][2] == "total" and len(rows) == n + 1
        assert all(r[1] == batch for r in rows)
        for r in rows[:n]:  # each median with its quartiles: "ms [p25 p75]"
            fwd, fwd25, fwd75, bwd, bwd25, bwd75 = (float(t.strip("[]")) for t in r[4:])
            assert 0 < fwd25 <= fwd <= fwd75 and 0 < bwd25 <= bwd <= bwd75
        assert all(float(t) > 0 for t in rows[n][3:])


def spread(doc, name) -> bool:
    """``{name}_ms`` is positive and lies between its own quartiles."""
    return 0 < doc[f"{name}_p25_ms"] <= doc[f"{name}_ms"] <= doc[f"{name}_p75_ms"]


def test_json_holds_environment_and_both_tables(tmp_path):
    out = tmp_path / "bench.json"
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "2", "--json", str(out)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    doc = json.loads(out.read_text())
    assert doc["repeats"] == 2
    assert doc["blas_threads_reported"] in ("1", "unknown")
    assert doc["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"python", "numpy", "blas", "cpu_count", "commit"} <= set(doc["environment"])
    names = [f"{type(layer).__name__}(" for layer in default_arch().layers]
    for table in ("isolated", "in_pass"):
        assert set(doc[table]) == {"train", "eval"}
        for mode, batch in (("train", 32), ("eval", 256)):
            rows = doc[table][mode]["layers"]
            assert doc[table][mode]["batch"] == batch
            assert [r["index"] for r in rows] == list(range(len(names)))
            assert all(r["layer"].startswith(name) for r, name in zip(rows, names))
            assert all(spread(r, "forward") for r in rows)
    assert all(spread(r, "backward") for r in doc["isolated"]["eval"]["layers"])
    # Eval passes run no backward; train steps skip layer 0's input gradient
    # but still time its backward (the parameter gradients).
    assert all(r["backward_ms"] is r["backward_p25_ms"] is r["backward_p75_ms"] is None
               for r in doc["in_pass"]["eval"]["layers"])
    assert all(spread(r, "backward") for r in doc["in_pass"]["train"]["layers"])
    for mode, name in (("train", "loss_and_grad"), ("eval", "_forward_raw")):
        table = doc["in_pass"][mode]
        assert table["pass"] == name
        assert table["step_ms"] >= table["layers_ms"] > 0 and spread(table, "step")
        assert 0 <= table["minflt_per_step"] <= table["minflt_max"]
        line = next(l for l in run.stdout.splitlines() if l.startswith(f"in-pass {mode} "))
        assert line.split()[3] == "0"
    train = doc["in_pass"]["train"]
    assert spread(train, "adam_step") and spread(train, "adam_step_masked")
    assert "adam_step_ms" not in doc["in_pass"]["eval"]
    assert any(l.startswith("in-pass train") and "adam_step:" in l for l in run.stdout.splitlines())
