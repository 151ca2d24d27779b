"""Smoke test of the per-layer timing script, bench/layers.py."""

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
        assert all(r[1] == batch and float(r[-2]) > 0 and float(r[-1]) > 0 for r in rows)
