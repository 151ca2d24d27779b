"""Smoke test of the fresh-process timing script, bench/oneshot.py."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "oneshot.py"


def test_two_readings_each_and_json(tmp_path):
    out = tmp_path / "oneshot.json"
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "--repeats", "2", "--json", str(out)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    doc = json.loads(out.read_text())
    assert (doc["repeats"], doc["corpus_samples"], doc["run_patients"]) == (2, 20_000, 20)
    assert doc["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    for name in ("eval", "run"):
        readings = doc["readings"][name]
        assert len(readings) == 2
        for r in readings:
            assert r["code"] == 0 and r["wall_s"] > 0 and r["maxrss_mb"] > 0
            assert 0 < r["minflt"] <= r["minflt_total"]
        # The same command computes the same answer in every fresh process.
        assert readings[0]["stdout_sha256"] == readings[1]["stdout_sha256"]
        assert set(doc["medians"][name]) == {"wall_s", "minflt", "minflt_total", "maxrss_mb"}
    rows = [line.split() for line in run.stdout.splitlines()]
    rows = [r for r in rows if len(r) == 6 and r[0] in ("eval", "run")]
    assert [r[:2] for r in rows] == [["eval", "0"], ["run", "0"], ["eval", "1"], ["run", "1"],
                                     ["eval", "med"], ["run", "med"]]
