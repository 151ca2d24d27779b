"""The two benchmark workloads.

Each is a closed loop: one client in one process sends its next request only
after the previous one has completed. Both drive the package through its
command-line entry point (``unforget.cli.main``), called in-process, and
run BLAS on one thread (see ``run.py``).

protocol  ``unforget run`` on the default experiment: all three algorithms at
          forget fractions 0.05/0.15/0.30, the 4-lr relabel grid and the 4x2
          salun grid, two repeats. One round is one run. The dataset has 20
          patients instead of 250, so that a run holds several rounds.
audit     ``unforget eval`` requests over a fixed, seeded mix of (model,
          dataset) pairs: eval-mode forward passes at batch 256, the UNDS
          parser and AUROC ranking, with no training. One round is one pass
          over the mix.

Both also check a golden pin: outputs at the fixed seed ``PIN_SEED`` and
smoke size, whose SHA-256 is written down in ``PINNED``. The other gates
compare a run with itself, so only the pin catches a change that moves
every number the same way on every run.

A workload returns an ``Outcome``; ``run.py`` prints it. Run as a script,
this file is the audit's set-up pass (see ``run_audit``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from tracing import Tracer, install_sites, layer_metrics

import unforget.cli
from unforget.data import generate_synthetic, save_dataset
from unforget.harness import config_to_dict, default_arch, default_config, strip_timing
from unforget.metrics import evaluate
from unforget.nn_core import save_model
from unforget.optim import TrainConfig, train_from_scratch
from unforget.seeding import derive_seed
from unforget.unlearn import UnlearnConfig, relabel_unlearn

SETUP_PASSES = 3  # set-up runs this often per run; setup_s is the median
MAX_PROBLEMS = 5  # gate failures printed per run

PIN_SEED = 0
# SHA-256 of the smoke-size outputs at PIN_SEED: the protocol's stripped
# report (``report_digest``) and the audit's models and reference answers
# (``audit_digest``). A change meant to move the numbers re-pins them with
# the digest its failure message prints, and says so in CHANGES.md.
PINNED = {
    "protocol": "3cc550f0a5621a7df79cb303a1eb765d79388b37b031fe3aa084bf7cf75eee2e",
    "audit": "23c7a6ebeafac9bb18531102c7c6133cb63d77ef78345988c4df4906e4834e46",
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: dict = field(default_factory=dict)
    tracer: Tracer | None = None

    def fail(self, count: int, message: str):
        self.failed += count
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)


def _cli(argv) -> tuple[int, str, float, float]:
    """One request: exit code, captured stdout, wall and CPU seconds."""
    out = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out):
        code = unforget.cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - wall0, time.process_time() - cpu0


def _timed_setup(build) -> tuple[float, object]:
    """Run ``build`` SETUP_PASSES times; median seconds and the last result."""
    times = []
    result = None
    for _ in range(SETUP_PASSES):
        started = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - started)
    return statistics.median(times), result


def _rounds(seconds: float, min_rounds: int, one_round) -> tuple[list, list]:
    """Closed loop of rounds: start another while it is expected to end
    within ``seconds`` (and always at least ``min_rounds``). ``one_round(k)``
    returns its own (wall, cpu) so that checks stay out of the timing."""
    walls, cpus = [], []
    started = time.perf_counter()
    while True:
        wall, cpu = one_round(len(walls))
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - started
        if len(walls) >= min_rounds and elapsed + statistics.median(walls) > seconds:
            return walls, cpus


def _check_pin(outcome: Outcome, workload: str, digest: str | None) -> None:
    outcome.attempted += 1
    if digest != PINNED[workload]:
        outcome.fail(1, f"{workload} output at pin seed {PIN_SEED} has digest {digest}, "
                        f"pinned {PINNED[workload]}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _traced(outcome: Outcome, untraced_wall: float, one_round) -> None:
    """One extra round with every site wrapped; the per-layer metrics."""
    tracer = Tracer()
    install_sites(tracer)
    try:
        wall, _ = one_round(tracer)
    finally:
        tracer.restore()
    outcome.tracer = tracer
    outcome.metrics = layer_metrics(tracer.spans, wall - untraced_wall)


# --------------------------------------------------------------------------
# protocol
# --------------------------------------------------------------------------

PROTOCOL_PATIENTS = 20
PROTOCOL_REPEATS = 2


def smoke_config(seed: int):
    """A few patients, one fraction, one-point grids: every code path in
    well under a second. At PIN_SEED, also the protocol's warm-up run."""
    cfg = default_config(base_seed=seed)
    return replace(
        cfg,
        dataset=replace(cfg.dataset, num_patients=15),
        forget_fractions=(0.15,),
        lr_grid=(1e-3,),
        threshold_grid=(1e-3,),
        repeats=1,
    )


def protocol_config(seed: int):
    cfg = default_config(base_seed=seed)
    return replace(
        cfg,
        dataset=replace(cfg.dataset, num_patients=PROTOCOL_PATIENTS),
        repeats=PROTOCOL_REPEATS,
    )


def _grid_size(cfg, algorithm: str) -> int:
    return len(cfg.lr_grid) * (len(cfg.threshold_grid) if algorithm == "salun" else 1)


def _aurocs(report: dict):
    """Every AUROC value in a report."""
    for cell in report["cells"]:
        for ev in cell["evals"].values():
            yield ev["macro_auroc"]
            yield from ev["per_class"].values()
            yield from ev["per_group"].values()
        for row in cell["sweep"] or ():
            yield row["forget_macro"]
            yield row["test_macro"]
    for entry in report["difficulty"]:
        yield from entry.get("per_class", {}).values()


def report_digest(report: dict) -> str:
    """SHA-256 of the stripped report, as the determinism contract defines it."""
    text = json.dumps(strip_timing(report), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_report(cfg, report: dict, outcome: Outcome) -> None:
    """Gates on one run's report: incomplete cells, short sweep tables and
    AUROCs that are non-finite or outside [0, 1]."""
    for entry in report["incomplete"]:
        outcome.fail(1, f"incomplete cell: {entry}")
    expected = cfg.repeats * len(cfg.forget_fractions) * len(cfg.algorithms)
    if len(report["cells"]) + len(report["incomplete"]) != expected:
        outcome.fail(1, f"{len(report['cells'])} cells and {len(report['incomplete'])} "
                        f"incomplete, expected {expected} in all")
    for cell in report["cells"]:
        if cell["algorithm"] == "exact":
            continue
        missing = _grid_size(cfg, cell["algorithm"]) - len(cell["sweep"])
        if missing:
            outcome.fail(missing, f"sweep table short by {missing}: {cell['algorithm']} "
                                  f"repeat {cell['repeat']} fraction {cell['fraction']}")
    bad = [v for v in _aurocs(report) if not (math.isfinite(v) and 0.0 <= v <= 1.0)]
    if bad:
        outcome.fail(len(bad), f"{len(bad)} AUROC value(s) non-finite or outside [0, 1]")


def _or_nan(statistic, values) -> float:
    """The statistic, or NaN when every cell it needs has failed."""
    return statistic(values) if values else math.nan


def _protocol_summary(reports: list[dict]) -> dict:
    """Per-algorithm cost and quality from the reports' cells."""
    seconds = {"exact": [], "relabel": [], "salun": []}
    gaps = {"relabel": [], "salun": []}
    for report in reports:
        exact_forget = {
            (c["repeat"], c["fraction"]): c["evals"]["forget"]["macro_auroc"]
            for c in report["cells"] if c["algorithm"] == "exact"
        }
        for c in report["cells"]:
            seconds[c["algorithm"]].append(c["timing"]["unlearn_seconds"])
            reference = exact_forget.get((c["repeat"], c["fraction"]))
            if c["algorithm"] != "exact" and reference is not None:
                gaps[c["algorithm"]].append(
                    100.0 * abs(c["evals"]["forget"]["macro_auroc"] - reference)
                )
    out = {f"{a}_s": (_or_nan(statistics.median, v), "s") for a, v in seconds.items()}
    # Deterministic per seed: every round of a run reads the same value.
    for a, v in gaps.items():
        out[f"forget_gap_pts.{a}"] = (_or_nan(statistics.fmean, v), "pts")
    return out


def run_protocol(seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path) -> Outcome:
    outcome = Outcome()
    cfg = smoke_config(seed) if smoke else protocol_config(seed)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config_to_dict(cfg), indent=2))
    warmup_path = workdir / "warmup.json"
    warmup_path.write_text(json.dumps(config_to_dict(smoke_config(PIN_SEED)), indent=2))
    warmup_dir = workdir / "warmup"
    out_dir = workdir / "report"

    def warm_up():
        code, _, _, _ = _cli(["run", "--config", str(warmup_path), "--out", str(warmup_dir)])
        report = json.loads((warmup_dir / "report.json").read_text()) if code == 0 else None
        _check_pin(outcome, "protocol", report and report_digest(report))

    setup_s, _ = _timed_setup(warm_up)

    reports = []
    digests = []

    def one_round(k, tracer=None):
        if tracer is not None:
            tracer.run_id = f"round-{k}"
        code, _, wall, cpu = _cli(["run", "--config", str(config_path), "--out", str(out_dir)])
        # Cells and grid points, plus the report as a whole.
        outcome.attempted += 1 + len(cfg.forget_fractions) * cfg.repeats * sum(
            1 + (_grid_size(cfg, a) if a != "exact" else 0) for a in cfg.algorithms
        )
        if code != 0:
            outcome.fail(1, f"round {k}: unforget run exited {code}")
            return wall, cpu
        report = json.loads((out_dir / "report.json").read_text())
        check_report(cfg, report, outcome)
        digest = report_digest(report)
        if digests and digest != digests[0]:
            outcome.fail(1, f"round {k}: stripped-report digest {digest} != {digests[0]}")
        digests.append(digest)
        reports.append(report)
        return wall, cpu

    walls, cpus = _rounds(seconds, 2, one_round)
    wall_s = statistics.median(walls)
    outcome.notes["round_wall_s"] = [round(w, 4) for w in walls]
    outcome.notes["report_sha256"] = digests[0] if digests else None
    if trace:
        _traced(outcome, wall_s, lambda tracer: one_round(len(walls), tracer))
        return outcome

    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "failed_share": (outcome.failed / outcome.attempted, "ratio"),
    }
    outcome.metrics.update(_protocol_summary(reports))
    return outcome


# --------------------------------------------------------------------------
# audit
# --------------------------------------------------------------------------

# Patients per fixture; the generator gives 20 samples per patient. "forget"
# and "test" match the default protocol's forget set at 0.15 and test split.
AUDIT_PATIENTS = {"train": 30, "forget": 23, "test": 88, "corpus": 1000}
SMOKE_PATIENTS = {"train": 8, "forget": 3, "test": 6, "corpus": 20}
AUDIT_MODELS = ("pretrained", "unlearned")
# Requests per model in one round. Sorted by latency the round reads
# forget 0-33%, test 33-83%, corpus 83-100%, so p50 and p90 each sit well
# inside one kind of request.
AUDIT_MIX = {"forget": 2, "test": 3, "corpus": 1}
MIN_REQUESTS = 100  # ten samples beyond p90


def build_audit_fixtures(seed: int, smoke: bool, workdir: Path):
    """Write the UNDS datasets and UNFG models for one seed; return them in
    memory as {name: object}."""
    workdir.mkdir(parents=True, exist_ok=True)
    patients = SMOKE_PATIENTS if smoke else AUDIT_PATIENTS
    base = default_config().dataset
    data = {
        name: generate_synthetic(
            replace(base, num_patients=count, seed=derive_seed(seed, "audit", name))
        )
        for name, count in patients.items()
    }
    train = data.pop("train")
    pretrained, _ = train_from_scratch(
        default_arch(), train, TrainConfig(), derive_seed(seed, "audit", "pretrain")
    )
    ids = train.ids()
    cut = len(ids) // 5
    unlearned = relabel_unlearn(
        pretrained, train.subset(ids[:cut]), train.subset(ids[cut:]),
        UnlearnConfig("relabel", seed=derive_seed(seed, "audit", "unlearn")),
    )
    models = {"pretrained": pretrained, "unlearned": unlearned}
    for name, ds in data.items():
        save_dataset(ds, workdir / f"{name}.unds")
    for name, model in models.items():
        save_model(model, workdir / f"{name}.unfg")
    return models, data


def audit_answers(models, data) -> dict:
    """The reference answer of each (model, dataset) pair, computed from the
    in-memory objects: a request must reproduce it through the files, byte
    for byte."""
    return {
        f"{m}/{d}": json.dumps(
            evaluate(models[m], data[d], set_name=d).to_dict(), sort_keys=True, indent=2
        ) + "\n"
        for m in AUDIT_MODELS for d in data
    }


def audit_digest(models, answers: dict) -> str:
    """SHA-256 of the models' parameters and the reference answers."""
    h = hashlib.sha256()
    for m in AUDIT_MODELS:
        h.update(models[m].params.tobytes())
    h.update(json.dumps(answers, sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def write_audit_fixtures(seed: int, smoke: bool, workdir: Path) -> None:
    """One set-up pass: the fixture files, plus ``fixtures.json`` with the
    dataset sizes, the reference answers and their digest."""
    models, data = build_audit_fixtures(seed, smoke, workdir)
    answers = audit_answers(models, data)
    (workdir / "fixtures.json").write_text(json.dumps({
        "sizes": {d: len(ds) for d, ds in data.items()},
        "answers": answers,
        "sha256": audit_digest(models, answers),
    }))


def run_audit(seed: int, seconds: float, trace: bool, smoke: bool, workdir: Path) -> Outcome:
    outcome = Outcome()
    # Each set-up pass runs in a child process, so that the in-memory
    # corpus it generates does not count toward this process's peak_rss_mb,
    # which then belongs to the requests.
    src = str(Path(unforget.cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    argv = [sys.executable, __file__, str(seed), str(int(smoke)), str(workdir)]
    setup_s, _ = _timed_setup(lambda: subprocess.run(argv, env=env, check=True, timeout=150))
    fixtures = json.loads((workdir / "fixtures.json").read_text())
    outcome.notes["reference_sha256"] = fixtures["sha256"]

    models, data = build_audit_fixtures(PIN_SEED, True, workdir / "pin")
    _check_pin(outcome, "audit", audit_digest(models, audit_answers(models, data)))
    del models, data

    mix = [(m, d) for m in AUDIT_MODELS for d, n in AUDIT_MIX.items() for _ in range(n)]
    random.Random(seed).shuffle(mix)
    round_samples = sum(fixtures["sizes"][d] for _, d in mix)
    latencies = []

    def one_round(k, tracer=None):
        wall = cpu = 0.0
        for i, (m, d) in enumerate(mix):
            if tracer is not None:
                tracer.run_id = f"round-{k}-request-{i}"
            code, text, req_wall, req_cpu = _cli(
                ["eval", "--model", str(workdir / f"{m}.unfg"),
                 "--data", str(workdir / f"{d}.unds")]
            )
            outcome.attempted += 1
            wall += req_wall
            cpu += req_cpu
            if tracer is None:
                latencies.append(req_wall)
            if code != 0 or text != fixtures["answers"][f"{m}/{d}"]:
                outcome.fail(1, f"round {k}: eval of {m} on {d} differs from the reference")
        return wall, cpu

    one_round("warm-up")  # checked, but neither timed nor among the latencies
    latencies.clear()
    walls, cpus = _rounds(seconds, math.ceil(MIN_REQUESTS / len(mix)), one_round)
    wall_s = statistics.median(walls)
    outcome.notes["round_wall_s"] = [round(w, 4) for w in walls]
    outcome.notes["requests"] = len(latencies)
    if trace:
        _traced(outcome, wall_s, lambda tracer: one_round(len(walls), tracer))
        return outcome

    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
        "failed_share": (outcome.failed / outcome.attempted, "ratio"),
        "eval_request_s.p50": (statistics.median(latencies), "s"),
        "eval_request_s.p90": (statistics.quantiles(latencies, n=10)[-1], "s"),
        "eval_samples_per_s": (round_samples / wall_s, "samples/s"),
    }
    return outcome


WORKLOADS = {"protocol": run_protocol, "audit": run_audit}


if __name__ == "__main__":
    _, seed, smoke, workdir = sys.argv
    write_audit_fixtures(int(seed), smoke == "1", Path(workdir))
