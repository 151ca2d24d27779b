"""Acceptance suite: ten numbered criteria, one test and one printed
pass/fail line each.

Criteria 5, 6, 8, 9 read the shared default-experiment report (the full
protocol at base seed 0); criterion 10 runs that experiment a second time
and compares bytes. The whole module takes a few minutes; run it with
`pytest tests/test_acceptance.py -v -rA` to see the per-criterion lines.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from unforget.data import generate_synthetic, split_forget_retain, split_train_val_test
from unforget.harness import default_arch, default_config, default_synthetic_spec, run_experiment, strip_timing
from unforget.metrics import auroc_binary, rank_difficulty
from unforget.nn_core import (
    ArchSpec,
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    GlobalAvgPool,
    ReLU,
    init_model,
    loss_and_grad,
)
from unforget.optim import TrainConfig, train_from_scratch
from unforget.seeding import derive_seed
from unforget.unlearn import (
    SaliencyMask,
    UnlearnConfig,
    compute_saliency_mask,
    random_relabel,
    relabel_finetune,
    relabel_unlearn,
    saliency_unlearn,
)


def check(num, name, ok, detail=""):
    line = f"[acceptance {num:2d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def default_report():
    return run_experiment(default_config(base_seed=0))


@pytest.fixture(scope="module")
def default_report_rerun():
    return run_experiment(default_config(base_seed=0))


def macro(report, alg, frac, set_name):
    return report.summary[alg][frac][set_name]["macro"]["mean"]


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_gradient_correctness():
    """Analytic gradients match central finite differences (step 1e-5) to
    relative error 1e-4 on 20 random small nets covering every layer type."""
    shapes = [
        (ArchSpec((5,), (Dense(5, 7), ReLU(), Dense(7, 3)), 3), "ce"),
        (ArchSpec((4,), (Dense(4, 6), BatchNorm(6), ReLU(), Dense(6, 3)), 3), "ce"),
        (
            ArchSpec(
                (1, 6, 6),
                (Conv2D(1, 3, 3, 2), BatchNorm(3), ReLU(), GlobalAvgPool(), Dense(3, 3)),
                3,
            ),
            "ce",
        ),
        (ArchSpec((2, 5, 5), (Conv2D(2, 2, 2, 1), ReLU(), Flatten(), Dense(32, 4)), 4), "bce"),
        (
            ArchSpec(
                (1, 7, 7),
                (Conv2D(1, 2, 3, 2), BatchNorm(2), ReLU(), Flatten(), Dense(18, 2)),
                2,
            ),
            "bce",
        ),
    ]
    nets = 0
    worst = 0.0
    for arch, loss_kind in shapes:
        for seed in range(4):
            rng = np.random.default_rng(derive_seed(seed, "gradcheck", loss_kind, nets))
            model = init_model(arch, seed)
            assert model.num_params <= 200
            model.params += rng.normal(0, 0.3, model.params.shape)
            x = rng.random((4,) + arch.input_shape)
            if loss_kind == "ce":
                y = rng.integers(arch.output_dim, size=4)
            else:
                y = rng.integers(0, 2, size=(4, arch.output_dim)).astype(float)
            _, analytic = loss_and_grad(model, x, y, loss_kind, update_stats=False)
            h = 1e-5
            numeric = np.zeros_like(analytic)
            for i in range(model.params.size):
                orig = model.params[i]
                model.params[i] = orig + h
                lp, _ = loss_and_grad(model, x, y, loss_kind, update_stats=False)
                model.params[i] = orig - h
                lm, _ = loss_and_grad(model, x, y, loss_kind, update_stats=False)
                model.params[i] = orig
                numeric[i] = (lp - lm) / (2 * h)
            scale = np.maximum(np.abs(analytic), np.abs(numeric))
            err = np.abs(analytic - numeric)
            ok_vec = err <= 1e-4 * scale + 1e-8
            worst = max(worst, float((err / (scale + 1e-8)).max()))
            assert ok_vec.all()
            nets += 1
    check(1, "gradient correctness on 20 small nets", nets == 20, f"worst rel err {worst:.2e}")


# -- 2 ----------------------------------------------------------------------

def pairwise_oracle(scores, labels):
    pos = scores[labels][:, None]
    neg = scores[~labels][None, :]
    wins = (pos > neg).sum() + 0.5 * (pos == neg).sum()
    return wins / (pos.shape[0] * neg.shape[1])


def test_criterion_02_auroc_oracle_equivalence():
    """1,000 randomized score/label vectors (lengths <= 500, heavy ties):
    implementation equals the O(n^2) pair-counting oracle to 1e-12, and
    complement symmetry / monotone-transform invariance hold exactly."""
    rng = np.random.default_rng(derive_seed(0, "auroc-oracle"))
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 501))
        if rng.random() < 0.5:
            levels = int(rng.integers(2, 10))
            scores = rng.choice(np.linspace(0, 1, levels), size=n)
        else:
            scores = rng.random(n)
        labels = rng.integers(0, 2, size=n).astype(bool)
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        value = auroc_binary(scores, labels)
        worst = max(worst, abs(value - pairwise_oracle(scores, labels)))
        assert abs(value - pairwise_oracle(scores, labels)) <= 1e-12
        assert value + auroc_binary(scores, ~labels) == 1.0
        assert auroc_binary(np.exp(scores), labels) == value
        assert auroc_binary(5.0 * scores - 3.0, labels) == value
    check(2, "AUROC oracle equivalence on 1,000 vectors", True, f"worst |diff| {worst:.1e}")


# -- 3 ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_run():
    spec = replace(default_synthetic_spec(), num_patients=60, samples_per_patient=8, seed=23)
    ds = generate_synthetic(spec)
    plan = split_train_val_test(ds, (0.7, 0.05, 0.25), seed=3, allow_empty=True)
    cfg = TrainConfig(epochs=2, batch_size=32, lr0=1e-3, loss_kind="ce")
    model, _ = train_from_scratch(default_arch(), ds.subset(plan.train_ids), cfg, 5)
    plan_f = split_forget_retain(plan, 0.3, "patient_level", seed=7, dataset=ds)
    return {
        "model": model,
        "forget": ds.subset(plan_f.forget_ids),
        "retain": ds.subset(plan_f.retain_ids),
    }


def test_criterion_03_mask_freeze(small_run):
    """Mask-0 parameters survive unlearning bit-for-bit; an above-max
    threshold returns the pretrained parameters; threshold 0 reproduces the
    random-relabeling run exactly under shared seeds."""
    model, forget, retain = small_run["model"], small_run["forget"], small_run["retain"]

    rng = np.random.default_rng(derive_seed(1, "mask-freeze"))
    for trial in range(3):
        bits = rng.integers(0, 2, model.num_params).astype(np.uint8)
        mask = SaliencyMask(bits=bits, threshold=0.5)
        noisy = random_relabel(forget, "exclude_original", seed=trial)
        cfg = UnlearnConfig("relabel", epochs=1, lr=1e-2, seed=trial)
        out = relabel_finetune(model, retain, noisy, cfg, mask=mask)
        frozen = bits == 0
        assert np.array_equal(out.params[frozen], model.params[frozen])
        assert not np.array_equal(out.params[~frozen], model.params[~frozen])

    salun_mask = compute_saliency_mask(model, forget, 2e-3, "ce")
    out = saliency_unlearn(
        model, forget, retain, UnlearnConfig("salun", epochs=2, lr=1e-2, threshold=2e-3, seed=9)
    )
    frozen = salun_mask.bits == 0
    assert 0 < salun_mask.n_trainable < salun_mask.bits.size
    assert np.array_equal(out.params[frozen], model.params[frozen])

    frozen_all = saliency_unlearn(
        model, forget, retain, UnlearnConfig("salun", epochs=2, lr=1e-2, threshold=1e9, seed=9)
    )
    assert np.array_equal(frozen_all.params, model.params)

    a = saliency_unlearn(
        model, forget, retain, UnlearnConfig("salun", epochs=2, lr=1e-3, threshold=0.0, seed=11)
    )
    b = relabel_unlearn(model, forget, retain, UnlearnConfig("relabel", epochs=2, lr=1e-3, seed=11))
    assert np.array_equal(a.params, b.params)

    check(3, "mask-freeze identities", True)


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_split_integrity():
    """1,000 randomized split plans: exact disjointness, forget+retain ==
    train, patient integrity under patient grouping, and exact sample-level
    forget sizes."""
    rng = np.random.default_rng(derive_seed(2, "split-integrity"))
    datasets = [
        generate_synthetic(
            replace(
                default_synthetic_spec(),
                num_patients=int(p),
                samples_per_patient=(2, 9),
                feature_shape=(1, 2, 2),
                seed=int(s),
            )
        )
        for p, s in ((40, 1), (80, 2), (150, 3), (60, 4))
    ]
    for i in range(1000):
        ds = datasets[int(rng.integers(len(datasets)))]
        raw = rng.dirichlet((4, 1, 2))
        fractions = (float(raw[0]), float(raw[1]), float(raw[2]))
        try:
            plan = split_train_val_test(ds, fractions, seed=int(rng.integers(2**31)))
        except ValueError:
            continue  # degenerate fraction draw (an empty split); not under test
        all_ids = set(ds.ids())
        assert plan.train_ids | plan.val_ids | plan.test_ids == all_ids
        assert not (plan.train_ids & plan.val_ids)
        assert not (plan.train_ids & plan.test_ids)
        assert not (plan.val_ids & plan.test_ids)
        patient_of = dict(zip(ds.ids(), ds.patient_array().tolist()))
        split_of = {}
        for name, ids in (("train", plan.train_ids), ("val", plan.val_ids), ("test", plan.test_ids)):
            for sid in ids:
                pid = patient_of[sid]
                assert split_of.setdefault(pid, name) == name

        fraction = float(rng.uniform(0.05, 0.5))
        grouping = "sample_level" if rng.random() < 0.5 else "patient_level"
        try:
            out = split_forget_retain(plan, fraction, grouping, int(rng.integers(2**31)), ds)
        except ValueError:
            continue  # empty forget/retain at this draw; not under test
        assert out.forget_ids | out.retain_ids == out.train_ids
        assert not (out.forget_ids & out.retain_ids)
        if grouping == "sample_level":
            assert len(out.forget_ids) == round(fraction * len(out.train_ids))
        else:
            forget_patients = {patient_of[sid] for sid in out.forget_ids}
            retain_patients = {patient_of[sid] for sid in out.retain_ids}
            assert not (forget_patients & retain_patients)
    check(4, "split integrity over 1,000 plans", True)


# -- 5 ----------------------------------------------------------------------

def test_criterion_05_exact_unlearning_pattern(default_report):
    """On the default fixture at forget fraction 0.15, exact unlearning's
    forget and test AUROC agree within 2 points and retain stays at or above
    test; the pretrain+retrain work fits in 3 minutes."""
    forget_vs_test = abs(macro(default_report, "exact", "0.15", "forget") - macro(default_report, "exact", "0.15", "test")) * 100
    retain_ge_test = macro(default_report, "exact", "0.15", "retain") >= macro(default_report, "exact", "0.15", "test")
    exact_cells = [
        c for c in default_report.cells if c["algorithm"] == "exact" and c["fraction"] == 0.15
    ]
    seconds = sum(default_report.timing["pretrain_seconds"]) + sum(
        c["timing"]["unlearn_seconds"] for c in exact_cells
    )
    ok = forget_vs_test <= 2.0 and retain_ge_test and seconds <= 180.0
    check(
        5,
        "exact-unlearning pattern at fraction 0.15",
        ok,
        f"|forget-test| {forget_vs_test:.2f} pts, retain>=test {retain_ge_test}, {seconds:.0f}s",
    )


def test_exact_unlearning_stability(default_report):
    """Companion stability check: across the 3 repeats, exact unlearning's
    test-AUROC spread stays within one point at every forget fraction."""
    stds = {
        frac: default_report.summary["exact"][frac]["test"]["macro"]["std"] * 100
        for frac in ("0.05", "0.15", "0.3")
    }
    assert all(s <= 1.0 for s in stds.values()), stds


# -- 6 ----------------------------------------------------------------------

def test_criterion_06_approximate_unlearning_pattern(default_report):
    """Tuned relabeling and saliency unlearning track exact unlearning's
    forget AUROC within 3 points and its test AUROC within 4, and lose (or
    tie) generalization in at least 2 of 3 repeats at fraction 0.30."""
    worst_forget = worst_test = 0.0
    for alg in ("relabel", "salun"):
        for frac in ("0.05", "0.15", "0.3"):
            worst_forget = max(
                worst_forget,
                abs(macro(default_report, alg, frac, "forget") - macro(default_report, "exact", frac, "forget")) * 100,
            )
            worst_test = max(
                worst_test,
                abs(macro(default_report, alg, frac, "test") - macro(default_report, "exact", frac, "test")) * 100,
            )

    def test_auroc(alg, repeat):
        cell = next(
            c
            for c in default_report.cells
            if c["algorithm"] == alg and c["fraction"] == 0.30 and c["repeat"] == repeat
        )
        return cell["evals"]["test"]["macro_auroc"]

    nonneg = {
        alg: sum(test_auroc("exact", r) - test_auroc(alg, r) >= 0 for r in range(3))
        for alg in ("relabel", "salun")
    }
    ok = worst_forget <= 3.0 and worst_test <= 4.0 and all(v >= 2 for v in nonneg.values())
    check(
        6,
        "approximate-unlearning pattern",
        ok,
        f"max forget gap {worst_forget:.2f} pts, max test dist {worst_test:.2f} pts, "
        f"nonneg generalization gaps at 0.30: {nonneg}",
    )


# -- 7 ----------------------------------------------------------------------

def test_criterion_07_difficulty_ranking():
    """With class separations ordered A > B > C, the pretrained model's
    per-class test AUROC recovers (easy, intermediate, hard) = (A, B, C) in
    at least 9 of 10 seeds."""
    hits = 0
    for seed in range(10):
        spec = replace(
            default_synthetic_spec(),
            num_patients=100,
            samples_per_patient=10,
            separations=(1.2, 0.3, 0.1),
            seed=derive_seed(seed, "ranking", "data"),
        )
        ds = generate_synthetic(spec)
        plan = split_train_val_test(
            ds, (0.5, 0.05, 0.45), derive_seed(seed, "ranking", "split"), allow_empty=True
        )
        model, _ = train_from_scratch(
            default_arch(),
            ds.subset(plan.train_ids),
            TrainConfig(epochs=6, batch_size=32, lr0=1e-3, loss_kind="ce"),
            derive_seed(seed, "ranking", "train"),
        )
        ranking = rank_difficulty(model, ds.subset(plan.test_ids))
        hits += (ranking.easy, ranking.intermediate, ranking.hard) == (0, 1, 2)
    check(7, "difficulty ranking across seeds", hits >= 9, f"{hits}/10 seeds")


# -- 8 ----------------------------------------------------------------------

def test_criterion_08_fairness_null_result(default_report):
    """With label-independent balanced groups, every algorithm's male-female
    test AUROC gap at fraction 0.15 stays within 2 points (means over the 3
    repeats)."""
    gaps = {}
    for alg in ("exact", "relabel", "salun"):
        groups = default_report.summary[alg]["0.15"]["test"]["per_group"]
        gaps[alg] = abs(groups["male"]["mean"] - groups["female"]["mean"]) * 100
    ok = all(g <= 2.0 for g in gaps.values())
    check(8, "fairness null result", ok, ", ".join(f"{a} {g:.2f} pts" for a, g in gaps.items()))


# -- 9 ----------------------------------------------------------------------

def test_criterion_09_efficiency(default_report):
    """A 2-epoch approximate run costs less than half an exact retraining on
    the same fixture (measured back to back at fraction 0.15, where the
    6-vs-2-epoch recipe leaves headroom over the dataset-size ratio),
    undercuts it at every fraction, and the recorded sweep cost always
    exceeds the single run it selected."""
    import time

    from unforget.unlearn import exact_unlearn

    ds = generate_synthetic(default_synthetic_spec())
    plan = split_train_val_test(ds, (0.6, 0.05, 0.35), seed=1, allow_empty=True)
    cfg = TrainConfig(epochs=6, batch_size=32, lr0=1e-3, loss_kind="ce")
    model, _ = train_from_scratch(default_arch(), ds.subset(plan.train_ids), cfg, 2)
    plan_f = split_forget_retain(plan, 0.15, "patient_level", seed=3, dataset=ds)
    retain = ds.subset(plan_f.retain_ids)
    forget = ds.subset(plan_f.forget_ids)

    runs = {
        "exact": lambda: exact_unlearn(model, retain, cfg, 4),
        "relabel": lambda: relabel_unlearn(
            model, forget, retain, UnlearnConfig("relabel", 2, 3e-3, seed=5)
        ),
        "salun": lambda: saliency_unlearn(
            model, forget, retain, UnlearnConfig("salun", 2, 3e-3, threshold=1e-3, seed=5)
        ),
    }
    # Best of three: one run's cost without scheduler/GC noise. The three
    # algorithms take turns within each round, so a host whose speed drifts
    # over tens of seconds slows all three alike instead of one.
    best = dict.fromkeys(runs, float("inf"))
    for _ in range(3):
        for name, fn in runs.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    ratios = {"relabel": best["relabel"] / best["exact"], "salun": best["salun"] / best["exact"]}
    sweeps = default_report.timing["sweep_cost_exceeds_single_run"]
    always_faster = default_report.timing["approx_faster_than_exact"]
    ok = all(r < 0.5 for r in ratios.values()) and sweeps and always_faster
    check(
        9,
        "efficiency",
        ok,
        f"run/exact ratios at 0.15: relabel {ratios['relabel']:.3f}, salun {ratios['salun']:.3f}; "
        f"sweep>single {sweeps}, faster-at-all-fractions {always_faster}",
    )


# -- 10 ---------------------------------------------------------------------

def test_criterion_10_determinism(default_report, default_report_rerun):
    """Running the full default experiment twice with one base seed produces
    byte-identical JSON reports once wall-clock fields are stripped."""
    a = json.dumps(strip_timing(default_report.to_dict()), sort_keys=True, indent=2)
    b = json.dumps(strip_timing(default_report_rerun.to_dict()), sort_keys=True, indent=2)
    check(10, "end-to-end determinism", a == b, f"{len(a)} bytes compared")
