"""Dataset tests: synthetic generation, unknown-label policy, patient-level
splitting, forget/retain partitioning, and the dataset file format."""

import hashlib
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unforget.data import (
    _BLOCK_BYTES,
    _HEADER,
    UNKNOWN,
    LabeledDataset,
    SplitPlan,
    SyntheticSpec,
    apply_u_one,
    apply_u_one_dataset,
    concat_datasets,
    generate_synthetic,
    load_dataset,
    save_dataset,
    split_forget_retain,
    split_train_val_test,
    _record_dtype,
)
from unforget.metrics import evaluate
from unforget.nn_core import ArchSpec, BatchNorm, Conv2D, Dense, Flatten, GlobalAvgPool, ReLU, init_model, loss_and_grad
from unforget.optim import TrainConfig, train_from_scratch
from unforget.unlearn import forget_gradient


def small_spec(**overrides):
    base = dict(
        num_patients=40,
        samples_per_patient=5,
        num_classes=3,
        feature_shape=(1, 4, 4),
        separations=(1.0, 0.7, 0.4),
        seed=11,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def datasets_equal(a: LabeledDataset, b: LabeledDataset) -> bool:
    if (a.task_kind, a.num_outputs, len(a)) != (b.task_kind, b.num_outputs, len(b)):
        return False
    return all(np.array_equal(ca, cb) for ca, cb in zip(a._columns(), b._columns()))


def constant_dataset(labels, task_kind, num_outputs, value=0.5, ids=None, patients=None, groups=0):
    """One row per label; features all ``value`` over a 1x2x2 image."""
    n = len(labels)
    ids = np.arange(n) if ids is None else ids
    return LabeledDataset(
        ids,
        np.full((n, 1, 2, 2), value),
        labels,
        ids if patients is None else patients,
        np.broadcast_to(groups, n),
        task_kind,
        num_outputs,
    )


def reference_generate(spec: SyntheticSpec):
    """The generator as a per-sample loop (one ``Generator.choice`` per draw,
    float64 pixels cast to float32 one sample at a time): the oracle the
    per-patient generator must match bit for bit. Returns the columns."""
    rng = np.random.default_rng(spec.seed)
    k = spec.num_outputs
    seps = np.asarray(spec.separations if spec.separations is not None else [1.0] * k, dtype=np.float64)
    weights = spec.class_weights
    if weights is None:
        weights = [1.0 / k] * k if spec.num_classes is not None else [0.5] * k
    weights = np.asarray(weights, dtype=np.float64)
    templates = rng.standard_normal((k,) + tuple(spec.feature_shape))
    templates -= templates.mean(axis=(1, 2, 3), keepdims=True)
    templates /= templates.std(axis=(1, 2, 3), keepdims=True)
    group_of, counts, features, labels = [], [], [], []
    groups = np.arange(len(spec.group_proportions))
    for _ in range(spec.num_patients):
        group_of.append(int(rng.choice(groups, p=np.asarray(spec.group_proportions))))
        spp = spec.samples_per_patient
        counts.append(spp if isinstance(spp, int) else int(rng.integers(spp[0], spp[1] + 1)))
        for _ in range(counts[-1]):
            if spec.num_classes is not None:
                true_class = int(rng.choice(k, p=weights))
                signal = seps[true_class] * templates[true_class]
                label = true_class
                if spec.label_noise_rate > 0 and rng.random() < spec.label_noise_rate:
                    label = (true_class + 1 + int(rng.integers(k - 1))) % k
            else:
                true_bits = (rng.random(k) < weights).astype(np.int8)
                signal = np.tensordot(true_bits * seps, templates, axes=1)
                label = true_bits
                if spec.label_noise_rate > 0:
                    flips = rng.random(k) < spec.label_noise_rate
                    label = np.where(flips, 1 - true_bits, true_bits).astype(np.int8)
            noise = rng.standard_normal(spec.feature_shape)
            pixels = 0.5 + 0.1 * (signal + noise)
            features.append(np.clip(pixels, 0.0, 1.0).astype(np.float32))
            labels.append(label)
    patients = np.repeat(np.arange(spec.num_patients), counts)
    return np.arange(len(labels)), np.array(features), np.array(labels), patients, np.repeat(group_of, counts)


def tiny_conv_arch(feature_shape, outputs):
    c = feature_shape[0]
    return ArchSpec(
        tuple(feature_shape),
        (Conv2D(c, 3, 3), BatchNorm(3), ReLU(), GlobalAvgPool(), Dense(3, outputs)),
        outputs,
    )


def float64_twin(ds: LabeledDataset) -> LabeledDataset:
    """The same dataset with its features held as float64."""
    ids, features, *rest = ds._columns()
    return LabeledDataset(ids, features.astype(np.float64), *rest, ds.task_kind, ds.num_outputs)


class TestGenerateSynthetic:
    @pytest.mark.parametrize("overrides", [
        {},
        {"samples_per_patient": (1, 7), "num_patients": 25},
        {"label_noise_rate": 0.3, "feature_shape": (2, 3, 5)},
        {"group_proportions": (0.2, 0.0, 0.8), "class_weights": (0.5, 0.3, 0.2), "label_noise_rate": 0.1},
        {"num_classes": None, "num_labels": 4, "separations": None, "samples_per_patient": (2, 4)},
        {"num_classes": None, "num_labels": 3, "class_weights": (0.1, 0.9, 0.5), "label_noise_rate": 0.2,
         "group_proportions": (0.3, 0.3, 0.4)},
    ])
    def test_bit_equal_to_per_sample_reference(self, overrides):
        spec = small_spec(**overrides)
        ds = generate_synthetic(spec)
        for got, want in zip(ds._columns(), reference_generate(spec)):
            assert got.shape == want.shape and np.array_equal(got, want)
        assert ds.feature_array().dtype == np.float32

    def test_searchsorted_draw_matches_generator_choice(self):
        # The generator replaces rng.choice(k, p=w) with one rng.random() and
        # a search of choice's own cumulative table; both must pick the same
        # index and leave the stream at the same place.
        for p in ((0.5, 0.3, 0.2), (0.2, 0.0, 0.8), (0.25,) * 4, (1.0,)):
            p = np.asarray(p)
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            a, b = np.random.default_rng(17), np.random.default_rng(17)
            picked = [int(a.choice(len(p), p=p)) for _ in range(5_000)]
            searched = [int(cdf.searchsorted(b.random(), side="right")) for _ in range(5_000)]
            assert picked == searched
            assert a.bit_generator.state == b.bit_generator.state

    def test_deterministic(self):
        assert datasets_equal(generate_synthetic(small_spec()), generate_synthetic(small_spec()))

    def test_seed_changes_data(self):
        a = generate_synthetic(small_spec())
        b = generate_synthetic(small_spec(seed=12))
        assert not datasets_equal(a, b)

    def test_features_in_unit_interval(self):
        ds = generate_synthetic(small_spec(separations=(9.0, 5.0, 2.0)))
        feats = ds.feature_array()
        assert feats.min() >= 0.0 and feats.max() <= 1.0

    def test_group_counts_binomial_bound(self):
        # One sample per patient makes sample-level group counts binomial.
        spec = small_spec(num_patients=10_000, samples_per_patient=1, seed=3)
        ds = generate_synthetic(spec)
        counts = np.bincount(ds.group_array(), minlength=2)
        bound = 3 * np.sqrt(10_000 * 0.25)
        assert abs(counts[0] - 5000) <= bound
        assert abs(counts[1] - 5000) <= bound

    def test_groups_shared_within_patient(self):
        ds = generate_synthetic(small_spec())
        for pid in set(ds.patient_array().tolist()):
            groups = set(ds.group_array()[ds.patient_array() == pid].tolist())
            assert len(groups) == 1

    def test_huge_separation_linearly_separable(self):
        # Train-and-measure oracle: a linear model on a near-noiseless
        # two-class corpus must reach test AUROC > 0.99.
        spec = SyntheticSpec(
            num_patients=300,
            samples_per_patient=3,
            num_classes=2,
            feature_shape=(1, 4, 4),
            separations=(30.0, 30.0),
            seed=5,
        )
        ds = generate_synthetic(spec)
        plan = split_train_val_test(ds, (0.7, 0.1, 0.2), seed=1)
        arch = ArchSpec((1, 4, 4), (Flatten(), Dense(16, 2)), 2)
        model, _ = train_from_scratch(
            arch, ds.subset(plan.train_ids), TrainConfig(epochs=6, lr0=0.01, loss_kind="ce"), 2
        )
        result = evaluate(model, ds.subset(plan.test_ids))
        assert result.macro_auroc > 0.99

    def test_multi_label_generation(self):
        spec = SyntheticSpec(
            num_patients=30,
            samples_per_patient=4,
            num_labels=5,
            feature_shape=(1, 4, 4),
            seed=9,
        )
        ds = generate_synthetic(spec)
        assert ds.task_kind == "multi_label"
        labels = ds.label_array()
        assert labels.shape == (120, 5)
        assert set(np.unique(labels)) <= {0.0, 1.0}

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError):
            small_spec(num_patients=0).validate()
        with pytest.raises(ValueError):
            SyntheticSpec(num_patients=5).validate()  # neither classes nor labels
        with pytest.raises(ValueError):
            small_spec(separations=(1.0, -1.0, 0.5)).validate()
        for samples_per_patient in (0, (0, 3), (4, 2)):
            with pytest.raises(ValueError, match="samples_per_patient"):
                small_spec(samples_per_patient=samples_per_patient).validate()

    @pytest.mark.parametrize("field, value", [
        ("class_weights", (np.nan, 0.5, 0.5)),
        ("class_weights", (np.inf, 0.0, 0.0)),
        ("group_proportions", (np.nan, 1.0)),
        ("group_proportions", (1.0, np.nan)),
        ("separations", (1.0, np.nan, 0.5)),
        ("separations", (1.0, np.inf, 0.5)),
        ("seed", -1),
    ])
    def test_non_finite_or_negative_spec_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            generate_synthetic(small_spec(**{field: value}))

    def test_non_finite_multi_label_rate_rejected(self):
        with pytest.raises(ValueError, match="class_weights"):
            multi_label_spec(class_weights=(0.5, np.nan, 0.5)).validate()


class TestUOne:
    def test_unknowns_become_positive(self):
        out = apply_u_one(np.array([1, 0, UNKNOWN, UNKNOWN, 1], dtype=np.int8))
        assert np.array_equal(out, [1, 0, 1, 1, 1])

    def test_known_vector_unchanged(self):
        vec = np.array([1, 0, 0, 1], dtype=np.int8)
        assert np.array_equal(apply_u_one(vec), vec)

    def test_all_unknown_becomes_all_ones(self):
        assert np.array_equal(apply_u_one(np.full(4, UNKNOWN, dtype=np.int8)), np.ones(4))

    @given(st.lists(st.sampled_from([0, 1, UNKNOWN]), min_size=1, max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, bits):
        once = apply_u_one(np.array(bits, dtype=np.int8))
        assert np.array_equal(apply_u_one(once), once)

    def test_dataset_level(self):
        ds = constant_dataset([[1, UNKNOWN], [UNKNOWN, 0]], "multi_label", 2, groups=[0, 1])
        assert ds.has_unknown()
        fixed = apply_u_one_dataset(ds)
        assert not fixed.has_unknown()
        assert np.array_equal(fixed.label_array(), [[1, 1], [1, 0]])


class TestSplitTrainValTest:
    def test_patients_stay_whole(self):
        ds = generate_synthetic(small_spec(samples_per_patient=7))
        plan = split_train_val_test(ds, (0.6, 0.2, 0.2), seed=4)
        membership = {}
        for name, ids in (("train", plan.train_ids), ("val", plan.val_ids), ("test", plan.test_ids)):
            for pid in ds.subset(ids).patient_array().tolist():
                membership.setdefault(pid, set()).add(name)
        assert all(len(splits) == 1 for splits in membership.values())

    def test_achieved_fractions_close(self):
        ds = generate_synthetic(small_spec(num_patients=150, samples_per_patient=(3, 9), seed=8))
        plan = split_train_val_test(ds, (0.6, 0.1, 0.3), seed=8)
        n = len(ds)
        assert abs(len(plan.train_ids) / n - 0.6) <= 0.02
        assert abs(len(plan.val_ids) / n - 0.1) <= 0.02
        assert abs(len(plan.test_ids) / n - 0.3) <= 0.02

    def test_all_train_requires_allow_empty(self):
        ds = generate_synthetic(small_spec())
        with pytest.raises(ValueError, match="allow_empty"):
            split_train_val_test(ds, (1.0, 0.0, 0.0), seed=1)
        plan = split_train_val_test(ds, (1.0, 0.0, 0.0), seed=1, allow_empty=True)
        assert len(plan.train_ids) == len(ds)
        assert not plan.val_ids and not plan.test_ids

    def test_deterministic(self):
        ds = generate_synthetic(small_spec())
        a = split_train_val_test(ds, (0.7, 0.1, 0.2), seed=21)
        b = split_train_val_test(ds, (0.7, 0.1, 0.2), seed=21)
        assert a == b

    def test_too_few_patients_rejected(self):
        ds = generate_synthetic(small_spec(num_patients=1))
        with pytest.raises(ValueError, match="too few patients"):
            split_train_val_test(ds, (0.4, 0.3, 0.3), seed=0)

    def test_bad_fractions_rejected(self):
        ds = generate_synthetic(small_spec())
        with pytest.raises(ValueError, match="fractions"):
            split_train_val_test(ds, (0.5, 0.2, 0.2), seed=0)


def five_patient_dataset(sizes=(10, 10, 10, 10, 10)):
    n = sum(sizes)
    patients = np.repeat(np.arange(len(sizes)), sizes)
    return constant_dataset(np.arange(n) % 2, "single_label", 2, patients=patients)


class TestSplitForgetRetain:
    def test_sample_level_exact_count(self):
        ds = five_patient_dataset(sizes=(20, 20, 20, 20, 20))
        plan = split_train_val_test(ds, (1.0, 0.0, 0.0), seed=0, allow_empty=True)
        out = split_forget_retain(plan, 0.15, "sample_level", seed=3, dataset=ds)
        assert len(out.forget_ids) == 15
        assert len(out.retain_ids) == 85

    def test_patient_level_first_crossing(self):
        # Five patients of ten samples, target 15: the seeded greedy walk
        # stops at the second patient, so the forget set holds 20 samples.
        ds = five_patient_dataset()
        plan = split_train_val_test(ds, (1.0, 0.0, 0.0), seed=0, allow_empty=True)
        out = split_forget_retain(plan, 0.30, "patient_level", seed=5, dataset=ds)
        assert len(out.forget_ids) == 20
        patients = set(ds.subset(out.forget_ids).patient_array().tolist())
        assert len(patients) == 2

    def test_patient_level_no_patient_in_both(self):
        ds = generate_synthetic(small_spec())
        plan = split_train_val_test(ds, (0.7, 0.1, 0.2), seed=2)
        out = split_forget_retain(plan, 0.25, "patient_level", seed=2, dataset=ds)
        forget_patients = set(ds.subset(out.forget_ids).patient_array().tolist())
        retain_patients = set(ds.subset(out.retain_ids).patient_array().tolist())
        assert not (forget_patients & retain_patients)

    def test_partition_exact(self):
        ds = generate_synthetic(small_spec())
        plan = split_train_val_test(ds, (0.7, 0.1, 0.2), seed=2)
        out = split_forget_retain(plan, 0.2, "sample_level", seed=9, dataset=ds)
        assert out.forget_ids | out.retain_ids == out.train_ids
        assert not (out.forget_ids & out.retain_ids)

    def test_degenerate_fractions_rejected(self):
        ds = five_patient_dataset()
        plan = split_train_val_test(ds, (1.0, 0.0, 0.0), seed=0, allow_empty=True)
        with pytest.raises(ValueError):
            split_forget_retain(plan, 0.001, "sample_level", seed=0, dataset=ds)
        with pytest.raises(ValueError):
            split_forget_retain(plan, 1.0, "sample_level", seed=0, dataset=ds)

    def test_plan_invariants_enforced(self):
        with pytest.raises(ValueError, match="overlap"):
            SplitPlan(
                train_ids=frozenset({1, 2}),
                val_ids=frozenset({2}),
                test_ids=frozenset(),
                forget_ids=frozenset(),
                forget_fraction=0.0,
                grouping="sample_level",
                seed=0,
            )
        with pytest.raises(ValueError, match="forget"):
            SplitPlan(
                train_ids=frozenset({1}),
                val_ids=frozenset(),
                test_ids=frozenset(),
                forget_ids=frozenset({9}),
                forget_fraction=0.5,
                grouping="sample_level",
                seed=0,
            )


# SHA-256 of the UNDS bytes written for small_spec() followed by those for
# its multi-label twin; any change to the file format or the generator moves it.
UNDS_PIN = "be1d5fb5a8eb90eb6ca103bcc4718b61ff73f75fab25b976ede7eaa724b616e0"


def multi_label_spec(**overrides):
    return small_spec(num_classes=None, num_labels=3, **overrides)


class TestDatasetFile:
    def test_bytes_pin(self, tmp_path):
        digest = hashlib.sha256()
        for spec in (small_spec(), multi_label_spec()):
            path = tmp_path / "data.unds"
            save_dataset(generate_synthetic(spec), path)
            digest.update(path.read_bytes())
        assert digest.hexdigest() == UNDS_PIN

    @pytest.mark.parametrize("spec", [small_spec, multi_label_spec])
    def test_every_byte_flip_and_truncation_loads_or_raises_value_error(self, tmp_path, spec):
        ds = generate_synthetic(spec(num_patients=2, samples_per_patient=3, feature_shape=(1, 2, 2)))
        path = tmp_path / "data.unds"
        save_dataset(ds, path)
        blob = path.read_bytes()
        corrupt = [blob[:n] for n in range(len(blob))]
        for i in range(len(blob)):
            for mask in (0x01, 0x20, 0x80):
                flipped = bytearray(blob)
                flipped[i] ^= mask
                corrupt.append(bytes(flipped))
        for data in corrupt:
            path.write_bytes(data)
            try:
                load_dataset(path)
            except ValueError:
                pass

    def test_round_trip_single_label(self, tmp_path):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "data.unds"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert datasets_equal(ds, loaded)
        n, (c, h, w) = len(loaded), loaded.feature_shape
        assert loaded.feature_array().dtype == np.float32
        assert loaded.feature_array().nbytes == n * c * h * w * 4
        assert loaded.feature_array().flags.c_contiguous and not loaded.feature_array().flags.writeable

    def test_round_trip_multi_label_with_unknowns(self, tmp_path):
        ds = constant_dataset(
            [[1, UNKNOWN, 0], [0, 0, UNKNOWN]], "multi_label", 3,
            value=0.25, ids=[3, 9], patients=[7, 8], groups=[1, 0],
        )
        path = tmp_path / "data.unds"
        save_dataset(ds, path)
        assert datasets_equal(ds, load_dataset(path))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.unds"
        path.write_bytes(b"WHAT" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_dataset(path)

    def test_empty_dataset_file_rejected(self, tmp_path):
        import struct

        path = tmp_path / "empty.unds"
        path.write_bytes(b"UNDS" + struct.pack("<IBIQIII", 1, 0, 3, 0, 1, 2, 2))
        with pytest.raises(ValueError, match="no samples"):
            load_dataset(path)

    def test_truncated_rejected(self, tmp_path):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "data.unds"
        save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(ValueError, match="truncated"):
            load_dataset(path)


    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "data.unds"
        save_dataset(generate_synthetic(small_spec()), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing bytes"):
            load_dataset(path)

    def test_id_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "data.unds"
        save_dataset(generate_synthetic(small_spec()), path)
        blob = bytearray(path.read_bytes())
        blob[33 + 7] |= 0x80  # top byte of the first record's u64 id, after the 33-byte header
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"2\*\*63"):
            load_dataset(path)

    @pytest.mark.parametrize("column,value", [("ids", -1), ("patients", -1), ("groups", 256)])
    def test_value_the_format_cannot_hold_rejected(self, tmp_path, column, value):
        ds = constant_dataset([0], "single_label", 2, **{column: [value]})
        with pytest.raises(ValueError, match="dataset files hold"):
            save_dataset(ds, tmp_path / "data.unds")


def multi_block_file(path, task_kind):
    """Save a dataset whose records fill three whole read blocks and part
    of a fourth; return the dataset, its record dtype and the rows per block."""
    multi = task_kind == "multi_label"
    shape = (1, 16, 16)
    dtype = _record_dtype(task_kind, 3, int(np.prod(shape)))
    per_block = _BLOCK_BYTES // dtype.itemsize
    n = 3 * per_block + 7
    rng = np.random.default_rng(2)
    ds = LabeledDataset(
        np.arange(n) * 3 + 1,
        rng.random((n, *shape), dtype=np.float32),
        rng.integers(-1, 2, size=(n, 3)) if multi else rng.integers(3, size=n),
        np.arange(n) // 4,
        rng.integers(256, size=n),
        task_kind,
        3,
    )
    save_dataset(ds, path)
    return ds, dtype, per_block


def patch_record(path, dtype, row, field, value):
    """Overwrite one u8 field of one record in a saved dataset file."""
    offset = _HEADER.size + row * dtype.itemsize + dtype.fields[field][1]
    with open(path, "r+b") as fh:
        fh.seek(offset)
        fh.write(np.uint64(value).tobytes())


class TestBlockReader:
    @pytest.mark.parametrize("task_kind", ["single_label", "multi_label"])
    def test_round_trip_over_several_blocks(self, tmp_path, task_kind):
        path = tmp_path / "data.unds"
        ds, _, per_block = multi_block_file(path, task_kind)
        assert len(ds) > 3 * per_block
        loaded = load_dataset(path)
        assert datasets_equal(ds, loaded)
        assert [c.dtype for c in loaded._columns()] == [c.dtype for c in ds._columns()]

    @pytest.mark.parametrize("field", ["id", "patient"])
    def test_value_beyond_int64_in_last_block_names_its_sample(self, tmp_path, field):
        path = tmp_path / "data.unds"
        ds, dtype, _ = multi_block_file(path, "single_label")
        row = len(ds) - 2
        sample = ds.ids()[row]
        patch_record(path, dtype, row, field, 2**63 + 5)
        named = 2**63 + 5 if field == "id" else sample
        with pytest.raises(ValueError, match=rf"^sample {named} id or patient >= 2\*\*63$"):
            load_dataset(path)

    def test_bad_feature_length_in_last_block_names_its_sample(self, tmp_path):
        path = tmp_path / "data.unds"
        ds, dtype, _ = multi_block_file(path, "multi_label")
        patch_record(path, dtype, len(ds) - 1, "feature_len", 255)
        with pytest.raises(ValueError, match=rf"^sample {ds.ids()[-1]} feature length != 256$"):
            load_dataset(path)

    def test_first_bad_feature_length_is_named(self, tmp_path):
        path = tmp_path / "data.unds"
        ds, dtype, per_block = multi_block_file(path, "single_label")
        for row in (len(ds) - 1, per_block + 3):
            patch_record(path, dtype, row, "feature_len", 0)
        with pytest.raises(ValueError, match=rf"^sample {ds.ids()[per_block + 3]} feature length"):
            load_dataset(path)

    @pytest.mark.parametrize("id_block,length_block", [(0, 3), (3, 0)])
    def test_feature_length_error_wins_over_an_id_error_in_another_block(
        self, tmp_path, id_block, length_block
    ):
        path = tmp_path / "data.unds"
        ds, dtype, per_block = multi_block_file(path, "single_label")
        patch_record(path, dtype, id_block * per_block + 1, "id", 2**64 - 1)
        length_row = length_block * per_block + 2
        patch_record(path, dtype, length_row, "feature_len", 1)
        with pytest.raises(ValueError, match=rf"^sample {ds.ids()[length_row]} feature length"):
            load_dataset(path)

    @pytest.mark.parametrize("task_kind", ["single_label", "multi_label"])
    def test_peak_memory_is_the_columns_plus_two_mib(self, tmp_path, task_kind):
        path = tmp_path / "data.unds"
        multi_block_file(path, task_kind)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            loaded = load_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = sum(c.nbytes for c in loaded._columns())
        assert peak - before <= columns + 2 * _BLOCK_BYTES

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("cut,error", [
        (0, None),
        (-1, r"^truncated dataset file: \d+ records need \d+ bytes$"),
        (+1, r"^trailing bytes after dataset payload$"),
    ], ids=["whole", "short", "long"])
    def test_pipe_is_read_and_checked_as_it_streams(self, tmp_path, cut, error):
        """A pipe has no size up front: it loads like the file it carries,
        and a short or long stream is named as truncated or trailing."""
        path = tmp_path / "data.unds"
        ds, _, _ = multi_block_file(path, "multi_label")
        data = path.read_bytes()
        data = data[:cut] if cut < 0 else data + b"\0" * cut
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)

        def feed():
            try:
                with open(fifo, "wb") as fh:
                    for start in range(0, len(data), 100_003):  # short, unaligned writes
                        fh.write(data[start:start + 100_003])
                        fh.flush()
            except BrokenPipeError:
                pass

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            if error is None:
                assert datasets_equal(ds, load_dataset(fifo))
            else:
                with pytest.raises(ValueError, match=error):
                    load_dataset(fifo)
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive()


class TestDatasetContainer:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            constant_dataset([0, 1], "single_label", 2, ids=[1, 1], patients=[0, 1])

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_features_outside_unit_interval_rejected(self, bad):
        features = np.full((1, 1, 2, 2), 0.5)
        features[0, 0, 1, 0] = bad
        with pytest.raises(ValueError, match="outside"):
            LabeledDataset([0], features, [0], [0], [0], "single_label", 2)

    @pytest.mark.parametrize("labels", [[[255, 0]], [[0.5, 1]]])
    def test_label_values_that_do_not_fit_rejected(self, labels):
        with pytest.raises(ValueError, match="do not fit"):
            constant_dataset(np.array(labels), "multi_label", 2)

    def test_subset_preserves_order(self):
        ds = generate_synthetic(small_spec())
        ids = ds.ids()[10:40:3]
        sub = ds.subset(ids)
        assert sub.ids() == sorted(ids)

    def test_features_keep_float32_and_upcast_only_when_mixed(self):
        ds = generate_synthetic(small_spec())
        n, (c, h, w) = len(ds), ds.feature_shape
        assert ds.feature_array().dtype == np.float32
        assert ds.feature_array().nbytes == n * c * h * w * 4
        assert not ds.feature_array().flags.writeable and ds.feature_array().flags.c_contiguous
        ids = ds.ids()
        part = ds.subset(ids[:50])
        assert part.feature_array().dtype == np.float32
        assert part.with_labels(part.label_array()).feature_array().dtype == np.float32
        assert concat_datasets(part, ds.subset(ids[50:])).feature_array().dtype == np.float32
        mixed = concat_datasets(part, float64_twin(ds.subset(ids[50:])))
        assert mixed.feature_array().dtype == np.float64
        assert np.array_equal(mixed.feature_array(), ds.feature_array())
        assert constant_dataset([0, 1], "single_label", 2).feature_array().dtype == np.float64

    @pytest.mark.parametrize("spec", [small_spec, multi_label_spec])
    def test_float32_features_compute_what_their_float64_twin_computes(self, tmp_path, spec):
        ds = generate_synthetic(spec(num_patients=60))
        twin = float64_twin(ds)
        assert twin.feature_array().dtype == np.float64
        model = init_model(tiny_conv_arch(ds.feature_shape, ds.num_outputs), 4)
        loss_kind = "ce" if ds.task_kind == "single_label" else "bce"
        rows = np.arange(0, len(ds), 7)
        labels = ds.label_array()[rows]
        for bn_mode in ("train", "eval"):
            loss32, grad32 = loss_and_grad(model, ds.feature_array()[rows], labels, loss_kind,
                                           bn_mode=bn_mode, update_stats=False)
            loss64, grad64 = loss_and_grad(model, twin.feature_array()[rows], labels, loss_kind,
                                           bn_mode=bn_mode, update_stats=False)
            assert loss32 == loss64 and np.array_equal(grad32, grad64)
        assert np.array_equal(forget_gradient(model, ds, loss_kind), forget_gradient(model, twin, loss_kind))
        assert evaluate(model, ds).to_dict() == evaluate(model, twin).to_dict()
        save_dataset(ds, tmp_path / "a.unds")
        save_dataset(twin, tmp_path / "b.unds")
        assert (tmp_path / "a.unds").read_bytes() == (tmp_path / "b.unds").read_bytes()

    def test_label_array_rejects_unknowns(self):
        ds = constant_dataset([[UNKNOWN, 1]], "multi_label", 2)
        with pytest.raises(ValueError, match="u-one"):
            ds.label_array()
