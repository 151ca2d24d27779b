"""``evaluate_file``: scoring a dataset file as it streams must answer what
loading it and evaluating the loaded dataset answers, byte for byte, and
fail with the same message, while holding one block instead of the
features."""

import hashlib
import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

import unforget.metrics
from unforget.data import (
    _BLOCK_BYTES,
    _HEADER,
    LabeledDataset,
    _record_dtype,
    apply_u_one_dataset,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from unforget.harness import default_arch
from unforget.metrics import EvalResult, auroc_binary, evaluate, evaluate_file
from unforget.nn_core import EVAL_BATCH, ArchSpec, BatchNorm, Dense, Flatten, clone_with_params, forward, init_model

from test_data import multi_block_file, multi_label_spec, patch_record, small_spec


def frozen_evaluate(model, ds, set_name):
    """``evaluate`` as written before it was split into the chunked scoring
    and the summary, kept unchanged as the oracle."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    if model.arch.output_dim != ds.num_outputs:
        raise ValueError(f"model emits {model.arch.output_dim} outputs, dataset has {ds.num_outputs}")
    features = ds.feature_array()
    logits = np.concatenate([
        forward(model, features[start : start + EVAL_BATCH], "eval")
        for start in range(0, len(ds), EVAL_BATCH)
    ], axis=0)
    if ds.task_kind == "single_label":
        shifted = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        scores = expd / expd.sum(axis=1, keepdims=True)
    else:
        scores = 1.0 / (1.0 + np.exp(-logits))
    labels = ds.label_array()
    if ds.task_kind == "single_label":
        positives = labels[:, None] == np.arange(ds.num_outputs)[None, :]
    else:
        positives = labels > 0.5

    def per_class_of(rows):
        found, skipped = {}, []
        for c in range(positives.shape[1]):
            pos = positives[rows, c]
            if pos.all() or not pos.any():
                skipped.append(c)
                continue
            found[c] = auroc_binary(scores[rows, c], pos)
        return found, skipped

    per_class, skipped = per_class_of(slice(None))
    if not per_class:
        raise ValueError("no class had both positives and negatives")
    per_group = {}
    groups = ds.group_array()
    for g in sorted(set(groups.tolist())):
        group_per_class, group_skipped = per_class_of(groups == g)
        if group_per_class:
            per_group[g] = float(np.mean(list(group_per_class.values())))
        skipped.extend(f"group{g}:{c}" for c in group_skipped)
    return EvalResult(float(np.mean(list(per_class.values()))), per_class, per_group,
                      set_name, len(ds), tuple(skipped))


def answer(call) -> str:
    """The CLI's view of one evaluation: its JSON, or its error."""
    try:
        return json.dumps(call().to_dict(), sort_keys=True, indent=2)
    except (ValueError, FloatingPointError) as exc:
        return f"error: {exc}"


def assert_same_answer(model, path):
    expected = answer(lambda: frozen_evaluate(model, load_dataset(path), "data"))
    assert answer(lambda: evaluate_file(model, path, "data")) == expected
    return expected


def overflowing(model):
    """The model with parameters so large that its pass goes non-finite."""
    return clone_with_params(model, np.full_like(model.params, 1e300))


@pytest.fixture
def chunks(monkeypatch):
    """The batches ``metrics`` hands to ``forward``, as (rows, SHA-256 of
    their float64 values)."""
    seen = []

    def recording(model, batch, mode="eval"):
        values = np.asarray(batch, dtype=np.float64)
        seen.append((len(values), hashlib.sha256(values.tobytes()).hexdigest()))
        return forward(model, batch, mode)

    monkeypatch.setattr(unforget.metrics, "forward", recording)
    return seen


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing model's pass
class TestSameAnswer:
    @pytest.mark.parametrize("spec", [small_spec, multi_label_spec])
    def test_every_byte_flip_and_truncation(self, tmp_path, spec):
        ds = generate_synthetic(spec(num_patients=2, samples_per_patient=3, feature_shape=(1, 2, 2)))
        k = ds.num_outputs
        model = init_model(ArchSpec((1, 2, 2), (Flatten(), BatchNorm(4), Dense(4, k)), k), 0)
        path = tmp_path / "data.unds"
        save_dataset(ds, path)
        blob = path.read_bytes()
        corrupt = [blob[:n] for n in range(len(blob))]
        for i in range(len(blob)):
            for mask in (0x01, 0x20, 0x80):
                flipped = bytearray(blob)
                flipped[i] ^= mask
                corrupt.append(bytes(flipped))
        answers = set()
        for data in corrupt:
            path.write_bytes(data)
            for m in (model, overflowing(model)):
                answers.add(assert_same_answer(m, path))
        # The flips reach past the header checks into every later one.
        assert any(a.startswith("{") for a in answers)
        for message in ("feature length", "outside [0, 1]", "duplicate sample id", "2**63",
                        "non-finite values after"):
            assert any(message in a for a in answers), message

    @pytest.mark.parametrize("task_kind", ["single_label", "multi_label"])
    @pytest.mark.parametrize("patches,expected", [
        ([], None),
        ([(-2, "id", 2**63 + 5)], "2**63"),
        ([(-2, "patient", 2**63 + 5)], "2**63"),
        ([(-1, "feature_len", 255)], "feature length != 256"),
        ([(1, "id", 1)], "duplicate sample id 1"),
        ([(1500, "features", np.nan)], "outside [0, 1]"),
        ([(5, "features", 1.5)], "outside [0, 1]"),
        ([(2000, "label", 7)], None),
        # Errors in different blocks are raised in load_dataset's order.
        ([(5, "features", -1.0), (2900, "id", 4)], "duplicate sample id 4"),
        ([(5, "label", 9), (2900, "features", np.inf)], "outside [0, 1]"),
        ([(5, "features", 2.0), (2900, "id", 2**64 - 1)], "2**63"),
        ([(5, "id", 2**63), (2900, "feature_len", 0)], "feature length != 256"),
    ], ids=["clean", "id", "patient", "feature_len", "duplicate", "nan", "above_one", "label",
            "duplicate_after_features", "features_after_labels", "id_after_features",
            "feature_len_after_id"])
    def test_patched_multi_block_file(self, tmp_path, task_kind, patches, expected):
        path = tmp_path / "data.unds"
        ds, dtype, _ = multi_block_file(path, task_kind)
        for row, field, value in patches:
            row %= len(ds)
            if field in ("features", "label"):
                offset = _HEADER.size + row * dtype.itemsize + dtype.fields[field][1]
                with open(path, "r+b") as fh:
                    fh.seek(offset)
                    fh.write(np.asarray(value, dtype=dtype.fields[field][0].base).tobytes())
            else:
                patch_record(path, dtype, row, field, value)
        model = init_model(default_arch(), 0)
        result = assert_same_answer(model, path)
        if expected is not None:
            assert expected in result
        assert assert_same_answer(overflowing(model), path).startswith("error: ")

    @pytest.mark.parametrize("task_kind,outputs", [("single_label", 1), ("multi_label", 0)])
    def test_too_few_outputs_in_the_header(self, tmp_path, task_kind, outputs):
        path = tmp_path / "data.unds"
        records = np.zeros(300, dtype=_record_dtype(task_kind, outputs, 256))
        records["id"] = np.arange(300)
        records["feature_len"] = 256
        tag = int(task_kind == "multi_label")
        path.write_bytes(_HEADER.pack(b"UNDS", 1, tag, outputs, 300, 1, 16, 16) + records.tobytes())
        result = assert_same_answer(init_model(default_arch(), 0), path)
        assert result == f"error: {task_kind} needs num_outputs >= {outputs + 1}"

    def test_multi_label_summary(self, tmp_path):
        path = tmp_path / "data.unds"
        ds, _, _ = multi_block_file(path, "multi_label")
        save_dataset(apply_u_one_dataset(ds), path)
        assert assert_same_answer(init_model(default_arch(), 0), path).startswith("{")

    def test_row_count_not_a_multiple_of_the_eval_batch(self, tmp_path, chunks):
        spec = small_spec(num_patients=200, samples_per_patient=5, feature_shape=(1, 16, 16))
        ds = generate_synthetic(spec)
        assert len(ds) % EVAL_BATCH
        path = tmp_path / "data.unds"
        save_dataset(ds, path)
        model = init_model(default_arch(), 0)
        expected = evaluate(model, ds, "data")
        from_memory = list(chunks)
        chunks.clear()
        assert evaluate_file(model, path, "data") == expected
        assert chunks == from_memory
        assert [rows for rows, _ in chunks] == [EVAL_BATCH] * 3 + [len(ds) - 3 * EVAL_BATCH]

    def test_multi_block_file_passes_the_in_memory_chunks(self, tmp_path, chunks):
        path = tmp_path / "data.unds"
        ds, _, per_block = multi_block_file(path, "single_label")
        assert per_block % EVAL_BATCH  # read blocks do not end on a chunk boundary
        model = init_model(default_arch(), 0)
        expected = evaluate(model, ds, "data")
        from_memory = list(chunks)
        chunks.clear()
        assert evaluate_file(model, path, "data") == expected
        assert chunks == from_memory

    def test_output_count_mismatch_scores_nothing(self, tmp_path, chunks):
        path = tmp_path / "data.unds"
        multi_block_file(path, "single_label")
        model = init_model(ArchSpec((1, 16, 16), (Flatten(), Dense(256, 2)), 2), 0)
        assert assert_same_answer(model, path) == "error: model emits 2 outputs, dataset has 3"
        assert chunks == []

    def test_no_block_is_scored_from_a_failed_check_on(self, tmp_path, chunks):
        path = tmp_path / "data.unds"
        ds, dtype, _ = multi_block_file(path, "single_label")
        row = 1000  # in the second block of eval reads
        offset = _HEADER.size + row * dtype.itemsize + dtype.fields["features"][1]
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(np.float32(np.nan).tobytes())
        with pytest.raises(ValueError, match=f"^sample {ds.ids()[row]} features outside"):
            evaluate_file(init_model(default_arch(), 0), path)
        scored = sum(rows for rows, _ in chunks)
        assert 0 < scored <= row and scored % EVAL_BATCH == 0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("cut,error", [
    (0, None),
    (-1, r"^truncated dataset file: \d+ records need \d+ bytes$"),
], ids=["whole", "short"])
def test_pipe_is_scored_as_it_streams(tmp_path, cut, error):
    path = tmp_path / "data.unds"
    ds, _, _ = multi_block_file(path, "single_label")
    data = path.read_bytes()
    data = data[:cut] if cut else data
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                for start in range(0, len(data), 100_003):  # short, unaligned writes
                    fh.write(data[start:start + 100_003])
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    model = init_model(default_arch(), 0)
    try:
        if error is None:
            assert evaluate_file(model, fifo, "data") == evaluate(model, ds, "data")
        else:
            with pytest.raises(ValueError, match=error):
                evaluate_file(model, fifo, "data")
    finally:
        writer.join(timeout=60)
    assert not writer.is_alive()


PER_SAMPLE_BYTES = 56


def test_peak_grows_by_the_kept_columns_not_the_features(tmp_path):
    """Four times the blocks cost at most one more block, plus the columns
    kept per sample."""
    model = init_model(default_arch(), 0)
    rng = np.random.default_rng(3)
    peaks, sizes = [], []
    for blocks in (3, 12):
        path = tmp_path / f"{blocks}.unds"
        n = blocks * _BLOCK_BYTES // 1053  # the record size of a 1x16x16 single-label file
        save_dataset(LabeledDataset(
            np.arange(n), rng.random((n, 1, 16, 16), dtype=np.float32),
            rng.integers(3, size=n), np.arange(n) // 4, rng.integers(2, size=n), "single_label", 3,
        ), path)
        evaluate_file(model, path)  # warm up
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            evaluate_file(model, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - before)
        sizes.append(n)
    assert peaks[1] - peaks[0] <= _BLOCK_BYTES + PER_SAMPLE_BYTES * (sizes[1] - sizes[0])
