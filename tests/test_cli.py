"""CLI tests: the four subcommands end to end, plus exit-code behavior."""

import json

import pytest

import unforget.cli
from unforget.cli import main
from unforget.data import generate_synthetic, load_dataset, save_dataset
from unforget.harness import config_to_dict
from unforget.nn_core import init_model, save_model
from unforget.optim import TrainConfig

from test_harness import multi_label_with_unknowns, tiny_arch, tiny_config, tiny_spec


def write_spec(path):
    spec_doc = {
        "num_patients": 40,
        "samples_per_patient": 5,
        "num_classes": 3,
        "num_labels": None,
        "class_weights": None,
        "group_proportions": [0.5, 0.5],
        "feature_shape": [1, 8, 8],
        "separations": [0.9, 0.5, 0.25],
        "label_noise_rate": 0.0,
        "seed": 4,
    }
    path.write_text(json.dumps(spec_doc))
    return spec_doc


class TestGenData:
    def test_writes_loadable_dataset(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        write_spec(spec_file)
        out_file = tmp_path / "data.unds"
        assert main(["gen-data", "--spec", str(spec_file), "--out", str(out_file)]) == 0
        ds = load_dataset(out_file)
        assert len(ds) == 200
        assert "200 samples" in capsys.readouterr().out

    def test_missing_spec_file_fails(self, tmp_path, capsys):
        rc = main(["gen-data", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_prints_auroc_json(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        write_spec(spec_file)
        data_file = tmp_path / "data.unds"
        main(["gen-data", "--spec", str(spec_file), "--out", str(data_file)])
        model_file = tmp_path / "model.unfg"
        save_model(init_model(tiny_arch(), 3), model_file)
        capsys.readouterr()  # drop gen-data output
        assert main(["eval", "--model", str(model_file), "--data", str(data_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"macro_auroc", "per_class", "per_group", "n_samples"}

    def test_mismatched_model_fails(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        doc = write_spec(spec_file)
        doc["num_classes"] = 4
        spec_file.write_text(json.dumps(doc))
        data_file = tmp_path / "data.unds"
        main(["gen-data", "--spec", str(spec_file), "--out", str(data_file)])
        model_file = tmp_path / "model.unfg"
        save_model(init_model(tiny_arch(), 3), model_file)
        assert main(["eval", "--model", str(model_file), "--data", str(data_file)]) == 1

    def test_unknown_labels_fail(self, tmp_path, capsys):
        # run resolves them by the U-Ones policy; eval refuses them.
        data_file = tmp_path / "multi.unds"
        save_dataset(multi_label_with_unknowns(), data_file)
        model_file = tmp_path / "model.unfg"
        save_model(init_model(tiny_arch(), 3), model_file)
        assert main(["eval", "--model", str(model_file), "--data", str(data_file)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: unknown label entries remain; apply the u-one policy first\n"
        assert captured.out == ""


class TestMallocSettings:
    """``main`` fixes glibc's mmap threshold at 32 MiB and its trim threshold
    at 64 MiB (mallopt parameters -3 and -1), and touches no other C library."""

    @pytest.fixture
    def eval_argv(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        write_spec(spec_file)
        data_file = tmp_path / "data.unds"
        main(["gen-data", "--spec", str(spec_file), "--out", str(data_file)])
        model_file = tmp_path / "model.unfg"
        save_model(init_model(tiny_arch(), 3), model_file)
        capsys.readouterr()
        return ["eval", "--model", str(model_file), "--data", str(data_file)]

    def run_with(self, monkeypatch, capsys, argv, libc):
        calls, loaded = [], []

        class FakeFunction:
            def __call__(self, param, value):
                calls.append((param, value))
                return 1

        class FakeLibc:
            mallopt = FakeFunction()

        def fake_cdll(name):
            loaded.append(name)
            return FakeLibc()

        monkeypatch.setattr(unforget.cli.ctypes, "CDLL", fake_cdll)
        monkeypatch.setattr(unforget.cli.platform, "libc_ver", lambda *a, **k: libc)
        assert main(argv) == 0
        return calls, loaded, capsys.readouterr().out

    def test_glibc_gets_both_thresholds_and_the_result_is_unchanged(self, monkeypatch, capsys, eval_argv):
        assert main(eval_argv) == 0
        plain = capsys.readouterr().out
        calls, loaded, out = self.run_with(monkeypatch, capsys, eval_argv, ("glibc", "2.36"))
        assert loaded == [None]
        assert calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]
        assert out == plain

    @pytest.mark.parametrize("libc", [("", ""), ("musl", "1.2")])
    def test_other_c_libraries_are_left_alone(self, monkeypatch, capsys, eval_argv, libc):
        assert main(eval_argv) == 0
        plain = capsys.readouterr().out
        calls, loaded, out = self.run_with(monkeypatch, capsys, eval_argv, libc)
        assert calls == [] and loaded == []
        assert out == plain


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    cfg = tiny_config(repeats=1, algorithms=("exact", "relabel"))
    config_file = tmp / "config.json"
    config_file.write_text(json.dumps(config_to_dict(cfg)))
    out_dir = tmp / "out"
    assert main(["run", "--config", str(config_file), "--out", str(out_dir)]) == 0
    return out_dir


class TestRunAndReport:
    def test_report_files_written(self, run_dir):
        assert (run_dir / "report.json").exists()
        assert (run_dir / "forget_size.csv").exists()
        assert (run_dir / "per_class_0.25.csv").exists()
        assert (run_dir / "fairness_0.25.csv").exists()

    def test_repeats_override(self, run_dir):
        doc = json.loads((run_dir / "report.json").read_text())
        assert doc["repeats"] == 1

    def test_report_json_format(self, run_dir, capsys):
        assert main(["report", "--in", str(run_dir), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "summary" in doc and "cells" in doc

    def test_report_csv_format(self, run_dir, capsys):
        assert main(["report", "--in", str(run_dir), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "forget_size.csv" in out

    def test_report_missing_dir_fails(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path / "void"), "--format", "json"]) == 1

    @pytest.mark.parametrize(
        "text,error",
        [
            ("{}", "report is missing key 'config'"),
            ("[]", "report must be a JSON object, got []"),
            ("not json", "{path} is not JSON: Expecting value: line 1 column 1 (char 0)"),
            ('{"config": {}, "base_seed": 0, "repeats": 1}', "report config is missing key 'dataset'"),
        ],
    )
    def test_malformed_report_json_named(self, tmp_path, capsys, text, error):
        (tmp_path / "report.json").write_text(text)
        assert main(["report", "--in", str(tmp_path), "--format", "json"]) == 1
        error = error.format(path=tmp_path / "report.json")
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_base_seed_override_changes_results(self, tmp_path):
        cfg = tiny_config(repeats=1, algorithms=("exact",))
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config_to_dict(cfg)))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", str(config_file), "--out", str(out_a), "--base-seed", "1"]) == 0
        assert main(["run", "--config", str(config_file), "--out", str(out_b), "--base-seed", "2"]) == 0
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        assert a["summary"] != b["summary"]


class TestArgumentErrors:
    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
