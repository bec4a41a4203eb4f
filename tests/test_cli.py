import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from slipmil.cli import REPORT_SETTINGS, main
from slipmil.core import COORD_MAX, MAX_HEATMAP_CELLS, EmbeddingMatrix, WsiBag
from slipmil.errors import InvalidSettingError
from slipmil.io_formats import (read_dataset, read_prompt_lines, read_report,
                                write_dataset)
from slipmil.pooling import check_tau
from slipmil.synth import SynthSpec, generate
from slipmil.trainer import TrainConfig

DROP = object()  # a parametrized value that deletes its key
OVERFLOWS = pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def synth_paths(tmp_path, capsys):
    out = tmp_path / "ds.bin"
    code, _, err = run(capsys, "synth", "--preset", "separable-easy",
                       "--seed", "3", "--out", str(out))
    assert code == 0, err
    return {
        "data": str(out),
        "tissues": str(out) + ".tissues.txt",
        "classes": str(out) + ".classes.txt",
        "dir": tmp_path,
    }


def train_report(synth_paths, capsys):
    report = synth_paths["dir"] / "r.json"
    code, _, err = run(capsys, "train", "--data", synth_paths["data"],
                       "--tissues", synth_paths["tissues"],
                       "--classes", synth_paths["classes"],
                       "--shots", "2", "--epochs", "1",
                       "--seed", "1", "--out", str(report))
    assert code == 0, err
    return report


def spy_training(monkeypatch) -> list:
    """A list that gains an entry each time a run trains prompts."""
    import slipmil.evaluation as evaluation

    calls = []
    real = evaluation.train_prompts
    monkeypatch.setattr(evaluation, "train_prompts",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


class TestSynthCommand:
    def test_writes_all_outputs(self, synth_paths, capsys):
        import os
        for key in ("data", "tissues", "classes"):
            assert os.path.exists(synth_paths[key])

    def test_summary_json(self, tmp_path, capsys):
        out = tmp_path / "d.bin"
        code, stdout, _ = run(capsys, "synth", "--preset", "needle",
                              "--seed", "0", "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["num_tissues"] == 6
        assert summary["bags"] == 60

    def test_seed_required(self, tmp_path, capsys):
        code, _, err = run(capsys, "synth", "--preset", "needle",
                           "--out", str(tmp_path / "d.bin"))
        assert code == 2
        assert "seed" in err

    def test_custom_flags(self, tmp_path, capsys):
        out = tmp_path / "d.bin"
        code, stdout, _ = run(capsys, "synth", "--seed", "5",
                              "--num-classes", "2", "--num-tissues", "4",
                              "--bags-per-class", "2", "--n-min", "3",
                              "--n-max", "5", "--out", str(out))
        assert code == 0
        summary = json.loads(stdout)
        assert summary["num_classes"] == 2 and summary["bags"] == 4

    @pytest.mark.parametrize("flags", [["--dv", "64"],
                                       ["--num-classes", "5", "--n-min", "2"]])
    def test_preset_rejects_spec_flags(self, tmp_path, capsys, flags):
        out = tmp_path / "d.bin"
        code, _, err = run(capsys, "synth", "--preset", "needle",
                           "--seed", "0", *flags, "--out", str(out))
        assert code == 2
        for flag in flags[::2]:
            assert flag in err
        assert not out.exists()

    def test_preset_rejects_spec_key_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("dv = 64\n")
        code, _, err = run(capsys, "synth", "--config", str(cfg),
                           "--preset", "needle", "--seed", "0",
                           "--out", str(tmp_path / "d.bin"))
        assert code == 2
        assert "--dv" in err

    def test_defaults_are_synth_spec_defaults(self, tmp_path, capsys):
        out = tmp_path / "d.bin"
        code, _, err = run(capsys, "synth", "--seed", "4", "--out", str(out))
        assert code == 0, err
        want = generate(SynthSpec(seed=4))
        bags, _ = read_dataset(out)
        assert len(bags) == len(want.bags)
        for got, ref in zip(bags, want.bags):
            rounded = ref.patches.data.astype(np.float32).astype(np.float64)
            assert np.array_equal(got.patches.data, rounded)
            assert got.coords == ref.coords and got.label == ref.label
        with open(str(out) + ".classes.txt", encoding="utf-8") as fh:
            assert [ln.strip() for ln in fh][1:] == list(want.class_names)


class TestTrainCommand:
    def test_round_trip(self, synth_paths, capsys):
        report = synth_paths["dir"] / "report.json"
        code, stdout, err = run(capsys, "train",
                                "--data", synth_paths["data"],
                                "--tissues", synth_paths["tissues"],
                                "--classes", synth_paths["classes"],
                                "--shots", "2", "--epochs", "5",
                                "--seed", "1", "--out", str(report))
        assert code == 0, err
        doc = read_report(report)
        assert doc["config"]["tau"] == 0.01
        assert doc["config"]["lr"] == 0.0002
        assert doc["config"]["shots"] == 2
        assert len(doc["history"]) == 5 * 6  # epochs x (2 shots x 3 classes)
        payload = json.loads(stdout)
        assert "class_averaged_accuracy" in payload["metrics"]

    def test_deterministic_reports(self, synth_paths, capsys):
        docs = []
        for name in ("a.json", "b.json"):
            report = synth_paths["dir"] / name
            code, _, err = run(capsys, "train",
                               "--data", synth_paths["data"],
                               "--tissues", synth_paths["tissues"],
                               "--classes", synth_paths["classes"],
                               "--shots", "2", "--epochs", "3",
                               "--seed", "7", "--out", str(report))
            assert code == 0, err
            doc = read_report(report)
            del doc["created_at"]
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_seed_required(self, synth_paths, capsys):
        code, _, err = run(capsys, "train",
                           "--data", synth_paths["data"],
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"],
                           "--out", str(synth_paths["dir"] / "r.json"))
        assert code == 2
        assert "seed" in err

    def test_missing_data_file(self, synth_paths, capsys):
        code, _, err = run(capsys, "train",
                           "--data", str(synth_paths["dir"] / "nope.bin"),
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"],
                           "--seed", "1",
                           "--out", str(synth_paths["dir"] / "r.json"))
        assert code == 2

    def test_class_count_mismatch(self, synth_paths, capsys):
        bad = synth_paths["dir"] / "two.txt"
        bad.write_text("a\nb\n")
        code, _, err = run(capsys, "train",
                           "--data", synth_paths["data"],
                           "--tissues", synth_paths["tissues"],
                           "--classes", str(bad), "--seed", "1",
                           "--out", str(synth_paths["dir"] / "r.json"))
        assert code == 2
        assert "class" in err

    def test_config_file_defaults(self, synth_paths, capsys):
        cfg = synth_paths["dir"] / "train.cfg"
        cfg.write_text("epochs = 2\nshots = 1\nseed = 9\n")
        report = synth_paths["dir"] / "cfg.json"
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--data", synth_paths["data"],
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"],
                           "--out", str(report))
        assert code == 0, err
        doc = read_report(report)
        assert doc["config"]["epochs"] == 2
        assert doc["config"]["shots"] == 1
        assert doc["config"]["seed"] == 9

    def test_overflowing_step_exits_2(self, synth_paths, capsys):
        # a learning rate so large that a class embedding norm overflows
        # used to train a zero prompt and exit 0
        report = synth_paths["dir"] / "r.json"
        code, stdout, err = run(capsys, "train",
                                "--data", synth_paths["data"],
                                "--tissues", synth_paths["tissues"],
                                "--classes", synth_paths["classes"],
                                "--shots", "4", "--epochs", "5",
                                "--lr", "1e200", "--seed", "0",
                                "--out", str(report))
        assert code == 2 and stdout == "" and not report.exists()
        assert "norm inf" in err and "internal error" not in err

    @pytest.mark.parametrize("flags, want", [
        ([], {"epochs": 2, "pooling": "avg"}),
        (["--epochs", "3"], {"epochs": 3, "pooling": "avg"}),
        (["--pooling", "topk"], {"epochs": 2, "pooling": "topk"}),
        (["--epochs", "3", "--pooling", "topk"], {"epochs": 3,
                                                  "pooling": "topk"}),
    ], ids=["config", "epochs-flag", "pooling-flag", "both-flags"])
    def test_command_line_overrides_config(self, synth_paths, capsys, flags,
                                           want):
        # --config is read as flags placed before the given ones, so a flag
        # on the command line wins over the same key in the file
        cfg = synth_paths["dir"] / "train.cfg"
        cfg.write_text("epochs = 2\npooling = avg\n")
        report = synth_paths["dir"] / "r.json"
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--data", synth_paths["data"],
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"], *flags,
                           "--shots", "2", "--seed", "1", "--out", str(report))
        assert code == 0, err
        config = read_report(report)["config"]
        assert {key: config[key] for key in want} == want

    def test_config_file_unknown_keys(self, synth_paths, capsys):
        # typos must not fall back silently to the flag defaults
        cfg = synth_paths["dir"] / "typo.cfg"
        cfg.write_text("epoch = 2\nsede = 3\n")
        report = synth_paths["dir"] / "typo.json"
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--data", synth_paths["data"],
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"],
                           "--seed", "1", "--out", str(report))
        assert code == 2
        assert "'epoch'" in err and "'sede'" in err
        assert not report.exists()

    @pytest.mark.parametrize("command, lines, message", [
        ("train", "epochs = 3\n# one more\nepochs = 1\n",
         "key 'epochs' is given twice, on lines 1 and 3"),
        ("synth", "n-min = 3\nn_min = 4\n",
         "key 'n_min' is given twice, on lines 1 and 2"),
    ], ids=["train", "synth-spellings"])
    def test_config_file_repeated_key(self, synth_paths, capsys, command,
                                      lines, message):
        # the last of two values used to win silently
        cfg = synth_paths["dir"] / "twice.cfg"
        cfg.write_text(lines)
        out = synth_paths["dir"] / "twice.out"
        files = (["--data", synth_paths["data"], "--tissues",
                  synth_paths["tissues"], "--classes", synth_paths["classes"]]
                 if command == "train" else [])
        code, stdout, err = run(capsys, command, "--config", str(cfg), *files,
                                "--seed", "1", "--out", str(out))
        assert code == 2 and stdout == ""
        assert f"error: {cfg}: {message}" in err
        assert not out.exists()

    def test_config_key_of_other_command(self, synth_paths, capsys):
        # a synth flag means nothing to train
        cfg = synth_paths["dir"] / "other.cfg"
        cfg.write_text("preset = needle\n")
        code, _, err = run(capsys, "train", "--config", str(cfg),
                           "--data", synth_paths["data"],
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"],
                           "--seed", "1",
                           "--out", str(synth_paths["dir"] / "o.json"))
        assert code == 2
        assert "'preset'" in err


class TestEvalCommand:
    def test_eval_from_report(self, synth_paths, capsys):
        report = synth_paths["dir"] / "r.json"
        code, stdout, err = run(capsys, "train",
                                "--data", synth_paths["data"],
                                "--tissues", synth_paths["tissues"],
                                "--classes", synth_paths["classes"],
                                "--shots", "2", "--epochs", "5",
                                "--seed", "1", "--out", str(report))
        assert code == 0, err
        train_metrics = json.loads(stdout)["metrics"]
        code, stdout, err = run(capsys, "eval",
                                "--data", synth_paths["data"],
                                "--report", str(report))
        assert code == 0, err
        eval_metrics = json.loads(stdout)["metrics"]
        # same split rebuilt from the stored shots value
        assert eval_metrics == train_metrics

    @pytest.mark.parametrize("synth_flags, message", [
        (["--num-classes", "4", "--num-tissues", "4"], "declares 4 classes"),
        (["--dv", "24"], "d_v=24"),
    ])
    def test_report_rejects_mismatched_dataset(self, synth_paths, capsys,
                                               synth_flags, message):
        report = synth_paths["dir"] / "r.json"
        code, _, err = run(capsys, "train", "--data", synth_paths["data"],
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"],
                           "--shots", "2", "--epochs", "1",
                           "--seed", "1", "--out", str(report))
        assert code == 0, err
        other = synth_paths["dir"] / "other.bin"
        code, _, err = run(capsys, "synth", "--seed", "5", *synth_flags,
                           "--out", str(other))
        assert code == 0, err
        code, stdout, err = run(capsys, "eval", "--data", str(other),
                                "--report", str(report))
        assert code == 2
        assert message in err and stdout == ""

    def test_report_rejects_zero_shot_flags(self, synth_paths, capsys):
        # the report fixes tau, d_t, the encoder and the class names
        report = train_report(synth_paths, capsys)
        code, stdout, err = run(capsys, "eval", "--data", synth_paths["data"],
                                "--report", str(report), "--tau", "5",
                                "--dt", "3", "--encoder-seed", "9",
                                "--classes", "/nonexistent")
        assert code == 2 and stdout == ""
        for flag in ("--tau", "--dt", "--encoder-seed", "--classes"):
            assert flag in err

    def test_report_rejects_zero_shot_key_in_config(self, synth_paths,
                                                    capsys):
        report = train_report(synth_paths, capsys)
        cfg = synth_paths["dir"] / "eval.cfg"
        cfg.write_text("tau = 5\n")
        code, stdout, err = run(capsys, "eval", "--config", str(cfg),
                                "--data", synth_paths["data"],
                                "--report", str(report))
        assert code == 2 and stdout == ""
        assert "--tau" in err

    def test_report_and_zero_shot_exclusive(self, synth_paths, capsys):
        report = train_report(synth_paths, capsys)
        code, stdout, err = run(capsys, "eval", "--data", synth_paths["data"],
                                "--report", str(report), "--zero-shot")
        assert code == 2 and stdout == ""
        assert "--report" in err and "--zero-shot" in err

    @pytest.mark.parametrize("path, value, message", [
        (("config",), [], "config must be a JSON object"),
        (("config", "pooling"), "bogus", "pooling"),
        (("config", "pooling"), "zero", "pooling"),  # it holds a context
        (("config", "topk_k"), DROP, "topk_k"),
        (("config", "d_v"), DROP, "d_v"),
        (("config", "tau"), "abc", "tau = 'abc'"),
        (("config", "epochs"), 2.5, "epochs = '2.5'"),
        (("config", "shots"), 0,
         "shots must be an integer in [1, inf) or 'all', got 0"),
        (("config", "d_v"), 24, "d_v=24"),
        (("class_names",), "abc", "class_names must be"),
        (("class_names",), [1, 2, 3], "class_names must be"),
        (("class_names",), [], "class_names must be"),
        (("class_names",), ["a", " ", "c"], "class_names must be"),
        (("class_names",), ["a", "b"], "declares 3 classes"),
        (("tissue_descriptions",), [5], "tissue_descriptions must be"),
        (("tissue_descriptions",), "gland", "tissue_descriptions must be"),
        (("context",), None, "one shared context"),
        (("context",), {"shared": True}, "one shared context"),
        (("context",), {"vectors": [[[0.0] * 16] * 4]}, "one shared context"),
        (("context",), {"shared": False, "vectors": [[[0.0] * 16] * 4]},
         "one shared context"),
        (("context",), {"shared": True, "vectors": [[[0.0] * 16] * 4] * 2},
         "one shared context"),
        (("context", "vectors"), [[[1.0] * 16] * 3 + [[1.0] * 15]],
         "context is ragged"),
        (("context", "vectors"), [[[1.0]]], "4 x 16 matrix"),
        (("context", "vectors"), [[[[1.0] * 16] * 4]], "4 x 16 matrix"),
        (("context", "vectors"), [[[1.0] * 16] * 3], "4 x 16 matrix"),
        (("context", "vectors"), [[]], "4 x 16 matrix"),
        (("context", "vectors"), [[[float("nan")] * 16] * 4], "finite"),
        (("context", "vectors"), [[["1.0"] * 16] * 4], "finite"),
        (("context", "vectors"), [[[None] * 16] * 4], "finite"),
        pytest.param(("context", "vectors"), [[[1e200] * 16] * 4], "norm inf",
                     marks=OVERFLOWS),
    ], ids=["config-list", "pooling-bogus", "pooling-zero", "no-topk_k",
            "no-d_v", "tau-abc", "epochs-2.5", "shots-0", "d_v-mismatch",
            "classes-str", "classes-int", "classes-empty",
            "classes-blank-name", "classes-count", "tissues-int",
            "tissues-str", "no-context", "no-vectors", "no-shared",
            "not-shared", "two-contexts", "ragged", "context-1x1",
            "context-3d", "context-3x16", "context-empty", "context-nan",
            "context-str", "context-null", "context-overflows"])
    def test_malformed_report_config(self, synth_paths, capsys, path, value,
                                     message):
        # every field train writes is checked when eval reads it back
        report = train_report(synth_paths, capsys)
        doc = json.loads(report.read_text())
        *parents, key = path
        block = doc
        for parent in parents:
            block = block[parent]
        if value is DROP:
            del block[key]
        else:
            block[key] = value
        report.write_text(json.dumps(doc))
        code, stdout, err = run(capsys, "eval", "--data", synth_paths["data"],
                                "--report", str(report))
        assert code == 2, err
        assert "internal error" not in err and stdout == ""
        assert message in err

    def test_context_length_zero_round_trip(self, synth_paths, capsys):
        # train stores a 0 x d_t context as [], which eval reads back
        report = synth_paths["dir"] / "r.json"
        code, stdout, err = run(capsys, "train", "--data", synth_paths["data"],
                                "--tissues", synth_paths["tissues"],
                                "--classes", synth_paths["classes"],
                                "--shots", "2", "--epochs", "1",
                                "--context-length", "0",
                                "--seed", "1", "--out", str(report))
        assert code == 0, err
        assert read_report(report)["context"]["vectors"] == [[]]
        train_metrics = json.loads(stdout)["metrics"]
        code, stdout, err = run(capsys, "eval", "--data", synth_paths["data"],
                                "--report", str(report))
        assert code == 0, err
        assert json.loads(stdout)["metrics"] == train_metrics

    def test_zero_shot_switch_in_config(self, synth_paths, capsys):
        flags = ["--data", synth_paths["data"]]
        want = run(capsys, "eval", *flags, "--zero-shot",
                   "--classes", synth_paths["classes"])
        cfg = synth_paths["dir"] / "eval.cfg"
        cfg.write_text(f"zero_shot = true\nclasses = {synth_paths['classes']}\n")
        assert run(capsys, "eval", "--config", str(cfg), *flags) == want
        cfg.write_text("zero_shot = yes\n")
        code, stdout, err = run(capsys, "eval", "--config", str(cfg), *flags)
        assert code == 2 and stdout == ""
        assert "zero_shot = 'yes' must be one of true, false" in err

    def test_zero_shot(self, synth_paths, capsys):
        code, stdout, err = run(capsys, "eval",
                                "--data", synth_paths["data"],
                                "--zero-shot",
                                "--classes", synth_paths["classes"])
        assert code == 0, err
        payload = json.loads(stdout)
        assert payload["mode"] == "zero-shot"
        assert payload["metrics"]["class_averaged_accuracy"] >= 0.9

    def test_zero_shot_needs_classes(self, synth_paths, capsys):
        code, _, err = run(capsys, "eval", "--data", synth_paths["data"],
                           "--zero-shot")
        assert code == 2

    def test_neither_mode(self, synth_paths, capsys):
        code, _, err = run(capsys, "eval", "--data", synth_paths["data"])
        assert code == 2


class TestAblateCommand:
    def test_grid(self, synth_paths, capsys):
        grid = synth_paths["dir"] / "grid.cfg"
        grid.write_text(
            f"data = {synth_paths['data']}\n"
            f"classes = {synth_paths['classes']}\n"
            f"tissues = {synth_paths['tissues']}\n"
            "poolings = slip,avg\n"
            "shots = 1,2\n"
            "seeds = 0\n"
            "epochs = 2\n"
        )
        out = synth_paths["dir"] / "rows.json"
        code, stdout, err = run(capsys, "ablate", "--grid", str(grid),
                                "--out", str(out))
        assert code == 0, err
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 4
        assert {r["pooling"] for r in rows} == {"slip", "avg"}
        assert "pooling" in stdout  # table header printed
        assert (synth_paths["dir"] / "rows.json.txt").exists()

    def test_missing_key(self, synth_paths, capsys):
        grid = synth_paths["dir"] / "grid.cfg"
        grid.write_text(f"data = {synth_paths['data']}\n")
        code, _, err = run(capsys, "ablate", "--grid", str(grid))
        assert code == 2
        assert "grid file missing" in err

    def test_repeated_key(self, synth_paths, capsys, monkeypatch):
        # seeds = 0 then seeds = 1 used to run seed 1 alone and exit 0
        grid = synth_paths["dir"] / "grid.cfg"
        grid.write_text(
            f"data = {synth_paths['data']}\n"
            f"classes = {synth_paths['classes']}\n"
            f"tissues = {synth_paths['tissues']}\n"
            "poolings = avg\nshots = 1\nseeds = 0\nepochs = 1\nseeds = 1\n")
        calls = spy_training(monkeypatch)
        out = synth_paths["dir"] / "rows.json"
        code, stdout, err = run(capsys, "ablate", "--grid", str(grid),
                                "--out", str(out))
        assert code == 2 and stdout == ""
        assert f"{grid}: key 'seeds' is given twice, on lines 6 and 8" in err
        assert calls == [] and not out.exists()

    def test_unknown_key(self, synth_paths, capsys):
        grid = synth_paths["dir"] / "grid.cfg"
        grid.write_text(
            f"data = {synth_paths['data']}\n"
            f"classes = {synth_paths['classes']}\n"
            f"tissues = {synth_paths['tissues']}\n"
            "poolings = avg\n"
            "shots = 1\n"
            "seeds = 0\n"
            "epoch = 2\n"
        )
        out = synth_paths["dir"] / "rows.json"
        code, _, err = run(capsys, "ablate", "--grid", str(grid),
                           "--out", str(out))
        assert code == 2
        assert "'epoch'" in err
        assert not out.exists()

    def test_shots_checked_before_training(self, synth_paths, capsys,
                                           monkeypatch):
        calls = spy_training(monkeypatch)
        grid = synth_paths["dir"] / "grid.cfg"
        grid.write_text(
            f"data = {synth_paths['data']}\n"
            f"classes = {synth_paths['classes']}\n"
            f"tissues = {synth_paths['tissues']}\n"
            "poolings = slip,avg,topk\n"
            "shots = 1,4,99\n"
            "seeds = 0,1\n"
            "epochs = 2\n"
        )
        out = synth_paths["dir"] / "rows.json"
        code, stdout, err = run(capsys, "ablate", "--grid", str(grid),
                                "--out", str(out))
        assert code == 2
        assert "need 99" in err and stdout == ""
        assert calls == []
        assert not out.exists()

    def test_pooling_checked_before_training(self, synth_paths, capsys,
                                             monkeypatch):
        # the bad name comes last, so the cells before it are valid
        calls = spy_training(monkeypatch)
        grid = synth_paths["dir"] / "grid.cfg"
        grid.write_text(
            f"data = {synth_paths['data']}\n"
            f"classes = {synth_paths['classes']}\n"
            f"tissues = {synth_paths['tissues']}\n"
            "poolings = avg,bogus\n"
            "shots = 1\n"
            "seeds = 0\n"
            "epochs = 2\n"
        )
        out = synth_paths["dir"] / "rows.json"
        code, stdout, err = run(capsys, "ablate", "--grid", str(grid),
                                "--out", str(out))
        assert code == 2 and stdout == ""
        assert "'bogus'" in err
        assert calls == []
        assert not out.exists()


@pytest.fixture
def one_bag_paths(tmp_path, capsys):
    """Two classes of one bag each: shots=1 trains on every bag."""
    out = tmp_path / "one.bin"
    code, _, err = run(capsys, "synth", "--seed", "0", "--num-classes", "2",
                       "--num-tissues", "2", "--bags-per-class", "1",
                       "--out", str(out))
    assert code == 0, err
    return {"data": str(out), "tissues": str(out) + ".tissues.txt",
            "classes": str(out) + ".classes.txt", "dir": tmp_path}


class TestEmptyEvaluationPool:
    """A few-shot split that trains on every bag leaves nothing to score:
    train, eval --report and ablate refuse it, train and ablate before any
    training, instead of reporting 0.0 accuracy."""

    def test_train(self, one_bag_paths, capsys, monkeypatch):
        calls = spy_training(monkeypatch)
        report = one_bag_paths["dir"] / "r.json"
        code, stdout, err = run(capsys, "train",
                                "--data", one_bag_paths["data"],
                                "--tissues", one_bag_paths["tissues"],
                                "--classes", one_bag_paths["classes"],
                                "--shots", "1", "--epochs", "2",
                                "--seed", "0", "--out", str(report))
        assert code == 2 and stdout == ""
        assert "shots=1 leaves no bag to evaluate" in err
        assert calls == []
        assert not report.exists()

    def test_eval_report(self, one_bag_paths, capsys):
        # a shots=1 report of a two-bag-per-class dataset, evaluated on
        # the one-bag dataset with the same classes and d_v
        two = one_bag_paths["dir"] / "two.bin"
        report = one_bag_paths["dir"] / "r.json"
        assert run(capsys, "synth", "--seed", "0", "--num-classes", "2",
                   "--num-tissues", "2", "--bags-per-class", "2",
                   "--out", str(two))[0] == 0
        code, _, err = run(capsys, "train", "--data", str(two),
                           "--tissues", str(two) + ".tissues.txt",
                           "--classes", str(two) + ".classes.txt",
                           "--shots", "1", "--epochs", "2",
                           "--seed", "0", "--out", str(report))
        assert code == 0, err
        code, stdout, err = run(capsys, "eval", "--data",
                                one_bag_paths["data"], "--report", str(report))
        assert code == 2 and stdout == ""
        assert "shots=1 leaves no bag to evaluate" in err

    def test_ablate(self, one_bag_paths, capsys, monkeypatch):
        calls = spy_training(monkeypatch)
        grid = one_bag_paths["dir"] / "grid.cfg"
        grid.write_text(
            f"data = {one_bag_paths['data']}\n"
            f"classes = {one_bag_paths['classes']}\n"
            f"tissues = {one_bag_paths['tissues']}\n"
            "poolings = zero,slip\n"
            "shots = 1\n"
            "seeds = 0\n"
            "epochs = 2\n"
        )
        out = one_bag_paths["dir"] / "rows.json"
        code, stdout, err = run(capsys, "ablate", "--grid", str(grid),
                                "--out", str(out))
        assert code == 2 and stdout == ""
        assert "shots=1 leaves no bag to evaluate" in err
        assert calls == []
        assert not out.exists()


@pytest.fixture(scope="module")
def needle_paths(tmp_path_factory):
    out = tmp_path_factory.mktemp("needle") / "needle.bin"
    assert main(["synth", "--preset", "needle", "--seed", "0",
                 "--out", str(out)]) == 0
    return {"data": str(out), "tissues": str(out) + ".tissues.txt",
            "classes": str(out) + ".classes.txt"}


@pytest.mark.parametrize("tau", ["1e-3", "1e-4", "1e-6"])
def test_slip_trains_and_evaluates_at_sharp_tau(needle_paths, tmp_path,
                                                capsys, tau):
    report = tmp_path / "r.json"
    code, _, err = run(capsys, "train", "--data", needle_paths["data"],
                       "--tissues", needle_paths["tissues"],
                       "--classes", needle_paths["classes"],
                       "--shots", "4", "--epochs", "5", "--tau", tau,
                       "--seed", "0", "--out", str(report))
    assert code == 0, err
    code, stdout, err = run(capsys, "eval", "--data", needle_paths["data"],
                            "--report", str(report))
    assert code == 0, err
    metrics = json.loads(stdout)["metrics"]
    assert metrics == read_report(report)["metrics"]


def accepted(tau: float) -> bool:
    try:
        check_tau(tau)
    except InvalidSettingError:
        return False
    return True


def smallest_tau() -> float:
    """The smallest tau that check_tau accepts."""
    lo, hi = 5e-324, 1.0  # check_tau rejects lo and accepts hi
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (lo, mid) if accepted(mid) else (mid, hi)
    return hi


TAU_FLOOR = smallest_tau()


@pytest.mark.parametrize("command", [
    # a nonzero gradient step at a tau this small moves the context past
    # the largest float, the typed `norm inf` error of an overflowing step,
    # so train runs at lr 0 here and the pooling logits alone are tested
    "train --tissues {tissues} --classes {classes} --shots 4 --epochs 2 "
    "--seed 0 --lr 0 --out {dir}/r.json",
    "eval --zero-shot --classes {classes}",
    "heatmap --tissues {tissues} --classes {classes} --bag 0 "
    "--class-index 0 --out-prefix {dir}/hm",
], ids=["train", "eval-zero-shot", "heatmap"])
@pytest.mark.parametrize("tau, code", [
    (math.nextafter(TAU_FLOOR, 0), 2), (TAU_FLOOR, 0),
    (math.nextafter(TAU_FLOOR, 1), 0), (6e-309, 2), (5.6e-309, 2),
], ids=["below", "floor", "above", "6e-309", "5.6e-309"])
def test_tau_floor(needle_paths, tmp_path, capsys, command, tau, code):
    # check_tau bounds the widest logit pooling forms, about 4 / tau: a
    # tau whose 1/tau alone was finite used to overflow there and exit 1
    argv = command.format(**needle_paths, dir=tmp_path).split()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, stdout, err = run(capsys, *argv, "--data", needle_paths["data"],
                               "--tau", repr(tau))
    assert got == code, err
    assert (stdout == "") == (code == 2) and "internal error" not in err
    if code == 2:
        assert (f"tau must be a finite real in (0, inf) with a finite "
                f"4.000000004/tau, got {tau!r}") in err
    else:
        assert err == ""


@pytest.mark.parametrize("flags", [
    "--shots 4 --epochs 2 --seed 0 --tau 1e-200",
    f"--shots 4 --epochs 2 --seed 0 --tau {TAU_FLOOR!r}",
    f"--pooling avg --shots 1 --epochs 1 --seed 5 --tau {TAU_FLOOR!r}",
], ids=["1e-200", "floor", "avg-floor"])
def test_tau_floor_default_lr(needle_paths, tmp_path, capsys, flags):
    # at the default lr a step at such a tau moves the context past the
    # largest float: a typed `norm inf` error where it overflows, with no
    # numpy warning before it and no norm of 0 read from an overflowed sum
    report = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, err = run(capsys, "train", "--data", needle_paths["data"],
                                "--tissues", needle_paths["tissues"],
                                "--classes", needle_paths["classes"],
                                *flags.split(), "--out", str(report))
    assert code == 2 and stdout == "" and not report.exists()
    assert "norm inf" in err and "internal error" not in err


class TestHeatmapCommand:
    def test_exports(self, synth_paths, capsys):
        prefix = synth_paths["dir"] / "hm"
        code, stdout, err = run(capsys, "heatmap",
                                "--data", synth_paths["data"],
                                "--bag", "0", "--class-index", "0",
                                "--tissues", synth_paths["tissues"],
                                "--classes", synth_paths["classes"],
                                "--out-prefix", str(prefix))
        assert code == 0, err
        payload = json.loads(stdout)
        assert len(payload["top5"]) == 5
        assert (synth_paths["dir"] / "hm.csv").exists()
        pgm = (synth_paths["dir"] / "hm.pgm").read_bytes()
        assert pgm.startswith(b"P5\n")

    def test_bag_out_of_range(self, synth_paths, capsys):
        code, _, err = run(capsys, "heatmap",
                           "--data", synth_paths["data"],
                           "--bag", "999", "--class-index", "0",
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"],
                           "--out-prefix",
                           str(synth_paths["dir"] / "x"))
        assert code == 2

    def test_classes_must_match_the_dataset(self, synth_paths, capsys):
        # a fourth class name for three classes, and a class index that
        # only the names file has
        classes = synth_paths["dir"] / "four.txt"
        names = Path(synth_paths["classes"]).read_text()
        classes.write_text(names + "extra\n")
        prefix = synth_paths["dir"] / "four"
        code, stdout, err = run(capsys, "heatmap",
                                "--data", synth_paths["data"], "--bag", "0",
                                "--class-index", "3",
                                "--tissues", synth_paths["tissues"],
                                "--classes", str(classes),
                                "--out-prefix", str(prefix))
        assert code == 2 and stdout == ""
        assert err == ("error: --classes: 4 class names, but the dataset "
                       "declares 3 classes\n")
        assert list(synth_paths["dir"].glob("four.*")) == [classes]

    def test_grid_too_large_to_draw(self, synth_paths, capsys):
        # two patches at opposite corners of the uint32 grid: the image
        # would be 2^32 x 2^32 pixels, so nothing is written
        data = synth_paths["dir"] / "far.bin"
        write_dataset(data, [WsiBag(
            EmbeddingMatrix(np.eye(2, 32)),
            coords=((0, 0), (COORD_MAX, COORD_MAX)), patient_id="p")])
        classes = synth_paths["dir"] / "far.classes.txt"  # its one class
        classes.write_text("far tissue\n")
        prefix = synth_paths["dir"] / "far"
        code, stdout, err = run(capsys, "heatmap", "--data", str(data),
                                "--bag", "0", "--class-index", "0",
                                "--tissues", synth_paths["tissues"],
                                "--classes", str(classes),
                                "--out-prefix", str(prefix))
        assert code == 2 and stdout == ""
        assert err == (f"error: heatmap grid {2 ** 32} x {2 ** 32} exceeds "
                       f"{MAX_HEATMAP_CELLS} cells\n")
        assert not any((synth_paths["dir"] / f"far.{ext}").exists()
                       for ext in ("csv", "pgm"))


BOM = b"\xef\xbb\xbf"


class TestTextInputs:
    """Prompt, key = value and report files are UTF-8 after an optional
    byte order mark; any other bytes are a user error naming the file."""

    def argv(self, paths, command, flag, bad):
        """`command` with `flag` given the file `bad`; writes under out.*"""
        out = str(paths["dir"] / "out")
        files = {"--data": paths["data"], "--tissues": paths["tissues"],
                 "--classes": paths["classes"]}
        if command == "ablate":
            return ["ablate", "--grid", bad, "--out", out + ".json"]
        if command == "eval":
            mode = ["--zero-shot"] if flag == "--classes" else []
            return ["eval", "--data", paths["data"], *mode, flag, bad]
        flags = {**files, flag: bad}
        tail = (["--seed", "1", "--epochs", "1", "--out", out + ".json"]
                if command == "train" else
                ["--bag", "0", "--class-index", "0", "--out-prefix", out])
        return [command, *(a for pair in flags.items() for a in pair), *tail]

    @pytest.mark.parametrize("command,flag", [
        ("train", "--tissues"), ("train", "--classes"), ("train", "--config"),
        ("eval", "--report"), ("eval", "--classes"), ("ablate", "--grid"),
        ("heatmap", "--tissues")])
    def test_non_utf8_byte_exits_2(self, synth_paths, capsys, command,
                                   flag):
        source = {"--report": train_report(synth_paths, capsys),
                  "--tissues": Path(synth_paths["tissues"]),
                  "--classes": Path(synth_paths["classes"])}.get(flag)
        raw = source.read_bytes() if source else b"seed = 1\nepochs = 1\n"
        bad = synth_paths["dir"] / "bad.in"
        bad.write_bytes(raw[:9] + b"\xff" + raw[9:])
        code, stdout, err = run(capsys,
                                *self.argv(synth_paths, command, flag,
                                           str(bad)))
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {bad}: not UTF-8 text (")
        assert list(synth_paths["dir"].glob("out*")) == []

    def test_byte_order_mark_is_not_a_prompt(self, needle_paths, tmp_path,
                                             capsys):
        copies = {}
        for key in ("tissues", "classes"):
            copies[key] = tmp_path / f"bom.{key}.txt"
            copies[key].write_bytes(BOM + Path(needle_paths[key]).read_bytes())
            assert (read_prompt_lines(copies[key])
                    == read_prompt_lines(needle_paths[key]))
        outputs = []
        for classes in (needle_paths["classes"], copies["classes"]):
            outputs.append(run(capsys, "eval", "--data", needle_paths["data"],
                               "--zero-shot", "--classes", str(classes)))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]

    def test_byte_order_mark_before_key_value_lines(self, synth_paths,
                                                    capsys):
        grid = synth_paths["dir"] / "grid.cfg"
        outputs = []
        for prefix in (b"", BOM):
            grid.write_bytes(prefix + (
                f"data = {synth_paths['data']}\n"
                f"classes = {synth_paths['classes']}\n"
                f"tissues = {synth_paths['tissues']}\n"
                "poolings = slip\nshots = 1\nseeds = 0\nepochs = 1\n"
            ).encode())
            outputs.append(run(capsys, "ablate", "--grid", str(grid)))
        assert outputs[0][0] == 0 and outputs[1] == outputs[0]


class TestParserSurface:
    def test_help_mentions_defaults(self, capsys):
        code = main(["train", "--help"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.01" in out and "0.0002" in out
        # every default the help names is TrainConfig's own
        for value in (TrainConfig.tau, TrainConfig.learning_rate,
                      TrainConfig.epochs, TrainConfig.context_length,
                      TrainConfig.topk_k, TrainConfig.d_t,
                      TrainConfig.encoder_seed, TrainConfig.pooling,
                      TrainConfig.shots):
            assert f"(default {value})" in out

    def test_unknown_command(self, capsys):
        code = main(["frobnicate"])
        assert code == 2

    def test_threads_flag_rejected(self, synth_paths, capsys):
        code, _, err = run(capsys, "train", "--threads", "2",
                           "--data", synth_paths["data"],
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"],
                           "--shots", "1", "--epochs", "1",
                           "--seed", "0",
                           "--out", str(synth_paths["dir"] / "x.json"))
        assert code == 2
        assert "--threads" in err

    def test_bad_threads(self, synth_paths, capsys):
        code, _, err = run(capsys, "train", "--threads", "0",
                           "--data", synth_paths["data"],
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"],
                           "--shots", "1", "--epochs", "1",
                           "--seed", "0",
                           "--out", str(synth_paths["dir"] / "x.json"))
        assert code == 2
        assert "--threads" in err

    @pytest.mark.parametrize("command, flags", [
        ("train", ["--tissues", "{tissues}", "--seed", "1",
                   "--out", "{dir}/r.json"]),
        ("eval", ["--zero-shot"]),
        ("heatmap", ["--tissues", "{tissues}", "--bag", "0",
                     "--class-index", "0", "--out-prefix", "{dir}/hm"]),
    ], ids=["train", "eval", "heatmap"])
    def test_dv_flag_rejected(self, synth_paths, capsys, command, flags):
        # d_v is read from the dataset; only synth takes --dv
        flags = [f.format(**synth_paths) for f in flags]
        code, stdout, err = run(capsys, command, "--dv", "32",
                                "--data", synth_paths["data"],
                                "--classes", synth_paths["classes"], *flags)
        assert code == 2 and stdout == ""
        assert "unrecognized arguments: --dv 32" in err


# each command's setting flags and the TrainConfig or SynthSpec default that
# a flag left out takes
ENCODER_FLAGS = {"--encoder-seed": TrainConfig.encoder_seed,
                 "--dt": TrainConfig.d_t}
SETTING_FLAGS = {
    "synth": {"--encoder-seed": SynthSpec.encoder_seed,
              "--dt": SynthSpec.d_t, "--dv": SynthSpec.d_v,
              "--num-classes": SynthSpec.num_classes,
              "--num-tissues": SynthSpec.num_tissues,
              "--n-min": SynthSpec.n_range[0],
              "--n-max": SynthSpec.n_range[1],
              "--bags-per-class": SynthSpec.bags_per_class,
              "--signal-fraction": SynthSpec.signal_fraction,
              "--noise-sigma": SynthSpec.noise_sigma},
    "train": {**ENCODER_FLAGS, "--tau": TrainConfig.tau,
              "--lr": TrainConfig.learning_rate,
              "--epochs": TrainConfig.epochs, "--shots": TrainConfig.shots,
              "--pooling": TrainConfig.pooling,
              "--context-length": TrainConfig.context_length,
              "--topk-k": TrainConfig.topk_k},
    "eval": {**ENCODER_FLAGS, "--tau": TrainConfig.tau},
    "heatmap": {**ENCODER_FLAGS, "--tau": TrainConfig.tau},
}
# a command line of each command, without its setting flags
SETTINGS_LINE = {
    "synth": "synth --seed 5 --out {dir}/s.bin",
    "train": "train {files} --seed 1 --out {dir}/r.json",
    "eval": "eval --data {data} --zero-shot --classes {classes}",
    "heatmap": "heatmap {files} --bag 1 --class-index 2 --out-prefix {dir}/h",
}


class TestSettingsSurface:
    """Every setting flag of every command names its default in --help,
    and is accepted as a --config key."""

    @pytest.mark.parametrize("command", sorted(SETTING_FLAGS))
    def test_help_names_defaults(self, capsys, command):
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        options = re.split(r"\n(?:options|optional arguments):\n", out)[1]
        entries = {}
        for entry in re.split(r"\n(?=  -)", options):
            words = entry.split()
            entries[words[0].rstrip(",")] = " ".join(words)
        for flag, default in SETTING_FLAGS[command].items():
            assert entries[flag].endswith(f"(default {default})"), flag

    @pytest.mark.parametrize("command", sorted(SETTING_FLAGS))
    def test_defaults_as_config_keys(self, synth_paths, capsys, command):
        # a --config file that sets every setting to its default changes
        # nothing that the command prints or writes
        work = synth_paths["dir"]
        files = FILES.format(**synth_paths)
        argv = SETTINGS_LINE[command].format(**synth_paths,
                                             files=files).split()
        cfg = work / "defaults.cfg"
        cfg.write_text("".join(f"{flag[2:].replace('-', '_')} = {default}\n"
                               for flag, default
                               in SETTING_FLAGS[command].items()))
        outputs = []
        for extra in ([], ["--config", str(cfg)]):
            code, stdout, err = run(capsys, *argv, *extra)
            assert code == 0, err
            written = {}
            # the files SETTINGS_LINE writes: s.bin*, r.json, h.csv, h.pgm
            for path in sorted(work.glob("[shr]*")):
                if path.name.endswith(".json"):
                    doc = json.loads(path.read_text())
                    doc.pop("created_at")
                    written[path.name] = doc
                else:
                    written[path.name] = path.read_bytes()
                path.unlink()
            outputs.append((stdout, written))
        assert outputs[0] == outputs[1]


class TestRealProcess:
    """`python -m slipmil.cli` exits with the codes main returns."""

    def slipmil(self, *argv):
        src = Path(__file__).resolve().parent.parent / "src"
        return subprocess.run([sys.executable, "-m", "slipmil.cli", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})

    def test_tiny_synth(self, tmp_path):
        out = tmp_path / "d.bin"
        done = self.slipmil("synth", "--seed", "0", "--num-classes", "2",
                            "--num-tissues", "2", "--bags-per-class", "1",
                            "--n-min", "2", "--n-max", "3", "--out", str(out))
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["bags"] == 2 and out.exists()

    def test_unknown_flag(self, tmp_path):
        done = self.slipmil("synth", "--seed", "0", "--bogus",
                            "--out", str(tmp_path / "d.bin"))
        assert done.returncode == 2
        assert "unrecognized arguments: --bogus" in done.stderr
        assert list(tmp_path.iterdir()) == []

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("bogus = 1\n")
        done = self.slipmil("synth", "--config", str(cfg), "--seed", "0",
                            "--out", str(tmp_path / "d.bin"))
        assert done.returncode == 2
        assert "unknown key(s) 'bogus'" in done.stderr
        assert list(tmp_path.iterdir()) == [cfg]


class TestParserKeepsNoState:
    """main builds its parser once per process, and a --config call leaves
    no default behind for the calls after it."""

    def test_train_after_config(self, synth_paths, capsys):
        cfg = synth_paths["dir"] / "train.cfg"
        cfg.write_text("epochs = 2\nshots = 1\ntau = 0.05\nlr = 0.001\n"
                       "pooling = avg\ncontext_length = 2\ntopk_k = 3\n"
                       "dt = 8\nencoder_seed = 4\n")
        files = ["--data", synth_paths["data"],
                 "--tissues", synth_paths["tissues"],
                 "--classes", synth_paths["classes"]]
        configured = synth_paths["dir"] / "configured.json"
        report = synth_paths["dir"] / "plain.json"
        code, _, err = run(capsys, "train", "--config", str(cfg), *files,
                           "--seed", "1", "--out", str(configured))
        assert code == 0, err
        assert read_report(configured)["config"]["pooling"] == "avg"
        code, _, err = run(capsys, "train", *files, "--seed", "1",
                           "--out", str(report))
        assert code == 0, err
        default = TrainConfig(seed=1)
        config = read_report(report)["config"]
        assert {key: config[key] for key in REPORT_SETTINGS} == {
            key: getattr(default, field)
            for key, field in REPORT_SETTINGS.items()}

    def test_synth_after_config(self, tmp_path, capsys):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text("num_classes = 2\nnum_tissues = 4\nn_min = 3\n"
                       "n_max = 5\nbags_per_class = 2\ndv = 16\n"
                       "signal_fraction = 0.5\nencoder_seed = 3\n")
        out = tmp_path / "d.bin"
        argv = ["synth", "--seed", "5", "--out", str(out)]
        summaries = []
        for extra in ([], ["--config", str(cfg)], []):
            code, stdout, err = run(capsys, *argv, *extra)
            assert code == 0, err
            summaries.append(json.loads(stdout))
        first, configured, last = summaries
        assert configured["num_classes"] == 2 and configured["d_v"] == 16
        assert last == first
        spec = SynthSpec(seed=5)
        assert (first["num_classes"], first["bags"], first["d_v"],
                first["n_range"], first["encoder_seed"]) == (
            spec.num_classes, spec.num_classes * spec.bags_per_class,
            spec.d_v, list(spec.n_range), spec.encoder_seed)

    def test_parser_built_once(self, capsys, monkeypatch):
        import slipmil.cli as cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            assert main(["train", "--help"]) == 0
            assert main(["frobnicate"]) == 2
            assert main(["eval", "--zero-shot"]) == 2
        finally:
            cli._parser.cache_clear()
        assert built == [1]


FILES = "--data {data} --tissues {tissues} --classes {classes}"
ZERO_SHOT = "eval --data {data} --zero-shot --classes {classes}"
HEATMAP = f"heatmap {FILES} --bag 0 --class-index 0 --out-prefix {{dir}}/o"
GRID = "ablate --grid {dir}/grid.cfg --out {dir}/o"
REPORT = "eval --data {data} --report {dir}/r.json"
# command line, then the grid line or report setting that is out of range
OUT_OF_RANGE = [
    pytest.param("synth --seed -1 --out {dir}/o", None, id="synth-seed"),
    pytest.param("synth --seed 1 --encoder-seed -3 --out {dir}/o", None,
                 id="synth-encoder-seed"),
    pytest.param("synth --seed 1 --noise-sigma inf --out {dir}/o", None,
                 id="synth-noise-sigma"),
    pytest.param(f"train {FILES} --seed -1 --out {{dir}}/o", None,
                 id="train-seed"),
    pytest.param(f"train {FILES} --seed 1 --encoder-seed -3 --out {{dir}}/o",
                 None, id="train-encoder-seed"),
    pytest.param(f"train {FILES} --seed 1 --tau inf --out {{dir}}/o", None,
                 id="train-tau"),
    pytest.param(f"train {FILES} --seed 1 --lr inf --out {{dir}}/o", None,
                 id="train-lr"),
    pytest.param(f"train {FILES} --tau 5e-324 --shots 4 --epochs 2 --seed 0 "
                 "--out {dir}/o", None, id="train-tau-reciprocal"),
    pytest.param(ZERO_SHOT + " --encoder-seed -3", None,
                 id="zero-shot-encoder-seed"),
    pytest.param(ZERO_SHOT + " --tau inf", None, id="zero-shot-tau"),
    pytest.param(ZERO_SHOT + " --tau 5e-324", None,
                 id="zero-shot-tau-reciprocal"),
    pytest.param(HEATMAP + " --encoder-seed -3", None,
                 id="heatmap-encoder-seed"),
    pytest.param(HEATMAP + " --tau inf", None, id="heatmap-tau"),
    pytest.param(GRID, "seeds = 0,-1", id="grid-seeds"),
    pytest.param(GRID, "encoder_seed = -1", id="grid-encoder-seed"),
    pytest.param(REPORT, "seed = -1", id="report-seed"),
    pytest.param(REPORT, "encoder_seed = -1", id="report-encoder-seed"),
]


class TestOutOfRangeSettings:
    """A setting outside its range is a user error (exit 2) naming the
    setting, never an internal error, and nothing is written."""

    @pytest.mark.parametrize("line, setting", OUT_OF_RANGE)
    def test_every_command(self, synth_paths, capsys, monkeypatch, line,
                           setting):
        # every command checks its settings before it trains or writes;
        # an ablate grid checks seed -1 before seed 0's row trains
        import slipmil.evaluation as evaluation

        work = synth_paths["dir"]
        key, _, value = (setting or "").partition(" = ")
        if line == GRID:
            grid = {"data": synth_paths["data"], "poolings": "avg",
                    "classes": synth_paths["classes"], "shots": "1",
                    "tissues": synth_paths["tissues"], "seeds": "0",
                    "epochs": "1", key: value}
            (work / "grid.cfg").write_text(
                "".join(f"{k} = {v}\n" for k, v in grid.items()))
        elif line == REPORT:
            report = train_report(synth_paths, capsys)
            doc = json.loads(report.read_text())
            doc["config"][key] = int(value)
            report.write_text(json.dumps(doc))
        calls = []
        monkeypatch.setattr(evaluation, "train_prompts",
                            lambda *a, **k: calls.append(1))
        code, stdout, err = run(capsys,
                                *line.format(**synth_paths).split())
        assert code == 2, err
        assert "internal error" not in err and stdout == ""
        assert calls == [] and list(work.glob("o*")) == []

    @pytest.mark.parametrize("flags", [
        ["--tau", "-1"], ["--epochs", "0"], ["--lr", "-1"],
        ["--context-length", "-1"], ["--topk-k", "0"], ["--dt", "0"],
    ], ids=lambda f: " ".join(f))
    def test_train(self, synth_paths, capsys, flags):
        report = synth_paths["dir"] / "r.json"
        code, stdout, err = run(capsys, "train", "--data", synth_paths["data"],
                                "--tissues", synth_paths["tissues"],
                                "--classes", synth_paths["classes"],
                                "--seed", "1", *flags, "--out", str(report))
        assert code == 2, err
        assert "internal error" not in err and stdout == ""
        assert not report.exists()

    @pytest.mark.parametrize("flags", [
        ["--num-classes", "0"], ["--noise-sigma", "-1"],
        ["--n-min", "5", "--n-max", "2"], ["--signal-fraction", "2"],
        ["--dt", "0"], ["--dv", "0"], ["--dv", "5000"],
        ["--bags-per-class", "0"],
    ], ids=lambda f: " ".join(f))
    def test_synth(self, tmp_path, capsys, flags):
        out = tmp_path / "d.bin"
        code, stdout, err = run(capsys, "synth", "--seed", "1", *flags,
                                "--out", str(out))
        assert code == 2, err
        assert "internal error" not in err and stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("line, flags", [
        ("epochs = 2.5", []), ("context_length = 2.5", []), ("dt = 8.5", []),
        ("seed = 1.5", []), ("topk_k = 3.5", ["--pooling", "topk"]),
        ("shots = 2.5", []), ("tau = abc", []),
    ], ids=lambda x: x if isinstance(x, str) else "")
    def test_train_config_file(self, synth_paths, capsys, line, flags):
        # a --config value is parsed by its flag's own type, as on the
        # command line; a seed of 1.5 is not trained as seed 1
        cfg = synth_paths["dir"] / "train.cfg"
        cfg.write_text(line + "\n")
        report = synth_paths["dir"] / "r.json"
        code, stdout, err = run(capsys, "train", "--config", str(cfg),
                                "--data", synth_paths["data"],
                                "--tissues", synth_paths["tissues"],
                                "--classes", synth_paths["classes"],
                                *(["--seed", "1"] if "seed" not in line
                                  else []), *flags, "--out", str(report))
        assert code == 2, err
        assert "internal error" not in err and stdout == ""
        flag = "--" + line.partition(" = ")[0].replace("_", "-")
        assert f"argument {flag}: invalid" in err
        assert not report.exists()

    @pytest.mark.parametrize("line, message", [
        ("n_min = 2.5", "argument --n-min: invalid int value"),
        ("num_classes = 2.5", "argument --num-classes: invalid int value"),
        ("preset = bogus", "preset = 'bogus' must be one of needle"),
    ])
    def test_synth_config_file(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "synth.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "d.bin"
        code, stdout, err = run(capsys, "synth", "--config", str(cfg),
                                "--seed", "1", "--out", str(out))
        assert code == 2, err
        assert "internal error" not in err and stdout == ""
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("epochs = 2.5", "epochs = '2.5'"),
        ("poolings = slip,bogus", "bogus"),
        ("seeds = 0,x", "seeds = 'x'"),
        pytest.param("shots = 0",
                     "shots must be an integer in [1, inf) or 'all', got 0",
                     id="shots = 0-shots below 1"),
        ("poolings = ", "grid.cfg: poolings lists no value"),
        ("poolings = ,", "grid.cfg: poolings lists no value"),
        ("shots = ", "grid.cfg: shots lists no value"),
        ("seeds = ", "grid.cfg: seeds lists no value"),
        ("tissues = ", "grid.cfg: tissues lists no value"),
    ])
    def test_grid(self, synth_paths, capsys, line, message):
        values = {
            "data": synth_paths["data"], "classes": synth_paths["classes"],
            "tissues": synth_paths["tissues"], "poolings": "avg",
            "shots": "1", "seeds": "0",
        }
        key, _, value = line.partition(" = ")
        values[key] = value
        grid = synth_paths["dir"] / "grid.cfg"
        grid.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        out = synth_paths["dir"] / "rows.json"
        code, stdout, err = run(capsys, "ablate", "--grid", str(grid),
                                "--out", str(out))
        assert code == 2, err
        assert "internal error" not in err and stdout == ""
        assert message in err
        assert not out.exists()
