import json

import numpy as np
import pytest

from slipmil.cli import main
from slipmil.io_formats import read_dataset, read_report
from slipmil.synth import SynthSpec, generate
from slipmil.trainer import TrainConfig

DROP = object()  # a parametrized value that deletes its key


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

    def _train(self, synth_paths, capsys):
        report = synth_paths["dir"] / "r.json"
        code, _, err = run(capsys, "train", "--data", synth_paths["data"],
                           "--tissues", synth_paths["tissues"],
                           "--classes", synth_paths["classes"],
                           "--shots", "2", "--epochs", "1",
                           "--seed", "1", "--out", str(report))
        assert code == 0, err
        return report

    def test_report_rejects_zero_shot_flags(self, synth_paths, capsys):
        # the report fixes tau, d_t, the encoder and the class names
        report = self._train(synth_paths, capsys)
        code, stdout, err = run(capsys, "eval", "--data", synth_paths["data"],
                                "--report", str(report), "--tau", "5",
                                "--dt", "3", "--encoder-seed", "9",
                                "--classes", "/nonexistent")
        assert code == 2 and stdout == ""
        for flag in ("--tau", "--dt", "--encoder-seed", "--classes"):
            assert flag in err

    def test_report_rejects_zero_shot_key_in_config(self, synth_paths,
                                                    capsys):
        report = self._train(synth_paths, capsys)
        cfg = synth_paths["dir"] / "eval.cfg"
        cfg.write_text("tau = 5\n")
        code, stdout, err = run(capsys, "eval", "--config", str(cfg),
                                "--data", synth_paths["data"],
                                "--report", str(report))
        assert code == 2 and stdout == ""
        assert "--tau" in err

    def test_report_and_zero_shot_exclusive(self, synth_paths, capsys):
        report = self._train(synth_paths, capsys)
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
        (("config", "shots"), 0, "shots must be >= 1"),
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
    ], ids=["config-list", "pooling-bogus", "pooling-zero", "no-topk_k",
            "no-d_v", "tau-abc", "epochs-2.5", "shots-0", "d_v-mismatch",
            "classes-str", "classes-int", "classes-empty",
            "classes-blank-name", "classes-count", "tissues-int",
            "tissues-str", "no-context", "no-vectors", "no-shared",
            "not-shared", "two-contexts", "ragged", "context-1x1",
            "context-3d", "context-3x16", "context-empty", "context-nan",
            "context-str", "context-null"])
    def test_malformed_report_config(self, synth_paths, capsys, path, value,
                                     message):
        # every field train writes is checked when eval reads it back
        report = self._train(synth_paths, capsys)
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
        import slipmil.evaluation as evaluation

        calls = []
        real = evaluation.train_prompts
        monkeypatch.setattr(evaluation, "train_prompts",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
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


class TestOutOfRangeSettings:
    """A setting outside its range is a user error (exit 2) naming the
    setting, never an internal error, and nothing is written."""

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
        ("shots = 0", "shots must be >= 1"),
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
