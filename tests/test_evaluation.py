import re
from collections import Counter
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from slipmil import core
from slipmil import pooling as pooling_module
from slipmil.core import EmbeddingMatrix, WsiBag
from slipmil.errors import (DimensionMismatchError, EmptyDatasetError,
                            InsufficientBagsError, InvalidSettingError,
                            LabelOutOfRangeError)
from slipmil.evaluation import (evaluate, run_ablation, run_single,
                                select_few_shot)
from slipmil.pooling import Pipeline, SlideFeature, TissuePromptSet, classify
from slipmil.trainer import TrainConfig, train_prompts
from slipmil.synth import generate, preset_spec

from conftest import random_bag, unit_rows
from oracles import oracle_classify


def class_set(rows):
    """C x d_v class rows as classify takes them."""
    return EmbeddingMatrix(rows).data


def classify_one(f, classes):
    """classify of a list of one slide feature."""
    return int(classify(f.columns.T[None], classes)[0])


class TestClassify:
    def test_tie_break_lowest_index(self):
        rows = unit_rows(np.random.default_rng(50), 3, 8)
        f = SlideFeature(rows.T)
        # diagonal scores all exactly 1
        assert classify_one(f, class_set(rows)) == 0

    def test_orthogonal_vs_aligned(self):
        e0 = np.array([1.0, 0.0, 0.0])
        e1 = np.array([0.0, 1.0, 0.0])
        e2 = np.array([0.0, 0.0, 1.0])
        f = SlideFeature(np.stack([e2, e1], axis=1))  # col0 orth to class0
        assert classify_one(f, class_set(np.stack([e0, e1]))) == 1

    def test_matches_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            rows = unit_rows(rng, 4, 8)
            f = SlideFeature(unit_rows(rng, 4, 8).T)
            got = classify_one(f, class_set(rows))
            want = oracle_classify(f.columns.T.tolist(), rows.tolist())
            assert got == want

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(52)
        rows = unit_rows(rng, 3, 8)
        f = SlideFeature(unit_rows(rng, 3, 8).T)
        base = classify_one(f, class_set(rows))
        # positive scaling of every class prompt scales all diagonal scores
        scaled = class_set(2.5 * rows)
        assert classify_one(f, scaled) == base

    def test_feature_columns_must_match_the_classes(self):
        rng = np.random.default_rng(55)
        features = unit_rows(rng, 2, 8)[None]  # one bag, two columns
        with pytest.raises(DimensionMismatchError,
                           match="^2 feature columns vs 3 classes$"):
            classify(features, class_set(unit_rows(rng, 3, 8)))

    def test_list_matches_each_feature(self):
        rng = np.random.default_rng(53)
        rows = np.eye(3, 8)
        features = [SlideFeature(unit_rows(rng, 3, 8).T) for _ in range(12)]
        features.append(SlideFeature(rows.T))  # a three-way tie
        partial = rows.copy()
        partial[0] = np.eye(1, 8, 3)[0]
        features.append(SlideFeature(partial.T))  # classes 1 and 2 tie
        got = classify(np.stack([f.columns.T for f in features]),
                       class_set(rows))
        assert got.tolist() == [
            oracle_classify(f.columns.T.tolist(), rows.tolist())
            for f in features]
        assert got[-2:].tolist() == [0, 1]


def bag_with_patches(n, label, pid):
    rng = np.random.default_rng(1234 + n + label)
    return random_bag(rng, n, 8, label=label, patient_id=pid)


class TestSelectFewShot:
    def test_full_class_selection(self):
        bags = [bag_with_patches(4, 0, "a"), bag_with_patches(5, 0, "b"),
                bag_with_patches(3, 1, "c"), bag_with_patches(6, 1, "d")]
        # every bag trains, so none is left to evaluate
        with pytest.raises(InsufficientBagsError,
                           match="shots=2 leaves no bag to evaluate"):
            select_few_shot(bags, 2)
        # "all" trains and evaluates on the whole dataset
        assert select_few_shot(bags, "all") == (bags, bags)

    def test_tie_break_by_order(self):
        bags = [bag_with_patches(10, 0, "a"), bag_with_patches(7, 0, "b"),
                bag_with_patches(7, 0, "c"), bag_with_patches(3, 0, "d"),
                bag_with_patches(1, 1, "e"), bag_with_patches(2, 1, "f")]
        train, pool = select_few_shot(bags, 1)
        # class 0 picks the 10; class 1 picks its only bag
        assert [b.patient_id for b in train[:1]] == ["a"]
        train2, _ = select_few_shot(bags, 2)
        ids0 = [b.patient_id for b in train2 if b.label == 0]
        assert ids0 == ["a", "b"]  # first 7 wins the tie

    def test_insufficient(self):
        bags = [bag_with_patches(4, 0, "a"), bag_with_patches(3, 1, "b")]
        with pytest.raises(InsufficientBagsError):
            select_few_shot(bags, 2)

    @pytest.mark.parametrize("shots", [0, -1])
    def test_shots_below_one(self, shots):
        # a setting out of range, as in TrainConfig, not a short class
        bags = [bag_with_patches(4, 0, "a"), bag_with_patches(3, 1, "b")]
        with pytest.raises(InvalidSettingError,
                           match=re.escape(f"shots must be an integer in "
                                           f"[1, inf) or 'all', got {shots}")):
            select_few_shot(bags, shots)

    @pytest.mark.parametrize("shots", [2.5, 2.0, "2", "x", None])
    def test_shots_not_an_integer(self, shots):
        # never truncated to a whole count, never a bare ValueError
        bags = [bag_with_patches(4, 0, "a"), bag_with_patches(3, 1, "b")]
        message = (f"shots must be an integer in [1, inf) or 'all', "
                   f"got {shots!r}")
        for call in (lambda: TrainConfig(shots=shots),
                     lambda: select_few_shot(bags, shots)):
            with pytest.raises(InvalidSettingError) as error:
                call()
            assert str(error.value) == message

    def test_shots_below_one_says_the_same_on_both_paths(self):
        bags = [bag_with_patches(4, 0, "a"), bag_with_patches(3, 1, "b")]
        messages = []
        for call in (lambda: TrainConfig(shots=0),
                     lambda: select_few_shot(bags, 0)):
            with pytest.raises(InvalidSettingError) as error:
                call()
            messages.append(str(error.value))
        assert messages == [
            "shots must be an integer in [1, inf) or 'all', got 0"] * 2

    def test_nested_selections(self):
        ds = generate(preset_spec("separable-easy", seed=3))
        previous = set()
        for shots in (1, 2, 4):
            train, _ = select_few_shot(list(ds.bags), shots)
            ids = {b.patient_id for b in train}
            assert previous <= ids
            previous = ids


def constant_pipeline(predictions):
    """Pipeline stub that replays a fixed patient_id -> class mapping."""
    class _Stub:
        class_names = ("a", "b")

        def predict_bags(self, bags):
            return [predictions[bag.patient_id] for bag in bags]

    return _Stub()


class TestEvaluate:
    def test_all_correct(self):
        bags = [bag_with_patches(3, 0, "p0"), bag_with_patches(3, 1, "p1")]
        metrics = evaluate(bags, constant_pipeline({"p0": 0, "p1": 1}))
        assert metrics["class_averaged_accuracy"] == 1.0
        assert metrics["bag_accuracy"] == 1.0

    def test_half_right_two_classes(self):
        bags = [bag_with_patches(3, 0, "p0"), bag_with_patches(3, 1, "p1")]
        metrics = evaluate(bags, constant_pipeline({"p0": 0, "p1": 0}))
        assert metrics["class_averaged_accuracy"] == 0.5
        assert metrics["confusion_matrix"] == [[1, 0], [1, 0]]

    def test_majority_vote_tie_goes_low(self):
        bags = [bag_with_patches(3, 1, "pX"), bag_with_patches(4, 1, "pX")]
        metrics = evaluate(bags, constant_pipeline({"pX": 0}))
        # both bags predicted 0; patient of class 1 predicted 0 -> wrong
        assert metrics["per_class_accuracy"][1] == 0.0

    def test_patient_majority(self):
        bags = [bag_with_patches(3, 0, "pA"), bag_with_patches(4, 0, "pA"),
                bag_with_patches(5, 0, "pA")]

        class _Alt:
            class_names = ("a", "b")

            def predict_bags(self, bags):
                return [0 if i < 2 else 1 for i in range(len(bags))]

        metrics = evaluate(bags, _Alt())
        assert metrics["class_averaged_accuracy"] == 1.0  # 2 of 3 votes

    def test_many_patients_match_per_patient_loop(self):
        # patients with 1-6 bags of mixed labels and predictions, 3 classes
        rng = np.random.default_rng(54)
        bags, preds = [], {}
        for p in range(40):
            for b in range(int(rng.integers(1, 7))):
                pid = f"patient{p:02d}"
                bag = random_bag(rng, 2, 4, label=int(rng.integers(3)),
                                 patient_id=pid)
                bags.append(bag)
                preds[id(bag)] = int(rng.integers(3))

        class _Replay:
            class_names = ("a", "b", "c")

            def predict_bags(self, bags):
                return [preds[id(bag)] for bag in bags]

        metrics = evaluate(bags, _Replay())
        correct, total = np.zeros(3), np.zeros(3)
        for pid in sorted({bag.patient_id for bag in bags}):
            mine = [bag for bag in bags if bag.patient_id == pid]
            votes = [sum(preds[id(bag)] == c for bag in mine)
                     for c in range(3)]
            labels = [sum(bag.label == c for bag in mine) for c in range(3)]
            pred = votes.index(max(votes))  # ties go low
            label = labels.index(max(labels))  # the majority label
            total[label] += 1
            correct[label] += pred == label
        assert metrics["num_patients"] == 40
        assert metrics["per_class_accuracy"] == (correct / total).tolist()
        assert metrics["class_averaged_accuracy"] == float(
            (correct / total).mean())
        confusion = np.zeros((3, 3), dtype=int)
        for bag in bags:
            confusion[bag.label, preds[id(bag)]] += 1
        assert metrics["confusion_matrix"] == confusion.tolist()
        assert metrics["bag_accuracy"] == float(
            np.trace(confusion) / len(bags))

    def test_label_outside_the_classes(self, weights):
        # a bag labelled 5 for three classes is refused before it is pooled
        bag = random_bag(np.random.default_rng(56), 3, 32, label=5)
        pipeline = Pipeline(weights=weights, tissues=None,
                            class_names=("a", "b", "c"), pooling="avg")
        with pytest.raises(LabelOutOfRangeError,
                           match=r"^label 5 outside \[0, 3\)$"):
            evaluate([bag], pipeline)

    def test_empty_list(self):
        metrics = evaluate([], constant_pipeline({}))
        assert metrics["num_bags"] == metrics["num_patients"] == 0
        assert metrics["confusion_matrix"] == [[0, 0], [0, 0]]
        assert metrics["class_averaged_accuracy"] == 0.0


class TestPipelineTissues:
    def test_only_slip_needs_tissues(self, weights):
        ds = generate(preset_spec("separable-easy", seed=3))
        tissues = TissuePromptSet.from_descriptions(weights,
                                                    ds.tissue_descriptions)
        bag = ds.bags[0]
        for pooling in ("zero", "avg", "topk"):
            without = Pipeline(weights=weights, tissues=None,
                               class_names=ds.class_names, pooling=pooling)
            with_set = Pipeline(weights=weights, tissues=tissues,
                                class_names=ds.class_names, pooling=pooling)
            assert (without.predict_bags([bag])[0]
                    == with_set.predict_bags([bag])[0])
        with pytest.raises(ValueError, match="tissue"):
            Pipeline(weights=weights, tissues=None,
                     class_names=ds.class_names, pooling="slip")

    def test_unknown_pooling_rejected_at_construction(self, weights):
        with pytest.raises(InvalidSettingError, match="bogus"):
            Pipeline(weights=weights, tissues=None,
                     class_names=("a", "b"), pooling="bogus")

    @pytest.mark.parametrize("tau", [float("inf"), 5e-324, 0.0, -1.0,
                                     float("nan")])
    @pytest.mark.parametrize("pooling", ["zero", "slip"])
    def test_out_of_range_tau_rejected_at_construction(self, weights, tau,
                                                       pooling):
        # the check TrainConfig makes; zero-shot at tau = inf used to
        # score every bag as class 0
        with pytest.raises(InvalidSettingError, match="tau"):
            Pipeline(weights=weights, tissues=None, class_names=("a", "b"),
                     pooling=pooling, tau=tau)


def test_slip_predict_builds_nothing_per_bag(weights, monkeypatch):
    """Bags are validated once, at ingestion: scoring one with slip pooling
    or zero-shot builds no container and scans no matrix, and `evaluate`
    pools a held-out set in one pass per group of bags. Zero-shot used to
    run a per-patch row softmax that did both for every bag."""
    ds = generate(preset_spec("needle", seed=0))
    tissues = TissuePromptSet.from_descriptions(weights,
                                                ds.tissue_descriptions)
    pipelines = [Pipeline(weights=weights, tissues=tissues,
                          class_names=ds.class_names, pooling=pooling)
                 for pooling in ("slip", "zero")]
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(core, "_as_matrix",
                        counting("_as_matrix", core._as_matrix))
    monkeypatch.setattr(core.EmbeddingMatrix, "__post_init__",
                        counting("EmbeddingMatrix",
                                 core.EmbeddingMatrix.__post_init__))
    for bag in ds.bags:
        for pipeline in pipelines:
            pipeline.predict_bags([bag])[0]
    assert counts == {}

    groups = []
    real_groups = pooling_module._groups

    def counting_groups(bags, width):
        for group in real_groups(bags, width):
            groups.append(len(group[3]))  # bags in the group
            yield group

    monkeypatch.setattr(pooling_module, "_groups", counting_groups)
    monkeypatch.setattr(pooling_module, "slip_correlation",
                        counting("slip_correlation",
                                 pooling_module.slip_correlation))
    _, held_out = select_few_shot(ds.bags, 4)
    assert sum(b.num_patches for b in held_out) <= pooling_module.GROUP_PATCHES
    for pipeline in pipelines:
        assert evaluate(held_out, pipeline)["num_bags"] == len(held_out)
    assert groups == [len(held_out)] * 2
    assert counts == {"slip_correlation": 1}
    assert not any(hasattr(module, "softmax_rows")
                   for module in (core, pooling_module))
    core.EmbeddingMatrix(ds.bags[0].patches.data)  # the counters do count
    assert counts == {"EmbeddingMatrix": 1, "_as_matrix": 1,
                      "slip_correlation": 1}


def test_run_single_refuses_an_empty_dataset():
    with pytest.raises(EmptyDatasetError, match="^dataset is empty$"):
        run_single([], ("a", "b"), ("t",), TrainConfig(seed=0))


class TestRunSingleTextSide:
    """A run encodes its text side once: training pools with the same
    Pipeline that evaluation then scores with, prompts added."""

    def test_tissues_encoded_once(self, monkeypatch):
        ds = generate(preset_spec("needle", seed=0))
        calls = []
        real = TissuePromptSet.from_descriptions.__func__

        def counting(cls, weights, descriptions):
            calls.append(tuple(descriptions))
            return real(cls, weights, descriptions)

        monkeypatch.setattr(TissuePromptSet, "from_descriptions",
                            classmethod(counting))
        run_single(ds.bags, ds.class_names, ds.tissue_descriptions,
                   TrainConfig(shots=2, epochs=2, seed=1))
        assert calls == [tuple(ds.tissue_descriptions)]

    def test_class_names_encoded_once_per_side(self, monkeypatch):
        # once frozen for pooling, once behind the trained context for
        # scoring; adding the prompts does not encode the raw names again
        ds = generate(preset_spec("needle", seed=0))
        contexts = []
        real = pooling_module.encode_texts

        def counting(weights, texts, context=None):
            if tuple(texts) == tuple(ds.class_names):
                contexts.append(context)
            return real(weights, texts, context)

        monkeypatch.setattr(pooling_module, "encode_texts", counting)
        prompts, _, _ = run_single(
            ds.bags, ds.class_names, ds.tissue_descriptions,
            TrainConfig(shots=2, epochs=2, seed=1, pooling="slip"))
        assert len(contexts) == 2
        assert contexts[0] is None
        assert contexts[1] is prompts.contexts[0]

    @pytest.mark.parametrize("pooling", ["slip", "topk", "avg"])
    def test_four_positional_call(self, pooling):
        # perfbench calls train_prompts(bags, tissues, names, cfg), and its
        # tracer reads the fourth argument as the TrainConfig
        ds = generate(preset_spec("needle", seed=0))
        cfg = TrainConfig(shots=2, epochs=3, seed=4, pooling=pooling)
        train, _ = select_few_shot(ds.bags, cfg.shots)
        prompts, history = train_prompts(train, ds.tissue_descriptions,
                                         ds.class_names, cfg)
        run_prompts, run_history, _ = run_single(
            ds.bags, ds.class_names, ds.tissue_descriptions, cfg)
        assert np.array_equal(prompts.contexts[0].vectors,
                              run_prompts.contexts[0].vectors)
        assert history.records == run_history.records


class TestRunAblation:
    def test_single_cell(self):
        ds = generate(preset_spec("separable-easy", seed=3))
        cfg = TrainConfig(epochs=2)
        rows = run_ablation(list(ds.bags), ds.class_names, ["avg"], [1],
                            [("t", list(ds.tissue_descriptions))], [0], cfg)
        assert len(rows) == 1
        assert np.isfinite(rows[0]["class_averaged_accuracy"])

    def test_zero_shot_constant_across_shots(self):
        ds = generate(preset_spec("separable-easy", seed=3))
        cfg = TrainConfig(epochs=2)
        rows = run_ablation(list(ds.bags), ds.class_names, ["zero"], [1, 4],
                            [("t", list(ds.tissue_descriptions))], [0], cfg)
        assert len(rows) == 2
        assert (rows[0]["class_averaged_accuracy"]
                == rows[1]["class_averaged_accuracy"])

    def test_zero_shot_scored_once_per_call(self, monkeypatch):
        import slipmil.evaluation as evaluation

        calls = []
        real = evaluation.evaluate

        def counting(bags, pipeline):
            calls.append(pipeline.pooling)
            return real(bags, pipeline)

        monkeypatch.setattr(evaluation, "evaluate", counting)
        ds = generate(preset_spec("separable-easy", seed=3))
        descriptions = list(ds.tissue_descriptions)
        rows = run_ablation(list(ds.bags), ds.class_names, ["zero", "avg"],
                            [1, 2], [("a", descriptions),
                                     ("b", descriptions[:2])], [0, 5],
                            TrainConfig(epochs=1))
        assert calls.count("zero") == 1
        assert calls.count("avg") == 8
        zero = [r for r in rows if r["pooling"] == "zero"]
        assert len(zero) == 8
        assert len({r["class_averaged_accuracy"] for r in zero}) == 1
        assert sorted({r["num_tissue_types"] for r in zero}) == [2, 3]

    def grid(self):
        ds = generate(preset_spec("separable-easy", seed=3))
        descriptions = list(ds.tissue_descriptions)
        tissue_sets = [("all", descriptions), ("two", descriptions[:2])]
        base = TrainConfig(epochs=2, tau=0.05)
        rows = run_ablation(list(ds.bags), ds.class_names,
                            ["slip", "zero", "avg"], [2, 1], tissue_sets,
                            [4, 0], base)
        return ds, tissue_sets, base, rows

    def test_rows_in_cell_order(self):
        # pooling outermost, then shots, tissue set and seed, each in the
        # order given
        _, _, _, rows = self.grid()
        assert [(r["pooling"], r["shots"], r["tissue_set"], r["seed"])
                for r in rows] == list(product(["slip", "zero", "avg"], [2, 1],
                                               ["all", "two"], [4, 0]))
        assert [r["num_tissue_types"] for r in rows] == [3, 3, 2, 2] * 6

    def test_trained_rows_match_run_single(self):
        # each trained row is run_single on its cell's TrainConfig and
        # tissue descriptions
        ds, tissue_sets, base, rows = self.grid()
        tissues = dict(tissue_sets)
        trained = [r for r in rows if r["pooling"] != "zero"]
        assert len(trained) == 16
        for row in trained:
            cfg = replace(base, pooling=row["pooling"], shots=row["shots"],
                          seed=row["seed"])
            _, history, metrics = run_single(
                ds.bags, ds.class_names, tissues[row["tissue_set"]], cfg)
            assert row["final_loss"] == float(history.records[-1][2])
            for key in ("class_averaged_accuracy", "bag_accuracy"):
                assert row[key] == metrics[key]
        # slip reads the tissue set, so its two sets train apart
        slip = [r["final_loss"] for r in rows if r["pooling"] == "slip"]
        assert slip[0] != slip[2]

    def test_grid_shape_and_determinism(self):
        ds = generate(preset_spec("separable-easy", seed=3))
        cfg = TrainConfig(epochs=2)
        args = (list(ds.bags), ds.class_names, ["slip", "avg"], [1, 2],
                [("t", list(ds.tissue_descriptions))], [0], cfg)
        rows1 = run_ablation(*args)
        rows2 = run_ablation(*args)
        assert len(rows1) == 4
        assert rows1 == rows2
