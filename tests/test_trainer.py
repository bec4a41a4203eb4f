import numpy as np
import pytest

from slipmil.encoder import (FrozenEncoderWeights, PromptContext,
                             encode_texts, token_sums)
from slipmil.errors import (
    EmptyDatasetError,
    InvalidSettingError,
    LabelOutOfRangeError,
    MissingClassError,
    ZeroVectorError,
)
from slipmil.pooling import SlideFeature, log_tissue_wsi_similarity
from slipmil import trainer
from slipmil.trainer import TrainConfig, TrainedPrompts, train_prompts
from slipmil.synth import generate, preset_spec

from conftest import random_bag, unit_rows
from oracles import (
    encode_context_sums,
    infonce_grad,
    infonce_loss,
    oracle_infonce,
    pooled_feature,
)


def feature(rng, d, c):
    cols = unit_rows(rng, c, d).T
    return SlideFeature(cols)


def class_set_with(weights, names, prompts):
    return encode_texts(weights, names, prompts.contexts[0])


def loss_of_context(weights, names, f, label, tau, vectors):
    prompts = TrainedPrompts([PromptContext(vectors)], shared=True)
    classes = class_set_with(weights, names, prompts)
    return infonce_loss(f, classes, label, tau)


def fd_context_grad(weights, names, f, label, tau, vectors, step=1e-6):
    grad = np.zeros_like(vectors)
    for idx in np.ndindex(*vectors.shape):
        plus = vectors.copy()
        plus[idx] += step
        minus = vectors.copy()
        minus[idx] -= step
        fp = loss_of_context(weights, names, f, label, tau, plus)
        fm = loss_of_context(weights, names, f, label, tau, minus)
        grad[idx] = (fp - fm) / (2 * step)
    return grad


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


NAMES3 = ("stroma rich lesion", "solid tumor sheet", "papillary lesion")


class TestInfonceLoss:
    def test_single_class_zero(self):
        rng = np.random.default_rng(30)
        f = feature(rng, 8, 1)
        classes = unit_rows(rng, 1, 8)
        assert infonce_loss(f, classes, 0, 0.01) == 0.0

    def test_uniform_logits_log4(self):
        # two identical columns against two identical prompts: all four
        # pair logits equal, so the loss is exactly log(4)
        v = np.zeros(6)
        v[0] = 1.0
        f = SlideFeature(np.stack([v, v], axis=1))
        classes = np.stack([v, v])
        loss = infonce_loss(f, classes, 0, 0.5)
        assert loss == pytest.approx(1.3862943611198906, abs=1e-12)

    def test_matches_oracle_sharp_tau(self):
        rng = np.random.default_rng(31)
        f = feature(rng, 8, 3)
        classes = unit_rows(rng, 3, 8)
        z = f.columns.T @ classes.T
        for label in range(3):
            got = infonce_loss(f, classes, label, 0.01)
            want = oracle_infonce(z.tolist(), label, 0.01)
            assert abs(got - want) < 1e-10

    def test_label_out_of_range(self):
        rng = np.random.default_rng(32)
        f = feature(rng, 8, 2)
        classes = unit_rows(rng, 2, 8)
        for label in (-1, 2):
            with pytest.raises(LabelOutOfRangeError):
                infonce_loss(f, classes, label, 0.01)

    def test_non_negative_and_bounded(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            c = int(rng.integers(2, 5))
            f = feature(rng, 8, c)
            classes = unit_rows(rng, c, 8)
            z = f.columns.T @ classes.T
            tau = 0.1
            loss = infonce_loss(f, classes, 0, tau)
            spread = float(z.max() - z.min())
            assert 0.0 <= loss <= np.log(c * c) + spread / tau + 1e-12


    def test_nearly_solved_step_keeps_relative_precision(self):
        # The label pair leads every other pair by at least 0.25 / tau = 25,
        # so the loss is below 8 e^-25 = 1.1e-10. log(total) with total
        # near 1 carries an absolute error near 1e-16, a relative one of
        # about 1e-6; log1p of the off-label terms keeps full precision.
        z = [[1.0, 0.75, 0.75], [0.75, 0.7, 0.74], [0.74, 0.73, 0.75]]
        for label, pairs in ((0, z), (2, [row[::-1] for row in z[::-1]])):
            # pair products first, then [h G] @ h^T = 1: every nu_c is 1
            products = [v for row in pairs for v in row] + [1.0] * 9
            loss, _ = trainer._infonce_coefficients(products, label, 0.01,
                                                    0.0, [1, 1, 1])
            want = oracle_infonce(pairs, label, 0.01)
            assert 1e-11 < want < 1e-9
            assert abs(loss - want) <= 1e-12 * want


class TestInfonceGrad:
    def test_single_class_zero_gradient(self, weights):
        rng = np.random.default_rng(35)
        f = feature(rng, 32, 1)
        prompts = TrainedPrompts(
            [PromptContext(rng.uniform(-0.01, 0.01, (2, 16)))], shared=True)
        classes = class_set_with(weights, ("only",), prompts)
        g = infonce_grad(f, classes, ("only",), 0, 0.01, prompts, weights)
        assert np.max(np.abs(g)) < 1e-15

    def test_matches_finite_differences(self, weights):
        rng = np.random.default_rng(36)
        f = feature(rng, 32, 3)
        vectors = rng.uniform(-0.1, 0.1, (2, 16))
        prompts = TrainedPrompts([PromptContext(vectors)], shared=True)
        classes = class_set_with(weights, NAMES3, prompts)
        g = infonce_grad(f, classes, NAMES3, 1, 0.1, prompts, weights)
        fd = fd_context_grad(weights, NAMES3, f, 1, 0.1, vectors)
        assert rel_err(g, fd) < 1e-5

    def test_matches_finite_differences_scaled_tau(self, weights):
        rng = np.random.default_rng(37)
        f = feature(rng, 32, 3)
        vectors = rng.uniform(-0.1, 0.1, (2, 16))
        prompts = TrainedPrompts([PromptContext(vectors)], shared=True)
        classes = class_set_with(weights, NAMES3, prompts)
        for tau in (0.1, 0.2):
            g = infonce_grad(f, classes, NAMES3, 2, tau, prompts, weights)
            fd = fd_context_grad(weights, NAMES3, f, 2, tau, vectors)
            assert rel_err(g, fd) < 1e-5

    def test_many_random_draws(self):
        worst = 0.0
        for seed in range(25):
            rng = np.random.default_rng(2000 + seed)
            w = FrozenEncoderWeights.create(int(rng.integers(1 << 31)),
                                            d_t=8, d_v=12)
            c = int(rng.integers(2, 4))
            names = tuple(f"lesion type {i}" for i in range(c))
            f = feature(rng, 12, c)
            vectors = rng.uniform(-0.2, 0.2, (int(rng.integers(1, 3)), 8))
            prompts = TrainedPrompts([PromptContext(vectors)], shared=True)
            classes = class_set_with(w, names, prompts)
            label = int(rng.integers(c))
            tau = float(rng.choice([0.05, 0.1, 0.5]))
            g = infonce_grad(f, classes, names, label, tau, prompts, w)
            fd = fd_context_grad(w, names, f, label, tau, vectors)
            worst = max(worst, rel_err(g, fd))
        assert worst < 1e-5


class TestSettings:
    @pytest.mark.parametrize("kwargs", [
        {"tau": 0.0}, {"tau": float("nan")}, {"tau": float("inf")},
        {"tau": 5e-324},
        {"learning_rate": -1e-9}, {"learning_rate": float("inf")},
        {"learning_rate": float("nan")}, {"epochs": 0}, {"pooling": "bogus"},
        {"context_length": -1}, {"topk_k": 0}, {"shots": 0}, {"seed": -1},
        {"encoder_seed": -3},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_out_of_range_config(self, kwargs):
        # one error type, still a ValueError for callers that catch that
        with pytest.raises(InvalidSettingError):
            TrainConfig(**kwargs)
        assert issubclass(InvalidSettingError, ValueError)

    @pytest.mark.parametrize("kwargs", [
        {"pooling": "zero"}, {"seed": 0, "encoder_seed": 0},
        {"seed": 10 ** 9 + 7, "encoder_seed": 2 ** 63},
        {"learning_rate": 0.0}, {"tau": 1e-300},
    ], ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()))
    def test_edge_of_range_config(self, kwargs):
        # zero-shot is a Pipeline of its own; seeds have no upper bound
        assert TrainConfig(**kwargs)

    def test_zero_shot_trains_nothing(self, weights):
        bags = small_dataset(np.random.default_rng(3))
        cfg = TrainConfig(pooling="zero", epochs=1)
        with pytest.raises(InvalidSettingError, match="zero-shot"):
            train_prompts(bags, TISSUES, NAMES3[:2], cfg,
                          pipeline=cfg.pipeline(weights.d_v, TISSUES,
                                                NAMES3[:2]))

    def test_prompts_hold_one_shared_context(self):
        ctx = PromptContext(np.zeros((2, 4)))
        assert TrainedPrompts([ctx]).contexts == (ctx,)
        for contexts, shared in (([ctx], False), ([ctx, ctx], True),
                                 ([], True)):
            with pytest.raises(InvalidSettingError):
                TrainedPrompts(contexts, shared=shared)


def small_dataset(rng, num_classes=2, bags_per_class=2, d=32):
    bags = []
    for c in range(num_classes):
        for b in range(bags_per_class):
            bags.append(random_bag(rng, int(rng.integers(3, 6)), d, label=c,
                                   patient_id=f"p{c}_{b}"))
    return bags


TISSUES = ["dense stroma", "tumor nests", "mucin pools"]
CLASSES = ["stromal lesion", "solid tumor"]


class TestTrainPrompts:
    def test_zero_lr_is_noop(self):
        rng = np.random.default_rng(40)
        bags = small_dataset(rng)
        cfg = TrainConfig(learning_rate=0.0, epochs=2, seed=5)
        prompts, _ = train_prompts(bags, TISSUES, CLASSES, cfg)
        init_rng = np.random.default_rng(5)
        expected = PromptContext.init(init_rng, cfg.context_length, cfg.d_t)
        assert np.array_equal(prompts.contexts[0].vectors, expected.vectors)

    def test_single_step_history(self):
        rng = np.random.default_rng(41)
        bags = [random_bag(rng, 3, 32, label=0, patient_id="a"),
                random_bag(rng, 3, 32, label=1, patient_id="b")]
        cfg = TrainConfig(epochs=1, seed=0)
        _, history = train_prompts(bags[:1] + bags[1:], TISSUES, CLASSES,
                                   cfg)
        assert len(history.records) == 2  # epochs x bags

    def test_history_length(self):
        rng = np.random.default_rng(42)
        bags = small_dataset(rng)
        cfg = TrainConfig(epochs=3, seed=0)
        _, history = train_prompts(bags, TISSUES, CLASSES, cfg)
        assert len(history.records) == 3 * len(bags)
        assert all(np.isfinite(l) for _, _, l in history.records)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            train_prompts([], TISSUES, CLASSES, TrainConfig(seed=0))

    def test_missing_class(self):
        rng = np.random.default_rng(43)
        bags = [random_bag(rng, 3, 32, label=0, patient_id="a")]
        with pytest.raises(MissingClassError):
            train_prompts(bags, TISSUES, CLASSES, TrainConfig(seed=0))

    def test_deterministic(self):
        rng = np.random.default_rng(44)
        bags = small_dataset(rng)
        cfg = TrainConfig(epochs=3, seed=11)
        p1, h1 = train_prompts(bags, TISSUES, CLASSES, cfg)
        p2, h2 = train_prompts(bags, TISSUES, CLASSES, cfg)
        assert np.array_equal(p1.contexts[0].vectors,
                              p2.contexts[0].vectors)
        assert h1.records == h2.records

    def test_single_step_descent(self, weights):
        # one tiny SGD step never increases the just-computed bag's loss
        rng = np.random.default_rng(45)
        for trial in range(10):
            f = feature(rng, 32, 3)
            vectors = rng.uniform(-0.1, 0.1, (2, 16))
            prompts = TrainedPrompts([PromptContext(vectors)], shared=True)
            classes = class_set_with(weights, NAMES3, prompts)
            label = int(rng.integers(3))
            before = infonce_loss(f, classes, label, 0.1)
            g = infonce_grad(f, classes, NAMES3, label, 0.1, prompts,
                             weights)
            stepped = TrainedPrompts(
                [PromptContext(vectors - 1e-8 * g)], shared=True)
            after = infonce_loss(
                f, class_set_with(weights, NAMES3, stepped), label, 0.1)
            assert after <= before + 1e-12

    def test_separable_preset_reaches_full_training_accuracy(self):
        from slipmil.evaluation import Pipeline, evaluate
        from slipmil.pooling import TissuePromptSet
        ds = generate(preset_spec("separable-easy", seed=3))
        bags = list(ds.bags)
        cfg = TrainConfig(epochs=50, seed=3)
        prompts, _ = train_prompts(bags, ds.tissue_descriptions,
                                   ds.class_names, cfg)
        w = FrozenEncoderWeights.create(cfg.encoder_seed, d_t=cfg.d_t,
                                        d_v=bags[0].patches.cols)
        tissues = TissuePromptSet.from_descriptions(w,
                                                    ds.tissue_descriptions)
        pipe = Pipeline(weights=w, tissues=tissues,
                        class_names=ds.class_names, prompts=prompts)
        metrics = evaluate(bags, pipe)
        assert metrics["class_averaged_accuracy"] == 1.0


def reference_train(bags, tissue_descriptions, class_names, cfg, weights):
    """The step-by-step loop: rebuild the prompted class set every step and
    take infonce_loss / infonce_grad from the public reference functions."""
    rng = np.random.default_rng(cfg.seed)
    context = PromptContext.init(rng, cfg.context_length, weights.d_t)
    tissues = encode_texts(weights, tissue_descriptions)
    frozen = encode_texts(weights, class_names)
    lw = log_tissue_wsi_similarity(frozen, tissues, cfg.tau)
    features = [pooled_feature(bag, tissues, frozen, cfg.pooling, cfg.tau,
                               cfg.topk_k, lw=lw) for bag in bags]
    records = []
    for epoch in range(cfg.epochs):
        for idx in rng.permutation(len(bags)):
            idx = int(idx)
            prompts = TrainedPrompts([context])
            classes = class_set_with(weights, class_names, prompts)
            label = bags[idx].label
            loss = infonce_loss(features[idx], classes, label, cfg.tau)
            grad = infonce_grad(features[idx], classes, class_names, label,
                                cfg.tau, prompts, weights)
            context = PromptContext(context.vectors - cfg.learning_rate * grad)
            records.append((epoch, idx, loss))
    return [context], records


def compare_with_reference(prompts, history, contexts, records):
    """Assert the same (epoch, index) sequence and contexts within 1e-12 of
    reference_train; return both loss sequences."""
    assert prompts.shared
    assert len(prompts.contexts) == len(contexts)
    for got, want in zip(prompts.contexts, contexts):
        assert got.vectors.shape == want.vectors.shape
        assert np.max(np.abs(got.vectors - want.vectors),
                      initial=0.0) <= 1e-12
    assert [r[:2] for r in history.records] == [r[:2] for r in records]
    return (np.array([r[2] for r in history.records]),
            np.array([r[2] for r in records]))


def context_drift(prompts, seed, context_length, d_t):
    init = PromptContext.init(np.random.default_rng(seed), context_length,
                              d_t)
    return np.abs(prompts.contexts[0].vectors - init.vectors).max()


# ids read shared context - positive pair counted - context length - pooling;
# the first two are always on
EQUIVALENCE_CASES = [(length, pooling) for length in (0, 4)
                     for pooling in ("slip", "topk", "avg")]
NAMES5 = NAMES3 + ("acinar glands", "micropapillary tufts")
SHARP_CASES = [(tau, c) for tau in (0.01, 0.001) for c in (2, 5)]


class TestClosedFormEquivalence:
    @pytest.mark.parametrize(
        "context_length,pooling", EQUIVALENCE_CASES,
        ids=[f"True-True-{length}-{pooling}"
             for length, pooling in EQUIVALENCE_CASES])
    def test_matches_step_by_step_reference(self, weights, pooling,
                                            context_length):
        rng = np.random.default_rng(47)
        bags = small_dataset(rng, num_classes=3)
        cfg = TrainConfig(tau=0.1, learning_rate=0.05, epochs=4, seed=13,
                          pooling=pooling, context_length=context_length,
                          topk_k=2)
        prompts, history = train_prompts(
            bags, TISSUES, NAMES3, cfg,
            pipeline=cfg.pipeline(weights.d_v, TISSUES, NAMES3))
        contexts, records = reference_train(bags, TISSUES, NAMES3, cfg,
                                            weights)
        losses, want_losses = compare_with_reference(prompts, history,
                                                     contexts, records)
        assert np.max(np.abs(losses - want_losses)) <= 1e-12
        if context_length:
            # the comparison is only meaningful if training moved the context
            assert context_drift(prompts, 13, context_length,
                                 weights.d_t) > 1e-6

    @pytest.mark.parametrize(
        "tau,num_classes", SHARP_CASES,
        ids=[f"tau={tau}-C={c}" for tau, c in SHARP_CASES])
    def test_sharp_tau_and_class_counts(self, weights, tau, num_classes):
        rng = np.random.default_rng(49)
        bags = small_dataset(rng, num_classes=num_classes)
        names = NAMES5[:num_classes]
        # lr / tau as in the cases above, so the context moves as far
        cfg = TrainConfig(tau=tau, learning_rate=0.5 * tau, epochs=4,
                          seed=17, pooling="slip", context_length=4)
        prompts, history = train_prompts(
            bags, TISSUES, names, cfg,
            pipeline=cfg.pipeline(weights.d_v, TISSUES, names))
        contexts, records = reference_train(bags, TISSUES, names, cfg,
                                            weights)
        losses, want_losses = compare_with_reference(prompts, history,
                                                     contexts, records)
        assert np.all(np.abs(losses - want_losses)
                      <= 1e-12 * np.maximum(1.0, np.abs(want_losses)))
        assert context_drift(prompts, 17, 4, weights.d_t) > 1e-6
        assert want_losses.max() > 1e-3

    def test_cancelled_class_embedding_raises(self, weights, monkeypatch):
        # A context whose row sum is minus class 1's token sum leaves that
        # class a zero embedding. The step must raise as the per-container
        # reference does, not train on NaN or pass silently.
        sums, lengths = token_sums(weights, NAMES3, 1)
        with pytest.raises(ZeroVectorError):
            encode_context_sums(weights, sums, lengths, -sums[1])
        monkeypatch.setattr(PromptContext, "init", classmethod(
            lambda cls, rng, length, d_t: cls(-sums[1:2])))
        bags = small_dataset(np.random.default_rng(48), num_classes=3)
        cfg = TrainConfig(context_length=1, epochs=1, seed=0)
        with pytest.raises(ZeroVectorError, match="norm 0.000e"):
            train_prompts(bags, TISSUES, NAMES3, cfg,
                          pipeline=cfg.pipeline(weights.d_v, TISSUES, NAMES3))

    def test_overflowed_class_embedding_raises(self, weights):
        # A huge step overflows nu_c to inf, which would make every class
        # logit 0; the step raises instead of training on it.
        bags = small_dataset(np.random.default_rng(48), num_classes=3)
        cfg = TrainConfig(learning_rate=1e200, epochs=2, seed=0)
        with (np.errstate(over="ignore"),
              pytest.raises(ZeroVectorError, match="norm inf")):
            train_prompts(bags, TISSUES, NAMES3, cfg,
                          pipeline=cfg.pipeline(weights.d_v, TISSUES, NAMES3))

    def test_unflagged_overflow_on_last_step_raises(self, weights,
                                                    monkeypatch):
        # A BLAS product can overflow to inf without a numpy flag; on the
        # last step no later norm check sees it, so the context would be
        # non-finite. Only the last step's context update s += coef @ stack
        # (the one np.dot called with a list) is made inf here.
        bags = small_dataset(np.random.default_rng(48), num_classes=3)
        cfg = TrainConfig(epochs=2, seed=0)
        steps = cfg.epochs * len(bags)
        real, updates = np.dot, []

        def dot(a, b, out=None):
            if out is not None:
                return real(a, b, out=out)
            product = real(a, b)
            updates.append(a)
            return (np.full_like(product, np.inf) if len(updates) == steps
                    else product)

        pipeline = cfg.pipeline(weights.d_v, TISSUES, NAMES3)
        monkeypatch.setattr(np, "dot", dot)
        with pytest.raises(ZeroVectorError, match="embedding norm inf"):
            train_prompts(bags, TISSUES, NAMES3, cfg, pipeline=pipeline)
        assert len(updates) == steps
        assert all(isinstance(a, list) for a in updates)
