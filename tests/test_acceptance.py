"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line
on the real stdout (visible even under pytest capture). Tolerances are
pinned in the assertions.
"""
import json
import time

import numpy as np

from slipmil.cli import main as cli_main
from slipmil.core import EmbeddingMatrix, WsiBag
from slipmil.encoder import FrozenEncoderWeights, PromptContext, encode_text
from slipmil.errors import FormatError
from slipmil.evaluation import (
    Pipeline,
    evaluate,
    run_single,
    select_few_shot,
)
from slipmil.io_formats import read_dataset, read_report, write_dataset
from slipmil.pooling import (
    ClassPromptSet,
    SlideFeature,
    TissuePromptSet,
    average_features,
    log_tissue_wsi_similarity,
    slip_correlation,
    slip_features,
    topk_features,
)
from slipmil.synth import generate, preset_spec
from slipmil.trainer import TrainConfig, TrainedPrompts, train_prompts

from conftest import random_bag, unit_rows
from oracles import (
    encode_text_grad,
    infonce_grad,
    infonce_loss,
    oracle_correlation,
    oracle_infonce,
    oracle_similarity,
    oracle_slip_pool,
    softmax_rows,
)


def report_line(capsys, number: int, ok: bool, description: str) -> None:
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {status} - {description}", flush=True)


def make_sets(rng, n, k, c, d=8):
    bag = random_bag(rng, n, d, label=int(rng.integers(c)), patient_id="p")
    tissues = TissuePromptSet(
        tuple(f"t{i}" for i in range(k)),
        EmbeddingMatrix(unit_rows(rng, k, d)),
    )
    classes = ClassPromptSet(
        tuple(f"c{i}" for i in range(c)),
        EmbeddingMatrix(unit_rows(rng, c, d)),
    )
    return bag, tissues, classes


class TestAcceptance:
    def test_01_oracle_equivalence(self, capsys):
        start = time.perf_counter()
        rng = np.random.default_rng(100)
        worst_sim = worst_pool = worst_loss = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, 6))
            c = int(rng.integers(1, 5))
            tau = float(rng.choice([0.01, 0.1, 1.0]))
            bag, tissues, classes = make_sets(rng, n, k, c)

            lw = log_tissue_wsi_similarity(classes, tissues, tau)
            s_wsi = oracle_similarity(classes.embeddings.data.tolist(),
                                      tissues.embeddings.data.tolist(), tau)
            worst_sim = max(worst_sim,
                            np.abs(np.exp(lw) - np.array(s_wsi)).max())

            corr = slip_correlation(bag.patches.data, tissues, lw, tau)
            s_patch = oracle_similarity(bag.patches.data.tolist(),
                                        tissues.embeddings.data.tolist(), tau)
            want = oracle_correlation(s_patch, s_wsi)
            worst_sim = max(worst_sim, np.abs(corr.T - np.array(want)).max())

            f = SlideFeature(slip_features([bag], tissues, lw, tau)[0].T)
            want_cols = oracle_slip_pool(bag.patches.data.tolist(),
                                         s_patch, s_wsi)
            worst_pool = max(
                worst_pool,
                np.abs(f.columns - np.array(want_cols).T).max())

            label = int(rng.integers(c))
            z = f.columns.T @ classes.embeddings.data.T
            got = infonce_loss(f, classes, label, tau)
            want_loss = oracle_infonce(z.tolist(), label, tau)
            worst_loss = max(worst_loss, abs(got - want_loss))
        elapsed = time.perf_counter() - start
        ok = worst_sim < 1e-12 and worst_pool < 1e-12 \
            and worst_loss < 1e-10 and elapsed < 5.0
        report_line(capsys, 1, ok,
                    f"oracle equivalence over 100 instances "
                    f"(sim {worst_sim:.1e}, pool {worst_pool:.1e}, "
                    f"loss {worst_loss:.1e}, {elapsed:.2f}s)")
        assert ok

    def test_02_gradient_correctness(self, weights, capsys):
        start = time.perf_counter()
        step = 1e-6
        worst = 0.0

        def rel(a, b):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
            return np.max(np.abs(a - b) / denom)

        for seed in range(25):
            rng = np.random.default_rng(300 + seed)
            c = int(rng.integers(2, 4))
            names = tuple(f"lesion kind {i}" for i in range(c))
            cols = unit_rows(rng, c, 32).T
            f = SlideFeature(cols)
            vectors = rng.uniform(-0.1, 0.1, (2, 16))
            prompts = TrainedPrompts([PromptContext(vectors)], shared=True)
            classes = ClassPromptSet.from_names(weights, names,
                                                prompts.contexts[0])
            label = int(rng.integers(c))
            tau = float(rng.choice([0.05, 0.1, 0.5]))
            g = infonce_grad(f, classes, label, tau, prompts, weights)
            fd = np.zeros_like(vectors)
            for idx in np.ndindex(*vectors.shape):
                for sign, store in ((1, "p"), (-1, "m")):
                    v = vectors.copy()
                    v[idx] += sign * step
                    pr = TrainedPrompts([PromptContext(v)], shared=True)
                    cs = ClassPromptSet.from_names(weights, names,
                                                   pr.contexts[0])
                    val = infonce_loss(f, cs, label, tau)
                    if store == "p":
                        fp = val
                    else:
                        fm = val
                fd[idx] = (fp - fm) / (2 * step)
            worst = max(worst, rel(g, fd))

            # encoder-side chain: scalar objective u . encode(text; context)
            text = "papillary structures with clear cytoplasm"
            upstream = rng.normal(size=32)
            ctx = PromptContext(vectors)
            g_ctx = encode_text_grad(weights, text, upstream, ctx)
            fd_ctx = np.zeros_like(vectors)
            for idx in np.ndindex(*vectors.shape):
                v = vectors.copy()
                v[idx] += step
                fp = upstream @ encode_text(weights, text, PromptContext(v))
                v = vectors.copy()
                v[idx] -= step
                fm = upstream @ encode_text(weights, text, PromptContext(v))
                fd_ctx[idx] = (fp - fm) / (2 * step)
            worst = max(worst, rel(g_ctx, fd_ctx))
        elapsed = time.perf_counter() - start
        ok = worst < 1e-5 and elapsed < 10.0
        report_line(capsys, 2, ok,
                    f"analytic vs central-difference gradients "
                    f"(worst rel err {worst:.2e}, {elapsed:.2f}s)")
        assert ok

    def test_03_row_stochasticity(self, capsys):
        rng = np.random.default_rng(101)
        worst = 0.0
        for tau in (0.01, 0.1, 1.0):
            for spread in (1.0, 100.0, 1e4):
                logits = rng.uniform(-spread, spread, (20, 6))
                sm = softmax_rows(logits, tau)
                worst = max(worst,
                            np.abs(sm.data.sum(axis=1) - 1.0).max())
        for _ in range(20):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, 6))
            c = int(rng.integers(1, 5))
            tau = float(rng.choice([0.01, 0.1, 1.0]))
            bag, tissues, classes = make_sets(rng, n, k, c)
            lw = log_tissue_wsi_similarity(classes, tissues, tau)
            corr = slip_correlation(bag.patches.data, tissues, lw, tau)
            worst = max(worst, np.abs(corr.sum(axis=0) - 1.0).max())
        ok = worst < 1e-9
        report_line(capsys, 3, ok,
                    f"softmax and composed-correlation rows sum to one "
                    f"(worst dev {worst:.1e})")
        assert ok

    def test_04_degenerate_equivalences(self, capsys):
        rng = np.random.default_rng(102)
        failures = []

        bag, tissues, classes = make_sets(rng, 6, 3, 1)
        lw = log_tissue_wsi_similarity(classes, tissues, 0.1)
        f = SlideFeature(slip_features([bag], tissues, lw, 0.1)[0].T)
        avg = average_features([bag], classes)[0, 0]
        dev = np.abs(f.columns[:, 0] - avg).max()
        if dev > 1e-9:
            failures.append(f"C=1 slip vs average: {dev:.1e}")

        bag2, _, classes3 = make_sets(rng, 5, 3, 3)
        topk = topk_features([bag2], classes3, bag2.num_patches)[0]
        avg = average_features([bag2], classes3)[0]
        dev = np.abs(topk - avg).max()
        if dev > 1e-9:
            failures.append(f"k=N topk vs average: {dev:.1e}")

        if infonce_loss(f, classes, 0, 0.01) != 0.0:
            failures.append("C=1 loss not exactly zero")

        for c in (2, 3):
            v = np.zeros(8)
            v[0] = 1.0
            uniform_f = SlideFeature(np.tile(v[:, None], (1, c)))
            uniform_classes = ClassPromptSet(
                tuple(f"u{i}" for i in range(c)),
                EmbeddingMatrix(np.tile(v, (c, 1))))
            loss = infonce_loss(uniform_f, uniform_classes, 0, 0.5)
            if abs(loss - np.log(c * c)) > 1e-12:
                failures.append(f"uniform C={c} loss off log(C^2)")

        ok = not failures
        report_line(capsys, 4, ok,
                    "degenerate cases collapse to their closed forms"
                    + ("" if ok else f" ({'; '.join(failures)})"))
        assert ok, failures

    def test_05_pooling_ordering(self, capsys):
        start = time.perf_counter()
        accs = {"slip": [], "avg": [], "zero": []}
        for seed in range(5):
            ds = generate(preset_spec("needle", seed=seed))
            bags = list(ds.bags)
            for pooling in ("slip", "avg"):
                cfg = TrainConfig(pooling=pooling, shots=4, epochs=30,
                                  seed=seed)
                _, _, metrics, _ = run_single(bags, ds.class_names,
                                              ds.tissue_descriptions, cfg)
                accs[pooling].append(metrics["class_averaged_accuracy"])
            cfg = TrainConfig(seed=seed)
            weights = FrozenEncoderWeights.create(
                cfg.encoder_seed, d_t=cfg.d_t, d_v=bags[0].patches.cols)
            tissues = TissuePromptSet.from_descriptions(
                weights, ds.tissue_descriptions)
            _, eval_bags = select_few_shot(bags, 4)
            zero_pipe = Pipeline(weights=weights, tissues=tissues,
                                 class_names=ds.class_names, pooling="zero")
            accs["zero"].append(
                evaluate(eval_bags, zero_pipe)["class_averaged_accuracy"])
        elapsed = time.perf_counter() - start
        means = {k: float(np.mean(v)) for k, v in accs.items()}
        ok = (means["slip"] >= means["avg"] + 0.05
              and means["slip"] >= means["zero"]
              and elapsed < 120.0)
        report_line(capsys, 5, ok,
                    f"dual-similarity beats averaging and zero-shot on the "
                    f"needle preset (slip {means['slip']:.3f}, "
                    f"avg {means['avg']:.3f}, zero {means['zero']:.3f}, "
                    f"{elapsed:.1f}s)")
        assert ok, means

    def test_06_few_shot_curve(self, capsys):
        shot_means = []
        for shots in (1, 2, 4):
            accs = []
            for seed in range(5):
                ds = generate(preset_spec("separable-easy", seed=seed))
                cfg = TrainConfig(shots=shots, epochs=30, seed=seed)
                _, _, metrics, _ = run_single(
                    list(ds.bags), ds.class_names,
                    ds.tissue_descriptions, cfg)
                accs.append(metrics["class_averaged_accuracy"])
            shot_means.append(float(np.mean(accs)))
        monotone = all(b >= a - 0.02
                       for a, b in zip(shot_means, shot_means[1:]))
        ok = monotone and shot_means[-1] == 1.0
        report_line(capsys, 6, ok,
                    f"few-shot curve non-decreasing and saturating "
                    f"(means {[round(m, 3) for m in shot_means]})")
        assert ok, shot_means

    def test_07_determinism(self, tmp_path, capsys):
        ds_path = tmp_path / "d.bin"
        code = cli_main(["synth", "--preset", "separable-easy", "--seed",
                         "3", "--out", str(ds_path)])
        assert code == 0
        docs = []
        for name in ("r1.json", "r2.json"):
            code = cli_main(["train", "--data", str(ds_path),
                             "--tissues", str(ds_path) + ".tissues.txt",
                             "--classes", str(ds_path) + ".classes.txt",
                             "--shots", "2", "--epochs", "5", "--seed", "4",
                             "--out", str(tmp_path / name)])
            assert code == 0
            doc = read_report(tmp_path / name)
            del doc["created_at"]
            docs.append(doc)
        capsys.readouterr()
        identical = docs[0] == docs[1]

        ds = generate(preset_spec("separable-easy", seed=3))
        bags = list(ds.bags)
        cfg = TrainConfig(shots=2, epochs=5, seed=4)
        prompts, _ = train_prompts(*select_few_shot(bags, 2)[:1],
                                   ds.tissue_descriptions, ds.class_names,
                                   cfg)
        weights = FrozenEncoderWeights.create(
            cfg.encoder_seed, d_t=cfg.d_t, d_v=bags[0].patches.cols)
        tissues = TissuePromptSet.from_descriptions(
            weights, ds.tissue_descriptions)
        pipe = Pipeline(weights=weights, tissues=tissues,
                        class_names=ds.class_names, prompts=prompts)
        base = evaluate(bags, pipe)
        rng = np.random.default_rng(103)
        shuffled = []
        for bag in bags:
            perm = rng.permutation(bag.num_patches)
            shuffled.append(WsiBag(
                patches=EmbeddingMatrix(bag.patches.data[perm]),
                coords=tuple(bag.coords[i] for i in perm),
                label=bag.label, patient_id=bag.patient_id))
        other = evaluate(shuffled, pipe)
        column_delta = max(
            float(np.max(np.abs(pipe.slide_feature(a).columns
                                - pipe.slide_feature(b).columns)))
            for a, b in zip(bags, shuffled))
        delta = max(
            column_delta,
            abs(base["class_averaged_accuracy"]
                - other["class_averaged_accuracy"]),
            abs(base["bag_accuracy"] - other["bag_accuracy"]),
            max(abs(a - b) for a, b in zip(base["per_class_accuracy"],
                                           other["per_class_accuracy"])),
        )
        ok = identical and delta <= 1e-12
        report_line(capsys, 7, ok,
                    f"reports bitwise-identical (timestamps aside) and "
                    f"patch order irrelevant (metric and pooled-column "
                    f"delta {delta:.1e})")
        assert ok

    def test_08_format_robustness(self, tmp_path, capsys):
        ds = generate(preset_spec("separable-easy", seed=3))
        path = tmp_path / "d.bin"
        write_dataset(path, ds.bags)
        loaded, _ = read_dataset(path)
        lossless = all(
            np.array_equal(np.asarray(a.patches.data, dtype=np.float32),
                           np.asarray(b.patches.data, dtype=np.float32))
            and a.coords == b.coords and a.label == b.label
            and a.patient_id == b.patient_id
            for a, b in zip(ds.bags, loaded))

        blob = path.read_bytes()
        rng = np.random.default_rng(104)
        fuzz_ok = True
        for _ in range(200):
            mutated = bytearray(blob)
            offset = int(rng.integers(0, 24))  # magic + header words
            mutated[offset] ^= int(rng.integers(1, 256))
            bad = tmp_path / "fuzz.bin"
            bad.write_bytes(bytes(mutated))
            try:
                read_dataset(bad)
            except FormatError:
                continue
            except Exception:  # noqa: BLE001
                fuzz_ok = False
            else:
                fuzz_ok = False

        from slipmil.io_formats import export_heatmap
        rng2 = np.random.default_rng(105)
        data = rng2.normal(size=(4, 4))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        bag = WsiBag(patches=EmbeddingMatrix(data),
                     coords=((0, 0), (1, 0), (0, 1), (1, 1)),
                     label=0, patient_id="hm")
        corr = np.array([[0.0], [1 / 3], [2 / 3], [1.0]])
        export_heatmap(bag, corr, 0, tmp_path / "h.csv", tmp_path / "h.pgm")
        pixels = (tmp_path / "h.pgm").read_bytes().split(b"255\n", 1)[1]
        heatmap_ok = list(pixels) == [0, 85, 170, 255]

        ok = lossless and fuzz_ok and heatmap_ok
        report_line(capsys, 8, ok,
                    f"container lossless, 200-corruption fuzz typed-safe, "
                    f"worked-example pixels exact "
                    f"(lossless={lossless}, fuzz={fuzz_ok}, "
                    f"pgm={heatmap_ok})")
        assert ok

    def test_09_ablation_harness(self, tmp_path, capsys):
        ds_path = tmp_path / "d.bin"
        code = cli_main(["synth", "--preset", "separable-easy", "--seed",
                         "3", "--out", str(ds_path)])
        assert code == 0
        base = [ln for ln in
                (tmp_path / "d.bin.tissues.txt").read_text().splitlines()
                if ln and not ln.startswith("#")]
        fillers = [f"{w} region with scattered immune cells variant {i}"
                   for i, w in enumerate(
                       ["fibrous", "hyalinized", "edematous", "myxoid",
                        "calcified", "hemorrhagic", "necrotic", "cystic",
                        "papillary", "glandular", "trabecular", "solid",
                        "micropapillary", "cribriform", "sarcomatoid"])]
        small = tmp_path / "tissues10.txt"
        small.write_text("\n".join(base + fillers[:10 - len(base)]) + "\n")
        large = tmp_path / "tissues18.txt"
        large.write_text("\n".join(base + fillers[:18 - len(base)]) + "\n")
        grid = tmp_path / "grid.cfg"
        grid.write_text(
            f"data = {ds_path}\n"
            f"classes = {ds_path}.classes.txt\n"
            f"tissues = {small},{large}\n"
            "poolings = slip,topk,avg\n"
            "shots = 1,4\n"
            "seeds = 0\n"
            "epochs = 5\n"
        )
        out = tmp_path / "rows.json"
        code = cli_main(["ablate", "--grid", str(grid), "--out", str(out)])
        capsys.readouterr()
        rows = json.loads(out.read_text())["rows"]
        finite = all(
            np.isfinite(r["class_averaged_accuracy"])
            and np.isfinite(r["bag_accuracy"])
            and np.isfinite(r["final_loss"])
            for r in rows)
        cells = {(r["pooling"], r["shots"], r["num_tissue_types"])
                 for r in rows}
        ok = (code == 0 and len(rows) == 12 and finite
              and len(cells) == 12
              and {c[2] for c in cells} == {10, 18})
        report_line(capsys, 9, ok,
                    f"ablation grid emits 12 finite rows over poolings x "
                    f"shots x tissue sets (got {len(rows)})")
        assert ok
