import numpy as np
import pytest

from slipmil.core import EmbeddingMatrix, WsiBag, softmax_rows
from slipmil.errors import KOutOfRangeError, ZeroVectorError
from slipmil.pooling import (
    ClassPromptSet,
    TissuePromptSet,
    patch_slide_correlation,
    patch_tissue_similarity,
    pool_average,
    pool_topk,
    slip_pool,
    tissue_wsi_similarity,
    zero_shot_scores,
)

from conftest import random_bag, unit_rows
from oracles import (
    oracle_pool_average,
    oracle_pool_topk,
    oracle_similarity,
    oracle_slip_pool,
    oracle_zero_shot,
)


def class_set(rows):
    return ClassPromptSet(
        tuple(f"class {i}" for i in range(len(rows))),
        EmbeddingMatrix(rows),
    )


def tissue_set(rows):
    return TissuePromptSet(
        tuple(f"tissue {i}" for i in range(len(rows))),
        EmbeddingMatrix(rows),
    )


class TestTissueWsiSimilarity:
    def test_single_tissue(self):
        rng = np.random.default_rng(10)
        sm = tissue_wsi_similarity(class_set(unit_rows(rng, 3, 8)),
                                   tissue_set(unit_rows(rng, 1, 8)), 0.01)
        assert np.array_equal(sm.data, np.ones((3, 1)))

    def test_equidistant_tissues(self):
        classes = class_set([[1.0, 0.0, 0.0]])
        tissues = tissue_set([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        sm = tissue_wsi_similarity(classes, tissues, 0.05)
        assert np.array_equal(sm.data, [[0.5, 0.5]])

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        classes = class_set(unit_rows(rng, 2, 8))
        tissues = tissue_set(unit_rows(rng, 3, 8))
        got = tissue_wsi_similarity(classes, tissues, 0.1).data
        want = oracle_similarity(classes.embeddings.data.tolist(),
                                 tissues.embeddings.data.tolist(), 0.1)
        assert np.max(np.abs(got - np.array(want))) < 1e-12


class TestPatchTissueSimilarity:
    def test_identical_patch_sharp_tau(self):
        # oracle: 1/(1+e^-100) at 50 digits
        t1 = np.zeros(8)
        t1[0] = 1.0
        t2 = np.zeros(8)
        t2[1] = 1.0
        bag = WsiBag(patches=EmbeddingMatrix([t1]), coords=((0, 0),),
                     label=0, patient_id="p")
        sm = patch_tissue_similarity(bag, tissue_set([t1, t2]), 0.01)
        assert sm.data[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert sm.data[0, 1] == pytest.approx(3.720075976020836e-44,
                                              rel=1e-12)

    def test_single_tissue(self):
        rng = np.random.default_rng(11)
        bag = random_bag(rng, 4, 8)
        sm = patch_tissue_similarity(bag, tissue_set(unit_rows(rng, 1, 8)),
                                     0.01)
        assert np.array_equal(sm.data, np.ones((4, 1)))

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        bag = random_bag(rng, 5, 8)
        tissues = tissue_set(unit_rows(rng, 4, 8))
        got = patch_tissue_similarity(bag, tissues, 0.1).data
        want = oracle_similarity(bag.patches.data.tolist(),
                                 tissues.embeddings.data.tolist(), 0.1)
        assert np.max(np.abs(got - np.array(want))) < 1e-12


def make_similarities(rng, bag, num_tissues, num_classes, tau=0.1):
    tissues = tissue_set(unit_rows(rng, num_tissues, bag.patches.cols))
    classes = class_set(unit_rows(rng, num_classes, bag.patches.cols))
    s_patch = patch_tissue_similarity(bag, tissues, tau)
    s_wsi = tissue_wsi_similarity(classes, tissues, tau)
    return s_patch, s_wsi, classes


class TestSlipPool:
    def test_singleton_collapse(self):
        rng = np.random.default_rng(13)
        bag = random_bag(rng, 1, 6)
        s_patch, s_wsi, _ = make_similarities(rng, bag, 1, 1)
        f = slip_pool(bag, s_patch, s_wsi)
        assert np.allclose(f.columns[:, 0], bag.patches.data[0], atol=1e-12)

    def test_identical_patches(self):
        rng = np.random.default_rng(14)
        one = unit_rows(rng, 1, 6)
        bag = WsiBag(patches=EmbeddingMatrix(np.repeat(one, 5, axis=0)),
                     coords=tuple((i, 0) for i in range(5)),
                     label=0, patient_id="p")
        s_patch, s_wsi, _ = make_similarities(rng, bag, 3, 2)
        f = slip_pool(bag, s_patch, s_wsi)
        for c in range(2):
            assert np.allclose(f.columns[:, c], one[0], atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(15)
        bag = random_bag(rng, 6, 8)
        s_patch, s_wsi, _ = make_similarities(rng, bag, 3, 2)
        f = slip_pool(bag, s_patch, s_wsi)
        want = oracle_slip_pool(bag.patches.data.tolist(),
                                s_patch.data.tolist(), s_wsi.data.tolist())
        assert np.max(np.abs(f.columns - np.array(want).T)) < 1e-12

    def test_correlation_rows_stochastic(self):
        rng = np.random.default_rng(16)
        bag = random_bag(rng, 7, 8)
        s_patch, s_wsi, _ = make_similarities(rng, bag, 4, 3)
        corr = patch_slide_correlation(s_patch, s_wsi)
        assert np.max(np.abs(corr.sum(axis=1) - 1)) < 1e-9

    def test_single_class_equals_average(self):
        rng = np.random.default_rng(17)
        bag = random_bag(rng, 6, 8)
        s_patch, s_wsi, _ = make_similarities(rng, bag, 3, 1)
        f = slip_pool(bag, s_patch, s_wsi)
        assert np.max(np.abs(f.columns[:, 0] - pool_average(bag))) < 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(18)
        bag = random_bag(rng, 8, 6)
        s_patch, s_wsi, _ = make_similarities(rng, bag, 3, 2)
        f = slip_pool(bag, s_patch, s_wsi)
        perm = rng.permutation(8)
        bag2 = WsiBag(patches=EmbeddingMatrix(bag.patches.data[perm]),
                      coords=tuple(bag.coords[i] for i in perm),
                      label=0, patient_id="p")
        # recompute from scratch with the same tissue/class draws
        rng2 = np.random.default_rng(18)
        _ = random_bag(rng2, 8, 6)  # replay the bag draw
        s_patch2, s_wsi2, _ = make_similarities(rng2, bag2, 3, 2)
        f2 = slip_pool(bag2, s_patch2, s_wsi2)
        assert np.max(np.abs(f.columns - f2.columns)) < 1e-12


class TestPoolAverage:
    def test_single_patch(self):
        rng = np.random.default_rng(19)
        bag = random_bag(rng, 1, 5)
        assert np.allclose(pool_average(bag), bag.patches.data[0],
                           atol=1e-15)

    def test_antipodal_cancellation(self):
        v = np.zeros(4)
        v[0] = 1.0
        bag = WsiBag(patches=EmbeddingMatrix(np.stack([v, -v])),
                     coords=((0, 0), (1, 0)), label=0, patient_id="p")
        with pytest.raises(ZeroVectorError):
            pool_average(bag)

    def test_matches_oracle(self):
        rng = np.random.default_rng(20)
        bag = random_bag(rng, 4, 6)
        want = oracle_pool_average(bag.patches.data.tolist())
        assert np.max(np.abs(pool_average(bag) - np.array(want))) < 1e-12


class TestPoolTopk:
    def test_k_equals_n_matches_average(self):
        rng = np.random.default_rng(21)
        bag = random_bag(rng, 5, 8)
        classes = class_set(unit_rows(rng, 3, 8))
        f = pool_topk(bag, classes, 5)
        avg = pool_average(bag)
        for c in range(3):
            assert np.max(np.abs(f.columns[:, c] - avg)) < 1e-9

    def test_k1_exact_match(self):
        rng = np.random.default_rng(22)
        rows = unit_rows(rng, 4, 8)
        classes = class_set(np.stack([rows[2], unit_rows(rng, 1, 8)[0]]))
        bag = WsiBag(patches=EmbeddingMatrix(rows),
                     coords=tuple((i, 0) for i in range(4)),
                     label=0, patient_id="p")
        f = pool_topk(bag, classes, 1)
        assert np.allclose(f.columns[:, 0], rows[2], atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        bag = random_bag(rng, 8, 6)
        classes = class_set(unit_rows(rng, 3, 6))
        f = pool_topk(bag, classes, 3)
        want = oracle_pool_topk(bag.patches.data.tolist(),
                                classes.embeddings.data.tolist(), 3)
        assert np.max(np.abs(f.columns - np.array(want).T)) < 1e-12

    def test_k_out_of_range(self):
        rng = np.random.default_rng(24)
        bag = random_bag(rng, 3, 6)
        classes = class_set(unit_rows(rng, 2, 6))
        for k in (0, 4):
            with pytest.raises(KOutOfRangeError):
                pool_topk(bag, classes, k)


class TestZeroShotScores:
    def test_single_patch(self):
        rng = np.random.default_rng(25)
        bag = random_bag(rng, 1, 8)
        classes = class_set(unit_rows(rng, 3, 8))
        scores = zero_shot_scores(bag, classes, 0.1)
        sm = softmax_rows(bag.patches.data @ classes.embeddings.data.T, 0.1)
        assert np.array_equal(scores, sm.data[0])

    def test_equidistant_uniform(self):
        bag = WsiBag(patches=EmbeddingMatrix([[1.0, 0.0, 0.0]]),
                     coords=((0, 0),), label=0, patient_id="p")
        classes = class_set([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(zero_shot_scores(bag, classes, 0.01),
                              [0.5, 0.5])

    def test_matches_oracle_and_sums_to_one(self):
        rng = np.random.default_rng(26)
        bag = random_bag(rng, 3, 8)
        classes = class_set(unit_rows(rng, 3, 8))
        scores = zero_shot_scores(bag, classes, 0.1)
        want = oracle_zero_shot(bag.patches.data.tolist(),
                                classes.embeddings.data.tolist(), 0.1)
        assert np.max(np.abs(scores - np.array(want))) < 1e-12
        assert abs(scores.sum() - 1) < 1e-9


def test_oracle_equivalence_random_sweep():
    # 100 random desk-scale instances across every pooling operation
    rng = np.random.default_rng(99)
    for _ in range(100):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, 6))
        c = int(rng.integers(1, 5))
        d = 8
        tau = float(rng.choice([0.01, 0.1, 1.0]))
        bag = random_bag(rng, n, d)
        tissues = tissue_set(unit_rows(rng, k, d))
        classes = class_set(unit_rows(rng, c, d))
        s_patch = patch_tissue_similarity(bag, tissues, tau)
        s_wsi = tissue_wsi_similarity(classes, tissues, tau)
        f = slip_pool(bag, s_patch, s_wsi)
        want = oracle_slip_pool(bag.patches.data.tolist(),
                                s_patch.data.tolist(), s_wsi.data.tolist())
        assert np.max(np.abs(f.columns - np.array(want).T)) < 1e-12
