import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from collections import deque

import numpy as np
import pytest

from slipmil import pooling
from slipmil.core import EmbeddingMatrix, WsiBag
from slipmil.errors import (
    DimensionMismatchError,
    InvalidSettingError,
    ZeroVectorError,
)
from slipmil.pooling import (
    average_features,
    classify,
    log_tissue_wsi_similarity,
    slip_correlation,
    slip_features,
    topk_features,
    zero_shot_probabilities,
)

from conftest import random_bag, unit_rows
from oracles import (
    oracle_pool_average,
    oracle_pool_topk,
    oracle_similarity,
    oracle_slip_columns,
    oracle_slip_pool,
    oracle_zero_shot,
    pooled_feature,
    slip_pool,
    softmax_rows,
    zero_shot_scores,
)


def class_set(rows):
    """C x d_v class rows as the pooling functions take them."""
    return EmbeddingMatrix(rows).data


def tissue_set(rows):
    """K x d_v tissue rows as the pooling functions take them."""
    return EmbeddingMatrix(rows).data


def slip_one(bag, tissues, lw, tau):
    """slip_features of a list of one bag, as d_v x C columns."""
    return slip_features([bag], tissues, lw, tau)[0].T


def topk_one(bag, classes, k):
    """topk_features of a list of one bag, as d_v x C columns."""
    return topk_features([bag], classes, k)[0].T


def average_one(bag):
    """average_features of a list of one bag: its unit patch mean."""
    one_class = class_set(np.eye(1, bag.patches.cols))
    return average_features([bag], one_class)[0, 0]


def zero_shot_one(bag, classes, tau):
    """zero_shot_probabilities of a list of one bag."""
    return zero_shot_probabilities([bag], classes, tau)[0]


def one_hot_lw(k):
    """log S_wsi for S_wsi = I: the correlation is then S_patch itself."""
    with np.errstate(divide="ignore"):
        return np.log(np.eye(k))


class TestTissueWsiSimilarity:
    def test_single_tissue(self):
        rng = np.random.default_rng(10)
        lw = log_tissue_wsi_similarity(class_set(unit_rows(rng, 3, 8)),
                                       tissue_set(unit_rows(rng, 1, 8)), 0.01)
        assert np.array_equal(np.exp(lw), np.ones((3, 1)))

    def test_equidistant_tissues(self):
        classes = class_set([[1.0, 0.0, 0.0]])
        tissues = tissue_set([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        lw = log_tissue_wsi_similarity(classes, tissues, 0.05)
        assert np.array_equal(np.exp(lw), [[0.5, 0.5]])

    def test_matches_oracle(self):
        rng = np.random.default_rng(7)
        classes = class_set(unit_rows(rng, 2, 8))
        tissues = tissue_set(unit_rows(rng, 3, 8))
        got = np.exp(log_tissue_wsi_similarity(classes, tissues, 0.1))
        want = oracle_similarity(classes.tolist(), tissues.tolist(), 0.1)
        assert np.max(np.abs(got - np.array(want))) < 1e-12

    def test_finite_at_tiny_tau(self):
        rng = np.random.default_rng(8)
        lw = log_tissue_wsi_similarity(class_set(unit_rows(rng, 3, 8)),
                                       tissue_set(unit_rows(rng, 4, 8)), 1e-9)
        assert np.all(np.isfinite(lw))
        assert np.array_equal(lw.max(axis=1), np.zeros(3))

    def test_rejects_non_positive_tau(self):
        rng = np.random.default_rng(9)
        classes = class_set(unit_rows(rng, 2, 8))
        tissues = tissue_set(unit_rows(rng, 2, 8))
        for tau in (0.0, -0.5, 1e-309):
            with pytest.raises(InvalidSettingError):
                log_tissue_wsi_similarity(classes, tissues, tau)

    def test_width_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            log_tissue_wsi_similarity(class_set([[1.0, 0.0]]),
                                      tissue_set([[1.0, 0.0, 0.0]]), 0.1)


class TestPatchTissueSimilarity:
    """S_patch, seen through the correlation with S_wsi = I."""

    def test_identical_patch_sharp_tau(self):
        # oracle: 1/(1+e^-100) at 50 digits
        t1 = np.zeros(8)
        t1[0] = 1.0
        t2 = np.zeros(8)
        t2[1] = 1.0
        bag = WsiBag(patches=EmbeddingMatrix([t1]), coords=((0, 0),),
                     label=0, patient_id="p")
        sm = slip_correlation(bag.patches.data, tissue_set([t1, t2]),
                              one_hot_lw(2), 0.01)
        assert sm[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert sm[1, 0] == pytest.approx(3.720075976020836e-44, rel=1e-12)

    def test_single_tissue(self):
        rng = np.random.default_rng(11)
        bag = random_bag(rng, 4, 8)
        sm = slip_correlation(bag.patches.data,
                              tissue_set(unit_rows(rng, 1, 8)),
                              one_hot_lw(1), 0.01)
        assert np.array_equal(sm, np.ones((1, 4)))

    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        bag = random_bag(rng, 5, 8)
        tissues = tissue_set(unit_rows(rng, 4, 8))
        got = slip_correlation(bag.patches.data, tissues, one_hot_lw(4),
                               0.1).T
        want = oracle_similarity(bag.patches.data.tolist(),
                                 tissues.tolist(), 0.1)
        assert np.max(np.abs(got - np.array(want))) < 1e-12


def make_similarities(rng, bag, num_tissues, num_classes, tau=0.1):
    tissues = tissue_set(unit_rows(rng, num_tissues, bag.patches.cols))
    classes = class_set(unit_rows(rng, num_classes, bag.patches.cols))
    return tissues, log_tissue_wsi_similarity(classes, tissues, tau), classes


def oracle_inputs(bag, tissues, classes, tau):
    """Patches with their 50-digit S_patch and S_wsi, as float lists."""
    patches = bag.patches.data.tolist()
    tissue_rows = tissues.tolist()
    return (patches, oracle_similarity(patches, tissue_rows, tau),
            oracle_similarity(classes.tolist(), tissue_rows, tau))


class TestSlipPool:
    def test_singleton_collapse(self):
        rng = np.random.default_rng(13)
        bag = random_bag(rng, 1, 6)
        tissues, lw, _ = make_similarities(rng, bag, 1, 1)
        f = slip_one(bag, tissues, lw, 0.1)
        assert np.allclose(f[:, 0], bag.patches.data[0], atol=1e-12)

    def test_identical_patches(self):
        rng = np.random.default_rng(14)
        one = unit_rows(rng, 1, 6)
        bag = WsiBag(patches=EmbeddingMatrix(np.repeat(one, 5, axis=0)),
                     coords=tuple((i, 0) for i in range(5)),
                     label=0, patient_id="p")
        tissues, lw, _ = make_similarities(rng, bag, 3, 2)
        f = slip_one(bag, tissues, lw, 0.1)
        for c in range(2):
            assert np.allclose(f[:, c], one[0], atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(15)
        bag = random_bag(rng, 6, 8)
        tissues, lw, classes = make_similarities(rng, bag, 3, 2)
        f = slip_one(bag, tissues, lw, 0.1)
        want = oracle_slip_pool(*oracle_inputs(bag, tissues, classes, 0.1))
        assert np.max(np.abs(f - np.array(want).T)) < 1e-12

    def test_correlation_rows_stochastic(self):
        rng = np.random.default_rng(16)
        bag = random_bag(rng, 7, 8)
        tissues, lw, _ = make_similarities(rng, bag, 4, 3)
        corr = slip_correlation(bag.patches.data, tissues, lw, 0.1)
        assert np.max(np.abs(corr.sum(axis=0) - 1)) < 1e-9

    def test_single_class_equals_average(self):
        rng = np.random.default_rng(17)
        bag = random_bag(rng, 6, 8)
        tissues, lw, _ = make_similarities(rng, bag, 3, 1)
        f = slip_one(bag, tissues, lw, 0.1)
        assert np.max(np.abs(f[:, 0] - average_one(bag))) < 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(18)
        bag = random_bag(rng, 8, 6)
        tissues, lw, _ = make_similarities(rng, bag, 3, 2)
        f = slip_one(bag, tissues, lw, 0.1)
        perm = rng.permutation(8)
        bag2 = WsiBag(patches=EmbeddingMatrix(bag.patches.data[perm]),
                      coords=tuple(bag.coords[i] for i in perm),
                      label=0, patient_id="p")
        f2 = slip_one(bag2, tissues, lw, 0.1)
        assert np.max(np.abs(f - f2)) < 1e-12

    def test_rejects_non_positive_tau(self):
        rng = np.random.default_rng(19)
        bag = random_bag(rng, 4, 8)
        tissues, lw, _ = make_similarities(rng, bag, 3, 2)
        for tau in (0.0, -0.1, 1e-309):
            with pytest.raises(InvalidSettingError):
                slip_one(bag, tissues, lw, tau)


def two_softmax_columns(patches, tissue_emb, class_emb, tau):
    """The two-softmax slip formula: S_patch (N x K) and S_wsi (C x K) as
    row softmaxes, their product rescaled per patch, then per class."""
    def softmax(logits):
        z = logits / tau
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    s_patch = softmax(patches @ tissue_emb.T)
    corr = s_patch @ softmax(class_emb @ tissue_emb.T).T
    corr /= corr.sum(axis=1, keepdims=True)
    raw = patches.T @ (corr / corr.sum(axis=0))
    return raw / np.linalg.norm(raw, axis=0)


@pytest.mark.parametrize("n,k,c", [(1, 3, 2), (7, 1, 3), (9, 4, 1),
                                   (1, 1, 1), (40, 6, 3)])
def test_two_softmax_equivalence(n, k, c):
    rng = np.random.default_rng(1000 + 100 * n + 10 * k + c)
    for _ in range(20):
        bag = random_bag(rng, n, 8)
        tissues, lw, classes = make_similarities(rng, bag, k, c, tau=0.01)
        f = slip_one(bag, tissues, lw, 0.01)
        want = two_softmax_columns(bag.patches.data,
                                   tissues, classes, 0.01)
        assert np.max(np.abs(f - want)) <= 1e-12


@pytest.mark.parametrize("tau", [1e-2, 1e-3, 1e-4, 1e-6])
def test_full_precision_oracle(tau, monkeypatch):
    rng = np.random.default_rng(int(-np.log10(tau)))
    fallbacks = []
    log_space = pooling._log_space_weights
    monkeypatch.setattr(pooling, "_log_space_weights",
                        lambda *a: fallbacks.append(a[-1]) or log_space(*a))
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(1, 6))
        c = int(rng.integers(1, 5))
        bag = random_bag(rng, n, 8)
        tissues, lw, classes = make_similarities(rng, bag, k, c, tau=tau)
        f = slip_one(bag, tissues, lw, tau)
        want = oracle_slip_columns(bag.patches.data.tolist(),
                                   tissues.tolist(), classes.tolist(), tau)
        worst = max(worst, np.max(np.abs(f - np.array(want).T)))
    assert worst <= 1e-12
    # the sharp temperatures reach the log-space weights, the mild one not
    assert bool(fallbacks) == (tau <= 1e-3)


def test_underflowed_class_gets_log_space_weights():
    # At tau = 1e-4 every patch gives class 1 (aligned with tissue 1) a
    # linear weight of e^-12000 or less; its column is still well defined.
    e = np.eye(4)
    patches = np.stack([e[0], 0.6 * e[0] + 0.8 * e[2],
                        0.8 * e[0] + 0.6 * e[3]])
    bag = WsiBag(patches=EmbeddingMatrix(patches),
                 coords=tuple((i, 0) for i in range(3)), label=0,
                 patient_id="p")
    tissues = tissue_set([e[0], -e[0]])
    classes = class_set([e[0], -e[0]])
    lw = log_tissue_wsi_similarity(classes, tissues, 1e-4)
    assert not np.any(slip_correlation(bag.patches.data, tissues, lw, 1e-4)[1])
    f = slip_one(bag, tissues, lw, 1e-4)
    want = oracle_slip_columns(patches.tolist(),
                               tissues.tolist(), classes.tolist(), 1e-4)
    assert np.max(np.abs(f - np.array(want).T)) <= 1e-12


class TestPoolAverage:
    def test_single_patch(self):
        rng = np.random.default_rng(19)
        bag = random_bag(rng, 1, 5)
        assert np.allclose(average_one(bag), bag.patches.data[0],
                           atol=1e-15)

    def test_antipodal_cancellation(self):
        v = np.zeros(4)
        v[0] = 1.0
        bag = WsiBag(patches=EmbeddingMatrix(np.stack([v, -v])),
                     coords=((0, 0), (1, 0)), label=0, patient_id="p")
        with pytest.raises(ZeroVectorError):
            average_one(bag)

    def test_matches_oracle(self):
        rng = np.random.default_rng(20)
        bag = random_bag(rng, 4, 6)
        want = oracle_pool_average(bag.patches.data.tolist())
        assert np.max(np.abs(average_one(bag) - np.array(want))) < 1e-12


class TestPoolTopk:
    def test_k_equals_n_matches_average(self):
        rng = np.random.default_rng(21)
        bag = random_bag(rng, 5, 8)
        classes = class_set(unit_rows(rng, 3, 8))
        f = topk_one(bag, classes, 5)
        avg = average_one(bag)
        for c in range(3):
            assert np.max(np.abs(f[:, c] - avg)) < 1e-9

    def test_k1_exact_match(self):
        rng = np.random.default_rng(22)
        rows = unit_rows(rng, 4, 8)
        classes = class_set(np.stack([rows[2], unit_rows(rng, 1, 8)[0]]))
        bag = WsiBag(patches=EmbeddingMatrix(rows),
                     coords=tuple((i, 0) for i in range(4)),
                     label=0, patient_id="p")
        f = topk_one(bag, classes, 1)
        assert np.allclose(f[:, 0], rows[2], atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        bag = random_bag(rng, 8, 6)
        classes = class_set(unit_rows(rng, 3, 6))
        f = topk_one(bag, classes, 3)
        want = oracle_pool_topk(bag.patches.data.tolist(),
                                classes.tolist(), 3)
        assert np.max(np.abs(f - np.array(want).T)) < 1e-12

    def test_k_out_of_range(self):
        # k below 1 is rejected; k above a bag's size takes all its patches
        rng = np.random.default_rng(24)
        bag = random_bag(rng, 3, 6)
        classes = class_set(unit_rows(rng, 2, 6))
        for k in (0, -1):
            with pytest.raises(InvalidSettingError, match=f"k={k} must be"):
                topk_one(bag, classes, k)
        assert np.array_equal(topk_one(bag, classes, 4),
                              topk_one(bag, classes, 3))


class TestZeroShotScores:
    def test_single_patch(self):
        rng = np.random.default_rng(25)
        bag = random_bag(rng, 1, 8)
        classes = class_set(unit_rows(rng, 3, 8))
        scores = zero_shot_one(bag, classes, 0.1)
        sm = softmax_rows(bag.patches.data @ classes.T, 0.1)
        assert np.array_equal(scores, sm.data[0])

    def test_equidistant_uniform(self):
        bag = WsiBag(patches=EmbeddingMatrix([[1.0, 0.0, 0.0]]),
                     coords=((0, 0),), label=0, patient_id="p")
        classes = class_set([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert np.array_equal(zero_shot_one(bag, classes, 0.01),
                              [0.5, 0.5])

    def test_matches_oracle_and_sums_to_one(self):
        rng = np.random.default_rng(26)
        bag = random_bag(rng, 3, 8)
        classes = class_set(unit_rows(rng, 3, 8))
        scores = zero_shot_one(bag, classes, 0.1)
        want = oracle_zero_shot(bag.patches.data.tolist(),
                                classes.tolist(), 0.1)
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
        lw = log_tissue_wsi_similarity(classes, tissues, tau)
        f = slip_one(bag, tissues, lw, tau)
        want = oracle_slip_pool(*oracle_inputs(bag, tissues, classes, tau))
        assert np.max(np.abs(f - np.array(want).T)) < 1e-12


# -- a list of bags against each bag alone ------------------------------------

RAGGED_SIZES = (1, 5, 1, 12, 3, 1, 30, 7)  # 60 patches


def layouts(bag):
    """The bag as made, row-major, and a feature-major copy, as
    read_dataset returns bags: patches that are the transpose of a
    C-contiguous d_v x N array."""
    copy = WsiBag(EmbeddingMatrix(np.ascontiguousarray(bag.patches.data.T).T),
                  bag.grid, bag.label, bag.patient_id)
    assert bag.patches.data.flags.c_contiguous
    assert copy.patches.data.T.flags.c_contiguous
    return bag, copy


def pool_list(pooling, bags, tissues, classes, lw, tau, k):
    if pooling == "zero":
        return zero_shot_probabilities(bags, classes, tau)
    if pooling == "slip":
        return slip_features(bags, tissues, lw, tau)
    if pooling == "topk":
        return topk_features(bags, classes, k)
    return average_features(bags, classes)


def pool_reference(pooling, bag, tissues, classes, lw, tau, k):
    """The per-bag numpy reference, shaped like one row of pool_list."""
    if pooling == "zero":
        return zero_shot_scores(bag, classes, tau)
    return pooled_feature(bag, tissues, classes, pooling, tau, k, lw).columns.T


def labels_of(pooling, pooled, scoring):
    if pooling == "zero":
        return np.argmax(pooled, axis=1).tolist()
    return classify(pooled, scoring).tolist()


@pytest.mark.parametrize("group", [pooling.GROUP_PATCHES, 10])
@pytest.mark.parametrize("tau", [1e-2, 1e-3, 1e-4])
@pytest.mark.parametrize("variant", ["slip", "topk", "avg", "zero"])
def test_list_matches_each_bag_alone(variant, tau, group, monkeypatch):
    # ragged sizes with 1-patch bags; k = 4 exceeds five of the eight bags;
    # with a 10-patch limit the list splits into groups and the 12- and
    # 30-patch bags are pooled alone
    monkeypatch.setattr(pooling, "GROUP_PATCHES", group)
    rng = np.random.default_rng(int(-np.log10(tau)) + 10 * group)
    made = [layouts(random_bag(rng, n, 8, patient_id=f"p{i}"))
            for i, n in enumerate(RAGGED_SIZES)]
    tissues = tissue_set(unit_rows(rng, 4, 8))
    classes = class_set(unit_rows(rng, 3, 8))
    scoring = class_set(unit_rows(rng, 3, 8))
    lw = log_tissue_wsi_similarity(classes, tissues, tau)
    args = (tissues, classes, lw, tau, 4)
    for bags in zip(*made):  # row-major, then feature-major
        groups = len(list(pooling._groups(bags, 8)))
        assert groups == (1 if group > 60 else 5)

        got = pool_list(variant, bags, *args)
        alone = np.stack([pool_list(variant, [bag], *args)[0]
                          for bag in bags])
        reference = np.stack([pool_reference(variant, bag, *args)
                              for bag in bags])
        assert got.shape == alone.shape == reference.shape
        assert np.max(np.abs(got - alone)) <= 1e-12
        assert np.max(np.abs(got - reference)) <= 1e-12
        assert (labels_of(variant, got, scoring)
                == labels_of(variant, alone, scoring)
                == labels_of(variant, reference, scoring))


def test_log_space_fallback_recomputes_only_its_bag(monkeypatch):
    # At tau = 1e-4 the middle bag gives class 1 (aligned with tissue 1) a
    # linear weight of e^-12000 or less; its neighbours weigh both classes.
    e = np.eye(4)
    sizes_and_rows = [
        [e[0], -e[0], e[1]],
        [e[0], 0.6 * e[0] + 0.8 * e[2], 0.8 * e[0] + 0.6 * e[3]],
        [-e[0], 0.6 * e[0] - 0.8 * e[1], e[0]],
    ]
    bags = [WsiBag(patches=EmbeddingMatrix(np.stack(rows)),
                   coords=tuple((i, 0) for i in range(len(rows))),
                   label=0, patient_id=f"p{b}")
            for b, rows in enumerate(sizes_and_rows)]
    tissues = tissue_set([e[0], -e[0]])
    classes = class_set([e[0], -e[0]])
    lw = log_tissue_wsi_similarity(classes, tissues, 1e-4)
    calls = []
    log_space = pooling._log_space_weights
    monkeypatch.setattr(
        pooling, "_log_space_weights",
        lambda *a: calls.append((a[0].tolist(), a[-1].tolist()))
        or log_space(*a))
    got = slip_features(bags, tissues, lw, 1e-4)
    assert calls == [(bags[1].patches.data.tolist(), [1])]
    for bag, columns in zip(bags, got):
        want = slip_pool(bag, tissues, lw, 1e-4).columns.T
        assert np.max(np.abs(columns - want)) <= 1e-12
    want = oracle_slip_columns(bags[1].patches.data.tolist(),
                               tissues.tolist(), classes.tolist(), 1e-4)
    assert np.max(np.abs(got[1] - np.array(want))) <= 1e-12


def test_single_bag_is_not_copied(monkeypatch):
    rng = np.random.default_rng(31)
    big = random_bag(rng, 40, 8)
    bags = [random_bag(rng, 3, 8), big, random_bag(rng, 2, 8)]
    tissues, lw, _ = make_similarities(rng, big, 3, 2)
    seen = []
    correlation = pooling.slip_correlation
    monkeypatch.setattr(pooling, "slip_correlation",
                        lambda p, *a: seen.append(p) or correlation(p, *a))
    alone = slip_features([big], tissues, lw, 0.1)
    assert len(seen) == 1 and seen[0] is big.patches.data
    # and it is pooled with exactly the per-bag arithmetic
    assert np.array_equal(alone[0], slip_pool(big, tissues, lw, 0.1).columns.T)
    # a bag that reaches the limit is pooled alone, in place
    monkeypatch.setattr(pooling, "GROUP_PATCHES", 40)
    seen.clear()
    slip_features(bags, tissues, lw, 0.1)
    assert [p is big.patches.data for p in seen] == [False, True, False]


def test_list_rejects_mismatched_patch_width():
    rng = np.random.default_rng(32)
    bags = [random_bag(rng, 3, 8), random_bag(rng, 3, 6)]
    with pytest.raises(DimensionMismatchError):
        topk_features(bags, class_set(unit_rows(rng, 2, 8)), 2)


# -- a bag of more than GROUP_PATCHES, pooled in row blocks -------------------

def spy_blocks(monkeypatch, worker_tau=lambda tau: tau):
    """Record each block slip_correlation pools, with the thread that
    pooled it; helper threads pool at worker_tau(tau). Each thread starts
    its first block only once pooling._cores() distinct threads, the
    caller among them, have taken one, so each of them pools at least one
    block: the bag must have _cores() and SPREAD_BLOCKS blocks or more."""
    seen = []
    changed = threading.Condition()
    caller = threading.main_thread().ident
    correlation = pooling.slip_correlation

    def spy(p, tissues, lw, tau):
        ident = threading.get_ident()
        with changed:
            seen.append((p, ident))
            changed.notify_all()
            assert changed.wait_for(
                lambda: len({i for _, i in seen}) >= pooling._cores(),
                timeout=10)
        return correlation(p, tissues, lw,
                           tau if ident == caller else worker_tau(tau))

    monkeypatch.setattr(pooling, "slip_correlation", spy)
    return seen


def assert_threads_settle(counts, start, cores):
    """Thread counts after consecutive calls on at most `cores` cores: at
    most one helper per further core was ever started, and none after the
    first call."""
    assert max(counts) <= start + cores - 1
    assert len(set(counts[1:])) == 1


class LastFirst(deque):
    """Hands out the blocks last first, so they finish in reverse order."""

    def popleft(self):
        return self.pop()


@pytest.mark.parametrize("tau", [1e-2, 1e-3, 1e-4])
def test_streamed_bag_matches_oracle(tau, monkeypatch):
    # 7 blocks of at most 16 patches, pooled in one thread and in two
    monkeypatch.setattr(pooling, "GROUP_PATCHES", 16)
    rng = np.random.default_rng(40 + int(-np.log10(tau)))
    seen = spy_blocks(monkeypatch)
    for _ in range(5):
        bag = random_bag(rng, int(rng.integers(97, 113)), 8)
        tissues, lw, _ = make_similarities(rng, bag, 4, 3, tau=tau)
        want = slip_pool(bag, tissues, lw, tau).columns.T
        for each in layouts(bag):
            for cores in (1, 2):
                monkeypatch.setattr(pooling, "_cores", lambda: cores)
                seen.clear()
                got = slip_features([each], tissues, lw, tau)[0]
                assert len(seen) == 7
                assert np.max(np.abs(got - want)) <= 1e-12


def test_streamed_bag_is_bitwise_independent_of_cores(monkeypatch):
    # 13 blocks of at most 8 patches: with 3 cores, three workers; the
    # sums are added in block order whatever order the blocks finish in
    monkeypatch.setattr(pooling, "GROUP_PATCHES", 8)
    rng = np.random.default_rng(41)
    bag = random_bag(rng, 100, 8)
    tissues, lw, _ = make_similarities(rng, bag, 5, 3, tau=0.01)
    seen = spy_blocks(monkeypatch)
    start = threading.active_count()
    by_layout = []
    for each in layouts(bag):
        results = []
        for order in (deque, LastFirst):
            monkeypatch.setattr(pooling, "deque", order)
            for cores in (1, 2, 3):
                monkeypatch.setattr(pooling, "_cores", lambda: cores)
                counts = []
                for _ in range(10):
                    seen.clear()
                    results.append(slip_features([each], tissues, lw, 0.01))
                    assert len(seen) == 13
                    assert len({ident for _, ident in seen}) == cores
                    counts.append(threading.active_count())
                assert_threads_settle(counts, start, 3)
        assert all(np.array_equal(results[0], r) for r in results[1:])
        by_layout.append(results[0])
    # the layouts round differently, never by more than the oracle bound
    assert np.max(np.abs(by_layout[0] - by_layout[1])) <= 1e-12


def test_streamed_blocks_are_views_of_the_bag(monkeypatch):
    monkeypatch.setattr(pooling, "GROUP_PATCHES", 10)
    monkeypatch.setattr(pooling, "_cores", lambda: 2)
    rng = np.random.default_rng(42)
    bag = random_bag(rng, 61, 8)
    tissues, lw, _ = make_similarities(rng, bag, 3, 2)
    seen = spy_blocks(monkeypatch)
    slip_features([bag], tissues, lw, 0.1)
    blocks = sorted((p for p, _ in seen), key=lambda p: p.ctypes.data)
    data = bag.patches.data
    assert [len(p) for p in blocks] == [8, 9, 9, 8, 9, 9, 9]
    assert all(np.shares_memory(p, data) for p in blocks)
    assert blocks[0].ctypes.data == data.ctypes.data
    assert np.array_equal(np.concatenate(blocks), data)


def test_streamed_underflow_recomputes_only_that_class(monkeypatch):
    # the bag of test_underflowed_class_gets_log_space_weights, ten times
    # over in blocks of at most 4: class 1's total underflows over the
    # whole bag, so its weights alone are recomputed, over the whole bag
    monkeypatch.setattr(pooling, "GROUP_PATCHES", 4)
    e = np.eye(4)
    patches = np.tile(np.stack([e[0], 0.6 * e[0] + 0.8 * e[2],
                                0.8 * e[0] + 0.6 * e[3]]), (10, 1))
    bag = WsiBag(patches=EmbeddingMatrix(patches),
                 coords=tuple((i, 0) for i in range(30)), label=0,
                 patient_id="p")
    tissues = tissue_set([e[0], -e[0]])
    classes = class_set([e[0], -e[0]])
    lw = log_tissue_wsi_similarity(classes, tissues, 1e-4)
    calls = []
    log_space = pooling._log_space_weights
    monkeypatch.setattr(
        pooling, "_log_space_weights",
        lambda *a: calls.append((a[0], a[-1].tolist())) or log_space(*a))
    got = slip_features([bag], tissues, lw, 1e-4)[0]
    assert len(calls) == 1
    assert calls[0][0] is bag.patches.data and calls[0][1] == [1]
    want = oracle_slip_columns(patches.tolist(),
                               tissues.tolist(), classes.tolist(), 1e-4)
    assert np.max(np.abs(got - np.array(want))) <= 1e-12


@pytest.mark.parametrize("tau", [1e-309, 5e-324, math.inf, math.nan])
def test_public_poolings_check_tau(tau):
    # each public pooling function checks tau as Pipeline does; below the
    # floor they used to overflow to NaN with only a RuntimeWarning
    rng = np.random.default_rng(44)
    bag = random_bag(rng, 6, 8)
    tissues, lw, classes = make_similarities(rng, bag, 3, 2)
    calls = [lambda: log_tissue_wsi_similarity(classes, tissues, tau),
             lambda: slip_correlation(bag.patches.data, tissues, lw, tau),
             lambda: slip_features([bag], tissues, lw, tau),
             lambda: zero_shot_probabilities([bag], classes, tau)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(InvalidSettingError, match=f"tau={tau}"):
                call()


def test_worker_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(pooling, "GROUP_PATCHES", 8)
    monkeypatch.setattr(pooling, "_cores", lambda: 2)
    rng = np.random.default_rng(43)
    bag = random_bag(rng, 60, 8)
    tissues, lw, _ = make_similarities(rng, bag, 3, 2)
    start = threading.active_count()
    counts = []
    for _ in range(10):
        with pytest.raises(InvalidSettingError):
            slip_features([bag], tissues, lw, 0.0)
        counts.append(threading.active_count())
    assert_threads_settle(counts, start, 2)
    # the same error raised in the helper thread alone
    seen = spy_blocks(monkeypatch, worker_tau=lambda tau: -tau)
    with pytest.raises(InvalidSettingError):
        slip_features([bag], tissues, lw, 0.1)
    assert len({ident for _, ident in seen}) == 2
    assert threading.active_count() == counts[-1]


def test_helper_that_raised_serves_the_next_call(monkeypatch):
    monkeypatch.setattr(pooling, "GROUP_PATCHES", 8)
    monkeypatch.setattr(pooling, "_cores", lambda: 2)
    rng = np.random.default_rng(47)
    bag = random_bag(rng, 60, 8)
    tissues, lw, _ = make_similarities(rng, bag, 3, 2)
    want = slip_features([bag], tissues, lw, 0.1)
    correlation = pooling.slip_correlation
    raised = spy_blocks(monkeypatch, worker_tau=lambda tau: -tau)
    with pytest.raises(InvalidSettingError):
        slip_features([bag], tissues, lw, 0.1)
    threads = threading.active_count()
    # one worker per helper started so far, so every helper takes a block
    workers = pooling._helpers.started + 1
    monkeypatch.setattr(pooling, "_cores", lambda: workers)
    monkeypatch.setattr(pooling, "slip_correlation", correlation)
    seen = spy_blocks(monkeypatch)
    assert np.array_equal(slip_features([bag], tissues, lw, 0.1), want)
    caller = threading.main_thread().ident
    helper = {ident for _, ident in raised} - {caller}
    assert len(helper) == 1 and helper < {ident for _, ident in seen}
    assert len({ident for _, ident in seen}) == workers
    assert threading.active_count() == threads


def test_concurrent_callers_share_the_helpers(monkeypatch):
    # four callers at once on four claimed cores, switching threads every
    # microsecond: each gets the one-thread result every time, and the
    # helpers they share never number more than three
    monkeypatch.setattr(pooling, "GROUP_PATCHES", 8)
    rng = np.random.default_rng(48)
    bags = [random_bag(rng, int(n), 8) for n in rng.integers(40, 120, 4)]
    tissues, lw, _ = make_similarities(rng, bags[0], 3, 2)
    monkeypatch.setattr(pooling, "_cores", lambda: 1)
    want = [slip_features([bag], tissues, lw, 0.1) for bag in bags]
    monkeypatch.setattr(pooling, "_cores", lambda: 4)
    got = [[] for _ in bags]

    def call(i):
        for _ in range(20):
            got[i].append(slip_features([bags[i]], tissues, lw, 0.1))

    callers = [threading.Thread(target=call, args=(i,))
               for i in range(len(bags))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert [len(results) for results in got] == [20] * len(bags)
    assert all(np.array_equal(result, w)
               for results, w in zip(got, want) for result in results)
    helpers = [t for t in threading.enumerate() if t.name == "slipmil-blocks"]
    assert len(helpers) <= 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_pools_without_the_parents_helpers(monkeypatch):
    # the child has no copy of the helper the parent started: a child that
    # waited on it would hang until the alarm ends it
    monkeypatch.setattr(pooling, "GROUP_PATCHES", 8)
    monkeypatch.setattr(pooling, "_cores", lambda: 2)
    rng = np.random.default_rng(45)
    bag = random_bag(rng, 60, 8)
    tissues, lw, _ = make_similarities(rng, bag, 3, 2)
    want = slip_features([bag], tissues, lw, 0.1)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.alarm(5)
            os.write(write, slip_features([bag], tissues, lw, 0.1).tobytes())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        got = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    assert got == want.tobytes()


def test_interpreter_exits_with_helpers_alive():
    # the helpers are daemons and idle between bags, so exit waits on none
    code = (
        "import threading\n"
        "import numpy as np\n"
        "from slipmil import pooling\n"
        "from slipmil.core import EmbeddingMatrix, WsiBag\n"
        "pooling.GROUP_PATCHES = 8\n"
        "pooling._cores = lambda: 2\n"
        "def unit(n):\n"
        "    m = np.random.default_rng(n).standard_normal((n, 8))\n"
        "    return EmbeddingMatrix(m / np.linalg.norm(m, axis=1)[:, None])\n"
        "bag = WsiBag(patches=unit(60), coords=tuple((i, 0) for i in "
        "range(60)), label=0, patient_id='p')\n"
        "tissues = unit(3).data\n"
        "lw = pooling.log_tissue_wsi_similarity(unit(2).data, tissues, 0.1)\n"
        "pooling.slip_features([bag], tissues, lw, 0.1)\n"
        "print(threading.active_count())\n")
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=30,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout == "2\n"  # the caller and one helper


def test_cores_the_process_may_run_on(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert pooling._cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert pooling._cores() == (os.cpu_count() or 1)
