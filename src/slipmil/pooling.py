"""Dual-similarity pooling and its ablation variants, over a list of bags,
and the Pipeline that pools and scores with them.

The slide feature weights each patch by how strongly it matches each
tissue description, composed with how relevant each tissue is to each
slide class. Ablations: plain averaging, per-class top-k selection, and
patch-averaged zero-shot scoring. Each takes a list of bags (one bag is a
list of one) and pools consecutive bags, up to GROUP_PATCHES patches, in
one array pass over patches in one layout (core.feature_major), so a bag
pools to the same bits whatever layout it was made in.

Slip pooling streams a bag of more than GROUP_PATCHES patches through row
blocks of at most GROUP_PATCHES, views of the bag, so no temporary grows
with the bag. Each block gives its class totals and weighted patch sums,
spread over the cores the process may run on when there are enough
blocks, by helper threads kept for the life of the process, and added in
block order: the result is bitwise the same for any core count.
"""
from __future__ import annotations

import os
import threading
from collections import deque
from copy import copy
from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING

import numpy as np

from .core import EmbeddingMatrix, WsiBag, NORM_EPS, feature_major
from .encoder import FrozenEncoderWeights, encode_texts
from .errors import (DimensionMismatchError, InvalidSettingError,
                     ZeroVectorError, check_setting, check_value)

if TYPE_CHECKING:
    from .trainer import TrainedPrompts

DEFAULT_TOPK = 16

POOLING_VARIANTS = ("slip", "topk", "avg")  # the poolings that train
POOLINGS = POOLING_VARIANTS + ("zero",)
# kind and range of a temperature and of topk's k, which TrainConfig shares
TAU = (float, "(0, inf)")
TOPK_K = (int, "[1, inf)")

GROUP_PATCHES = 4096  # most patches pooled in one array pass
# Fewest row blocks of a streamed bag worth spreading over threads: the
# threads contend for the interpreter lock between numpy calls, and on 2
# cores the smallest bags of two blocks pooled slower over two threads
# than in one.
SPREAD_BLOCKS = 3


def check_tau(tau: float) -> None:
    """Reject a temperature that is not positive and finite or at which
    pooling's widest logit difference overflows: log S_wsi spans 2/tau, and
    _patch_logits adds it to cosines over tau, then takes off each patch's
    largest logit, 1/tau + 2/tau + 1/tau. The 1e-9 covers cosines of unit
    vectors that round a little above 1."""
    span = 4 * (1 + 1e-9)
    if span / check_value("tau", tau, *TAU) == inf:
        raise InvalidSettingError(f"tau must be a finite real in {TAU[1]} "
                                  f"with a finite {span!r}/tau, got {tau!r}")


# The pooling functions take the text side as plain K x d_v tissue and
# C x d_v class arrays of unit rows. The two types below remain for the
# benchmark's workloads, which build a Pipeline from a TissuePromptSet and
# read .embeddings from pooling_classes() and scoring_classes().
@dataclass(frozen=True, eq=False)
class TissuePromptSet:
    """Unit-norm text embeddings of tissue descriptions, one row each."""

    embeddings: EmbeddingMatrix

    @classmethod
    def from_descriptions(cls, weights: FrozenEncoderWeights,
                          descriptions) -> "TissuePromptSet":
        return cls(EmbeddingMatrix(encode_texts(weights, descriptions)))


@dataclass(frozen=True, eq=False)
class ClassPromptSet:
    """Unit-norm text embeddings of class names, one row each."""

    embeddings: EmbeddingMatrix


@dataclass(frozen=True, eq=False)
class SlideFeature:
    """Class-specific slide feature: d_v x C with unit-norm columns."""

    columns: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.columns, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionMismatchError("slide feature must be d_v x C")
        norms = np.linalg.norm(arr, axis=0)
        if np.any(np.abs(norms - 1.0) > 1e-9):
            raise ValueError("slide feature columns must be unit-norm")
        object.__setattr__(self, "columns", arr)


def log_tissue_wsi_similarity(classes: np.ndarray, tissues: np.ndarray,
                              temperature: float) -> np.ndarray:
    """log S_wsi: row log-softmax of the cosine similarities of C x d_v
    classes and K x d_v tissues, unit rows, over the temperature (C x K),
    finite at any temperature that check_tau accepts."""
    check_tau(temperature)
    d, width = classes.shape[1], tissues.shape[1]
    if d != width:
        raise DimensionMismatchError(f"feature dims differ: {d} vs {width}")
    z = classes @ tissues.T / temperature
    z -= z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _groups(bags, width: int):
    """Groups of consecutive bags, at most GROUP_PATCHES patches or one bag:
    (slice of the bags, N x d_v feature-major patches, each bag's first
    row, sizes); joining bags already in that layout keeps it."""
    if any(bag.patches.cols != width for bag in bags):
        raise DimensionMismatchError(f"patch width differs from {width}")
    first = 0
    while first < len(bags):
        end, total = first + 1, bags[first].num_patches
        while (end < len(bags)
               and total + bags[end].num_patches <= GROUP_PATCHES):
            total += bags[end].num_patches
            end += 1
        group = [bag.patches.data for bag in bags[first:end]]
        sizes = np.array([len(p) for p in group])
        patches = np.concatenate(group) if len(group) > 1 else group[0]
        yield (slice(first, end), feature_major(patches),
               sizes.cumsum() - sizes, sizes)
        first = end


def _unit_columns(raw: np.ndarray) -> np.ndarray:
    """B x C x d_v pooled columns, each unit-normalized in place."""
    norms = np.sqrt(np.add.reduce(raw * raw, axis=2, keepdims=True))
    if norms.min(initial=1.0) < NORM_EPS:
        raise ZeroVectorError("pooled column norm < 1e-12")
    raw /= norms
    unit = np.sqrt(np.add.reduce(raw * raw, axis=2))
    if not abs(unit - 1.0).max(initial=0.0) <= 1e-9:
        raise ValueError("pooled columns must be unit-norm")
    return raw


def _patch_logits(patches: np.ndarray, tissues: np.ndarray,
                  m: np.ndarray, tau: float) -> np.ndarray:
    """cos(tissue, patch) / tau + m, K x N, shifted so that every patch's
    largest logit is 0."""
    u = tissues @ patches.T
    u *= 1.0 / tau
    u += m[:, None]
    u -= u.max(axis=0)
    return u


def slip_correlation(patches: np.ndarray, tissues: np.ndarray,
                     lw: np.ndarray, tau: float) -> np.ndarray:
    """Patch-to-class correlation of N x d_v patches, C x N: column n
    splits patch n's unit weight over the classes in proportion to
    sum_k S_patch[n, k] S_wsi[c, k].

    With m = lw.max(axis=0), exp(lw - m) has a 1 in every tissue column and
    the shifted logits a 0 in every patch column, so at any tau each patch
    has an entry >= 1 before the rescale, which also cancels S_patch's own
    normalisation; that is never computed."""
    check_tau(tau)
    m = lw.max(axis=0)
    u = _patch_logits(patches, tissues, m, tau)
    np.exp(u, out=u)
    corr = np.exp(lw - m) @ u
    corr /= corr.sum(axis=0)
    return corr


def _log_space_weights(patches: np.ndarray, tissues: np.ndarray,
                       lw: np.ndarray, tau: float, rows) -> np.ndarray:
    """Patch weights of one bag for the given classes, each a softmax over
    patches of log corr[c, n]: rows x N."""
    m = lw.max(axis=0)
    u = _patch_logits(patches, tissues, m, tau)
    log_rescale = np.log(np.exp(lw - m).sum(axis=0) @ np.exp(u))
    a = u - log_rescale + (lw[rows] - m)[:, :, None]  # rows x K x N
    top = a.max(axis=1)
    log_corr = top + np.log(np.exp(a - top[:, None]).sum(axis=1))
    w = np.exp(log_corr - log_corr.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _pool_blocks(blocks: list, todo: deque, sums: list,
                 tissues: np.ndarray, lw: np.ndarray, tau: float) -> None:
    """Pool row blocks of a bag until `todo`, the indices of the blocks
    that no thread has taken, is empty: sums[i] gets block i's C class
    totals and C x d_v correlation-weighted patch sum."""
    while True:
        try:
            i = todo.popleft()  # atomic: threads share todo
        except IndexError:
            return
        corr = slip_correlation(blocks[i], tissues, lw, tau)
        sums[i] = corr.sum(axis=1), corr @ blocks[i]


def _serve(jobs) -> None:
    """A helper thread's loop: pool the blocks of each job taken from
    `jobs`, then answer on the job's own queue with None or the error."""
    while True:
        args, done = jobs.get()
        try:
            _pool_blocks(*args)
        except Exception as error:  # raised again in the caller
            done.put(error)
        else:
            done.put(None)


class _Helpers:
    """The helper threads of this process, which pool the blocks of every
    streamed bag beside the caller. They start the first time a bag needs
    them, never more than the cores less one, and are daemons, so no exit
    waits on them. All take jobs from one queue, so a job waits on no
    particular thread, and one that raised takes the next job. They gain
    most under one BLAS thread; BLAS's own threads contend with them for
    the cores (ROADMAP item 10)."""

    def __init__(self):
        self.lock = threading.Lock()  # one caller at a time starts threads
        self.jobs = None
        self.started = 0

    def pool(self, helpers: int, args: tuple) -> None:
        """_pool_blocks(*args) in the caller and up to `helpers` helper
        threads; returns once each of them is done with the bag, raising
        the first error any of them raised."""
        import queue  # here: `import slipmil` need not load it
        with self.lock:
            if self.jobs is None:
                self.jobs = queue.SimpleQueue()
            for _ in range(self.started, helpers):
                threading.Thread(target=_serve, args=(self.jobs,),
                                 name="slipmil-blocks", daemon=True).start()
                self.started += 1
            jobs = self.jobs
        done = queue.SimpleQueue()
        for _ in range(helpers):
            jobs.put((args, done))
        try:
            _pool_blocks(*args)
        finally:  # the blocks and sums stay in use until every job ends
            errors = [done.get() for _ in range(helpers)]
        for error in errors:
            if error is not None:
                raise error


_helpers = _Helpers()
if hasattr(os, "register_at_fork"):  # not on every platform
    # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_helpers.__init__)


def _streamed_slip(patches: np.ndarray, tissues: np.ndarray,
                   lw: np.ndarray, tau: float, tiny: float) -> np.ndarray:
    """The C x d_v weighted patch mean of one bag of more than
    GROUP_PATCHES patches, pooled over equal row blocks of at most
    GROUP_PATCHES, each a view of the bag. A bag of SPREAD_BLOCKS or more
    blocks is spread: the caller and one helper thread per further core,
    up to one per block, take blocks in turn until none is left. The block
    sums are added in block order, so the result does not depend on the
    core count.

    Helper threads call slip_correlation, and through it check_tau and
    _patch_logits. The call tracer in perfbench keeps one span stack and
    would misplace spans recorded from a thread, so it must not trace
    those names until it keeps one stack per thread."""
    n = len(patches)
    count = -(-n // GROUP_PATCHES)
    blocks = [patches[i * n // count:(i + 1) * n // count]
              for i in range(count)]
    todo, sums = deque(range(count)), [None] * count
    args = (blocks, todo, sums, tissues, lw, tau)
    workers = min(_cores(), count) if count >= SPREAD_BLOCKS else 1
    if workers > 1:
        _helpers.pool(workers - 1, args)
    else:
        _pool_blocks(*args)
    totals, raw = sums[0]
    for block_totals, block_raw in sums[1:]:
        totals += block_totals
        raw += block_raw
    rows = np.flatnonzero(totals < n * tiny)
    if rows.size:
        raw[rows] = _log_space_weights(patches, tissues, lw, tau,
                                       rows) @ patches
        totals[rows] = 1.0
    raw /= totals[:, None]
    return raw


def slip_features(bags, tissues: np.ndarray, lw: np.ndarray,
                  tau: float) -> np.ndarray:
    """Per bag and class, the mean of the bag's patches weighted by the
    correlation, unit-normalized: B x C x d_v. A (bag, class) whose weights
    sum below n_b * K smallest normal floats may have lost them to
    underflow; only its weights are recomputed in log space."""
    width = tissues.shape[1]
    out = np.empty((len(bags), lw.shape[0], width))
    tiny = len(tissues) * np.finfo(float).tiny
    for group, patches, starts, sizes in _groups(bags, width):
        if len(patches) > GROUP_PATCHES:  # one bag, pooled in blocks
            out[group.start] = _streamed_slip(patches, tissues, lw, tau, tiny)
            continue
        corr = slip_correlation(patches, tissues, lw, tau)
        # C x bags; a bag alone keeps the pairwise sum of a per-bag pooling
        totals = (corr.sum(axis=1, keepdims=True) if sizes.size == 1
                  else np.add.reduceat(corr, starts, axis=1))
        low = totals < sizes * tiny
        bounds = list(zip(starts.tolist(), (starts + sizes).tolist()))
        for j in np.flatnonzero(low.any(axis=0)):
            rows = np.flatnonzero(low[:, j])
            start, stop = bounds[j]
            corr[rows, start:stop] = _log_space_weights(
                patches[start:stop], tissues, lw, tau, rows)
            totals[rows, j] = 1.0
        for j, (start, stop) in enumerate(bounds):
            weights = corr[:, start:stop]
            weights /= totals[:, j, None]  # unit weight per class
            out[group.start + j] = weights @ patches[start:stop]
    return _unit_columns(out)


def topk_features(bags, classes: np.ndarray, k: int) -> np.ndarray:
    """Per bag and class, the unit-normalized mean of the min(k, n_b)
    patches most similar to that class prompt: B x C x d_v. Ties go to the
    lower patch index, and the chosen patches are summed in index order."""
    k = check_value("k", k, *TOPK_K)
    width = classes.shape[1]
    out = np.empty((len(bags), len(classes), width))
    for group, patches, starts, sizes in _groups(bags, width):
        kept = np.minimum(sizes, min(k, sizes.max()))  # k may pass int64
        bag = np.repeat(np.arange(sizes.size), sizes)
        # sorted by (bag, -score), position p holds rank p - starts[bag[p]]
        chosen = np.arange(bag.size) - starts[bag] < kept[bag]
        scores = patches @ classes.T  # N x C
        for c in range(len(classes)):
            top = np.sort(np.lexsort((-scores[:, c], bag))[chosen])
            out[group, c] = np.add.reduceat(
                patches[top], np.cumsum(kept) - kept, axis=0) / kept[:, None]
    return _unit_columns(out)


def average_features(bags, classes: np.ndarray) -> np.ndarray:
    """Each bag's unit-normalized patch mean, repeated as every class
    column: B x C x d_v."""
    width = classes.shape[1]
    out = np.empty((len(bags), 1, width))
    for group, patches, starts, sizes in _groups(bags, width):
        out[group, 0] = (np.add.reduceat(patches, starts, axis=0)
                         / sizes[:, None])
    return np.repeat(_unit_columns(out), len(classes), axis=1)


def zero_shot_probabilities(bags, classes: np.ndarray,
                            temperature: float) -> np.ndarray:
    """Per bag, the per-patch class softmax averaged over patches: B x C,
    rows summing to one. Per group: one shifted exp over class-major C x N
    logits, a rescale of every patch column and a mean per bag and class."""
    check_tau(temperature)
    out = np.empty((len(bags), len(classes)))
    for group, patches, starts, sizes in _groups(bags, classes.shape[1]):
        z = classes @ patches.T
        z /= temperature
        z -= z.max(axis=0)
        np.exp(z, out=z)
        z /= z.sum(axis=0)
        out[group] = (np.add.reduceat(z, starts, axis=1) / sizes).T
    return out


def classify(features: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """Per bag of B x C x d_v features, the argmax over diagonal (column j,
    class prompt j) alignments; ties go to the lowest class index."""
    if features.shape[1] != len(classes):
        raise DimensionMismatchError(f"{features.shape[1]} feature columns "
                                     f"vs {len(classes)} classes")
    scores = np.einsum("bjd,jd->bj", features, classes)
    return np.argmax(scores, axis=1)


@dataclass(frozen=True, eq=False)
class Pipeline:
    """Everything needed to score a bag: encoder, text embeddings, pooling.

    Pooling uses the context-free class rows, scoring the prompted ones;
    both, and log S_wsi for slip pooling, are computed at construction. Only
    slip pooling reads tissues; the other variants take tissues=None."""

    weights: FrozenEncoderWeights
    tissues: TissuePromptSet | None
    class_names: tuple
    tau: float = 0.01
    pooling: str = "slip"  # one of POOLINGS
    topk_k: int = DEFAULT_TOPK
    prompts: TrainedPrompts | None = None

    def __post_init__(self):
        check_tau(self.tau)
        check_setting(self.pooling in POOLINGS, f"pooling {self.pooling!r} "
                      f"must be one of {', '.join(POOLINGS)}")
        names = tuple(self.class_names)
        frozen = encode_texts(self.weights, names)
        tissues = lw = None
        if self.pooling == "slip":
            check_setting(self.tissues is not None,
                          "slip pooling needs a tissue prompt set")
            tissues = self.tissues.embeddings.data
            lw = log_tissue_wsi_similarity(frozen, tissues, self.tau)
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "_frozen", frozen)
        object.__setattr__(self, "_scoring", frozen)
        object.__setattr__(self, "_tissues", tissues)
        object.__setattr__(self, "_lw", lw)
        if self.prompts is not None:
            self._score_with(self.prompts)

    def _score_with(self, prompts: TrainedPrompts) -> None:
        object.__setattr__(self, "prompts", prompts)
        object.__setattr__(self, "_scoring", encode_texts(
            self.weights, self.class_names, prompts.contexts[0]))

    def with_prompts(self, prompts: TrainedPrompts) -> Pipeline:
        """A copy that scores with `prompts`; the pooling side, log S_wsi
        included, is shared with this one, not computed again."""
        new = copy(self)
        new._score_with(prompts)
        return new

    def scoring_classes(self) -> ClassPromptSet:
        """Class prompts used on the text side of classification."""
        return ClassPromptSet(EmbeddingMatrix(self._scoring))

    def pooling_classes(self) -> ClassPromptSet:
        return ClassPromptSet(EmbeddingMatrix(self._frozen))

    def correlation(self, bag: WsiBag) -> np.ndarray:
        """Patch-to-class correlation of one bag under slip pooling, C x N."""
        return slip_correlation(feature_major(bag.patches.data),
                                self._tissues, self._lw, self.tau)

    def features(self, bags) -> np.ndarray:
        """Pooled features of a list of bags, B x C x d_v (not zero-shot)."""
        if self.pooling == "slip":
            return slip_features(bags, self._tissues, self._lw, self.tau)
        if self.pooling == "topk":
            return topk_features(bags, self._frozen, self.topk_k)
        check_setting(self.pooling == "avg",
                      "zero-shot scoring pools no slide feature")
        return average_features(bags, self._frozen)

    def slide_feature(self, bag: WsiBag) -> SlideFeature:
        return SlideFeature(self.features([bag])[0].T)

    def predict_bags(self, bags) -> np.ndarray:
        """The predicted class of each bag in a list, so one bag's is
        predict_bags([bag])[0]; zero-shot averages each patch's softmax
        over the raw class names."""
        if self.pooling == "zero":
            return np.argmax(
                zero_shot_probabilities(bags, self._frozen, self.tau), axis=1)
        return classify(self.features(bags), self._scoring)
