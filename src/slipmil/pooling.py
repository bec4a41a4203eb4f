"""Dual-similarity pooling and its ablation variants.

The slide feature weights each patch by how strongly it matches each
tissue description, composed with how relevant each tissue is to each
slide class. Ablations: plain averaging, per-class top-k selection, and
patch-averaged zero-shot scoring.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EmbeddingMatrix,
    WsiBag,
    cosine_matrix,
    normalize_vector,
    NORM_EPS,
)
from .encoder import FrozenEncoderWeights, PromptContext, encode_text
from .errors import (DimensionMismatchError, KOutOfRangeError,
                     NonPositiveTemperatureError, ZeroVectorError)

DEFAULT_TOPK = 16

POOLING_VARIANTS = ("slip", "topk", "avg")


@dataclass(frozen=True)
class TissuePromptSet:
    """Tissue descriptions with their unit-norm text embeddings."""

    descriptions: tuple
    embeddings: EmbeddingMatrix

    def __post_init__(self):
        object.__setattr__(self, "descriptions", tuple(self.descriptions))
        if len(self.descriptions) != self.embeddings.rows:
            raise DimensionMismatchError("descriptions vs embedding rows mismatch")

    @classmethod
    def from_descriptions(cls, weights: FrozenEncoderWeights,
                          descriptions) -> "TissuePromptSet":
        emb = np.stack([encode_text(weights, d) for d in descriptions])
        return cls(tuple(descriptions), EmbeddingMatrix(emb))

    @property
    def size(self) -> int:
        return self.embeddings.rows


@dataclass(frozen=True)
class ClassPromptSet:
    """Class-name embeddings, optionally produced with a learnable context
    shared by all classes."""

    class_names: tuple
    embeddings: EmbeddingMatrix

    def __post_init__(self):
        object.__setattr__(self, "class_names", tuple(self.class_names))
        if len(self.class_names) != self.embeddings.rows:
            raise DimensionMismatchError("class names vs embedding rows mismatch")

    @classmethod
    def from_names(cls, weights: FrozenEncoderWeights, class_names,
                   context: PromptContext | None = None) -> "ClassPromptSet":
        """Encode class names, each behind the one shared context if any."""
        names = tuple(class_names)
        emb = np.stack([encode_text(weights, n, context) for n in names])
        return cls(names, EmbeddingMatrix(emb))

    @property
    def size(self) -> int:
        return self.embeddings.rows


@dataclass(frozen=True)
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

    @property
    def num_classes(self) -> int:
        return self.columns.shape[1]


def log_tissue_wsi_similarity(classes: ClassPromptSet,
                              tissues: TissuePromptSet,
                              temperature: float) -> np.ndarray:
    """log S_wsi: row log-softmax of class-vs-tissue cosine similarities
    over the temperature (C x K), finite at any temperature > 0."""
    if temperature <= 0:
        raise NonPositiveTemperatureError(f"temperature {temperature} <= 0")
    z = cosine_matrix(classes.embeddings, tissues.embeddings) / temperature
    z -= z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _patch_logits(bag: WsiBag, tissues: TissuePromptSet, m: np.ndarray,
                  tau: float) -> np.ndarray:
    """cos(tissue, patch) / tau + m, K x N, shifted so that every patch's
    largest logit is 0."""
    if tau <= 0:
        raise NonPositiveTemperatureError(f"temperature {tau} <= 0")
    u = cosine_matrix(tissues.embeddings, bag.patches)
    u *= 1.0 / tau
    u += m[:, None]
    u -= u.max(axis=0)
    return u


def slip_correlation(bag: WsiBag, tissues: TissuePromptSet, lw: np.ndarray,
                     tau: float) -> np.ndarray:
    """Patch-to-class correlation, C x N: column n splits patch n's unit
    weight over the classes in proportion to sum_k S_patch[n, k] S_wsi[c, k].

    With m = lw.max(axis=0), exp(lw - m) has a 1 in every tissue column and
    the shifted logits a 0 in every patch column, so at any tau each patch
    has an entry >= 1 before the rescale, which also cancels S_patch's own
    normalisation; that is never computed."""
    m = lw.max(axis=0)
    u = _patch_logits(bag, tissues, m, tau)
    np.exp(u, out=u)
    corr = np.exp(lw - m) @ u
    corr /= corr.sum(axis=0)
    return corr


def _log_space_weights(bag: WsiBag, tissues: TissuePromptSet,
                       lw: np.ndarray, tau: float, rows) -> np.ndarray:
    """Patch weights of the given classes, each a softmax over patches of
    log corr[c, n]: rows x N."""
    m = lw.max(axis=0)
    u = _patch_logits(bag, tissues, m, tau)
    log_rescale = np.log(np.exp(lw - m).sum(axis=0) @ np.exp(u))
    a = u - log_rescale + (lw[rows] - m)[:, :, None]  # rows x K x N
    top = a.max(axis=1)
    log_corr = top + np.log(np.exp(a - top[:, None]).sum(axis=1))
    w = np.exp(log_corr - log_corr.max(axis=1, keepdims=True))
    return w / w.sum(axis=1, keepdims=True)


def slip_pool(bag: WsiBag, tissues: TissuePromptSet, lw: np.ndarray,
              tau: float) -> SlideFeature:
    """Aggregate patches into per-class columns weighted by the correlation,
    then unit-normalize each column. A class whose weights sum below N * K
    smallest normal floats may have lost them to underflow; its weights are
    recomputed in log space."""
    corr = slip_correlation(bag, tissues, lw, tau)
    total = corr.sum(axis=1, keepdims=True)
    tiny = bag.num_patches * tissues.size * np.finfo(float).tiny
    low = np.flatnonzero(total < tiny)
    if low.size:
        corr[low] = _log_space_weights(bag, tissues, lw, tau, low)
        total[low] = 1.0
    corr /= total  # unit weight per class: only cancellation trips the check
    raw = corr @ bag.patches.data  # C x d_v
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if np.any(norms < NORM_EPS):
        raise ZeroVectorError("pooled column norm < 1e-12")
    return SlideFeature((raw / norms).T)


def pool_average(bag: WsiBag) -> np.ndarray:
    """Unit-normalized mean of the bag's patch embeddings."""
    return normalize_vector(bag.patches.data.mean(axis=0))


def pool_topk(bag: WsiBag, classes: ClassPromptSet, k: int) -> SlideFeature:
    """Per class, average the k patches most similar to that class prompt.

    Ties are broken by lower patch index.
    """
    n = bag.num_patches
    if not 1 <= k <= n:
        raise KOutOfRangeError(f"k={k} outside [1, {n}]")
    scores = cosine_matrix(bag.patches, classes.embeddings)  # N x C
    cols = []
    for c in range(classes.size):
        order = np.argsort(-scores[:, c], kind="stable")
        top = np.sort(order[:k])  # fixed summation order
        cols.append(normalize_vector(bag.patches.data[top].mean(axis=0)))
    return SlideFeature(np.stack(cols, axis=1))


def pooled_feature(bag: WsiBag, tissues: TissuePromptSet,
                   frozen_classes: ClassPromptSet, pooling: str, tau: float,
                   topk_k: int, lw: np.ndarray | None) -> SlideFeature:
    """Slide feature for one bag under one of POOLING_VARIANTS; slip
    pooling needs lw, the log tissue-class similarity of frozen_classes."""
    if pooling == "slip":
        return slip_pool(bag, tissues, lw, tau)
    if pooling == "topk":
        return pool_topk(bag, frozen_classes, min(topk_k, bag.num_patches))
    if pooling == "avg":
        # one vector replicated per class column
        v = pool_average(bag)
        return SlideFeature(np.tile(v[:, None], (1, frozen_classes.size)))
    raise ValueError(f"pooling must be one of {POOLING_VARIANTS}")


def zero_shot_scores(bag: WsiBag, classes: ClassPromptSet,
                     temperature: float) -> np.ndarray:
    """Per-patch class softmax averaged over patches; sums to one. Works on
    class-major C x N logits: one shifted exp, a rescale of every patch
    column and a mean per class."""
    if temperature <= 0:
        raise NonPositiveTemperatureError(f"temperature {temperature} <= 0")
    z = cosine_matrix(classes.embeddings, bag.patches)
    z /= temperature
    z -= z.max(axis=0)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    return z.mean(axis=1)
