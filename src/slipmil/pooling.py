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
    SimilarityMatrix,
    WsiBag,
    cosine_matrix,
    normalize_vector,
    softmax_rows,
    NORM_EPS,
)
from .encoder import FrozenEncoderWeights, PromptContext, encode_text
from .errors import DimensionMismatchError, KOutOfRangeError, ZeroVectorError

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


def tissue_wsi_similarity(classes: ClassPromptSet, tissues: TissuePromptSet,
                          temperature: float) -> SimilarityMatrix:
    """Row-softmax of class-vs-tissue cosine similarities (C x K)."""
    logits = cosine_matrix(classes.embeddings, tissues.embeddings)
    return softmax_rows(logits, temperature)


def patch_tissue_similarity(bag: WsiBag, tissues: TissuePromptSet,
                            temperature: float) -> SimilarityMatrix:
    """Row-softmax of patch-vs-tissue cosine similarities (N x K)."""
    logits = cosine_matrix(bag.patches, tissues.embeddings)
    return softmax_rows(logits, temperature)


def patch_slide_correlation(s_patch: SimilarityMatrix,
                            s_wsi: SimilarityMatrix) -> np.ndarray:
    """Patch-to-slide correlation matrix (N x C), row-normalized so every
    patch distributes unit weight across classes.

    The raw product of the two row-stochastic factors is not itself
    row-stochastic; the explicit rescale restores that contract (and makes
    the single-class case collapse to plain averaging).
    """
    if s_patch.cols != s_wsi.cols:
        raise DimensionMismatchError(
            f"tissue counts differ: {s_patch.cols} vs {s_wsi.cols}"
        )
    raw = s_patch.data @ s_wsi.data.T
    rowsum = raw.sum(axis=1, keepdims=True)
    if np.any(rowsum <= 0.0):
        raise ZeroVectorError("correlation row underflowed to zero")
    return raw / rowsum


def slip_pool(bag: WsiBag, s_patch: SimilarityMatrix,
              s_wsi: SimilarityMatrix) -> SlideFeature:
    """Aggregate patches into per-class columns weighted by the correlation
    matrix, then unit-normalize each column."""
    if s_patch.rows != bag.num_patches:
        raise DimensionMismatchError(
            f"{s_patch.rows} similarity rows for {bag.num_patches} patches"
        )
    corr = patch_slide_correlation(s_patch, s_wsi)
    # Sharp temperatures can drive every weight in a column to ~1e-40; the
    # column direction is still well defined, so rescale by the weight sum
    # before the degeneracy check. Only adversarial cancellation trips it.
    colsum = corr.sum(axis=0)
    if np.any(colsum <= 0.0):
        raise ZeroVectorError("correlation column underflowed to zero")
    raw = bag.patches.data.T @ (corr / colsum)  # d_v x C
    norms = np.linalg.norm(raw, axis=0)
    if np.any(norms < NORM_EPS):
        raise ZeroVectorError("pooled column norm < 1e-12")
    return SlideFeature(raw / norms)


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
                   topk_k: int, s_wsi: SimilarityMatrix | None
                   ) -> SlideFeature:
    """Slide feature for one bag under one of POOLING_VARIANTS; slip
    pooling needs s_wsi, the tissue-class similarity of frozen_classes."""
    if pooling == "slip":
        s_patch = patch_tissue_similarity(bag, tissues, tau)
        return slip_pool(bag, s_patch, s_wsi)
    if pooling == "topk":
        return pool_topk(bag, frozen_classes, min(topk_k, bag.num_patches))
    if pooling == "avg":
        # one vector replicated per class column
        v = pool_average(bag)
        return SlideFeature(np.tile(v[:, None], (1, frozen_classes.size)))
    raise ValueError(f"pooling must be one of {POOLING_VARIANTS}")


def zero_shot_scores(bag: WsiBag, classes: ClassPromptSet,
                     temperature: float) -> np.ndarray:
    """Per-patch class softmax averaged over patches; sums to one."""
    sm = softmax_rows(cosine_matrix(bag.patches, classes.embeddings),
                      temperature)
    return sm.data.mean(axis=0)
