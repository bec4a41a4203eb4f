"""Supervised InfoNCE loss over class pairs and the few-shot SGD loop.

Only the prompt context is trainable. Slide features are pooled with
context-free class prompts, so they stay constant during training and are
precomputed once per bag.

The training loop runs in closed form. The encoder mean-pools
[context; tokens], so class c's embedding is
normalize(((sum_rows ctx + tok_sum_c) / L_c) @ P) with L_c = M +
n_tokens_c. Through class c the loss gradient reaches every context row as
the same row (P @ g_e) / L_c, and the context, shared by all classes,
receives the sum over classes. The class names are tokenized once per call
and every step works on C x d_t and d_v x C arrays. `infonce_loss` and
`infonce_grad` are the per-container reference the loop agrees with to
rounding.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    DEFAULT_D_T,
    FrozenEncoderWeights,
    PromptContext,
    context_sum_grad,
    encode_context_sums,
    encode_text_grad,
    token_sums,
)
from .errors import (
    DimensionMismatchError,
    EmptyDatasetError,
    LabelOutOfRangeError,
    MissingClassError,
    check_setting,
)
from .pooling import (
    ClassPromptSet,
    DEFAULT_TOPK,
    POOLING_VARIANTS,
    SlideFeature,
    TissuePromptSet,
    log_tissue_wsi_similarity,
    pooled_feature,
)

DEFAULT_ENCODER_SEED = 42


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for prompt training. The visual dimension d_v is not
    one of them: it is read from the data."""

    tau: float = 0.01
    learning_rate: float = 2e-4
    epochs: int = 50
    shots: int | str = "all"
    seed: int = 0
    pooling: str = "slip"
    context_length: int = 4
    d_t: int = DEFAULT_D_T
    encoder_seed: int = DEFAULT_ENCODER_SEED
    topk_k: int = DEFAULT_TOPK

    def __post_init__(self):
        check_setting(self.tau > 0, f"tau={self.tau} must be > 0")
        check_setting(self.learning_rate >= 0,
                      f"learning rate {self.learning_rate} must be >= 0")
        check_setting(self.epochs >= 1, f"epochs={self.epochs} must be >= 1")
        check_setting(self.pooling in POOLING_VARIANTS,
                      f"pooling must be one of {POOLING_VARIANTS}")
        check_setting(self.context_length >= 0,
                      f"context_length={self.context_length} must be >= 0")
        check_setting(self.topk_k >= 1, f"topk_k={self.topk_k} must be >= 1")
        check_setting(self.shots == "all" or int(self.shots) >= 1,
                      "shots must be >= 1 or 'all'")

    def encoder_weights(self, d_v: int) -> FrozenEncoderWeights:
        return FrozenEncoderWeights.create(
            self.encoder_seed, d_t=self.d_t, d_v=d_v
        )


@dataclass(frozen=True)
class TrainedPrompts:
    """The trained context, one context shared by every class.

    `contexts` holds exactly that one context and `shared` is always True;
    both stay in the constructor because reports store the context that
    way."""

    contexts: tuple
    shared: bool = True

    def __post_init__(self):
        object.__setattr__(self, "contexts", tuple(self.contexts))
        check_setting(self.shared and len(self.contexts) == 1,
                      f"expected one shared context, got shared={self.shared} "
                      f"with {len(self.contexts)} contexts")


@dataclass
class TrainHistory:
    """Per-step (epoch, bag index, loss) records."""

    records: list = field(default_factory=list)


def infonce_loss(f_wsi: SlideFeature, classes: ClassPromptSet, label: int,
                 tau: float) -> float:
    """Negative log-probability of the diagonal (label, label) pair among
    all C x C (feature column, class prompt) pairs."""
    z = _pair_logits(f_wsi, classes)
    c = _check_label(label, classes.size)
    zs = z / tau
    m = zs.max()
    e = np.exp(zs - m)
    return float(-(zs[c, c] - m) + np.log(e.sum()))


def infonce_grad(f_wsi: SlideFeature, classes: ClassPromptSet, label: int,
                 tau: float, prompts: TrainedPrompts,
                 weights: FrozenEncoderWeights) -> np.ndarray:
    """Gradient of infonce_loss w.r.t. the shared context (M x d_t).

    The slide feature is treated as constant; the chain runs through each
    class-prompt embedding into the context, summed over classes.
    """
    z = _pair_logits(f_wsi, classes)
    c = _check_label(label, classes.size)
    zs = z / tau
    m = zs.max()
    e = np.exp(zs - m)
    p = e / e.sum()
    dz = p.copy()
    dz[c, c] -= 1.0
    dz /= tau
    g_text = f_wsi.columns @ dz  # d_v x C: upstream per class embedding
    context = prompts.contexts[0]
    return np.sum([
        encode_text_grad(weights, classes.class_names[j], g_text[:, j],
                         context)
        for j in range(classes.size)
    ], axis=0)


def train_prompts(dataset, tissue_descriptions, class_names,
                  cfg: TrainConfig,
                  weights: FrozenEncoderWeights | None = None):
    """Plain SGD over the prompt context, batch size one.

    Each step is the closed form of infonce_loss + infonce_grad on the
    class names' token sums (see the module docstring).
    Returns (TrainedPrompts, TrainHistory); deterministic given cfg.seed.
    """
    dataset = list(dataset)
    if not dataset:
        raise EmptyDatasetError("training dataset is empty")
    class_names = list(class_names)
    num_classes = len(class_names)
    if num_classes < 2:
        raise MissingClassError("training requires at least 2 classes")
    present = {bag.label for bag in dataset}
    missing = sorted(set(range(num_classes)) - present)
    if missing:
        raise MissingClassError(f"no training bag for classes {missing}")
    for bag in dataset:
        _check_label(bag.label, num_classes)

    if weights is None:
        weights = cfg.encoder_weights(dataset[0].patches.cols)
    rng = np.random.default_rng(cfg.seed)
    ctx = PromptContext.init(rng, cfg.context_length, weights.d_t).vectors

    tissues = TissuePromptSet.from_descriptions(weights, tissue_descriptions)
    frozen_classes = ClassPromptSet.from_names(weights, class_names)
    lw = log_tissue_wsi_similarity(frozen_classes, tissues, cfg.tau)
    features = np.stack([
        pooled_feature(bag, tissues, frozen_classes, cfg.pooling, cfg.tau,
                       cfg.topk_k, lw=lw).columns
        for bag in dataset
    ])  # B x d_v x C
    tok_sums, lengths = token_sums(weights, class_names, cfg.context_length)

    history = TrainHistory()
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        for idx in order:
            idx = int(idx)
            label = dataset[idx].label
            emb, norms = encode_context_sums(weights, tok_sums, lengths,
                                             ctx.sum(axis=0, keepdims=True))
            f = features[idx]
            loss, dz = _infonce_step(f.T @ emb.T, label, cfg.tau)
            row_grads = context_sum_grad(weights, emb, norms, lengths,
                                         (f @ dz).T)  # C x d_t
            ctx = ctx - cfg.learning_rate * row_grads.sum(axis=0)
            history.records.append((epoch, idx, loss))

    return TrainedPrompts([PromptContext(ctx)]), history


def _infonce_step(z: np.ndarray, label: int, tau: float):
    """infonce_loss and d loss / d z for pair logits z, in one pass."""
    zs = z / tau
    m = zs.max()
    e = np.exp(zs - m)
    total = e.sum()
    dz = e / total
    dz[label, label] -= 1.0
    dz /= tau
    return math.log(total) - float(zs[label, label] - m), dz


def _pair_logits(f_wsi: SlideFeature, classes: ClassPromptSet) -> np.ndarray:
    if f_wsi.num_classes != classes.size:
        raise DimensionMismatchError(
            f"{f_wsi.num_classes} feature columns vs {classes.size} classes"
        )
    return f_wsi.columns.T @ classes.embeddings.data.T  # z[i, j]


def _check_label(label: int, num_classes: int) -> int:
    label = int(label)
    if not 0 <= label < num_classes:
        raise LabelOutOfRangeError(f"label {label} outside [0, {num_classes})")
    return label
