"""Supervised InfoNCE loss over class pairs and the few-shot SGD loop.

Only the prompt context is trainable. Slide features are pooled with
context-free class prompts, so they stay constant during training and are
pooled once, for all training bags in one call of the run's Pipeline.

Every SGD step works in the token dimension d_t. The encoder mean-pools
[context; tokens], so class c's embedding depends on the M context rows
only through their sum s. With h_c = s + t_c (t_c the class name's token
sum, L_c = M + n_tokens_c), P the d_t x d_v projection and G = P P^T:

    e_c = h_c P / nu_c,  nu_c = sqrt(h_c G h_c^T) = |h_c P|.

nu_c is computed from h_c as written, so a class whose nu_c / L_c falls
below 1e-12, or whose nu_c overflows, raises ZeroVectorError where
encode_text would; so does a step whose arithmetic overflows.

A training bag with pooled feature F_b (d_v x C) enters only through
Q_b = F_b^T P^T (C x d_t): its pair logits are z[i, c] = Q_b[i] . h_c / nu_c.
G and every Q_b are formed once per call. The loss over the C x C logits
and dz = d loss / d z are computed in Python floats, and the gradient that
each context row receives is

    grad_s = sum_c (sum_i dz[i, c] Q_b[i] - a_c (h_c G) / nu_c) / nu_c,
    a_c = sum_i dz[i, c] z[i, c].

Every row moves by -lr grad_s, so the loop carries s and forms the
M x d_t context once at the end. The per-container references that this
loop matches to rounding (`infonce_loss`, `infonce_grad`,
`encode_text_grad`) live with the tests, in `tests/oracles.py`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, inf, log, log1p, sqrt
from operator import mul

import numpy as np

from .core import MAX_CONTEXT_LENGTH, NORM_EPS
from .encoder import (
    DEFAULT_D_T,
    DEFAULT_ENCODER_SEED,
    FrozenEncoderWeights,
    PromptContext,
    token_sums,
)
from .errors import (
    EmptyDatasetError,
    LabelOutOfRangeError,
    MissingClassError,
    ZeroVectorError,
    check_setting,
)
from .pooling import (DEFAULT_TOPK, POOLINGS, Pipeline, TissuePromptSet,
                      check_tau)


def check_shots(shots: int | str) -> None:
    """Reject a few-shot count below one; "all" trains on every bag."""
    check_setting(shots == "all" or int(shots) >= 1,
                  f"shots must be >= 1 or 'all', got {shots}")


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
        check_tau(self.tau)
        check_setting(0 <= self.learning_rate < inf, f"learning rate "
                      f"{self.learning_rate} must be in [0, inf)")
        check_setting(self.epochs >= 1, f"epochs={self.epochs} must be >= 1")
        check_setting(self.pooling in POOLINGS, f"pooling {self.pooling!r} "
                      f"must be one of {', '.join(POOLINGS)}")
        for name in ("seed", "encoder_seed"):
            check_setting(getattr(self, name) >= 0, f"{name} must be >= 0")
        check_setting(0 <= self.context_length <= MAX_CONTEXT_LENGTH,
                      f"context_length={self.context_length} must be in "
                      f"[0, {MAX_CONTEXT_LENGTH}]")
        check_setting(self.topk_k >= 1, f"topk_k={self.topk_k} must be >= 1")
        check_shots(self.shots)

    def pipeline(self, d_v: int, tissue_descriptions, class_names,
                 prompts: TrainedPrompts | None = None) -> Pipeline:
        """The Pipeline of these settings for d_v-wide patches, zero-shot
        included: the one place that draws the encoder and encodes tissue
        descriptions, which only slip pooling reads."""
        weights = FrozenEncoderWeights.create(self.encoder_seed, d_t=self.d_t,
                                              d_v=d_v)
        tissues = (TissuePromptSet.from_descriptions(weights,
                                                     tissue_descriptions)
                   if self.pooling == "slip" else None)
        return Pipeline(weights=weights, tissues=tissues,
                        class_names=tuple(class_names), tau=self.tau,
                        pooling=self.pooling, topk_k=self.topk_k,
                        prompts=prompts)


@dataclass(frozen=True, eq=False)
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


def train_prompts(dataset, tissue_descriptions, class_names,
                  cfg: TrainConfig, pipeline: Pipeline | None = None):
    """Plain SGD over the prompt context, batch size one.

    Each step takes the InfoNCE loss and its context gradient in d_t space
    (see the module docstring). The training bags are pooled by `pipeline`,
    cfg's Pipeline without prompts, built here when not given.
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
    labels = [_check_label(bag.label, num_classes) for bag in dataset]

    if pipeline is None:
        pipeline = cfg.pipeline(dataset[0].patches.cols, tissue_descriptions,
                                class_names)
    weights = pipeline.weights
    rng = np.random.default_rng(cfg.seed)
    ctx = PromptContext.init(rng, cfg.context_length, weights.d_t).vectors

    proj = weights.projection
    gram = proj @ proj.T  # G
    # Per bag, rows [0, C) hold Q_b; each step writes h G into rows [C, 2C).
    stacks = np.empty((len(dataset), 2 * num_classes, weights.d_t))
    stacks[:, :num_classes] = pipeline.features(dataset) @ proj.T
    tok_sums, lengths = token_sums(weights, class_names, cfg.context_length)
    lengths = lengths.tolist()
    s0 = ctx.sum(axis=0)
    s = s0.copy()
    # each of the M rows moves by -lr grad_s, so s moves M times as far
    rate = cfg.learning_rate * cfg.context_length

    history = TrainHistory()
    # names bound once; each step writes h, h G and the products in place
    append, dot, add, tau = history.records.append, np.dot, np.add, cfg.tau
    h = np.empty_like(tok_sums)
    products = np.empty((2 * num_classes, num_classes))  # [Q_b; h G] @ h^T
    flat, h_t = products.ravel(), h.T
    bag_stacks = [(stack, stack[num_classes:]) for stack in stacks]
    try:  # an overflow fails its step, not a later norm that reads 0
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(cfg.epochs):
                for idx in rng.permutation(len(dataset)).tolist():
                    add(s, tok_sums, out=h)
                    stack, hg = bag_stacks[idx]
                    dot(h, gram, out=hg)
                    dot(stack, h_t, out=products)
                    loss, coef = _infonce_coefficients(
                        flat.tolist(), labels[idx], tau, rate, lengths)
                    s += dot(coef, stack)
                    append((epoch, idx, loss))
    except FloatingPointError as exc:
        raise ZeroVectorError(f"embedding norm inf: an SGD step overflowed "
                              f"({exc})") from exc
    # a BLAS product can overflow unflagged; no later step's norms see the last
    if not np.isfinite(s).all():
        raise ZeroVectorError("embedding norm inf: the last SGD step "
                              "overflowed")

    ctx = ctx + (s - s0) / max(cfg.context_length, 1)  # M = 0: s is s0
    return TrainedPrompts([PromptContext(ctx)]), history


def _infonce_coefficients(products: list, label: int, tau: float,
                          rate: float, lengths: list):
    """The InfoNCE loss of one step and the 2C coefficients u with
    u @ [Q_b; h G] = -rate * grad_s, in Python floats.

    `products` is [Q_b; h G] @ h^T flattened row-major: Q_b[i] . h_c at
    i * C + c, and nu_c^2 = h_c G h_c^T at C * C + c * (C + 1).
    """
    num_classes = len(lengths)
    pairs = num_classes * num_classes
    # max(q, 0.0) keeps a NaN q, which a BLAS overflow can leave unflagged
    nus = [sqrt(max(q, 0.0)) for q in products[pairs::num_classes + 1]]
    for nu, length in zip(nus, lengths):
        if not NORM_EPS * length <= nu < inf:
            raise ZeroVectorError(f"embedding norm {nu / length:.3e} not in "
                                  "[1e-12, inf)")
    inv = [1.0 / nu for nu in nus]
    k = [v / tau for v in inv] * num_classes  # 1 / (tau nu_c) at i * C + c
    zs = list(map(mul, products, k))  # z / tau; map stops after C * C
    top = max(zs)
    e = [exp(v - top) for v in zs]
    total = sum(e)
    diag = label * (num_classes + 1)
    # label pair at the maximum: e[diag] is 1; log1p keeps a tiny loss precise
    loss = (log1p(sum(e[:diag]) + sum(e[diag + 1:])) if zs[diag] == top
            else log(total) - (zs[diag] - top))
    # dz = (e / total - [i == c == label]) / tau; the sums below carry the
    # e / total part and the two corrections after them the label part.
    g = rate / total
    row_sums = map(sum, _rows(map(mul, e, k), num_classes))
    col_sums = map(sum, zip(*_rows(map(mul, e, zs), num_classes)))
    coef = [-g * v for v in row_sums]
    coef += [g * v * w * w for v, w in zip(col_sums, inv)]
    coef[label] += rate * k[label]
    coef[num_classes + label] -= rate * zs[diag] * inv[label] ** 2
    return loss, coef


def _rows(values, width: int):
    """The rows, as tuples, of a row-major matrix given as a flat iterable."""
    return zip(*[iter(values)] * width)


def _check_label(label: int, num_classes: int) -> int:
    label = int(label)
    if not 0 <= label < num_classes:
        raise LabelOutOfRangeError(f"label {label} outside [0, {num_classes})")
    return label
