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
`encode_text_grad`) live with the tests, in `tests/oracles.py`, with the
comprehension form of the step that it matches bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import exp, inf, log, log1p, sqrt
from operator import add, mul

import numpy as np

from .core import MAX_CONTEXT_LENGTH, NORM_EPS
from .encoder import (D_T, DEFAULT_D_T, DEFAULT_ENCODER_SEED, SEED,
                      FrozenEncoderWeights, PromptContext, token_sums)
from .errors import (EmptyDatasetError, LabelOutOfRangeError,
                     MissingClassError, ZeroVectorError, check_fields,
                     check_setting)
from .pooling import (DEFAULT_TOPK, POOLINGS, TAU, TOPK_K, Pipeline,
                      TissuePromptSet, check_tau)


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

    # field -> (kind, range[, a word it may also be]): shots "all" trains on
    # every bag; pooling is a name of POOLINGS
    SETTINGS = {
        "tau": TAU, "learning_rate": (float, "[0, inf)"),
        "epochs": (int, "[1, inf)"), "shots": (int, "[1, inf)", "all"),
        "seed": SEED, "context_length": (int, f"[0, {MAX_CONTEXT_LENGTH}]"),
        "d_t": D_T, "encoder_seed": SEED, "topk_k": TOPK_K,
    }

    def __post_init__(self):
        check_fields(self, self.SETTINGS)
        check_tau(self.tau)
        check_setting(self.pooling in POOLINGS, f"pooling {self.pooling!r} "
                      f"must be one of {', '.join(POOLINGS)}")

    def pipeline(self, d_v: int, tissue_descriptions,
                 class_names) -> Pipeline:
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
                        pooling=self.pooling, topk_k=self.topk_k)


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
    labels = [check_label(bag.label, num_classes) for bag in dataset]

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
    append, dot, np_add, tau = history.records.append, np.dot, np.add, cfg.tau
    h = np.empty_like(tok_sums)
    products = np.empty((2 * num_classes, num_classes))  # [Q_b; h G] @ h^T
    listed, h_t, h_dot = products.ravel().tolist, h.T, h.dot
    bag_stacks = [(stack, stack.dot, stack[num_classes:]) for stack in stacks]
    try:  # an overflow fails its step, not a later norm that reads 0
        with np.errstate(over="raise", invalid="raise"):
            for epoch in range(cfg.epochs):
                for idx in rng.permutation(len(dataset)).tolist():
                    np_add(s, tok_sums, h)
                    stack, stack_dot, hg = bag_stacks[idx]
                    h_dot(gram, hg)
                    stack_dot(h_t, products)
                    loss, coef = _infonce_coefficients(
                        listed(), labels[idx], tau, rate, lengths)
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
    i * C + c, and nu_c^2 = h_c G h_c^T at C * C + c * (C + 1). Sums run
    left to right from 0, on every Python version (3.12's sum() does not).
    """
    num_classes = len(lengths)
    pairs = num_classes * num_classes
    inv, k = [], []  # 1 / nu_c and 1 / (tau nu_c)
    for c, length in enumerate(lengths):
        # max(q, 0.0) keeps a NaN q, which a BLAS overflow can leave unflagged
        nu = sqrt(max(products[pairs + c * (num_classes + 1)], 0.0))
        if not NORM_EPS * length <= nu < inf:
            raise ZeroVectorError(f"embedding norm {nu / length:.3e} not in "
                                  "[1e-12, inf)")
        inv.append(1.0 / nu)
        k.append(inv[c] / tau)
    zs = list(map(mul, products, k * num_classes))  # z / tau; stops at C * C
    top = max(zs)
    # dz = (e / total - [i == c == label]) / tau; the row sums (e k) and
    # column sums (e z) carry the e / total part, the corrections the rest
    e, total, rows, cols = [], 0, [], [0] * num_classes
    for i in range(0, pairs, num_classes):
        row = 0
        for c, z in enumerate(zs[i:i + num_classes]):
            v = exp(z - top)
            e.append(v)
            total += v
            row += v * k[c]
            cols[c] += v * z
        rows.append(row)
    diag = label * (num_classes + 1)
    # label pair at the maximum: e[diag] is 1; log1p keeps a tiny loss precise
    loss = (log1p(reduce(add, e[:diag], 0) + reduce(add, e[diag + 1:], 0))
            if zs[diag] == top else log(total) - (zs[diag] - top))
    g = rate / total
    coef = list(map(mul, [-g] * num_classes, rows))
    for v, w in zip(cols, inv):
        coef.append(g * v * w * w)
    coef[label] += rate * k[label]
    coef[num_classes + label] -= rate * zs[diag] * inv[label] ** 2
    return loss, coef


def check_label(label: int, num_classes: int) -> int:
    """The label, refused unless it names one of the classes."""
    if not 0 <= label < num_classes:
        raise LabelOutOfRangeError(f"label {label} outside [0, {num_classes})")
    return label
