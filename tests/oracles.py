"""Reference implementations used only by tests, in two sections.

The scalar-loop oracles share no code with the main path: softmax-style
quantities go through mpmath at 50 significant digits, pooling reductions
are explicit Python loops over floats.

The numpy per-container references below them are the straightforward
forms the package's fast paths are checked against: row softmax into a
validated `SimilarityMatrix`, per-text encoder gradients, the InfoNCE
loss and context gradient built from prompted class rows on every call,
and pooling one bag at a time into a `SlideFeature`. Like the package's
pooling functions, they take tissues and classes as arrays of unit rows.
The training loop in `slipmil.trainer` and the list poolings in
`slipmil.pooling` match them to rounding, and the finite-difference tests
check them. `infonce_coefficients` is the training step's Python-float
loss and coefficients in comprehension form, which the loop's explicit
version matches bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from math import exp, log, log1p, sqrt
from operator import add, mul

import mpmath
import numpy as np

from slipmil.core import NORM_EPS, EmbeddingMatrix, _as_matrix
from slipmil.encoder import FrozenEncoderWeights, PromptContext
from slipmil.errors import (
    DimensionMismatchError,
    EmptySequenceError,
    InvalidSettingError,
    ZeroVectorError,
    check_value,
)
from slipmil.pooling import (
    POOLING_VARIANTS,
    SlideFeature,
    _log_space_weights,
    slip_correlation,
)

mpmath.mp.dps = 50


def oracle_softmax(rows, temperature):
    """Row softmax of logits/temperature, evaluated in 50-digit arithmetic."""
    out = []
    tau = mpmath.mpf(repr(float(temperature)))
    for row in rows:
        exps = [mpmath.exp(mpmath.mpf(repr(float(x))) / tau) for x in row]
        total = mpmath.fsum(exps)
        out.append([float(e / total) for e in exps])
    return out


def oracle_similarity(a_rows, b_rows, temperature):
    """Softmax-of-dot-products between two row collections."""
    logits = []
    for a in a_rows:
        logits.append([sum(float(x) * float(y) for x, y in zip(a, b))
                       for b in b_rows])
    return oracle_softmax(logits, temperature)


def oracle_correlation(s_patch, s_wsi):
    """N x C patch-to-class correlation: row n is sum_k S_patch[n][k]
    S_wsi[c][k], rescaled so each patch distributes unit weight."""
    k = len(s_patch[0])
    corr = [[sum(row[t] * cls[t] for t in range(k)) for cls in s_wsi]
            for row in s_patch]
    return [[w / sum(row) for w in row] for row in corr]


def oracle_slip_pool(patch_rows, s_patch, s_wsi):
    """Triple-loop pooled columns: column c = normalize(sum_n S[n][c] p_n)."""
    corr = oracle_correlation(s_patch, s_wsi)
    d = len(patch_rows[0])
    cols = []
    for c in range(len(s_wsi)):
        col = [0.0] * d
        for row, weights in zip(patch_rows, corr):
            w = weights[c]
            for a in range(d):
                col[a] += w * float(row[a])
        norm = sum(x * x for x in col) ** 0.5
        cols.append([x / norm for x in col])
    return cols  # list of C columns, each length d


def _mp_softmax_dots(a_rows, b_rows, tau):
    """Row softmax of dot products over tau, never rounded to float."""
    out = []
    for a in a_rows:
        exps = [mpmath.exp(mpmath.fsum(mpmath.mpf(float(x)) * mpmath.mpf(
                    float(y)) for x, y in zip(a, b)) / tau) for b in b_rows]
        total = mpmath.fsum(exps)
        out.append([e / total for e in exps])
    return out


def oracle_slip_columns(patches, tissues, classes, tau):
    """Slip-pooled columns from the float inputs, in 50-digit arithmetic
    throughout: S_patch, S_wsi, the correlation and its rescales are never
    rounded to float, so the returned floats are the only rounding."""
    tau = mpmath.mpf(float(tau))
    s_patch = _mp_softmax_dots(patches, tissues, tau)
    s_wsi = _mp_softmax_dots(classes, tissues, tau)
    corr = [[mpmath.fsum(p * w for p, w in zip(row, cls)) for cls in s_wsi]
            for row in s_patch]
    corr = [[w / mpmath.fsum(row) for w in row] for row in corr]
    d = len(patches[0])
    cols = []
    for c in range(len(s_wsi)):
        total = mpmath.fsum(row[c] for row in corr)
        col = [mpmath.fsum(row[c] / total * mpmath.mpf(float(p[a]))
                           for row, p in zip(corr, patches))
               for a in range(d)]
        norm = mpmath.sqrt(mpmath.fsum(x * x for x in col))
        cols.append([float(x / norm) for x in col])
    return cols  # list of C columns, each length d


def oracle_pool_average(patch_rows):
    n = len(patch_rows)
    d = len(patch_rows[0])
    mean = [sum(float(row[a]) for row in patch_rows) / n for a in range(d)]
    norm = sum(x * x for x in mean) ** 0.5
    return [x / norm for x in mean]


def oracle_pool_topk(patch_rows, class_rows, k):
    """Sort-based top-k column per class; ties by lower patch index."""
    cols = []
    for cls in class_rows:
        scores = [sum(float(x) * float(y) for x, y in zip(row, cls))
                  for row in patch_rows]
        order = sorted(range(len(patch_rows)), key=lambda i: (-scores[i], i))
        top = sorted(order[:k])
        cols.append(oracle_pool_average([patch_rows[i] for i in top]))
    return cols


def oracle_zero_shot(patch_rows, class_rows, temperature):
    sm = oracle_similarity(patch_rows, class_rows, temperature)
    n = len(sm)
    c = len(sm[0])
    return [sum(row[j] for row in sm) / n for j in range(c)]


def oracle_classify(columns, class_rows):
    """Argmax over diagonal alignments; ties to the lowest index."""
    best, best_score = 0, None
    for j, (col, cls) in enumerate(zip(columns, class_rows)):
        score = sum(float(x) * float(y) for x, y in zip(col, cls))
        if best_score is None or score > best_score:
            best, best_score = j, score
    return best


def oracle_infonce(z, label, temperature):
    """-log of the (label, label) pair probability among all C x C pairs,
    in 50-digit arithmetic."""
    tau = mpmath.mpf(repr(float(temperature)))
    exps = {}
    for i, row in enumerate(z):
        for j, val in enumerate(row):
            exps[(i, j)] = mpmath.exp(mpmath.mpf(repr(float(val))) / tau)
    num = exps[(label, label)]
    denom = mpmath.fsum(exps.values())
    return float(-mpmath.log(num / denom))


# -- numpy per-container references -----------------------------------------

@dataclass(frozen=True)
class SimilarityMatrix:
    """Row-stochastic similarity matrix produced by a temperature softmax."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_matrix(self.data))
        # Entries can underflow to exactly 0.0 for extreme logit spreads;
        # only the upper bound and sign are enforced here.
        if np.any(self.data < 0) or np.any(self.data > 1 + 1e-9):
            raise ValueError("similarity entries outside [0, 1]")


def softmax_rows(logits, temperature: float) -> SimilarityMatrix:
    """Temperature softmax per row with max-subtraction stabilization."""
    if temperature <= 0:
        raise InvalidSettingError(f"temperature {temperature} <= 0")
    z = _as_matrix(logits) / temperature
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    return SimilarityMatrix(p)


def l2_normalize_rows(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale each row to unit Euclidean norm."""
    norms = np.linalg.norm(m.data, axis=1)
    if np.any(norms < NORM_EPS):
        bad = int(np.argmin(norms))
        raise ZeroVectorError(f"row {bad} has norm {norms[bad]:.3e} < 1e-12")
    return EmbeddingMatrix(m.data / norms[:, None])


def _sequence(weights: FrozenEncoderWeights, context,
              text: str) -> np.ndarray:
    """The [context; tokens] sequence that encode_text mean-pools, L x d_t."""
    parts = []
    if context is not None and context.length > 0:
        parts.append(context.vectors)
    ids = weights.vocab.tokenize(text)
    if ids:
        parts.append(weights.token_table[ids])
    if not parts:
        raise EmptySequenceError(f"no tokens and no context for text {text!r}")
    return np.vstack(parts)


def encode_text_grad(weights: FrozenEncoderWeights, text: str,
                     upstream: np.ndarray,
                     context: PromptContext) -> np.ndarray:
    """Jacobian-transpose product of encode_text w.r.t. the context rows.

    Chains through the output normalization, the projection and the mean
    pooling; every context row receives 1/L of the mean gradient.
    """
    if context is None:
        raise EmptySequenceError("gradient requires a prompt context")
    upstream = np.asarray(upstream, dtype=np.float64)
    seq = _sequence(weights, context, text)
    h = seq.mean(axis=0)
    e = h @ weights.projection
    n = np.linalg.norm(e)
    if n < NORM_EPS:
        raise ZeroVectorError(f"projected embedding norm {n:.3e} < 1e-12")
    out = e / n
    g_e = (upstream - (upstream @ out) * out) / n
    g_h = weights.projection @ g_e
    row_grad = g_h / seq.shape[0]
    return np.tile(row_grad, (context.length, 1))


def encode_context_sums(weights: FrozenEncoderWeights, tok_sums: np.ndarray,
                        lengths: np.ndarray, context_sums: np.ndarray):
    """encode_text for every text at once, from the sum of its context rows
    (T x d_t, or one d_t row shared by all texts).

    Returns the unit embeddings (T x d_v) and their norms before
    normalization (T,), which context_sum_grad needs.
    """
    e = ((context_sums + tok_sums) / lengths[:, None]) @ weights.projection
    n = np.sqrt(np.einsum("td,td->t", e, e))
    if n.min() < NORM_EPS:
        raise ZeroVectorError(
            f"projected embedding norm {n.min():.3e} < 1e-12")
    return e / n[:, None], n


def context_sum_grad(weights: FrozenEncoderWeights, embeddings: np.ndarray,
                     norms: np.ndarray, lengths: np.ndarray,
                     upstream: np.ndarray) -> np.ndarray:
    """encode_text_grad for every text at once: row t is the gradient that
    each context row of text t receives for upstream row t (T x d_v)."""
    along = np.einsum("td,td->t", upstream, embeddings)[:, None]
    g_e = (upstream - along * embeddings) / norms[:, None]
    return (g_e @ weights.projection.T) / lengths[:, None]


def _pair_logits(f_wsi, classes) -> np.ndarray:
    if f_wsi.columns.shape[1] != len(classes):
        raise DimensionMismatchError(
            f"{f_wsi.columns.shape[1]} feature columns vs {len(classes)} "
            f"classes")
    return f_wsi.columns.T @ classes.T  # z[i, j]


def _infonce_step(z: np.ndarray, label: int, tau: float):
    """infonce_loss and d loss / d z for pair logits z, in one pass."""
    label = check_value("label", int(label), int, f"[0, {z.shape[0]})")
    zs = z / tau
    m = zs.max()
    e = np.exp(zs - m)
    total = e.sum()
    dz = e / total
    dz[label, label] -= 1.0
    dz /= tau
    return math.log(total) - float(zs[label, label] - m), dz


def _left_sum(values):
    """sum() as Python 3.11 takes it over floats: left to right from 0.
    Python 3.12's sum() compensates float rounding, so it is not used here."""
    return reduce(add, values, 0)


def infonce_coefficients(products: list, label: int, tau: float,
                         rate: float, lengths: list):
    """The training loop's per-step loss and coefficients as it took them
    in comprehensions, `_rows` and sum(); `slipmil.trainer`'s explicit loops
    must return the same bits (see `trainer._infonce_coefficients`)."""
    num_classes = len(lengths)
    pairs = num_classes * num_classes
    # max(q, 0.0) keeps a NaN q, which a BLAS overflow can leave unflagged
    nus = [sqrt(max(q, 0.0)) for q in products[pairs::num_classes + 1]]
    for nu, length in zip(nus, lengths):
        if not NORM_EPS * length <= nu < math.inf:
            raise ZeroVectorError(f"embedding norm {nu / length:.3e} not in "
                                  "[1e-12, inf)")
    inv = [1.0 / nu for nu in nus]
    k = [v / tau for v in inv] * num_classes  # 1 / (tau nu_c) at i * C + c
    zs = list(map(mul, products, k))  # z / tau; map stops after C * C
    top = max(zs)
    e = [exp(v - top) for v in zs]
    total = _left_sum(e)
    diag = label * (num_classes + 1)
    # label pair at the maximum: e[diag] is 1; log1p keeps a tiny loss precise
    loss = (log1p(_left_sum(e[:diag]) + _left_sum(e[diag + 1:]))
            if zs[diag] == top else log(total) - (zs[diag] - top))
    # dz = (e / total - [i == c == label]) / tau; the sums below carry the
    # e / total part and the two corrections after them the label part.
    g = rate / total
    row_sums = map(_left_sum, _rows(map(mul, e, k), num_classes))
    col_sums = map(_left_sum, zip(*_rows(map(mul, e, zs), num_classes)))
    coef = [-g * v for v in row_sums]
    coef += [g * v * w * w for v, w in zip(col_sums, inv)]
    coef[label] += rate * k[label]
    coef[num_classes + label] -= rate * zs[diag] * inv[label] ** 2
    return loss, coef


def _rows(values, width: int):
    """The rows, as tuples, of a row-major matrix given as a flat iterable."""
    return zip(*[iter(values)] * width)


def infonce_loss(f_wsi, classes, label: int, tau: float) -> float:
    """Negative log-probability of the diagonal (label, label) pair among
    all C x C (feature column, class prompt) pairs."""
    return _infonce_step(_pair_logits(f_wsi, classes), label, tau)[0]


def infonce_grad(f_wsi, classes, class_names, label: int, tau: float,
                 prompts, weights: FrozenEncoderWeights) -> np.ndarray:
    """Gradient of infonce_loss w.r.t. the shared context (M x d_t), with
    `classes` the `class_names` encoded behind that context.

    The slide feature is treated as constant; the chain runs through each
    class-prompt embedding into the context, summed over classes.
    """
    _, dz = _infonce_step(_pair_logits(f_wsi, classes), label, tau)
    g_text = f_wsi.columns @ dz  # d_v x C: upstream per class embedding
    context = prompts.contexts[0]
    return np.sum([
        encode_text_grad(weights, class_names[j], g_text[:, j],
                         context)
        for j in range(len(classes))
    ], axis=0)


def normalize_vector(v: np.ndarray) -> np.ndarray:
    """Unit-normalize a single vector, rejecting near-zero norms."""
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v)
    if n < NORM_EPS:
        raise ZeroVectorError(f"vector norm {n:.3e} < 1e-12")
    return v / n


def slip_pool(bag, tissues, lw: np.ndarray, tau: float) -> SlideFeature:
    """Slip pooling of one bag: correlation-weighted class columns, with
    the log-space weights for a class whose weights sum below N * K
    smallest normal floats."""
    patches = bag.patches.data
    corr = slip_correlation(patches, tissues, lw, tau)
    total = corr.sum(axis=1, keepdims=True)
    tiny = bag.num_patches * len(tissues) * np.finfo(float).tiny
    low = np.flatnonzero(total < tiny)
    if low.size:
        corr[low] = _log_space_weights(patches, tissues, lw, tau, low)
        total[low] = 1.0
    corr /= total
    raw = corr @ patches  # C x d_v
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    if np.any(norms < NORM_EPS):
        raise ZeroVectorError("pooled column norm < 1e-12")
    return SlideFeature((raw / norms).T)


def pool_average(bag) -> np.ndarray:
    """Unit-normalized mean of the bag's patch embeddings."""
    return normalize_vector(bag.patches.data.mean(axis=0))


def pool_topk(bag, classes, k: int) -> SlideFeature:
    """Per class, average the k patches most similar to that class prompt.
    Ties are broken by lower patch index."""
    n = bag.num_patches
    if not 1 <= k <= n:
        raise InvalidSettingError(f"k={k} outside [1, {n}]")
    scores = bag.patches.data @ classes.T  # N x C
    cols = []
    for c in range(len(classes)):
        order = np.argsort(-scores[:, c], kind="stable")
        top = np.sort(order[:k])  # fixed summation order
        cols.append(normalize_vector(bag.patches.data[top].mean(axis=0)))
    return SlideFeature(np.stack(cols, axis=1))


def pooled_feature(bag, tissues, frozen_classes, pooling: str, tau: float,
                   topk_k: int, lw) -> SlideFeature:
    """Slide feature for one bag under one of POOLING_VARIANTS."""
    if pooling == "slip":
        return slip_pool(bag, tissues, lw, tau)
    if pooling == "topk":
        return pool_topk(bag, frozen_classes, min(topk_k, bag.num_patches))
    if pooling == "avg":
        v = pool_average(bag)
        return SlideFeature(np.tile(v[:, None], (1, len(frozen_classes))))
    raise ValueError(f"pooling must be one of {POOLING_VARIANTS}")


def zero_shot_scores(bag, classes, temperature: float) -> np.ndarray:
    """Per-patch class softmax of one bag averaged over patches."""
    if temperature <= 0:
        raise InvalidSettingError(f"temperature {temperature} <= 0")
    z = classes @ bag.patches.data.T
    z /= temperature
    z -= z.max(axis=0)
    np.exp(z, out=z)
    z /= z.sum(axis=0)
    return z.mean(axis=1)
