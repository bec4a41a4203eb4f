"""Independent scalar-loop reference implementations used only by tests.

No code is shared with the main path: softmax-style quantities go through
mpmath at 50 significant digits, pooling reductions are explicit Python
loops over floats.
"""
from __future__ import annotations

import mpmath

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
