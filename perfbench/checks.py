"""Output checks that do not go through the code under test.

The dataset container is written and parsed here with plain numpy, slip
pooling and classification are re-derived from their definitions, and run
reports are compared with values recorded from an earlier run. Every check
returns an error string, or None when the output is correct.
"""
from __future__ import annotations

import struct

import numpy as np

MAGIC = b"SLIPEMB1"
VERSION = 1
POOL_TOL = 1e-9
CONTEXT_TOL = 1e-9


# -- dataset container -------------------------------------------------------
def write_dataset(path, makers, d_v: int, num_classes: int) -> None:
    """Write the v1 container one bag at a time.

    Each maker returns (patches, label, patient id) when called, so only one
    bag is in memory. Coordinates fill a square grid row by row."""
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IIII", VERSION, d_v, len(makers),
                                     num_classes))
        for make in makers:
            patches, label, pid = make()
            n = patches.shape[0]
            width = int(np.ceil(np.sqrt(n)))
            idx = np.arange(n, dtype="<u4")
            coords = np.stack([idx % width, idx // width], axis=1)
            pid_b = pid.encode("utf-8")
            fh.write(struct.pack("<IIH", n, label, len(pid_b)) + pid_b)
            fh.write(coords.astype("<u4").tobytes())
            fh.write(patches.astype("<f4").tobytes())


def parse_dataset(path):
    """Return [(patches float64 n x d, coords n x 2, label, patient id)]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ValueError("bad magic")
    version, d_v, num_bags, _ = struct.unpack_from("<IIII", blob, 8)
    if version != VERSION:
        raise ValueError(f"version {version}")
    pos, bags = 24, []
    for _ in range(num_bags):
        n, label, pid_len = struct.unpack_from("<IIH", blob, pos)
        pos += 10
        pid = blob[pos:pos + pid_len].decode("utf-8")
        pos += pid_len
        coords = np.frombuffer(blob, "<u4", 2 * n, pos).reshape(n, 2)
        pos += 8 * n
        patches = np.frombuffer(blob, "<f4", n * d_v, pos).reshape(n, d_v)
        pos += 4 * n * d_v
        bags.append((patches.astype(np.float64), coords, label, pid))
    if pos != len(blob):
        raise ValueError(f"{len(blob) - pos} trailing bytes")
    return bags


def same_bags(program_bags, parsed) -> str | None:
    """Bags read by the program must equal an independent parse bit for
    bit."""
    if len(program_bags) != len(parsed):
        return f"{len(program_bags)} bags read, file holds {len(parsed)}"
    for i, (bag, (patches, coords, label, pid)) in enumerate(
            zip(program_bags, parsed)):
        if not np.array_equal(bag.patches.data, patches):
            return f"bag {i}: patches differ from the file"
        if not np.array_equal(np.asarray(bag.coords).reshape(-1, 2), coords):
            return f"bag {i}: coords differ from the file"
        if (bag.label, bag.patient_id) != (label, pid):
            return f"bag {i}: label or patient id differs from the file"
    return None


# -- pooling and classification ---------------------------------------------
def _softmax(logits: np.ndarray, tau: float) -> np.ndarray:
    z = logits / tau
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def slip_columns(patches, tissue_emb, class_emb, tau) -> np.ndarray:
    """Dual-similarity pooling from its definition: patches are
    soft-assigned to tissues, tissues to classes, and each class column is
    the correlation-weighted patch mean, unit-normalized."""
    s_patch = _softmax(patches @ tissue_emb.T, tau)  # N x K
    s_wsi = _softmax(class_emb @ tissue_emb.T, tau)  # C x K
    corr = s_patch @ s_wsi.T
    corr /= corr.sum(axis=1, keepdims=True)
    raw = patches.T @ (corr / corr.sum(axis=0))  # d x C
    return raw / np.linalg.norm(raw, axis=0)


def classify(columns, class_emb) -> int:
    """Argmax of the alignment of column j with class prompt j."""
    return int(np.argmax((columns * class_emb.T).sum(axis=0)))


def pooled_mismatch(columns, reference) -> str | None:
    err = float(np.max(np.abs(np.asarray(columns) - reference)))
    if not err <= POOL_TOL:
        return f"pooled columns differ by {err:.3e} > {POOL_TOL:g}"
    return None


# -- run reports ---------------------------------------------------------------
def report_problem(doc: dict, shots: int, epochs: int) -> str | None:
    """Internal consistency of one `train` report."""
    m = doc["metrics"]
    confusion = np.asarray(m["confusion_matrix"])
    classes = len(doc["class_names"])
    pool = doc["config"]["eval_pool_size"]
    if confusion.shape != (classes, classes) or confusion.sum() != pool:
        return "confusion matrix does not cover the evaluation pool"
    if m["num_bags"] != pool:
        return "num_bags differs from the evaluation pool size"
    if m["bag_accuracy"] != np.trace(confusion) / pool:
        return "bag accuracy disagrees with the confusion matrix"
    if not 0.0 <= m["class_averaged_accuracy"] <= 1.0:
        return "class-averaged accuracy outside [0, 1]"
    if len(doc["history"]) != epochs * shots * classes:
        return f"{len(doc['history'])} SGD steps, expected " \
               f"{epochs * shots * classes}"
    vectors = np.asarray(doc["context"]["vectors"], dtype=np.float64)
    if vectors.ndim != 3 or not np.all(np.isfinite(vectors)):
        return "trained context is not a finite stack of matrices"
    return None


def reference_mismatch(doc, expected: dict) -> str | None:
    """Compare a run with recorded values: exit status, metrics exactly,
    trained contexts to CONTEXT_TOL. A recorded failure that now succeeds
    is not a mismatch; the report's own checks still apply."""
    if expected["rc"] != 0:
        return None
    if doc is None:
        return "run failed where the recorded run succeeded"
    if doc["metrics"] != expected["metrics"]:
        return "metrics differ from the recorded run"
    got = np.asarray(doc["context"]["vectors"], dtype=np.float64)
    want = np.asarray(expected["context"], dtype=np.float64)
    if got.shape != want.shape:
        return f"context shape {got.shape} != recorded {want.shape}"
    err = float(np.max(np.abs(got - want)))
    if not err <= CONTEXT_TOL:
        return f"trained context differs by {err:.3e} > {CONTEXT_TOL:g}"
    return None
