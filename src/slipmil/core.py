"""Dense embedding containers and the shared numeric primitives.

All arithmetic is float64 in memory; float32 only appears at the file
boundary. Normalization happens once at ingestion, after which similarity
is a plain dot product.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

NORM_EPS = 1e-12
COORD_MAX = 0xFFFFFFFF  # grid coordinates are stored as uint32 on disk
MAX_D_V = 4096  # widest embedding the dataset container reads or writes


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected 2-d matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatchError(f"matrix must be at least 1x1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite entries")
    return arr


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Row-major matrix of feature vectors."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_matrix(self.data))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class WsiBag:
    """One slide: patch embeddings, grid coordinates, label, patient id."""

    patches: EmbeddingMatrix
    coords: tuple = field(default=())
    label: int = 0
    patient_id: str = ""

    def __post_init__(self):
        # Accepts any N x 2 integer array-like. Stored as a tuple of
        # (int, int) so that callers can compare and unpack plain pairs.
        xy = np.asarray(self.coords)  # ragged rows raise ValueError here
        if xy.shape != (self.patches.rows, 2):
            raise DimensionMismatchError(
                f"coords of shape {xy.shape} for {self.patches.rows} patches; "
                f"need {self.patches.rows} x 2"
            )
        if xy.dtype.kind not in "iu":
            raise ValueError(
                f"grid coordinates must be integers, got {xy.dtype}")
        if xy.min() < 0:
            raise ValueError("grid coordinates must be non-negative")
        if xy.max() > COORD_MAX:
            raise ValueError(f"grid coordinate {xy.max()} exceeds {COORD_MAX}")
        object.__setattr__(self, "coords", tuple(zip(xy[:, 0].tolist(),
                                                     xy[:, 1].tolist())))
        if self.label < 0:
            raise ValueError("label must be non-negative")

    @property
    def num_patches(self) -> int:
        return self.patches.rows


def cosine_matrix(a: EmbeddingMatrix, b: EmbeddingMatrix) -> np.ndarray:
    """Pairwise dot products between rows of a and rows of b.

    Both inputs are expected to be row-normalized, making this cosine
    similarity.
    """
    if a.cols != b.cols:
        raise DimensionMismatchError(f"feature dims differ: {a.cols} vs {b.cols}")
    return a.data @ b.data.T
