"""Dense embedding containers and the shared numeric bounds.

All arithmetic is float64 in memory; float32 only appears at the file
boundary. Normalization happens once at ingestion, after which similarity
is a plain dot product.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError

NORM_EPS = 1e-12
COORD_MAX = 0xFFFFFFFF  # grid coordinates are stored as uint32 on disk
LABEL_MAX = COORD_MAX - 1  # so is the class count, largest label + 1
# Sanity bounds, so that a setting or a corrupted count fails fast instead
# of allocating wildly
MAX_D_V = 4096  # widest embedding the dataset container reads or writes
MAX_D_T = MAX_D_V  # widest text embedding the encoder draws
MAX_CONTEXT_LENGTH = 1024  # most learnable context vectors
MAX_BAGS = 1_000_000  # most bags in one dataset
MAX_PATCHES = 1_000_000  # most patches in one bag
MAX_HEATMAP_CELLS = 1 << 28  # most grid cells in one heatmap image


def _as_matrix(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"expected 2-d matrix, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise DimensionMismatchError(f"matrix must be at least 1x1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix contains non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class EmbeddingMatrix:
    """Matrix of feature vectors, one per row, kept in the memory layout
    it is given (read_dataset gives the transpose of a C-contiguous
    array)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_matrix(self.data))

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True, init=False, eq=False)
class WsiBag:
    """One slide: patch embeddings, grid coordinates, label, patient id.

    `grid` holds the coordinates as a read-only N x 2 uint32 array; `coords`
    is the same pairs as a tuple of (int, int), built on first read."""

    patches: EmbeddingMatrix
    grid: np.ndarray
    label: int = 0
    patient_id: str = ""

    def __init__(self, patches: EmbeddingMatrix, coords=(), label: int = 0,
                 patient_id: str = ""):
        # Accepts any N x 2 integer array-like
        xy = np.asarray(coords)  # ragged rows raise ValueError here
        if xy.shape != (patches.rows, 2):
            raise DimensionMismatchError(
                f"coords of shape {xy.shape} for {patches.rows} patches; "
                f"need {patches.rows} x 2"
            )
        if xy.dtype.kind not in "iu":
            raise ValueError(
                f"grid coordinates must be integers, got {xy.dtype}")
        if xy.min() < 0:
            raise ValueError("grid coordinates must be non-negative")
        if xy.max() > COORD_MAX:
            raise ValueError(f"grid coordinate {xy.max()} exceeds {COORD_MAX}")
        try:
            label = operator.index(label)
        except TypeError:
            raise ValueError(
                f"label must be an integer, got {label!r}") from None
        if label < 0:
            raise ValueError("label must be non-negative")
        if label > LABEL_MAX:
            raise ValueError(f"label {label} exceeds {LABEL_MAX}")
        if not isinstance(patient_id, str):
            raise ValueError(f"patient id must be a str, got {patient_id!r}")
        try:  # the container stores it as UTF-8
            patient_id.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"patient id {patient_id!r} is not "
                             f"UTF-8-encodable: {exc.reason}") from None
        # a read-only uint32 array, such as a file reader's, is kept as is;
        # anything else is copied into one
        if (xy.dtype != np.uint32 or xy.flags.writeable
                or not xy.flags.c_contiguous):
            xy = xy.astype(np.uint32, order="C")
            xy.flags.writeable = False
        for name, value in (("patches", patches), ("grid", xy),
                            ("label", label), ("patient_id", patient_id)):
            object.__setattr__(self, name, value)

    @cached_property
    def coords(self) -> tuple:
        return tuple(zip(self.grid[:, 0].tolist(), self.grid[:, 1].tolist()))

    @property
    def num_patches(self) -> int:
        return self.patches.rows

