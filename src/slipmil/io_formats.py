"""On-disk formats: dataset container, prompt files, heatmaps, reports.

The dataset container is a little-endian binary layout with an 8-byte
magic and a versioned header; embeddings are stored as float32 rows and
widened to float64 on load, feature-major: each bag's patches are the
N x d_v transpose of a C-contiguous d_v x N array, the layout pooling
reads (core.feature_major), so pooling uses them in place. Every reader
raises a typed FormatError on malformed input, never a bare exception.
"""
from __future__ import annotations

import datetime
import json
import struct

import numpy as np

from .core import (MAX_BAGS, MAX_D_V, MAX_HEATMAP_CELLS, MAX_PATCHES,
                   EmbeddingMatrix, WsiBag, feature_major)
from .errors import (
    BadMagicError,
    CorruptHeaderError,
    DimensionMismatchError,
    EmptyDatasetError,
    EmptyPromptSetError,
    FormatError,
    NotUtf8Error,
    SchemaError,
    TruncatedFileError,
    VersionUnsupportedError,
    check_setting,
    check_value,
)

MAGIC = b"SLIPEMB1"
DATASET_VERSION = 1
REPORT_SCHEMA_VERSION = 1
BAG_HEADER = struct.Struct("<IIH")  # patch count, label, patient id bytes
U4, F4 = np.dtype("<u4"), np.dtype("<f4")  # coordinates, patch values
F32_MAX = float(np.finfo(np.float32).max)  # widest patch value written


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, dtype: np.dtype | None = None):
        """The next n bytes, or a view of the next n items of dtype."""
        size = n if dtype is None else n * dtype.itemsize
        if self.pos + size > len(self.blob):
            raise TruncatedFileError(
                f"need {size} bytes at offset {self.pos}, "
                f"file has {len(self.blob)}"
            )
        self.pos += size
        if dtype is None:
            return self.blob[self.pos - size:self.pos]
        return np.frombuffer(self.blob, dtype, n, self.pos - size)


def write_dataset(path, bags) -> None:
    """Serialize bags to the container format; class count is derived from
    the largest label present."""
    bags = list(bags)
    if not bags:
        raise EmptyDatasetError("cannot write an empty dataset")
    d_v = bags[0].patches.cols
    check_setting(d_v <= MAX_D_V, f"d_v={d_v} exceeds the format's {MAX_D_V}")
    check_setting(len(bags) <= MAX_BAGS,
                  f"{len(bags)} bags exceed the format's {MAX_BAGS}")
    num_classes = max(bag.label for bag in bags) + 1
    # every bag is checked and its header packed before the file is opened
    heads = [MAGIC + struct.pack("<IIII", DATASET_VERSION, d_v, len(bags),
                                 num_classes)]
    for b, bag in enumerate(bags):
        if bag.patches.cols != d_v:
            raise DimensionMismatchError(
                "all bags must share one embedding dimension")
        data = bag.patches.data
        check_setting(max(data.max(), -data.min()) <= F32_MAX, f"bag {b}: "
                      f"patch values beyond float32's +-{F32_MAX!r}")
        check_setting(bag.num_patches <= MAX_PATCHES, f"{bag.num_patches} "
                      f"patches in a bag exceed the format's {MAX_PATCHES}")
        pid = bag.patient_id.encode("utf-8")
        check_setting(len(pid) <= 0xFFFF, f"patient id of {len(pid)} bytes "
                      f"exceeds the format's {0xFFFF}")
        heads.append(BAG_HEADER.pack(bag.num_patches, bag.label, len(pid))
                     + pid)
    with open(path, "wb") as fh:
        fh.write(heads[0])
        for bag, head in zip(bags, heads[1:]):
            fh.write(head)  # arrays go out through the buffer protocol
            fh.write(bag.grid.astype("<u4", copy=False))
            fh.write(np.ascontiguousarray(bag.patches.data, dtype="<f4"))


# corrupted bytes may decode to signaling NaNs; the cast warning is moot
# because EmbeddingMatrix rejects non-finite values
@np.errstate(invalid="ignore")
def read_dataset(path):
    """Parse the container; returns (bags, num_classes), each bag's
    patches the transpose of a C-contiguous d_v x N float64 array."""
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    magic = r.take(len(MAGIC))
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    (version,) = struct.unpack("<I", r.take(4))
    if version != DATASET_VERSION:
        raise VersionUnsupportedError(f"unsupported version {version}")
    d_v, num_bags, num_classes = struct.unpack("<III", r.take(12))
    if not 1 <= d_v <= MAX_D_V:
        raise CorruptHeaderError(f"d_v={d_v} out of range")
    if not 1 <= num_bags <= MAX_BAGS:
        raise CorruptHeaderError(f"bag count {num_bags} out of range")
    if num_classes < 1:
        raise CorruptHeaderError("class count must be >= 1")

    bags = []
    max_label = -1
    for b in range(num_bags):
        n, label, pid_len = BAG_HEADER.unpack(r.take(BAG_HEADER.size))
        if not 1 <= n <= MAX_PATCHES:
            raise CorruptHeaderError(f"bag {b}: patch count {n} out of range")
        if label >= num_classes:
            raise CorruptHeaderError(
                f"bag {b}: label {label} >= class count {num_classes}"
            )
        max_label = max(max_label, label)
        try:
            pid = r.take(pid_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptHeaderError(f"bag {b}: patient id not UTF-8") from exc
        coords = r.take(2 * n, U4).reshape(n, 2).copy()  # so that no bag
        coords.flags.writeable = False  # keeps the file's bytes alive
        rows = r.take(n * d_v, F4).reshape(n, d_v)
        try:
            bags.append(WsiBag(
                patches=EmbeddingMatrix(feature_major(rows)),
                coords=coords, label=label, patient_id=pid,
            ))
        except (ValueError, FormatError) as exc:
            raise CorruptHeaderError(f"bag {b}: {exc}") from exc
    if r.pos != len(blob):
        raise CorruptHeaderError(
            f"{len(blob) - r.pos} trailing bytes after last bag"
        )
    if max_label + 1 != num_classes:
        raise CorruptHeaderError(
            f"class count {num_classes} != max label + 1 ({max_label + 1})"
        )
    return bags, num_classes


def read_text(path) -> str:
    """The text of a UTF-8 file, less any byte order mark before it."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise NotUtf8Error(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_prompt_lines(path):
    """One prompt per line; blank lines and '#' comments are skipped."""
    lines = [ln.strip() for ln in read_text(path).split("\n")]
    prompts = [ln for ln in lines if ln and not ln.startswith("#")]
    if not prompts:
        raise EmptyPromptSetError(f"{path}: no usable prompt lines")
    return prompts


def export_heatmap(bag: WsiBag, correlation, class_index: int,
                   csv_path, pgm_path):
    """Write per-patch scores for one class as CSV plus a binary PGM image.

    Scores are min-max scaled to [0, 255]; a constant bag maps to 255.
    Returns (top5 patch indices, bottom5 patch indices).
    """
    corr = np.asarray(correlation, dtype=np.float64)
    if corr.ndim != 2 or corr.shape[0] != bag.num_patches:
        raise ValueError("correlation matrix must be N x C")
    scores = corr[:, check_value("class_index", class_index, int,
                                 f"[0, {corr.shape[1]})")]
    xy = bag.grid
    width, height = (int(m) + 1 for m in xy.max(axis=0))
    check_setting(width * height <= MAX_HEATMAP_CELLS, f"heatmap grid "
                  f"{width} x {height} exceeds {MAX_HEATMAP_CELLS} cells")

    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("grid_x,grid_y,score\n")
        fh.write("".join(f"{x},{y},{s!r}\n" for x, y, s in zip(
            xy[:, 0].tolist(), xy[:, 1].tolist(), scores.tolist())))

    lo, hi = float(scores.min()), float(scores.max())
    if hi - lo < 1e-300:
        scaled = np.full(len(scores), 255, dtype=np.uint8)
    else:
        # rint, like round(), takes halves to even
        scaled = np.rint((scores - lo) / (hi - lo) * 255).astype(np.uint8)
    image = np.zeros((height, width), dtype=np.uint8)
    image[xy[:, 1], xy[:, 0]] = scaled
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())

    order = np.argsort(-scores, kind="stable")
    top = [int(i) for i in order[:5]]
    bottom = [int(i) for i in np.argsort(scores, kind="stable")[:5]]
    return top, bottom


_REPORT_REQUIRED = ("schema_version", "config", "class_names",
                    "tissue_descriptions", "history", "metrics")


def write_report(path, config: dict, history_records, metrics: dict,
                 class_names, tissue_descriptions, context=None) -> dict:
    """Serialize a run report as one JSON document and return it.

    `context` is None or {"shared": true, "vectors": [ctx]}, with ctx the
    M x d_t context that every class shares.
    Floats survive the round trip exactly (shortest repr encoding).
    """
    doc = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": dict(config),
        "class_names": list(class_names),
        "tissue_descriptions": list(tissue_descriptions),
        "context": context,
        "history": [[int(e), int(i), float(l)] for e, i, l in history_records],
        "metrics": metrics,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")
    return doc


def read_report(path) -> dict:
    try:
        doc = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: report must be a JSON object")
    missing = [k for k in _REPORT_REQUIRED if k not in doc]
    if missing:
        raise SchemaError(f"{path}: missing required fields {missing}")
    if doc["schema_version"] != REPORT_SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: unsupported schema version {doc['schema_version']}"
        )
    return doc
