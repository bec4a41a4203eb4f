import json
import struct

import numpy as np
import pytest

from slipmil import io_formats
from slipmil.cli import main
from slipmil.core import COORD_MAX, LABEL_MAX, EmbeddingMatrix, WsiBag
from slipmil.errors import (
    BadMagicError,
    CorruptHeaderError,
    DimensionMismatchError,
    EmptyDatasetError,
    EmptyPromptSetError,
    FormatError,
    InvalidSettingError,
    SchemaError,
    TruncatedFileError,
    VersionUnsupportedError,
)
from slipmil.evaluation import evaluate
from slipmil.io_formats import (
    MAGIC,
    MAX_D_V,
    export_heatmap,
    read_dataset,
    read_prompt_lines,
    read_report,
    write_dataset,
    write_report,
)
from slipmil.synth import generate, preset_spec
from slipmil.trainer import TrainConfig

from conftest import random_bag


@pytest.fixture
def dataset_file(tmp_path):
    ds = generate(preset_spec("separable-easy", seed=3))
    path = tmp_path / "ds.bin"
    write_dataset(path, ds.bags)
    return path, list(ds.bags)


class TestDatasetRoundTrip:
    def test_bitwise_at_float32(self, dataset_file):
        path, original = dataset_file
        loaded, num_classes = read_dataset(path)
        assert num_classes == 3
        assert len(loaded) == len(original)
        for a, b in zip(original, loaded):
            want = np.asarray(a.patches.data, dtype=np.float32)
            got = np.asarray(b.patches.data, dtype=np.float32)
            assert np.array_equal(want, got)
            assert a.coords == b.coords
            assert a.label == b.label
            assert a.patient_id == b.patient_id

    def test_rewrite_is_identical(self, dataset_file, tmp_path):
        # feature-major bags, as read, are written row by row again
        path, _ = dataset_file
        loaded, _ = read_dataset(path)
        path2 = tmp_path / "ds2.bin"
        write_dataset(path2, loaded)
        assert path.read_bytes() == path2.read_bytes()
        again, _ = read_dataset(path2)
        for a, b in zip(loaded, again):
            assert np.array_equal(a.patches.data, b.patches.data)
            assert b.patches.data.T.flags.c_contiguous

    @pytest.mark.parametrize("n", [1, io_formats.ROW_BLOCK,
                                   io_formats.ROW_BLOCK + 1, 1000])
    def test_read_is_feature_major(self, tmp_path, n):
        # each bag's patches are the transpose of a C-contiguous d_v x N
        # array, copied in row blocks that may end mid-bag, holding the
        # file's float32 values exactly
        rng = np.random.default_rng(79)
        bags = [random_bag(rng, n, 5, label=1), random_bag(rng, 2, 5)]
        write_dataset(tmp_path / "x.bin", bags)
        loaded, _ = read_dataset(tmp_path / "x.bin")
        for want, got in zip(bags, loaded):
            data = got.patches.data
            assert data.T.flags.c_contiguous and data.dtype == np.float64
            stored = want.patches.data.astype("<f4")
            assert np.array_equal(data, stored.astype(np.float64))

    @pytest.mark.parametrize("as_array", [True, False])
    def test_coords_round_trip(self, tmp_path, as_array):
        rng = np.random.default_rng(71)
        pairs = [(0, 0), (COORD_MAX, 1), (7, COORD_MAX), (123456, 65536)]
        coords = np.array(pairs, dtype=np.uint32) if as_array else tuple(pairs)
        data = rng.normal(size=(4, 3))
        bags = [WsiBag(patches=EmbeddingMatrix(data), coords=coords,
                       label=1, patient_id="c")]
        path = tmp_path / "c.bin"
        write_dataset(path, bags)
        loaded, _ = read_dataset(path)
        assert loaded[0].coords == tuple(pairs)
        assert all(type(v) is int for pair in loaded[0].coords for v in pair)
        # the coordinate block sits right after the patient id
        offset = len(MAGIC) + 16 + 8 + 2 + len("c")
        raw = path.read_bytes()[offset:offset + 8 * len(pairs)]
        assert raw == b"".join(struct.pack("<II", x, y) for x, y in pairs)

    def test_empty_dataset_rejected(self, tmp_path):
        with pytest.raises(EmptyDatasetError):
            write_dataset(tmp_path / "x.bin", [])

    def test_mixed_dims_rejected(self, tmp_path):
        rng = np.random.default_rng(70)
        bags = [random_bag(rng, 2, 8, label=0, patient_id="a"),
                random_bag(rng, 2, 16, label=1, patient_id="b")]
        with pytest.raises(DimensionMismatchError):
            write_dataset(tmp_path / "x.bin", bags)

    def test_d_v_above_format_bound_rejected(self, tmp_path):
        rng = np.random.default_rng(71)
        bags = [random_bag(rng, 2, MAX_D_V + 1)]
        with pytest.raises(InvalidSettingError, match=f"d_v={MAX_D_V + 1}"):
            write_dataset(tmp_path / "x.bin", bags)
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("bound, match", [
        ("MAX_PATCHES", "3 patches in a bag exceed the format's 2"),
        ("MAX_BAGS", "3 bags exceed the format's 2")])
    def test_counts_above_format_bound_rejected(self, tmp_path, monkeypatch,
                                                bound, match):
        # the reader refuses a file past either bound, so it is never
        # written; the bounds are lowered here to keep the bags small
        monkeypatch.setattr(io_formats, bound, 2)
        rng = np.random.default_rng(72)
        bags = [random_bag(rng, 3 if bound == "MAX_PATCHES" else 1, 4)
                for _ in range(3 if bound == "MAX_BAGS" else 1)]
        with pytest.raises(InvalidSettingError, match=match):
            write_dataset(tmp_path / "x.bin", bags)
        assert not (tmp_path / "x.bin").exists()

    @pytest.mark.parametrize("form", [tuple, list, np.int64, np.uint32])
    def test_coords_form_does_not_change_the_bytes(self, tmp_path, form):
        pairs = [(0, 0), (COORD_MAX, 1), (7, COORD_MAX), (123456, 65536)]
        coords = (form(pairs) if form in (tuple, list)
                  else np.array(pairs, dtype=form))
        data = np.random.default_rng(75).normal(size=(4, 3))
        want = tmp_path / "want.bin"
        write_dataset(want, [WsiBag(patches=EmbeddingMatrix(data),
                                    coords=tuple(pairs), patient_id="c")])
        got = tmp_path / "got.bin"
        write_dataset(got, [WsiBag(patches=EmbeddingMatrix(data),
                                   coords=coords, patient_id="c")])
        assert got.read_bytes() == want.read_bytes()

    def test_patches_written_as_float32_rows(self, tmp_path):
        # a column-major bag is written row by row, as a C-order copy
        data = np.asfortranarray(np.random.default_rng(76).normal(size=(5, 3)))
        bag = WsiBag(patches=EmbeddingMatrix(data),
                     coords=[(i, 0) for i in range(5)], patient_id="f")
        write_dataset(tmp_path / "f.bin", [bag])
        blob = (tmp_path / "f.bin").read_bytes()
        assert blob.endswith(data.astype("<f4").tobytes(order="C"))

    @pytest.mark.parametrize("bad", ["width", "patient id", "label",
                                     "range"])
    def test_failing_late_bag_leaves_no_file(self, tmp_path, bad):
        # every bag is checked before the file is opened, so a bad last
        # bag leaves no partial file; a label the header cannot hold fails
        # earlier, when the bag is made; a finite value beyond float32
        # would be written as inf, which no reader accepts
        rng = np.random.default_rng(77)
        bags = [random_bag(rng, 3, 4, patient_id=f"p{i}") for i in range(3)]
        last, error = {
            "width": (lambda: random_bag(rng, 3, 8), DimensionMismatchError),
            "patient id": (lambda: random_bag(rng, 3, 4,
                                              patient_id="x" * 70000),
                           InvalidSettingError),
            "label": (lambda: random_bag(rng, 3, 4, label=2 ** 32 - 1),
                      ValueError),
            "range": (lambda: WsiBag(EmbeddingMatrix(np.full((1, 4), 1e300)),
                                     coords=[(0, 0)]), InvalidSettingError),
        }[bad]
        with pytest.raises(error, match="bag 3: " if bad == "range" else None):
            write_dataset(tmp_path / "x.bin", bags + [last()])
        assert not (tmp_path / "x.bin").exists()

    def test_float32_range_edges(self, tmp_path):
        # float32's largest value round-trips; a negative value beyond it
        # is caught as well
        edge = float(np.finfo(np.float32).max)
        bag = WsiBag(EmbeddingMatrix([[1.0, -edge, edge]]), coords=[(0, 0)])
        write_dataset(tmp_path / "x.bin", [bag])
        got, _ = read_dataset(tmp_path / "x.bin")
        assert np.array_equal(got[0].patches.data, bag.patches.data)
        beyond = WsiBag(EmbeddingMatrix([[1.0, -1e39]]), coords=[(0, 0)])
        with pytest.raises(InvalidSettingError, match="bag 0: "):
            write_dataset(tmp_path / "y.bin", [beyond])
        assert not (tmp_path / "y.bin").exists()

    def test_largest_label_round_trips(self, tmp_path):
        # the header stores largest label + 1 as the uint32 class count
        rng = np.random.default_rng(78)
        write_dataset(tmp_path / "x.bin",
                      [random_bag(rng, 2, 4, label=LABEL_MAX)])
        bags, num_classes = read_dataset(tmp_path / "x.bin")
        assert bags[0].label == LABEL_MAX and num_classes == 2 ** 32 - 1


class TestCoordsStayUnbuilt:
    """Synthesis, the container and scoring read each bag's grid array;
    none of them builds the tuple of coordinate pairs."""

    @staticmethod
    def unbuilt(bags):
        return not any("coords" in bag.__dict__ for bag in bags)

    def test_generate_write_read_evaluate(self, tmp_path):
        ds = generate(preset_spec("needle", seed=0))
        assert self.unbuilt(ds.bags)
        write_dataset(tmp_path / "ds.bin", ds.bags)
        assert self.unbuilt(ds.bags)
        loaded, _ = read_dataset(tmp_path / "ds.bin")
        assert self.unbuilt(loaded)
        assert all(bag.grid.dtype == np.uint32
                   and not bag.grid.flags.writeable for bag in loaded)
        pipeline = TrainConfig(pooling="slip").pipeline(
            loaded[0].patches.cols, ds.tissue_descriptions, ds.class_names)
        evaluate(loaded, pipeline)
        assert self.unbuilt(loaded)
        assert all(a.coords == b.coords for a, b in zip(ds.bags, loaded))


class TestDatasetCorruption:
    def test_bad_magic(self, dataset_file, tmp_path):
        path, _ = dataset_file
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(BadMagicError):
            read_dataset(bad)

    def test_bad_version(self, dataset_file, tmp_path):
        path, _ = dataset_file
        blob = bytearray(path.read_bytes())
        blob[8:12] = struct.pack("<I", 99)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(VersionUnsupportedError):
            read_dataset(bad)

    def test_truncated(self, dataset_file, tmp_path):
        path, _ = dataset_file
        blob = path.read_bytes()
        for cut in (0, 4, len(MAGIC), 20, len(blob) // 2, len(blob) - 1):
            bad = tmp_path / "cut.bin"
            bad.write_bytes(blob[:cut])
            with pytest.raises(TruncatedFileError):
                read_dataset(bad)

    def test_truncated_in_bag_header(self, dataset_file, tmp_path):
        # each bag header (patch count, label, patient id length) is read
        # in one piece; a file that ends inside it is still truncated
        path, bags = dataset_file
        blob = path.read_bytes()
        first = len(MAGIC) + 16
        second = (first + 10 + len(bags[0].patient_id.encode())
                  + 8 * bags[0].num_patches
                  + 4 * bags[0].num_patches * bags[0].patches.cols)
        assert struct.unpack_from("<II", blob, second) == (
            bags[1].num_patches, bags[1].label)
        for cut in (first + 1, first + 4, first + 9, second + 8):
            bad = tmp_path / "cut.bin"
            bad.write_bytes(blob[:cut])
            with pytest.raises(TruncatedFileError):
                read_dataset(bad)

    def test_trailing_bytes(self, dataset_file, tmp_path):
        path, _ = dataset_file
        bad = tmp_path / "pad.bin"
        bad.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CorruptHeaderError):
            read_dataset(bad)

    def test_class_count_mismatch(self, dataset_file, tmp_path):
        path, _ = dataset_file
        blob = bytearray(path.read_bytes())
        blob[20:24] = struct.pack("<I", 7)  # claims 7 classes, labels reach 2
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CorruptHeaderError):
            read_dataset(bad)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_embedding(self, dataset_file, tmp_path, capsys,
                                  value):
        path, original = dataset_file
        blob = bytearray(path.read_bytes())
        # the last bag's float32 payload ends the file
        offset = len(blob) - 4 * original[-1].patches.data.size
        blob[offset:offset + 4] = struct.pack("<f", value)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CorruptHeaderError, match="non-finite"):
            read_dataset(bad)
        classes = tmp_path / "classes.txt"
        classes.write_text("a\nb\nc\n")
        code = main(["eval", "--data", str(bad), "--zero-shot",
                     "--classes", str(classes)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"bag {len(original) - 1}: " in err and "non-finite" in err

    def test_header_byte_fuzz(self, dataset_file, tmp_path):
        """Every single-byte corruption of the fixed header yields a typed
        format error (or a changed-but-valid file is impossible here)."""
        path, _ = dataset_file
        blob = path.read_bytes()
        rng = np.random.default_rng(71)
        failures = []
        for offset in range(24):  # magic + 4 header words
            for _ in range(3):
                mutated = bytearray(blob)
                flip = int(rng.integers(1, 256))
                mutated[offset] ^= flip
                bad = tmp_path / "fuzz.bin"
                bad.write_bytes(bytes(mutated))
                try:
                    read_dataset(bad)
                except FormatError:
                    continue
                except Exception as exc:  # noqa: BLE001
                    failures.append((offset, flip, type(exc).__name__))
                else:
                    failures.append((offset, flip, "no error"))
        assert failures == []


class TestPromptFiles:
    def test_reads_lines(self, tmp_path):
        p = tmp_path / "tissues.txt"
        p.write_text("dense stroma\n\n# comment\ntumor nests\n")
        assert read_prompt_lines(p) == ["dense stroma", "tumor nests"]

    def test_eighteen_lines(self, tmp_path):
        p = tmp_path / "tissues.txt"
        lines = [f"tissue kind {i}" for i in range(18)]
        p.write_text("\n".join(lines) + "\n")
        assert read_prompt_lines(p) == lines

    def test_comments_only(self, tmp_path):
        p = tmp_path / "tissues.txt"
        p.write_text("# a\n# b\n\n")
        with pytest.raises(EmptyPromptSetError):
            read_prompt_lines(p)

    def test_crlf_and_byte_order_mark(self, tmp_path):
        p = tmp_path / "tissues.txt"
        p.write_bytes(b"\xef\xbb\xbf# header\r\ndense stroma\r\r\nnests\r\n")
        assert read_prompt_lines(p) == ["dense stroma", "nests"]


def grid_bag(scores_shape_n, d=4):
    rng = np.random.default_rng(72)
    side = int(np.ceil(np.sqrt(scores_shape_n)))
    coords = tuple((i % side, i // side) for i in range(scores_shape_n))
    data = rng.normal(size=(scores_shape_n, d))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    return WsiBag(patches=EmbeddingMatrix(data),
                  coords=coords, label=0, patient_id="hm")


class TestHeatmap:
    def test_worked_example(self, tmp_path):
        bag = grid_bag(4)
        corr = np.array([[0.0], [1 / 3], [2 / 3], [1.0]])
        csv_path = tmp_path / "h.csv"
        pgm_path = tmp_path / "h.pgm"
        top, bottom = export_heatmap(bag, corr, 0, csv_path, pgm_path)
        assert top[:2] == [3, 2] and bottom[:2] == [0, 1]
        raw = pgm_path.read_bytes()
        header, pixels = raw.split(b"255\n", 1)
        assert header == b"P5\n2 2\n"
        assert list(pixels) == [0, 85, 170, 255]

    def test_constant_scores(self, tmp_path):
        bag = grid_bag(1)
        top, bottom = export_heatmap(bag, np.array([[0.5]]), 0,
                                     tmp_path / "c.csv", tmp_path / "c.pgm")
        raw = (tmp_path / "c.pgm").read_bytes()
        assert raw == b"P5\n1 1\n255\n\xff"
        assert top == [0] and bottom == [0]

    def test_csv_round_trip_exact(self, tmp_path):
        bag = grid_bag(4)
        scores = np.array([[0.1], [0.30000000000000004], [1e-17], [0.7]])
        csv_path = tmp_path / "h.csv"
        export_heatmap(bag, scores, 0, csv_path, tmp_path / "h.pgm")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "grid_x,grid_y,score"
        got = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert got == [float(s) for s in scores[:, 0]]

    def test_class_out_of_range(self, tmp_path):
        bag = grid_bag(2)
        with pytest.raises(InvalidSettingError, match=r"class 1 outside"):
            export_heatmap(bag, np.zeros((2, 1)), 1,
                           tmp_path / "x.csv", tmp_path / "x.pgm")

    def test_sparse_grid_zero_fill(self, tmp_path):
        rng = np.random.default_rng(73)
        data = rng.normal(size=(2, 4))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        bag = WsiBag(patches=EmbeddingMatrix(data),
                     coords=((0, 0), (2, 1)), label=0, patient_id="sp")
        export_heatmap(bag, np.array([[0.2], [0.9]]), 0,
                       tmp_path / "s.csv", tmp_path / "s.pgm")
        raw = (tmp_path / "s.pgm").read_bytes()
        _, pixels = raw.split(b"255\n", 1)
        assert list(pixels) == [0, 0, 0, 0, 0, 255]


def reference_heatmap(bag, scores, csv_path, pgm_path):
    """The per-patch writer: one line, one round() and one pixel at a time."""
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("grid_x,grid_y,score\n")
        for (x, y), s in zip(bag.coords, scores):
            fh.write(f"{x},{y},{float(s)!r}\n")
    lo, hi = float(scores.min()), float(scores.max())
    if hi - lo < 1e-300:
        scaled = [255] * len(scores)
    else:
        scaled = [int(round((s - lo) / (hi - lo) * 255)) for s in scores]
    width = max(x for x, _ in bag.coords) + 1
    height = max(y for _, y in bag.coords) + 1
    image = np.zeros((height, width), dtype=np.uint8)
    for (x, y), v in zip(bag.coords, scaled):
        image[y, x] = v
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(image.tobytes())


class TestHeatmapMatchesPerPatchWriter:
    def check(self, tmp_path, coords, scores):
        bag = WsiBag(patches=EmbeddingMatrix(np.ones((len(scores), 2))),
                     coords=coords, label=0, patient_id="hm")
        corr = np.stack([scores, scores[::-1]], axis=1)
        export_heatmap(bag, corr, 0, tmp_path / "a.csv", tmp_path / "a.pgm")
        assert "coords" not in bag.__dict__  # the writer reads bag.grid
        reference_heatmap(bag, scores, tmp_path / "b.csv", tmp_path / "b.pgm")
        for suffix in ("csv", "pgm"):
            assert ((tmp_path / f"a.{suffix}").read_bytes()
                    == (tmp_path / f"b.{suffix}").read_bytes())

    def test_random_bag(self, tmp_path):
        rng = np.random.default_rng(74)
        n = 700
        width = 27
        coords = [(i % width, i // width) for i in range(n)]
        self.check(tmp_path, coords, rng.normal(size=n))

    def test_halves_round_to_even(self, tmp_path):
        # lo = 0, hi = 255: every scaled value is the score itself
        scores = np.array([0.0, 0.5, 1.5, 2.5, 3.5, 126.5, 254.5, 255.0])
        coords = [(i, 0) for i in range(len(scores))]
        self.check(tmp_path, coords, scores)

    @pytest.mark.parametrize("dtype", [np.uint32, np.int64])
    def test_array_coords(self, tmp_path, dtype):
        rng = np.random.default_rng(78)
        coords = rng.integers(0, 40, size=(300, 2)).astype(dtype)
        self.check(tmp_path, coords, rng.normal(size=300))

    def test_repeated_coords_last_write_wins(self, tmp_path):
        coords = [(1, 1), (0, 0), (1, 1), (2, 0), (1, 1)]
        self.check(tmp_path, coords, np.array([0.9, 0.1, 0.4, 0.0, 0.6]))


class TestReport:
    def payload(self):
        return dict(
            config={"tau": 0.01, "learning_rate": 0.0002, "seed": 4},
            history_records=[(0, 0, 1.25), (0, 1, 0.5)],
            metrics={"class_averaged_accuracy": 1.0},
            class_names=["a", "b"],
            tissue_descriptions=["x", "y", "z"],
            context={"shared": True, "vectors": [[[0.1, -0.2]]]},
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "r.json"
        doc = write_report(path, **self.payload())
        loaded = read_report(path)
        assert loaded == doc
        assert loaded["history"] == [[0, 0, 1.25], [0, 1, 0.5]]
        assert loaded["config"]["learning_rate"] == 0.0002

    def test_missing_field(self, tmp_path):
        path = tmp_path / "r.json"
        doc = write_report(path, **self.payload())
        del doc["metrics"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            read_report(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError):
            read_report(path)

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "r.json"
        doc = write_report(path, **self.payload())
        doc["schema_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError):
            read_report(path)

    def test_non_object(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("[1, 2]")
        with pytest.raises(SchemaError):
            read_report(path)

    def test_byte_order_mark_dropped(self, tmp_path):
        path = tmp_path / "r.json"
        doc = write_report(path, **self.payload())
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_report(path) == doc
