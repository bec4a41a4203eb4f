import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slipmil.core import COORD_MAX, LABEL_MAX, EmbeddingMatrix, WsiBag
from slipmil.encoder import FrozenEncoderWeights, PromptContext
from slipmil.errors import (
    DimensionMismatchError,
    InvalidSettingError,
    ZeroVectorError,
)
from slipmil.pooling import (ClassPromptSet, Pipeline, SlideFeature,
                             TissuePromptSet)
from slipmil.synth import SynthDataset
from slipmil.trainer import TrainedPrompts

from conftest import unit_rows
from oracles import l2_normalize_rows, softmax_rows


class TestL2NormalizeRows:
    def test_three_four_five(self):
        m = l2_normalize_rows(EmbeddingMatrix([[3.0, 4.0]]))
        assert np.allclose(m.data, [[0.6, 0.8]], atol=0, rtol=0)

    def test_already_unit(self):
        m = l2_normalize_rows(EmbeddingMatrix([[1.0, 0.0, 0.0]]))
        assert np.array_equal(m.data, [[1.0, 0.0, 0.0]])

    def test_ones_row(self):
        # oracle: 1/sqrt(2) at 50 digits
        m = l2_normalize_rows(EmbeddingMatrix([[1.0, 1.0]]))
        expected = 0.7071067811865476
        assert np.allclose(m.data, [[expected, expected]], atol=1e-15)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize_rows(EmbeddingMatrix([[1e-13, 0.0]]))

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        m = EmbeddingMatrix(rng.standard_normal((5, 7)))
        once = l2_normalize_rows(m)
        twice = l2_normalize_rows(once)
        assert np.max(np.abs(once.data - twice.data)) < 1e-12

    def test_unit_norms(self):
        rng = np.random.default_rng(1)
        m = l2_normalize_rows(EmbeddingMatrix(rng.standard_normal((8, 4))))
        assert np.max(np.abs(np.linalg.norm(m.data, axis=1) - 1)) < 1e-9


class TestSoftmaxRows:
    def test_symmetric_row(self):
        for tau in (0.01, 0.1, 1.0):
            sm = softmax_rows([[0.5, 0.5]], tau)
            assert np.array_equal(sm.data, [[0.5, 0.5]])

    def test_single_column(self):
        sm = softmax_rows([[3.7]], 0.01)
        assert sm.data[0, 0] == 1.0

    def test_sharp_temperature(self):
        # oracle: e^10 / (e^10 + 1) at 50 digits
        sm = softmax_rows([[0.9, 0.8]], 0.01)
        assert sm.data[0, 0] == pytest.approx(0.9999546021312976, abs=1e-15)
        assert sm.data[0, 1] == pytest.approx(4.5397868702434395e-05,
                                              rel=1e-12)

    def test_non_positive_temperature(self):
        with pytest.raises(InvalidSettingError):
            softmax_rows([[1.0, 2.0]], 0.0)
        with pytest.raises(InvalidSettingError):
            softmax_rows([[1.0, 2.0]], -0.5)

    @pytest.mark.parametrize("tau", [0.01, 0.1, 1.0])
    def test_row_stochastic_extreme_spread(self, tau):
        rng = np.random.default_rng(4)
        logits = rng.uniform(-1e4, 1e4, size=(20, 6))
        sm = softmax_rows(logits, tau)
        assert np.all(np.isfinite(sm.data))
        assert np.max(np.abs(sm.data.sum(axis=1) - 1)) < 1e-9

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
           st.floats(0.01, 2.0),
           st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_shift_invariance(self, row, tau, shift):
        base = softmax_rows([row], tau).data
        shifted = softmax_rows([[x + shift for x in row]], tau).data
        assert np.max(np.abs(base - shifted)) < 1e-12

    @given(st.lists(st.lists(st.floats(-1e4, 1e4), min_size=3, max_size=3),
                    min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_rows_always_sum_to_one(self, logits):
        sm = softmax_rows(logits, 0.1)
        assert np.all(np.isfinite(sm.data))
        assert np.max(np.abs(sm.data.sum(axis=1) - 1)) < 1e-9


class TestContainers:
    def test_embedding_matrix_rejects_nan(self):
        with pytest.raises(ValueError):
            EmbeddingMatrix([[np.nan, 1.0]])

    def test_embedding_matrix_rejects_empty(self):
        with pytest.raises(DimensionMismatchError):
            EmbeddingMatrix(np.zeros((0, 3)))

    def test_bag_coords_must_match(self):
        with pytest.raises(DimensionMismatchError):
            WsiBag(patches=EmbeddingMatrix([[1.0, 0.0]]), coords=(),
                   label=0, patient_id="p")

    def test_bag_rejects_negative_coords(self):
        with pytest.raises(ValueError):
            WsiBag(patches=EmbeddingMatrix([[1.0, 0.0]]),
                   coords=((-1, 0),), label=0, patient_id="p")

    def test_largest_label_accepted(self):
        # the dataset header stores largest label + 1 as a uint32
        bag = WsiBag(patches=EmbeddingMatrix([[1.0, 0.0]]), coords=((0, 0),),
                     label=2 ** 32 - 2)
        assert bag.label == LABEL_MAX

    @pytest.mark.parametrize("label", [2 ** 32 - 1, 2 ** 32])
    def test_label_above_bound_rejected(self, label):
        with pytest.raises(ValueError, match=f"label {label} exceeds "
                                             f"{LABEL_MAX}"):
            WsiBag(patches=EmbeddingMatrix([[1.0, 0.0]]), coords=((0, 0),),
                   label=label)

    @pytest.mark.parametrize("field, value, match", [
        ("label", 1.5, "label must be an integer, got 1.5"),
        ("label", "1", "label must be an integer, got '1'"),
        ("patient_id", 5, "patient id must be a str, got 5"),
        ("patient_id", b"p", "patient id must be a str, got b'p'"),
        ("patient_id", "p\ud800", "patient id 'p\\\\ud800' is not "
                                   "UTF-8-encodable: surrogates not allowed"),
    ])
    def test_bag_rejects_what_the_writer_cannot_store(self, field, value,
                                                      match):
        with pytest.raises(ValueError, match=match):
            WsiBag(patches=EmbeddingMatrix([[1.0, 0.0]]), coords=((0, 0),),
                   **{field: value})

    def test_integer_like_label_stored_as_int(self):
        bag = WsiBag(patches=EmbeddingMatrix([[1.0, 0.0]]), coords=((0, 0),),
                     label=np.uint32(2))
        assert bag.label == 2 and type(bag.label) is int


ROWS = np.eye(2)
GRID = np.zeros((2, 2), dtype=np.uint32)
WEIGHTS = FrozenEncoderWeights.create(0, d_t=2, d_v=2)


def _bag():
    return WsiBag(EmbeddingMatrix(ROWS), GRID)


# each container that holds arrays, built from the same arrays
ARRAY_CONTAINERS = {
    "EmbeddingMatrix": lambda: EmbeddingMatrix(ROWS),
    "WsiBag": _bag,
    "FrozenEncoderWeights": lambda: FrozenEncoderWeights(
        WEIGHTS.token_table, WEIGHTS.projection, WEIGHTS.vocab),
    "PromptContext": lambda: PromptContext(ROWS),
    "TissuePromptSet": lambda: TissuePromptSet(EmbeddingMatrix(ROWS)),
    "ClassPromptSet": lambda: ClassPromptSet(EmbeddingMatrix(ROWS)),
    "SlideFeature": lambda: SlideFeature(ROWS),
    "Pipeline": lambda: Pipeline(WEIGHTS, None, ("a", "b"), pooling="avg"),
    "TrainedPrompts": lambda: TrainedPrompts([PromptContext(ROWS)]),
    "SynthDataset": lambda: SynthDataset((_bag(),), ("t",), ("a",), ROWS,
                                         (0,)),
}


@pytest.mark.parametrize("name", ARRAY_CONTAINERS)
def test_array_containers_compare_by_identity(name):
    # an element-wise array comparison has no single truth value
    a, b = ARRAY_CONTAINERS[name](), ARRAY_CONTAINERS[name]()
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2


def two_patch_bag(coords):
    return WsiBag(patches=EmbeddingMatrix([[1.0, 0.0], [0.0, 1.0]]),
                  coords=coords, label=0, patient_id="p")


class TestBagCoords:
    def test_array_coords_stored_as_int_pairs(self):
        for xy in (np.array([[3, 4], [5, 6]], dtype=np.uint32),
                   np.array([[3, 4], [5, 6]], dtype=np.int64),
                   ((3, 4), (5, 6)), [[3, 4], [5, 6]]):
            bag = two_patch_bag(xy)
            assert bag.coords == ((3, 4), (5, 6))
            assert all(type(v) is int for pair in bag.coords for v in pair)

    def test_largest_uint32_accepted(self):
        bag = two_patch_bag(((COORD_MAX, 0), (0, COORD_MAX)))
        assert bag.coords == ((COORD_MAX, 0), (0, COORD_MAX))

    @pytest.mark.parametrize("coords", [
        ((COORD_MAX + 1, 0), (0, 0)),
        ((0, 0), (0, 2 ** 40)),
    ])
    def test_above_uint32_rejected(self, coords):
        with pytest.raises(ValueError, match="exceeds"):
            two_patch_bag(coords)

    @pytest.mark.parametrize("coords", [
        ((0, 1, 2), (3, 4, 5)),  # triples are not reshaped into pairs
        ((0, 1, 2, 3),),
        (0, 1, 2, 3),
        ((0, 1),),
        ((0, 1), (2, 3), (4, 5)),
    ])
    def test_non_n_by_2_rejected(self, coords):
        with pytest.raises(DimensionMismatchError):
            two_patch_bag(coords)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            two_patch_bag(((0, 1), (2,)))

    @pytest.mark.parametrize("coords", [
        ((0.5, 1), (2, 3)),
        ((True, False), (False, True)),
        ((2 ** 70, 0), (0, 0)),
        (("0", "1"), ("2", "3")),
    ])
    def test_non_integer_rejected(self, coords):
        with pytest.raises(ValueError, match="integers"):
            two_patch_bag(coords)


class TestBagGrid:
    """The coordinates live in one read-only N x 2 uint32 array; the tuple
    of pairs is built on first read of `coords` and kept."""

    FORMS = [((3, 4), (5, 6)), [[3, 4], [5, 6]],
             np.array([[3, 4], [5, 6]], dtype=np.int64),
             np.array([[3, 4], [5, 6]], dtype=np.uint32),
             np.asfortranarray(np.array([[3, 4], [5, 6]], dtype=np.int16))]

    @pytest.mark.parametrize("xy", FORMS)
    def test_grid_is_read_only_uint32(self, xy):
        bag = two_patch_bag(xy)
        assert bag.grid.dtype == np.uint32
        assert bag.grid.shape == (2, 2)
        assert bag.grid.flags.c_contiguous
        assert not bag.grid.flags.writeable
        assert np.array_equal(bag.grid, [[3, 4], [5, 6]])
        with pytest.raises(ValueError, match="read-only"):
            bag.grid[0, 0] = 9

    def test_coords_built_on_first_read_and_kept(self):
        rng = np.random.default_rng(5)
        xy = rng.integers(0, COORD_MAX, size=(50, 2), endpoint=True)
        bag = WsiBag(patches=EmbeddingMatrix(unit_rows(rng, 50, 3)),
                     coords=xy)
        assert "coords" not in bag.__dict__
        first = bag.coords
        assert "coords" in bag.__dict__
        assert bag.coords is first
        assert first == tuple(zip(xy[:, 0].tolist(), xy[:, 1].tolist()))
        assert all(type(v) is int for pair in first for v in pair)

    def test_writable_input_is_copied(self):
        xy = np.array([[3, 4], [5, 6]], dtype=np.uint32)
        bag = two_patch_bag(xy)
        xy[0, 0] = 7
        assert xy.flags.writeable
        assert bag.grid[0, 0] == 3 and bag.coords[0] == (3, 4)

    def test_read_only_uint32_kept_as_is(self):
        # a file reader's array is not copied again
        xy = np.frombuffer(np.array([3, 4, 5, 6], dtype="<u4").tobytes(),
                           dtype="<u4").reshape(2, 2)
        assert two_patch_bag(xy).grid is xy

    def test_bag_stays_frozen(self):
        bag = two_patch_bag(((3, 4), (5, 6)))
        with pytest.raises(AttributeError):
            bag.grid = np.zeros((2, 2), dtype=np.uint32)
        with pytest.raises(AttributeError):
            bag.label = 1
