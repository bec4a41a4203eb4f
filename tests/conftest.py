import numpy as np
import pytest

from slipmil.core import EmbeddingMatrix, WsiBag
from slipmil.encoder import FrozenEncoderWeights


@pytest.fixture(scope="session")
def weights():
    return FrozenEncoderWeights.create(42, d_t=16, d_v=32)


def unit_rows(rng, n, d):
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def random_bag(rng, n, d, label=0, patient_id="p0"):
    patches = EmbeddingMatrix(unit_rows(rng, n, d))
    coords = tuple((i, 0) for i in range(n))
    return WsiBag(patches=patches, coords=coords, label=label,
                  patient_id=patient_id)
