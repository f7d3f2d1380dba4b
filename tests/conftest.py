import numpy as np
import pytest

from tpspp import network
from tpspp.warp import AttentionMatrix


@pytest.fixture
def zero_weights():
    """A WeightStore holding every tensor of the manifest, all zeros."""
    return network.WeightStore({name: np.zeros(shape, dtype=np.float32)
                                for name, shape in network.WEIGHT_MANIFEST.items()})


@pytest.fixture
def zero_attention():
    """Builds an all-zero (m, k) AttentionMatrix."""
    return lambda m, k: AttentionMatrix(np.zeros((m, k)))
