from pathlib import Path

import numpy as np
import pytest

from dualgraph.geometry import Frame
from dualgraph.model import load_model_file

SHAPES = Path(__file__).parent / "fixtures" / "shapes.json"


def shape_library():
    """The innate shape vocabulary (segments, circles and their simple
    groups, authored in 3D), loaded fresh on every call: tests mutate
    models, and a model fills its `pinv_cache` lazily."""
    return load_model_file(str(SHAPES))


def random_rotation(rng, dim):
    """Haar-ish random proper rotation via QR with sign fixing."""
    m = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_frame(rng, dim=2, lengths=None):
    """Random well-conditioned frame with distinct axis lengths."""
    if lengths is None:
        base = np.sort(rng.uniform(0.5, 3.0, size=dim))[::-1]
        # keep lengths separated so canonical order is unambiguous
        lengths = base + np.arange(dim)[::-1] * 0.75
    rot = random_rotation(rng, dim)
    axes = np.diag(lengths) @ rot
    return Frame(rng.uniform(-5, 5, size=dim), axes)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
