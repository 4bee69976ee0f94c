"""The bench's tracer patches program functions by module and attribute name;
a rename in the program must not silently break `bench/run.py --trace 1`."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("tracing")


def test_every_traced_name_resolves_to_a_callable(tracing):
    names = {**tracing.STAGES, **tracing.KERNELS, **tracing.COUNTED}
    assert names
    for module, attr in names:
        owner, name = tracing._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr}"
