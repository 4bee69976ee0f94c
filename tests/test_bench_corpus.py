"""The bench corpora are fixed inputs: a change to the scene generator that
moves the documents a workload feeds `recognize` must show up here, not as
an unexplained shift in the benchmark's numbers."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# input_sha256 of each workload's corpus at seed 1 with its own per_slice
INPUT_SHA256 = {
    "clutter": "d542409e63823d039ce186ab37ed4cd74af7c3a062661bad1329d16ef702f3e2",
    "tiled": "3267a5aeb33fd4cb636a4a2473d524e7dfb056536a49c9ce17d8bdf13a0daa13",
    "truck3d": "53059417ca00b0eacf8dce6195a3a2cbb01a48e3747568f8740c0568396fa806",
}


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", sorted(INPUT_SHA256))
def test_the_seed_1_corpus_inputs_are_unchanged(workloads, name):
    workload = workloads.WORKLOADS[name]
    cases = workload.build(workloads.load_models(workload.fixtures), 1, workload.per_slice)
    assert workloads.input_sha256(cases) == INPUT_SHA256[name]
