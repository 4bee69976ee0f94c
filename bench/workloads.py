"""Seeded scene corpora for the recognition benchmark.

Each workload is a fixed list of scene documents (`write_scene` bytes) made
from the workload seed alone, so the same seed always gives the same bytes.
Every slice of a workload (one fixture, camera, jitter and distractor
setting) draws from its own generator seed, so slices are independent.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from dualgraph.generate import GeneratorSpec, generate_scenes
from dualgraph.model import fixture_path, load_model_file
from dualgraph.scene import Primitive, Scene, write_scene

# fixture file -> the type the generator places and recognition must find
TARGETS = {"face.json": "face", "truck_flat.json": "truck1", "truck.json": "truck1"}

CLUTTER_DISTRACTORS = 128
TILED_COPIES = {"face.json": 16, "truck_flat.json": 8}
# free space between neighbouring copies, in units of one copy's span
TILED_GAP = 1.5


@dataclass(frozen=True)
class Case:
    """One scene document and what the generator placed in it."""

    doc: bytes
    fixture: str
    target: str
    placed: int
    camera: str | None
    jitter: float
    distractors: int
    # the document holds a segment whose endpoints coincide, which
    # parse_scene rejects by contract
    degenerate: bool

    @property
    def slice(self) -> str:
        return (f"{self.fixture.removesuffix('.json')}/camera={self.camera or 'none'}"
                f"/jitter={self.jitter:g}/distractors={self.distractors}"
                f"/copies={self.placed}")


def load_models(fixtures) -> dict:
    """Parse and validate every fixture model a workload needs."""
    return {name: load_model_file(fixture_path(name)) for name in fixtures}


def _slice_seed(seed: int, slice_no: int) -> int:
    # distinct for every (seed, slice) while slice_no < 64
    return seed * 64 + slice_no


def _has_degenerate_segment(scene: Scene) -> bool:
    return any(p.kind == "linseg" and np.array_equal(p.p1, p.p2) for p in scene.primitives)


def _case(scene, fixture, placed, camera, jitter, distractors) -> Case:
    return Case(write_scene(scene), fixture, TARGETS[fixture], placed, camera,
                jitter, distractors, _has_degenerate_segment(scene))


def _shifted(prim: Primitive, offset: np.ndarray) -> Primitive:
    if prim.kind == "linseg":
        return Primitive("linseg", p1=prim.p1 + offset, p2=prim.p2 + offset,
                         strength=prim.strength)
    return Primitive("circle", center=prim.center + offset, radius=prim.radius,
                     strength=prim.strength)


def tile(copies: list[Scene], scene_id: str) -> Scene:
    """Lay independently generated scenes out on a square grid in one scene.

    Copies are centred on cells whose pitch is the largest copy span times
    (1 + TILED_GAP), so no two copies overlap; only the first two
    coordinates move.
    """
    boxes = []
    for s in copies:
        pts = np.vstack([p.points() for p in s.primitives])
        boxes.append((pts.min(axis=0), pts.max(axis=0)))
    span = max(float(np.max(hi[:2] - lo[:2])) for lo, hi in boxes)
    pitch = span * (1.0 + TILED_GAP)
    cols = int(np.ceil(np.sqrt(len(copies))))
    prims = []
    for i, (s, (lo, hi)) in enumerate(zip(copies, boxes)):
        offset = -(lo + hi) / 2.0
        offset[0] += (i % cols) * pitch
        offset[1] += (i // cols) * pitch
        if offset.size > 2:
            offset[2:] = 0.0
        prims.extend(_shifted(p, offset) for p in s.primitives)
    return Scene(dim=copies[0].dim, primitives=prims, id=scene_id)


def _interleave(slices) -> list[Case]:
    """Round-robin over equal-sized slices, so any prefix of the corpus
    holds every slice in about equal share."""
    return [case for group in zip(*slices) for case in group]


def clutter(models, seed: int, per_slice: int) -> list[Case]:
    """One face or truck_flat target plus random distractor segments."""
    slices = []
    for fixture in ("face.json", "truck_flat.json"):
        for jitter in (0.0, 0.03):
            spec = GeneratorSpec(models[fixture], TARGETS[fixture], n_scenes=per_slice,
                                 jitter=jitter, n_distractors=CLUTTER_DISTRACTORS,
                                 seed=_slice_seed(seed, len(slices)))
            slices.append([_case(s, fixture, 1, None, jitter, CLUTTER_DISTRACTORS)
                           for s in generate_scenes(spec)])
    return _interleave(slices)


def truck3d(models, seed: int, per_slice: int) -> list[Case]:
    """The 3D truck alone, seen directly and through drop-z and random cameras."""
    slices = []
    for camera in (None, "random", "drop-z"):
        for jitter in (0.0, 0.03):
            spec = GeneratorSpec(models["truck.json"], TARGETS["truck.json"],
                                 n_scenes=per_slice, jitter=jitter, camera=camera,
                                 seed=_slice_seed(seed, len(slices)))
            slices.append([_case(s, "truck.json", 1, camera, jitter, 0)
                           for s in generate_scenes(spec)])
    return _interleave(slices)


def tiled(models, seed: int, per_slice: int) -> list[Case]:
    """Many separated copies of one object in a single scene; every scene
    tiles copies from its own generator seed."""
    slices = []
    for fixture, copies in TILED_COPIES.items():
        cases = []
        for k in range(per_slice):
            spec = GeneratorSpec(models[fixture], TARGETS[fixture], n_scenes=copies, jitter=0.03,
                                 seed=_slice_seed(seed, len(slices) * per_slice + k))
            scene = tile(generate_scenes(spec), f"tiled-{fixture.removesuffix('.json')}-{seed}-{k}")
            cases.append(_case(scene, fixture, copies, None, 0.03, 0))
        slices.append(cases)
    return _interleave(slices)


@dataclass(frozen=True)
class Workload:
    build: Callable[[dict, int, int], list[Case]]  # (models, seed, per_slice) -> corpus
    fixtures: tuple
    per_slice: int  # scenes per slice; one pass takes 25-40 s on a 2-vCPU x86-64 host


WORKLOADS = {
    "clutter": Workload(clutter, ("face.json", "truck_flat.json"), 4),
    "truck3d": Workload(truck3d, ("truck.json",), 2),
    "tiled": Workload(tiled, ("face.json", "truck_flat.json"), 6),
}


def input_sha256(cases) -> str:
    """Fingerprint of the serialized documents, in corpus order."""
    h = hashlib.sha256()
    for c in cases:
        h.update(len(c.doc).to_bytes(8, "little"))
        h.update(c.doc)
    return h.hexdigest()
