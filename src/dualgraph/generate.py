"""Synthetic scene generation from model graphs.

Expansion walks the parts tree from a target type down to the builtin
primitives, keeping every frame in world coordinates through a chain of
affine maps. Noise enters as one size factor and one position factor per
part slot plus endpoint-level perturbation, so scalar arrangement values
(size ratios, distance ratios) spread in proportion to the jitter setting.

All randomness flows through numpy's default PCG64 generator seeded from
the spec, so output is reproducible across runs and platforms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .belief import relation_strain
from .config import Config
from .errors import GenerationError
from .geometry import AffineCamera, AffineMap, Frame, frame_onto
from .model import ModelGraph, ModelNode, PartLink
from .scene import Primitive, Scene

CAMERA_MODES = ("drop-z", "random")


@dataclass
class GeneratorSpec:
    """Recipe for a batch of synthetic scenes."""

    model: ModelGraph
    target: str
    n_scenes: int = 1
    jitter: float = 0.0
    n_distractors: int = 0
    camera: str | None = None
    seed: int = 0


def _slot_map(slot_frame: Frame, child_template: Frame) -> AffineMap:
    """Map child-template coordinates onto the slot's placement."""
    return frame_onto(child_template, slot_frame)


def _preferred_slots(model: ModelGraph, target: str) -> set[str]:
    """Slot names named by specialization screens on the climb from `target`."""
    preferred: set[str] = set()
    seen = set()
    frontier = [target]
    while frontier:
        name = frontier.pop()
        if name in seen:
            continue
        seen.add(name)
        node = model.node(name)
        for parent_name in node.higher_loa:
            parent = model.node(parent_name)
            for rel in parent.specialize_relations.get(name, []):
                preferred.update(rel.operands)
            frontier.append(parent_name)
    return preferred


def _choose_slots(node: ModelNode, preferred: set[str]) -> list[PartLink]:
    """All untagged slots plus one slot per variant tag (preferring screened names)."""
    chosen = []
    seen_tags = set()
    for slot in node.parts:
        if slot.variant_tag is None:
            chosen.append(slot)
    tags = []
    for slot in node.parts:
        if slot.variant_tag is not None and slot.variant_tag not in seen_tags:
            seen_tags.add(slot.variant_tag)
            tags.append(slot.variant_tag)
    for tag in tags:
        candidates = [s for s in node.parts if s.variant_tag == tag]
        pick = next((s for s in candidates if s.name in preferred), candidates[0])
        chosen.append(pick)
    return chosen


def _climb(model: ModelGraph, name: str) -> list[ModelNode]:
    """The nodes from `name` up its first abstraction links to the first
    node with parts or a builtin, in climb order."""
    path = [model.node(name)]
    while not path[-1].parts and path[-1].type_name not in ("linseg", "circle"):
        if not path[-1].higher_loa:
            raise GenerationError(f"type {path[-1].type_name!r} has no primitive realization")
        path.append(model.node(path[-1].higher_loa[0]))
        if len(path) > len(model.nodes) + 1:
            raise GenerationError("abstraction climb did not terminate")
    return path


def _climb_to_substance(model: ModelGraph, name: str, transform: AffineMap) -> tuple[ModelNode, AffineMap]:
    """Follow abstraction upward until a node with parts or a builtin appears."""
    path = _climb(model, name)
    for node, parent in zip(path, path[1:]):
        if node.type_name not in parent.specialize_relations:
            # A reshaped variant (a stretched box, say) pulls the parent's
            # parts onto its own template. A relation-tightened specialization
            # shares the parent's geometry outright, so no map applies.
            transform = transform.then(_slot_map(node.frame_template, parent.frame_template))
    return path[-1], transform


def _check_screens(model: ModelGraph, target: str):
    """Raise GenerationError when the climb from `target` passes a
    relation-tightened specialization that fails its own screen.

    Such a child shares its parent's geometry (`_climb_to_substance`), so
    its instances are the parent's slot frames. A screen relation whose
    strain on them exceeds s_fail, the rule recognition screens by, would
    make every generated instance read as some other type.
    """
    s_fail = Config().s_fail
    path = _climb(model, target)
    for node, parent in zip(path, path[1:]):
        frames = {slot.name: slot.frame for slot in parent.parts}
        for rel in parent.specialize_relations.get(node.type_name, []):
            s = relation_strain(rel, [frames[op] for op in rel.operands], s_fail)
            if s > s_fail:
                raise GenerationError(
                    f"type {target!r} fails its screen {rel.function}{rel.operands} on the "
                    f"geometry of {parent.type_name!r} it shares (strain {s:.3g} > {s_fail:g})")


def _expand(model, node, transform, preferred, rng, jitter, path, out):
    """Emit (path, kind, frame) records for every primitive under `node`."""
    if not node.parts:
        kind = node.type_name
        if kind not in ("linseg", "circle"):
            raise GenerationError(f"type {kind!r} is not a primitive")
        out.append((path, kind, transform.apply_frame(node.frame_template)))
        return
    for slot in _choose_slots(node, preferred):
        child, base = _climb_to_substance(model, slot.type_name, AffineMap.identity(model.dim))
        slot_frame = slot.frame
        if rng is not None:
            c_size = rng.normal(1.0, jitter)
            c_pos = rng.normal(1.0, jitter)
            origin = node.frame_template.origin + c_pos * (
                slot_frame.origin - node.frame_template.origin
            )
            slot_frame = Frame(origin, slot_frame.axes * c_size)
        child_map = transform.then(_slot_map(slot_frame, model.node(slot.type_name).frame_template)).then(
            base
        )
        _expand(model, child, child_map, preferred, rng, jitter, path + (slot.name,), out)


def _instance_records(model: ModelGraph, target: str, jitter: float, rng):
    """Two-pass expansion: exact pass finds coincident duplicates, noisy pass emits.

    Parts that trace the same template geometry (a shared edge between two
    faces, say) collapse to one observed primitive, keeping the first path in
    traversal order.
    """
    node, base = _climb_to_substance(model, target, AffineMap.identity(model.dim))
    preferred = _preferred_slots(model, target)

    exact: list = []
    _expand(model, node, base, preferred, None, 0.0, (), exact)
    if not exact:
        raise GenerationError(f"type {target!r} has no primitive descendants")
    keep = set()
    seen_keys = {}
    for path, kind, frame in exact:
        if kind == "linseg":
            ends = sorted(
                [tuple(np.round(frame.origin + frame.axes[0], 9)), tuple(np.round(frame.origin - frame.axes[0], 9))]
            )
            key = ("linseg", tuple(ends[0]), tuple(ends[1]))
        else:
            radii = frame.lengths
            r = float(np.round(radii[radii > 0].mean(), 9))
            key = ("circle", tuple(np.round(frame.origin, 9)), r)
        if key not in seen_keys:
            seen_keys[key] = path
            keep.add(path)

    noisy: list = []
    _expand(model, node, base, preferred, rng, jitter, (), noisy)
    records = [(path, kind, frame) for path, kind, frame in noisy if path in keep]
    return records


def _emit_primitive(kind: str, frame: Frame, rng, jitter: float) -> Primitive:
    if kind == "linseg":
        half = frame.axes[0]
        length = float(np.linalg.norm(half))
        if length <= 0:
            raise GenerationError("segment slot has a zero primary axis")
        p1 = frame.origin - half
        p2 = frame.origin + half
        if rng is not None and jitter > 0:
            p1 = p1 + rng.normal(0.0, jitter * length, size=p1.size)
            p2 = p2 + rng.normal(0.0, jitter * length, size=p2.size)
        return Primitive("linseg", p1=p1, p2=p2)
    radii = frame.lengths
    r = float(radii[radii > 0].mean())
    center = frame.origin
    if rng is not None and jitter > 0:
        center = center + rng.normal(0.0, jitter * r, size=center.size)
        r = r * float(rng.normal(1.0, jitter))
    if r <= 0:
        raise GenerationError("circle slot collapsed to zero radius")
    return Primitive("circle", center=center, radius=r)


def sample_camera(rng, mode: str = "random") -> AffineCamera:
    """A 3D-to-2D affine view; `random` keeps the in-plane conditioning mild."""
    if mode == "drop-z":
        return AffineCamera(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), np.zeros(2))
    if mode != "random":
        raise GenerationError(f"unknown camera mode {mode!r}")
    for _ in range(200):
        rot = _random_rotation(rng, 3)
        shear = np.array(
            [
                [rng.uniform(0.7, 1.3), rng.uniform(-0.2, 0.2)],
                [0.0, rng.uniform(0.7, 1.3)],
            ]
        )
        linear = shear @ rot[:2, :]
        sv = np.linalg.svd(linear[:, :2], compute_uv=False)
        if sv[-1] > 1e-9 and sv[0] / sv[-1] <= 4.0:
            translation = rng.uniform(-2.0, 2.0, size=2)
            return AffineCamera(linear, translation)
    raise GenerationError("could not sample a well-conditioned camera")


def _random_rotation(rng, dim: int) -> np.ndarray:
    mat = rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(mat)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _project_primitive(prim: Primitive, camera: AffineCamera) -> Primitive:
    if prim.kind == "linseg":
        p1, p2 = camera.apply_points(np.array([prim.p1, prim.p2]))
        return Primitive("linseg", p1=p1, p2=p2, strength=prim.strength)
    center = camera.apply_points(prim.center)[0]
    sv = np.linalg.svd(camera.linear[:, :2], compute_uv=False)
    return Primitive(
        "circle", center=center, radius=prim.radius * float(sv.mean()), strength=prim.strength
    )


def _add_distractors(prims: list[Primitive], count: int, dim: int, rng) -> list[Primitive]:
    if count <= 0:
        return prims
    pts = np.vstack([p.points() for p in prims]) if prims else np.zeros((1, dim))
    center = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
    half = np.maximum((pts.max(axis=0) - pts.min(axis=0)) / 2.0, 0.5) * 1.5
    lengths = [p.frame().primary_length for p in prims] or [1.0]
    scale = float(np.median(lengths))
    extra = []
    for _ in range(count):
        mid = center + rng.uniform(-1.0, 1.0, size=dim) * half
        direction = rng.normal(size=dim)
        direction = direction / np.linalg.norm(direction)
        half_len = rng.uniform(0.25, 0.75) * scale
        extra.append(Primitive("linseg", p1=mid - half_len * direction, p2=mid + half_len * direction))
    return prims + extra


def _one_scene(spec: GeneratorSpec, rng, camera: AffineCamera | None, scene_id: str) -> Scene:
    records = _instance_records(spec.model, spec.target, spec.jitter, rng)
    prims = [_emit_primitive(kind, frame, rng, spec.jitter) for _, kind, frame in records]
    dim = spec.model.dim
    if camera is not None:
        # an edge seen end-on projects to a point, which no scene may hold as a segment
        prims = [p for p in (_project_primitive(p, camera) for p in prims)
                 if p.kind != "linseg" or not np.array_equal(p.p1, p.p2)]
        dim = 2
    prims = _add_distractors(prims, spec.n_distractors, dim, rng)
    return Scene(dim=dim, primitives=prims, id=scene_id)


def _check_spec(spec: GeneratorSpec):
    for name in ("n_scenes", "n_distractors", "seed"):
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise GenerationError(f"{name} must be a nonnegative integer, got {value!r}")
    jitter = spec.jitter
    if isinstance(jitter, bool) or not isinstance(jitter, numbers.Real) or not 0 <= jitter < math.inf:
        raise GenerationError(f"jitter must be a finite nonnegative number, got {jitter!r}")
    if spec.target not in spec.model.nodes:
        raise GenerationError(f"unknown target type {spec.target!r}")
    if spec.camera is not None:
        if spec.camera not in CAMERA_MODES:
            raise GenerationError(f"unknown camera mode {spec.camera!r}")
        if spec.model.dim != 3:
            raise GenerationError("camera projection needs a 3D model")


def generate_scenes(spec: GeneratorSpec) -> list[Scene]:
    """Independent scenes, one fresh target instance each; seeded and reproducible."""
    _check_spec(spec)
    _check_screens(spec.model, spec.target)
    scenes = []
    for i in range(spec.n_scenes):
        rng = np.random.default_rng([spec.seed, i])
        camera = sample_camera(rng, spec.camera) if spec.camera else None
        scenes.append(_one_scene(spec, rng, camera, f"{spec.target}-{spec.seed}-{i:03d}"))
    return scenes

