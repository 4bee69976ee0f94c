"""Scene documents: typed primitives and their canonical JSON parsing and writing."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SceneFormatError
from .geometry import Frame, frame_from_circle, frame_from_segment

PRIMITIVE_KINDS = ("linseg", "circle")
# the keys of a scene document; parse_scene rejects any other
SCENE_KEYS = ("dim", "primitives", "id")

# The range of a scene: every coordinate and radius at most 2**500 in
# magnitude, and every nonzero extent (a segment's half-length, a radius) at
# least 2**-500. Recognition squares coordinate differences and axis lengths
# (gate radii, `touch`'s reach, the extent solver's Gram matrix); inside the
# range none of those squares overflows, and no squared extent falls below
# the normal floats, where the extent solver's regularizer underflows to 0.
SCENE_RANGE = 2.0 ** 500


def _point(value, where) -> np.ndarray:
    """A primitive's point as a float vector of 2 or 3 entries."""
    try:
        point = np.asarray(value, float)
    except (TypeError, ValueError):  # ragged, or not numbers
        point = None
    if point is None or point.ndim != 1 or point.size not in (2, 3):
        raise SceneFormatError("a point must be a vector of 2 or 3 numbers", where)
    return point


@dataclass
class Primitive:
    """One observed feature: a line segment or a circle.

    `strength` carries the detector's confidence in [0, 1]; a faint or partly
    occluded feature enters inference with a weaker data prior. Points are
    1-D vectors of 2 or 3 entries, and a segment's endpoints have one
    length. A primitive outside the scene range (`SCENE_RANGE`) is rejected
    here, before any frame is built: a coordinate or radius that is not
    finite or exceeds 2**500 in magnitude, and a nonzero extent below
    2**-500. Coincident segment endpoints and a zero radius are left to the
    parser.
    """

    kind: str
    p1: np.ndarray | None = None
    p2: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None
    strength: float = 1.0

    def __post_init__(self):
        if self.kind not in PRIMITIVE_KINDS:
            raise SceneFormatError(f"unknown primitive kind {self.kind!r}")
        if self.kind == "linseg":
            self.p1 = _point(self.p1, "p1")
            self.p2 = _point(self.p2, "p2")
            if self.p1.size != self.p2.size:
                raise SceneFormatError("linseg endpoints must have one length")
            coords = self.p1.tolist() + self.p2.tolist()
            halves = [(b - a) / 2.0 for a, b in zip(self.p1.tolist(), self.p2.tolist())]
            extent = self.p1.tolist() != self.p2.tolist()
        else:
            self.center = _point(self.center, "center")
            self.radius = float(self.radius)
            coords = self.center.tolist() + [self.radius]
            halves = [self.radius]
            extent = self.radius != 0.0
        # NaN fails the comparison too
        if not all(abs(c) <= SCENE_RANGE for c in coords):
            raise SceneFormatError(f"{self.kind} coordinates must be finite and at most "
                                   "2**500 in magnitude")
        if extent and sum(h * h for h in halves) < SCENE_RANGE ** -2:
            raise SceneFormatError(f"{self.kind} is too small: a nonzero extent must be at "
                                   "least 2**-500")

    @property
    def dim(self) -> int:
        return int(self.p1.size if self.kind == "linseg" else self.center.size)

    def frame(self) -> Frame:
        if self.kind == "linseg":
            return frame_from_segment(self.p1, self.p2)
        return frame_from_circle(self.center, self.radius)

    def points(self) -> np.ndarray:
        """Representative coordinates, for bounding-box work."""
        if self.kind == "linseg":
            return np.array([self.p1, self.p2])
        r = self.radius
        c = self.center
        offsets = np.concatenate([np.eye(c.size) * r, np.eye(c.size) * -r])
        return np.vstack([c + off for off in offsets])


@dataclass
class Scene:
    """A flat bag of primitives in one coordinate system: `dim` is the int 2
    or 3, and every primitive has that dimension."""

    dim: int
    primitives: list[Primitive] = field(default_factory=list)
    id: str = ""

    def __post_init__(self):
        check_scene_dim(self)


def check_scene_dim(scene: Scene) -> None:
    """Raise SceneFormatError unless the scene's `dim` is the int 2 or 3 and
    every primitive has that dimension. A scene is checked when built, and
    `recognize` checks it again, since its fields can change after that."""
    if type(scene.dim) is not int or scene.dim not in (2, 3):
        raise SceneFormatError(f"dim must be the int 2 or 3, got {scene.dim!r}", "dim")
    for i, prim in enumerate(scene.primitives):
        if prim.dim != scene.dim:
            raise SceneFormatError(f"expected a {scene.dim}D primitive", f"primitives[{i}]")


def _check_vector(value, length, where):
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise SceneFormatError(f"expected a {length}-vector", where)
    return [_finite(item, "coordinate", f"{where}[{i}]") for i, item in enumerate(value)]


def _finite(value, what, where) -> float:
    """A JSON number as a finite float; an int beyond the float range is
    rejected like inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneFormatError(f"{what} must be a number", where)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise SceneFormatError(f"{what} is not finite", where)
    return value


def _parse_primitive(obj, dim, where) -> Primitive:
    if not isinstance(obj, dict):
        raise SceneFormatError("expected an object", where)
    kind = obj.get("kind")
    if kind not in PRIMITIVE_KINDS:
        raise SceneFormatError(f"unknown primitive kind {kind!r}", f"{where}.kind")
    strength = _finite(obj.get("strength", 1.0), "strength", f"{where}.strength")
    if not (0.0 <= strength <= 1.0):
        raise SceneFormatError("strength must lie in [0, 1]", f"{where}.strength")
    allowed = {"kind", "strength"}
    allowed |= {"p1", "p2"} if kind == "linseg" else {"center", "radius"}
    for key in obj:
        if key not in allowed:
            raise SceneFormatError(f"unknown key {key!r}", f"{where}.{key}")
    if kind == "linseg":
        if "p1" not in obj or "p2" not in obj:
            raise SceneFormatError("linseg needs p1 and p2", where)
        p1 = _check_vector(obj["p1"], dim, f"{where}.p1")
        p2 = _check_vector(obj["p2"], dim, f"{where}.p2")
        if p1 == p2:
            raise SceneFormatError("linseg endpoints coincide", where)
        return Primitive("linseg", p1=p1, p2=p2, strength=strength)
    if "center" not in obj or "radius" not in obj:
        raise SceneFormatError("circle needs center and radius", where)
    center = _check_vector(obj["center"], dim, f"{where}.center")
    radius = _finite(obj["radius"], "radius", f"{where}.radius")
    if radius <= 0:
        raise SceneFormatError("radius must be positive", f"{where}.radius")
    return Primitive("circle", center=center, radius=radius, strength=strength)


def parse_scene(data) -> Scene:
    """Parse a scene document (bytes, text, or an already-decoded dict):
    the keys `dim` (the int 2 or 3), `primitives` and `id`, and no others."""
    if isinstance(data, (bytes, bytearray, str)):
        try:
            data = json.loads(data if isinstance(data, str) else data.decode("utf-8"))
        except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
            raise SceneFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SceneFormatError("scene document must be a JSON object")
    for key in data:
        if key not in SCENE_KEYS:
            raise SceneFormatError(f"unknown key {key!r}", key)
    dim = data.get("dim")
    if type(dim) is not int or dim not in (2, 3):
        raise SceneFormatError("dim must be the int 2 or 3", "dim")
    prims_raw = data.get("primitives", [])
    if not isinstance(prims_raw, list):
        raise SceneFormatError("expected a list", "primitives")
    scene_id = data.get("id", "")
    if not isinstance(scene_id, str):
        raise SceneFormatError("id must be a string", "id")
    prims = [
        _parse_primitive(obj, dim, f"primitives[{i}]") for i, obj in enumerate(prims_raw)
    ]
    return Scene(dim=dim, primitives=prims, id=scene_id)


def _num(x: float):
    """Floats that are whole numbers print as ints; repr otherwise (exact)."""
    f = float(x)
    return int(f) if f.is_integer() and abs(f) < 1e15 else f


def scene_to_json(scene: Scene) -> dict:
    prims = []
    for p in scene.primitives:
        if p.kind == "linseg":
            obj = {"kind": "linseg", "p1": [_num(v) for v in p.p1], "p2": [_num(v) for v in p.p2]}
        else:
            obj = {"kind": "circle", "center": [_num(v) for v in p.center], "radius": _num(p.radius)}
        if p.strength != 1.0:
            obj["strength"] = _num(p.strength)
        prims.append(obj)
    out = {"dim": scene.dim, "primitives": prims}
    if scene.id:
        out["id"] = scene.id
    return out


def write_scene(scene: Scene) -> bytes:
    """Canonical byte serialization; parse(write(s)) reproduces s exactly.

    Python's float repr is the shortest decimal string that round-trips, so
    every finite coordinate survives a write/parse cycle bit for bit.
    """
    return (json.dumps(scene_to_json(scene), indent=2) + "\n").encode("utf-8")

