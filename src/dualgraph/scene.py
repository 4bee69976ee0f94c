"""Scene documents: typed primitives and their canonical JSON parsing and writing."""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import SceneFormatError
from .geometry import Frame, _is_number, frame_from_circle, frame_from_segment

# the kinds of primitive, each with the point and size keys it needs
PRIMITIVE_KEYS = {"linseg": ("p1", "p2"), "circle": ("center", "radius")}
# the keys of a scene document; parse_scene rejects any other
SCENE_KEYS = ("dim", "primitives", "id")

# The range of a scene: every coordinate and radius at most 2**500 in
# magnitude, and every nonzero extent (a segment's half-length, a radius) at
# least 2**-500. Recognition squares coordinate differences and axis lengths
# (gate radii, `touch`'s reach, the extent solver's Gram matrix); inside the
# range none of those squares overflows, and no squared extent falls below
# the normal floats, where the extent solver's regularizer underflows to 0.
SCENE_RANGE = 2.0 ** 500
_RANGE_RULE = "coordinates must be finite and at most 2**500 in magnitude"


def _point(value, where) -> np.ndarray:
    """A primitive's point as a float vector of 2 or 3 entries."""
    try:
        point = np.asarray(value, float)
    except OverflowError:  # an int beyond the float range
        raise SceneFormatError(_RANGE_RULE, where) from None
    except (TypeError, ValueError):  # ragged, or not numbers
        point = None
    if point is None or point.ndim != 1 or point.size not in (2, 3):
        raise SceneFormatError("a point must be a vector of 2 or 3 numbers", where)
    return point


def _real(value, where) -> float:
    """A strength or a radius as a float: a real number, not a bool; an int
    beyond the float range is inf, which no range admits."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise SceneFormatError(f"{where} must be a real number, got {value!r}", where)
    try:
        return float(value)
    except OverflowError:
        return math.inf


@dataclass
class Primitive:
    """One observed feature: a line segment or a circle.

    The constructor owns every value rule of a primitive and raises
    SceneFormatError, whose path names the field at fault, if one; the
    parser adds only the document's rules (`_parse_primitive`). `kind` is
    "linseg" or "circle". Points are 1-D vectors of 2 or 3 entries, and a
    segment's endpoints have one length; they may coincide (the generator
    builds such segments). `strength`, the detector's confidence, is a real
    number in [0, 1]: a faint feature enters inference with a weaker data
    prior. A radius is a real, positive number. Nothing outside the scene
    range (`SCENE_RANGE`) reaches a frame: a coordinate or radius that is
    not finite or exceeds 2**500 in magnitude, or a nonzero extent below
    2**-500."""

    kind: str
    p1: np.ndarray | None = None
    p2: np.ndarray | None = None
    center: np.ndarray | None = None
    radius: float | None = None
    strength: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in PRIMITIVE_KEYS:
            raise SceneFormatError(f"unknown primitive kind {self.kind!r}", "kind")
        self.strength = _real(self.strength, "strength")
        if not 0.0 <= self.strength <= 1.0:
            raise SceneFormatError("strength must lie in [0, 1]", "strength")
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
            self.radius = _real(self.radius, "radius")
            if not self.radius > 0.0:
                raise SceneFormatError("radius must be positive", "radius")
            coords = self.center.tolist() + [self.radius]
            halves = [self.radius]
            extent = True
        # NaN fails the comparison too
        if not all(abs(c) <= SCENE_RANGE for c in coords):
            raise SceneFormatError(f"{self.kind} {_RANGE_RULE}")
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
    """A flat bag of primitives in one coordinate system. The constructor
    owns the scene's rule (`check_scene_dim`): `dim` is the int 2 or 3, and
    every primitive has that dimension."""

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


def _parse_primitive(obj, where) -> Primitive:
    """A primitive of a scene document. The parser owns the document's
    rules: JSON types (a bool is not a number), keys and required fields,
    the field path in its errors, and coincident segment endpoints, which
    `Primitive` allows (the generator builds such segments). Every value
    rule is `Primitive`'s."""
    if not isinstance(obj, dict):
        raise SceneFormatError("expected an object", where)
    kind = obj.get("kind")
    required = PRIMITIVE_KEYS.get(kind, ()) if isinstance(kind, str) else ()
    # an unknown kind is named by `Primitive`, before any key that goes with it
    fields = dict(obj, kind=kind) if required else {"kind": kind}
    for key in fields:
        if key not in ("kind", "strength", *required):
            raise SceneFormatError(f"unknown key {key!r}", f"{where}.{key}")
    for key in required:
        if key not in fields:
            raise SceneFormatError(f"{kind} needs {' and '.join(required)}", where)
    for key, value in fields.items():
        if key in ("p1", "p2", "center") and not (isinstance(value, list)
                                                 and all(map(_is_number, value))):
            raise SceneFormatError("expected a list of numbers", f"{where}.{key}")
        if key in ("radius", "strength") and not _is_number(value):
            raise SceneFormatError(f"{key} must be a number", f"{where}.{key}")
    try:
        prim = Primitive(**fields)
    except SceneFormatError as exc:
        raise SceneFormatError(exc.message, ".".join(filter(None, (where, exc.path)))) from None
    if kind == "linseg" and prim.p1.tolist() == prim.p2.tolist():
        raise SceneFormatError("linseg endpoints coincide", where)
    return prim


def parse_scene(data) -> Scene:
    """Parse a scene document (bytes, text, or an already-decoded dict).

    The parser owns the document's rules: JSON, the keys `dim`,
    `primitives` and `id` and no others, and a string id; `Scene` owns the
    rule that `dim` is the int 2 or 3 and every primitive has it, and
    `_parse_primitive` says what a primitive's document must be."""
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
    prims_raw = data.get("primitives", [])
    if not isinstance(prims_raw, list):
        raise SceneFormatError("expected a list", "primitives")
    scene_id = data.get("id", "")
    if not isinstance(scene_id, str):
        raise SceneFormatError("id must be a string", "id")
    prims = [_parse_primitive(obj, f"primitives[{i}]") for i, obj in enumerate(prims_raw)]
    return Scene(dim=data.get("dim"), primitives=prims, id=scene_id)


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

