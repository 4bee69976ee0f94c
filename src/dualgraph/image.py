"""The image graph: recognized structure built over one scene.

Nodes are typed instances (a particular rectangle, a particular truck) with a
frame, a probability, and a status: ``verified``, as recognition makes every
node, or ``pruned`` once belief has dropped it (a pruned node has no links).
A node loaded without a status is verified. Links carry conditional
probabilities between instances:

- ``part-of``: child supports a group instance (upward flow only).
- ``group-member``: a member node claimed by a group; carries the group's
  backward support and, when the member stands in directly for the slot,
  the upward contribution as well. Competing claims are resolved here.
- ``specializes``: a role or specialization node shadowing a more generic
  node (a side shadowing a segment, a truck1 shadowing a truck); probability
  passes down from the generic node.

Serialized form (sorted, reproducible):

{
  "scene": "<scene id>",
  "nodes": [{"type", "instance", "frame": {"origin", "axes"}, "p", "status",
             "weight", "strength"?, "prim"?, "spec_slot"?}],
  "links": [{"kind", "from": [type, instance], "to": [type, instance],
             "conditional", "slot"?, "carries_up"?, "residuals"?}]
}

`ImageGraph.to_bytes` is the one writer of this form. It writes the layout
of `json.dumps(indent=2)` (ASCII, NaN and the infinities by name) and a
newline, directly from the nodes and links. Loading accepts these keys and
no others, and takes a number (p, weight, strength, conditional, a frame
coordinate, a residual) only as a JSON number.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .errors import DegenerateFrameError, SceneFormatError
from .geometry import Frame, _is_number

NODE_STATUSES = ("verified", "pruned")
LINK_KINDS = ("part-of", "group-member", "specializes")

# The keys of the serialized form, each object's in the order `to_bytes` writes them
GRAPH_KEYS = ("scene", "nodes", "links")
NODE_KEYS = ("type", "instance", "frame", "p", "status", "weight", "strength", "prim",
             "spec_slot")
LINK_KEYS = ("kind", "from", "to", "conditional", "slot", "carries_up", "residuals")

_json_string = json.encoder.encode_basestring_ascii


def _json_number(value) -> str:
    """A number as `json.dumps` writes it: an int in full, a float by its
    repr, NaN and the infinities by name."""
    if isinstance(value, int):
        return int.__repr__(value)
    if math.isfinite(value):
        return float.__repr__(value)
    return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"


def _node_head(dim: int) -> str:
    """A node's lines up to its weight, for a `dim`-dimensional frame, with a
    `%s` for each value: type, instance, the frame's origin and its axes row
    by row, p, status and weight. Frame entries are finite floats (`Frame`
    checks them), so `%s` writes each as its repr."""
    def numbers(indent: int) -> str:
        return "[\n" + ",\n".join([" " * (indent + 2) + "%s"] * dim) + "\n" + " " * indent + "]"
    axes = "[\n" + ",\n".join([" " * 10 + numbers(10)] * dim) + "\n        ]"
    return ('    {\n      "type": %s,\n      "instance": %s,\n      "frame": {\n'
            '        "origin": ' + numbers(8) + ',\n        "axes": ' + axes + '\n      },\n'
            '      "p": %s,\n      "status": %s,\n      "weight": %s')


# keyed by the number of frame entries, origin and axes together
_NODE_HEADS = {dim + dim * dim: _node_head(dim) for dim in (2, 3)}
_LINK_HEAD = ('    {\n      "kind": %s,\n      "from": [\n        %s,\n        %s\n      ],\n'
              '      "to": [\n        %s,\n        %s\n      ],\n      "conditional": %s')


@dataclass
class ImageNode:
    model_type: str
    instance: int
    frame: Frame
    probability: float = 0.0
    status: str = "verified"
    template_weight: float = 1.0
    strength: float = 0.0
    prim_index: int | None = None
    spec_slot: str | None = None

    @property
    def key(self) -> tuple:
        return (self.model_type, self.instance)

    @property
    def is_primitive(self) -> bool:
        return self.prim_index is not None

    def label(self) -> str:
        return f"{self.model_type}#{self.instance}"


@dataclass(eq=False)
class ImageLink:
    kind: str
    source: tuple
    target: tuple
    conditional: float = 1.0
    slot: str | None = None
    carries_up: bool = True
    residuals: dict = field(default_factory=dict)


def _check_node_values(node: ImageNode):
    if not 0.0 <= node.probability <= 1.0:
        raise SceneFormatError(f"node p must lie in [0, 1], got {node.probability!r}")
    for name, value in (("strength", node.strength), ("weight", node.template_weight)):
        if not 0.0 <= value < math.inf:
            raise SceneFormatError(f"node {name} must be finite and >= 0, got {value!r}")
    prim = node.prim_index
    if prim is not None and (type(prim) is not int or prim < 0):
        raise SceneFormatError(f"node prim must be an index >= 0, got {prim!r}")
    if node.spec_slot is not None and not isinstance(node.spec_slot, str):
        raise SceneFormatError(f"node spec_slot must be a name, got {node.spec_slot!r}")


def _check_keys(obj, keys, what: str):
    """`obj` is a JSON object whose keys are all among `keys`."""
    if not isinstance(obj, dict):
        raise SceneFormatError(f"{what} must be an object, got {obj!r}")
    for key in obj:
        if key not in keys:
            raise SceneFormatError(f"unknown {what} key {key!r}")


def _number(obj: dict, key: str, default: float, what: str) -> float:
    """`obj[key]` (or `default`) as a float, when it is a JSON number."""
    value = obj.get(key, default)
    if not _is_number(value):
        raise SceneFormatError(f"{what} {key} must be a number, got {value!r}")
    return float(value)


def _checked_residuals(residuals) -> dict:
    """A link's residuals as a new dict: names mapped to floats >= 0 (inf
    allowed, as a degenerate frame's strain is). An int beyond the float
    range raises OverflowError."""
    if not isinstance(residuals, dict):
        raise SceneFormatError(f"link residuals must be an object, got {residuals!r}")
    for name, value in residuals.items():
        if not isinstance(name, str) or not _is_number(value) or not value >= 0.0:
            raise SceneFormatError(f"link residual {name!r} must be a number >= 0, got {value!r}")
    return {name: float(value) for name, value in residuals.items()}


def _check_link_fits(link: ImageLink, model, filled: set):
    """Both ends of a link are of model types, its slot names a part of
    its target's type, and a group-member link fills a slot that no link
    before it filled (`filled`, the (target, slot) pairs so far): a slot
    holds at most one member."""
    for model_type, _ in (link.source, link.target):
        if model_type not in model.nodes:
            raise SceneFormatError(f"linked node type {model_type!r} is not in the model")
    if link.slot is not None and link.slot not in model.node(link.target[0]).slot_names():
        raise SceneFormatError(f"link slot {link.slot!r} is not a part of {link.target[0]!r}")
    if link.kind == "group-member":
        if link.slot is None or (link.target, link.slot) in filled:
            raise SceneFormatError(f"group-member link into {link.target} needs a slot of its own,"
                                   f" got {link.slot!r}")
        filled.add((link.target, link.slot))


class ImageGraph:
    """Mutable recognition state for one scene.

    Links enter and leave only through `add_link` and `remove_links`, which
    keep `links` and one incidence list per node in step. `incident(key)`
    keeps the order links were added: `propagate` sums a node's supporters
    in that order, so its floating-point sums are bit-stable.

    `projected` (a 3D model seen in a 2D scene through an affine camera) is
    derived from the model and the node frames, and never serialized; nor
    is `strains`, the scene's strain memo: relation strains
    (`belief.relation_strains`) and group placement strains
    (`belief._placement_strains`), each a float keyed by the frames it
    read (a `Frame` hashes by identity) and by strings.
    """

    def __init__(self, scene_id: str = "", model=None, projected: bool = False):
        self.scene_id = scene_id
        self.model = model
        self.projected = projected
        self.nodes: dict[tuple, ImageNode] = {}
        self.links: list[ImageLink] = []
        self._incident: dict[tuple, list[ImageLink]] = {}
        self._counters: dict[str, int] = {}
        self.strains: dict = {}

    def add_node(self, model_type: str, frame: Frame, **kw) -> ImageNode:
        n = self._counters.get(model_type, 0) + 1
        self._counters[model_type] = n
        node = ImageNode(model_type, n, frame, **kw)
        self.nodes[node.key] = node
        return node

    def add_link(self, kind: str, source: tuple, target: tuple, **kw) -> ImageLink:
        if kind not in LINK_KINDS:
            raise ValueError(f"unknown link kind {kind!r}")
        link = ImageLink(kind, tuple(source), tuple(target), **kw)
        self.links.append(link)
        for key in {link.source, link.target}:
            self._incident.setdefault(key, []).append(link)
        return link

    def node(self, key) -> ImageNode:
        return self.nodes[tuple(key)]

    def active_nodes(self) -> list[ImageNode]:
        return [n for n in self.nodes.values() if n.status != "pruned"]

    def require_model(self):
        """The attached model graph; SceneFormatError when there is none."""
        if self.model is None:
            raise SceneFormatError("image graph has no model attached")
        return self.model

    def incident(self, key) -> list[ImageLink]:
        """Links from or to `key`, in the order added; read-only."""
        return self._incident.get(tuple(key), [])

    def links_from(self, key, kind: str | None = None) -> list[ImageLink]:
        key = tuple(key)
        return [l for l in self.incident(key) if l.source == key and kind in (None, l.kind)]

    def links_to(self, key, kind: str | None = None) -> list[ImageLink]:
        key = tuple(key)
        return [l for l in self.incident(key) if l.target == key and kind in (None, l.kind)]

    def remove_links(self, doomed) -> list[ImageLink]:
        doomed = set(doomed)  # links hash by identity
        removed = [l for l in self.links if l in doomed]
        self.links = [l for l in self.links if l not in doomed]
        for key in {k for l in removed for k in (l.source, l.target)}:
            self._incident[key] = [l for l in self._incident[key] if l not in doomed]
        return removed

    def sorted_nodes(self) -> list[ImageNode]:
        return sorted(self.nodes.values(), key=lambda n: n.key)

    def to_bytes(self) -> bytes:
        """The serialized form in one pass: byte for byte what
        `json.dumps(<the documented object>, indent=2)` and a newline give."""
        out = ['{\n  "scene": ', _json_string(self.scene_id), ',\n  "nodes": ']
        nodes = self.sorted_nodes()
        out.append("[\n" if nodes else "[]")
        for i, n in enumerate(nodes):
            if i:
                out.append(",\n")
            coords = n.frame.origin.tolist() + n.frame.axes.ravel().tolist()
            out.append(_NODE_HEADS[len(coords)] % (
                _json_string(n.model_type), n.instance, *coords,
                _json_number(n.probability), _json_string(n.status),
                _json_number(n.template_weight)))
            if n.strength:
                out += (',\n      "strength": ', _json_number(n.strength))
            if n.prim_index is not None:
                out += (',\n      "prim": ', int.__repr__(n.prim_index))
            if n.spec_slot is not None:
                out += (',\n      "spec_slot": ', _json_string(n.spec_slot))
            out.append("\n    }")
        out.append('\n  ],\n  "links": ' if nodes else ',\n  "links": ')
        links = sorted(self.links, key=lambda l: (l.kind, l.source, l.target, l.slot or ""))
        out.append("[\n" if links else "[]")
        for i, l in enumerate(links):
            if i:
                out.append(",\n")
            (source, i_source), (target, i_target) = l.source, l.target
            out.append(_LINK_HEAD % (_json_string(l.kind), _json_string(source), i_source,
                                     _json_string(target), i_target, _json_number(l.conditional)))
            if l.slot is not None:
                out += (',\n      "slot": ', _json_string(l.slot))
            if not l.carries_up:
                out.append(',\n      "carries_up": false')
            if l.residuals:
                out.append(',\n      "residuals": {\n')
                out.append(",\n".join([f"        {_json_string(k)}: {_json_number(v)}"
                                        for k, v in sorted(l.residuals.items())]))
                out.append("\n      }")
            out.append("\n    }")
        out.append("\n  ]\n}\n" if links else "\n}\n")
        return "".join(out).encode("ascii")

    @staticmethod
    def from_json(obj: dict, model=None) -> "ImageGraph":
        _check_keys(obj, GRAPH_KEYS, "image graph")
        ig = ImageGraph(obj.get("scene", ""), model=model)
        if not isinstance(ig.scene_id, str):
            raise SceneFormatError(f"scene must be a name, got {ig.scene_id!r}")
        try:
            for raw in obj.get("nodes", []):
                _check_keys(raw, NODE_KEYS, "node")
                instance = raw["instance"]
                if type(instance) is not int or instance < 1:
                    raise SceneFormatError(f"node instance must be an int >= 1, got {instance!r}")
                node = ImageNode(
                    model_type=raw["type"],
                    instance=instance,
                    frame=Frame.from_json(raw["frame"]),
                    probability=_number(raw, "p", 0.0, "node"),
                    status=raw.get("status", "verified"),
                    template_weight=_number(raw, "weight", 1.0, "node"),
                    strength=_number(raw, "strength", 0.0, "node"),
                    prim_index=raw.get("prim"),
                    spec_slot=raw.get("spec_slot"),
                )
                if not isinstance(node.model_type, str):
                    raise SceneFormatError(f"node type must be a name, got {node.model_type!r}")
                if node.status not in NODE_STATUSES:
                    raise SceneFormatError(f"unknown node status {node.status!r}")
                _check_node_values(node)
                if node.key in ig.nodes:
                    raise SceneFormatError(f"duplicate node {node.label()}")
                ig.nodes[node.key] = node
                ig._counters[node.model_type] = max(
                    ig._counters.get(node.model_type, 0), node.instance
                )
            filled = set()
            for raw in obj.get("links", []):
                _check_keys(raw, LINK_KEYS, "link")
                ends = tuple(raw["from"]), tuple(raw["to"])
                for key in ends:
                    if key not in ig.nodes:
                        raise SceneFormatError(f"link references missing node {key}")
                    if type(key[1]) is not int:
                        raise SceneFormatError(f"link end instance must be an int, got {key!r}")
                    if ig.nodes[key].status == "pruned":
                        raise SceneFormatError(f"link references pruned node {key}")
                conditional = _number(raw, "conditional", 1.0, "link")
                if not 0.0 <= conditional <= 1.0:
                    raise SceneFormatError(f"link conditional must lie in [0, 1], got {conditional!r}")
                link = ig.add_link(
                    raw["kind"], *ends,
                    conditional=conditional,
                    slot=raw.get("slot"),
                    carries_up=raw.get("carries_up", True),
                    residuals=_checked_residuals(raw.get("residuals", {})),
                )
                if type(link.carries_up) is not bool:
                    raise SceneFormatError(f"link carries_up must be a bool, got {link.carries_up!r}")
                if link.slot is not None and not isinstance(link.slot, str):
                    raise SceneFormatError(f"link slot must be a name, got {link.slot!r}")
                if model is not None:
                    _check_link_fits(link, model, filled)
        except (KeyError, TypeError, ValueError, OverflowError, DegenerateFrameError) as exc:
            # a field of the wrong JSON type or shape, an unhashable node key,
            # an unknown link kind (add_link's ValueError) or a rejected frame
            raise SceneFormatError(f"bad image graph: {exc!r}") from exc
        dims = {n.frame.dim for n in ig.nodes.values()}
        if len(dims) > 1 or (model is not None and dims - {2, model.dim}):
            raise SceneFormatError(f"node frames must share one dimension the model can view,"
                                   f" got {sorted(dims)}")
        ig.projected = model is not None and model.dim == 3 and dims == {2}
        return ig

    @staticmethod
    def from_bytes(blob: bytes, model=None) -> "ImageGraph":
        try:
            obj = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SceneFormatError(f"image graph is not valid JSON: {exc}") from exc
        return ImageGraph.from_json(obj, model=model)
