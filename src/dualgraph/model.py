"""Dual-hierarchy model graph: the offline knowledge base for recognition.

A model graph holds one node per object type.  Nodes are tied together along
two independent dimensions: the parts hierarchy (a rectangle is made of four
sides) and the abstraction hierarchy (a cab is a box, a truck1 is a truck).
Relation specs attached to a node constrain the geometry of its parts, and the
midx index maps pairs of abstract part types to the groups they may indicate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DegenerateFrameError, ModelFormatError, ModelValidationError
from .geometry import (
    RELATION_FUNCTIONS,
    SYMMETRY_CLASSES,
    Frame,
    _is_number,
    canonicalize_frame,
)

BOOLEAN_RELATIONS = {"parallel", "touch", "inside"}
SCALAR_RELATIONS = ("size-ratio", "distance-ratio", "angle")

DEFAULT_ELASTICITY = (0.25, 0.25, 0.25)

# The keys a model document may hold: at its top level, in a node, in a part
DOCUMENT_KEYS = ("nodes", "dim")
NODE_KEYS = ("type", "frame", "symmetry", "parts", "relations", "specialize", "lower_loa")
PART_KEYS = ("name", "type", "variant", "frame", "essential", "elasticity")


def _check_keys(obj: dict, keys, where: str, path: str = ""):
    for key in obj:
        if key not in keys:
            raise ModelFormatError(f"{where}: unknown key {key!r}", path=path)


@dataclass
class RelationSpec:
    """One geometric constraint between two named parts of a node."""

    function: str
    operands: tuple
    target: float | bool
    tolerance: float
    # the template frames of the two operand slots, attached by `_node_from_json`
    operand_frames: tuple = field(default=(), compare=False, repr=False)

    @cached_property
    def spec(self) -> tuple:
        """(function, target, tolerance): equal for relations that score
        equal strains on equal operand frames."""
        return self.function, self.target, self.tolerance

    @cached_property
    def affine_invariant(self) -> bool:
        """Whether the relation still holds when its model is seen through an
        unknown affine camera, so a projected scene can score it.

        A boolean relation always does, an angle only with a zero target,
        and a ratio only along parallel model directions of its operands'
        template frames. Decided once per relation, on first read."""
        if self.function in BOOLEAN_RELATIONS:
            return True
        if self.function == "angle":
            return abs(float(self.target)) < 1e-9
        fa, fb = self.operand_frames
        da = fa.primary_axis
        db = fb.primary_axis if self.function == "size-ratio" else fb.origin - fa.origin
        na = float(np.linalg.norm(da))
        nb = float(np.linalg.norm(db))
        if na < 1e-12 or nb < 1e-12:
            return False
        return abs(float(da @ db)) / (na * nb) > 1.0 - 1e-6

    @staticmethod
    def from_json(row, where: str) -> "RelationSpec":
        if not isinstance(row, list) or len(row) < 4:
            raise ModelFormatError(f"{where}: relation must be [fn, a, b, target, tol], got {row!r}")
        function = row[0]
        if function not in RELATION_FUNCTIONS:
            raise ModelFormatError(f"{where}: unknown relation function {function!r}")
        *operands, target, tol = row[1:]
        if len(operands) != 2 or not all(isinstance(op, str) for op in operands):
            raise ModelFormatError(f"{where}: {function} takes 2 part names, got {operands!r}")
        if function in BOOLEAN_RELATIONS:
            if not isinstance(target, bool):
                raise ModelFormatError(f"{where}: {function} target must be a boolean")
        elif not _is_number(target) or not np.isfinite(target):
            raise ModelFormatError(f"{where}: {function} target must be a finite number")
        if not _is_number(tol) or not 0 < tol < np.inf:
            raise ModelFormatError(f"{where}: tolerance must be a positive finite number")
        return RelationSpec(function, tuple(operands), target, float(tol))


@dataclass
class PartLink:
    """A slot of a group node: which part type fills it and where it sits.

    `name` identifies the slot in relation specs; `type_name` is the model
    node filling it (defaults to the name when the file omits "type").
    A slot holds at most one member. Variant-tagged slots are mutually
    exclusive alternatives.
    """

    name: str
    type_name: str
    frame: Frame
    essential: bool = True
    variant_tag: Optional[str] = None
    elasticity: tuple = DEFAULT_ELASTICITY

    @staticmethod
    def from_json(obj, where: str) -> "PartLink":
        if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
            raise ModelFormatError(f"{where}: part entry needs a name, got {obj!r}")
        name = obj["name"]
        _check_keys(obj, PART_KEYS, f"{where} part {name}")
        type_name = obj.get("type", name)
        if not isinstance(type_name, str) or not isinstance(obj.get("variant"), (str, type(None))):
            raise ModelFormatError(f"{where}: type and variant of part {name!r} must be names")
        if "frame" not in obj:
            raise ModelFormatError(f"{where}: part {name!r} has no frame")
        frame = Frame.from_json(obj["frame"])
        elasticity = tuple(obj.get("elasticity", DEFAULT_ELASTICITY))
        if len(elasticity) != 3 or any(not _is_number(e) or not 0 < e < np.inf
                                       for e in elasticity):
            raise ModelFormatError(f"{where}: elasticity must be 3 positive finite numbers on {name!r}")
        essential = obj.get("essential", True)
        if not isinstance(essential, bool):
            raise ModelFormatError(f"{where}: essential must be true or false on {name!r}")
        return PartLink(
            name=name,
            type_name=type_name,
            frame=frame,
            essential=essential,
            variant_tag=obj.get("variant"),
            # an int beyond the float range raises OverflowError here
            elasticity=tuple(map(float, elasticity)),
        )


@dataclass
class MidxEntry:
    """One hypothesis-index row: an abstract type pair suggesting a group."""

    hypothesis: str
    slots: tuple
    screening: list


@dataclass
class ModelNode:
    type_name: str
    frame_template: Frame
    symmetry_class: str = "none"
    parts: list = field(default_factory=list)
    relations: list = field(default_factory=list)
    lower_loa: list = field(default_factory=list)
    # derived from the other nodes' lower_loa by `_complete_links`
    higher_loa: list = field(default_factory=list)
    specialize_relations: dict = field(default_factory=dict)
    # pinv of the template axes by `flat` (belief._template_pinv), and the
    # relaxation's fit plans by plan key (belief._fit_plan); filled lazily
    pinv_cache: dict = field(default_factory=dict, compare=False, repr=False)

    def part(self, slot_name: str) -> PartLink:
        for link in self.parts:
            if link.name == slot_name:
                return link
        raise KeyError(slot_name)

    def slot_names(self):
        return [link.name for link in self.parts]


@dataclass
class ModelGraph:
    """Model nodes by type name, plus two lookup tables derived from them.

    `load_model`, the one way to make a graph, fills the tables once, after
    the links are completed and validated: `abstract` maps every type name
    to `abstract_types(name)`, and `midx` is the `build_midx` index from
    abstract part-type pairs to group hypotheses.
    Recognition reads both and never rebuilds them.
    """

    nodes: dict
    dim: int = 2
    midx: dict = field(default_factory=dict, compare=False, repr=False)
    abstract: dict = field(default_factory=dict, compare=False, repr=False)

    def node(self, type_name: str) -> ModelNode:
        return self.nodes[type_name]

    def sorted_nodes(self):
        return [self.nodes[k] for k in sorted(self.nodes)]

    def abstract_types(self, type_name: str) -> frozenset:
        """Types the recognizer can hold bottom-up for this model type.

        Climbs higher-LoA links until reaching a node that has parts of its
        own or no more abstract parent; a multi-parent node contributes every
        branch.
        """
        result = set()
        stack = [type_name]
        seen = set()
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            node = self.nodes.get(t)
            if node is None:
                continue
            if node.parts or not node.higher_loa:
                result.add(t)
            else:
                stack.extend(node.higher_loa)
        return frozenset(result)


def _complete_links(g: ModelGraph) -> None:
    """Derive each node's `higher_loa` from the document's `lower_loa` links."""
    for node in g.nodes.values():
        for child in node.lower_loa:
            other = g.nodes.get(child)
            if other is not None and node.type_name not in other.higher_loa:
                other.higher_loa.append(node.type_name)
    for node in g.nodes.values():
        node.lower_loa = sorted(set(node.lower_loa))
        node.higher_loa = sorted(set(node.higher_loa))


def _hierarchy_cycles(g: ModelGraph, edges_of, label: str) -> list:
    """Detect cycles following `edges_of(node) -> iterable of type names`."""
    violations = []
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {name: WHITE for name in g.nodes}

    def visit(name, path):
        color[name] = GRAY
        for nxt in edges_of(g.nodes[name]):
            if nxt not in g.nodes:
                continue
            if color[nxt] == GRAY:
                cycle = path[path.index(nxt):] + [nxt] if nxt in path else [name, nxt]
                violations.append(f"{label} hierarchy cycle: {' -> '.join(cycle)}")
            elif color[nxt] == WHITE:
                visit(nxt, path + [nxt])
        color[name] = BLACK

    for name in sorted(g.nodes):
        if color[name] == WHITE:
            visit(name, [name])
    return violations


def validate(g: ModelGraph) -> list:
    """Check the structural invariants; returns a list of violation strings.

    `load_model` runs it after `_complete_links` has made every LoA link
    two-sided, on nodes keyed by their own type names."""
    violations = []
    for name in sorted(g.nodes):
        node = g.nodes[name]
        if node.symmetry_class not in SYMMETRY_CLASSES:
            violations.append(f"node {name}: unknown symmetry class {node.symmetry_class!r}")
        else:
            try:
                canonicalize_frame(node.frame_template, node.symmetry_class)
            except Exception as exc:
                violations.append(f"node {name}: frame template invalid for its symmetry: {exc}")
        if node.frame_template.dim != g.dim:
            violations.append(f"node {name}: frame template is {node.frame_template.dim}-dimensional in a {g.dim}-dimensional graph")

        seen_slots = set()
        for link in node.parts:
            if link.name in seen_slots:
                violations.append(f"node {name}: duplicate part name {link.name!r}")
            seen_slots.add(link.name)
            if link.type_name not in g.nodes:
                violations.append(f"node {name}: part {link.name!r} references undefined type {link.type_name!r}")
            if link.frame.dim != g.dim:
                violations.append(f"node {name}: part {link.name!r} frame has wrong dimension")
        for ref in node.lower_loa:
            if ref not in g.nodes:
                violations.append(f"node {name}: lower-LoA reference {ref!r} is undefined")

        for spec in node.relations:
            for operand in spec.operands:
                if operand not in seen_slots:
                    violations.append(f"node {name}: relation {spec.function} names operand {operand!r} which is not a part of {name}")
        for child, specs in sorted(node.specialize_relations.items()):
            if child not in g.nodes:
                violations.append(f"node {name}: specialization child {child!r} is undefined")
            elif child not in node.lower_loa:
                violations.append(f"node {name}: specialization child {child!r} is not lower-LoA linked")
            for spec in specs:
                for operand in spec.operands:
                    if operand not in seen_slots:
                        violations.append(f"node {name}: screening for {child} names operand {operand!r} which is not a part of {name}")

        part_types = {link.type_name for link in node.parts}
        for other in sorted(part_types & set(node.lower_loa) | part_types & set(node.higher_loa)):
            violations.append(f"node {name}: {other!r} is both a part and an abstraction link of the same node")

    violations += _hierarchy_cycles(g, lambda n: sorted({l.type_name for l in n.parts}), "parts")
    violations += _hierarchy_cycles(g, lambda n: n.lower_loa, "abstraction")
    return violations


def _names(value, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ModelFormatError(f"{where}: expected a list of type names, got {value!r}")
    return list(value)


def _node_from_json(obj, dim: int) -> ModelNode:
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise ModelFormatError(f"node entry needs a type, got {obj!r}")
    name = obj["type"]
    where = f"node {name}"
    _check_keys(obj, NODE_KEYS, where)
    symmetry = obj.get("symmetry", "none")
    if "frame" in obj:
        frame = Frame.from_json(obj["frame"])
    else:
        frame = Frame(np.zeros(dim), np.eye(dim))
    parts = [PartLink.from_json(p, where) for p in obj.get("parts", [])]
    relations = [RelationSpec.from_json(r, where) for r in obj.get("relations", [])]
    specialize = {
        child: [RelationSpec.from_json(r, f"{where} specialize {child}") for r in rows]
        for child, rows in obj.get("specialize", {}).items()
    }
    frames = {link.name: link.frame for link in parts}
    for rel in relations + [rel for rows in specialize.values() for rel in rows]:
        # an operand that names no part gets None; `validate` rejects it
        rel.operand_frames = tuple(map(frames.get, rel.operands))
    return ModelNode(
        type_name=name,
        frame_template=frame,
        symmetry_class=symmetry,
        parts=parts,
        relations=relations,
        lower_loa=_names(obj.get("lower_loa", []), where),
        specialize_relations=specialize,
    )


def load_model(data, path: Optional[str] = None) -> ModelGraph:
    """Parse a model-graph document (bytes, text, or parsed dict), derive
    its higher-LoA links, validate it, and fill its lookup tables.

    A key outside DOCUMENT_KEYS, NODE_KEYS, PART_KEYS or a frame's origin
    and axes is rejected, and so is a number or flag that is not a JSON
    number or boolean, and a `dim` that is not the int 2 or 3."""
    if isinstance(data, (bytes, str)):
        try:
            doc = json.loads(data)
        except ValueError as exc:  # JSONDecodeError, or bytes in no JSON encoding
            raise ModelFormatError(f"model file is not valid JSON: {exc}", path=path) from exc
    else:
        doc = data
    if not isinstance(doc, dict) or "nodes" not in doc:
        raise ModelFormatError("model document needs top-level 'nodes'", path=path)
    _check_keys(doc, DOCUMENT_KEYS, "model document", path)
    dim = doc.get("dim", 2)
    if type(dim) is not int or dim not in (2, 3):
        raise ModelFormatError(f"model dim must be the int 2 or 3, got {dim!r}", path=path)
    nodes = {}
    try:
        for obj in doc["nodes"]:
            node = _node_from_json(obj, dim)
            if node.type_name in nodes:
                raise ModelFormatError(f"duplicate node type {node.type_name!r}", path=path)
            nodes[node.type_name] = node
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            DegenerateFrameError) as exc:
        # a field of the wrong JSON type or shape, or a frame `Frame` rejects
        raise ModelFormatError(f"malformed model document: {exc!r}", path=path) from exc
    g = ModelGraph(nodes=nodes, dim=dim)
    _complete_links(g)
    violations = validate(g)
    if violations:
        raise ModelValidationError(violations)
    g.abstract = {name: g.abstract_types(name) for name in g.nodes}
    g.midx = build_midx(g)
    return g


def load_model_file(path: str) -> ModelGraph:
    with open(path, "rb") as fh:
        return load_model(fh.read(), path=path)


def fixture_path(name: str) -> str:
    """Absolute path of one of the packaged example model files."""
    from importlib.resources import files

    return str(files("dualgraph").joinpath("fixtures", name))


def build_midx(g: ModelGraph) -> dict:
    """Index hypothesis groups by unordered pairs of abstract part types.

    A slot pair is indexed only when at least one relation spec mentions both
    slots, because those relations are what screens the hypothesis. The
    abstract types come from `g.abstract`, which `load_model` fills first,
    each set walked in sorted order, so no row's order depends on hashing.
    """
    index = {}
    for node in g.sorted_nodes():
        if not node.parts:
            continue
        names = node.slot_names()
        for i, slot_a in enumerate(names):
            for slot_b in names[i + 1:]:
                screening = [
                    spec for spec in node.relations
                    if set(spec.operands) == {slot_a, slot_b}
                ]
                if not screening:
                    continue
                for abs_a in sorted(g.abstract[node.part(slot_a).type_name]):
                    for abs_b in sorted(g.abstract[node.part(slot_b).type_name]):
                        index.setdefault(tuple(sorted((abs_a, abs_b))), []).append(
                            MidxEntry(node.type_name, (slot_a, slot_b), screening))
    for key in index:
        index[key].sort(key=lambda e: (e.hypothesis, e.slots))
    return index


def midx_lookup(index: dict, type_a: str, type_b: str) -> list:
    return index.get(tuple(sorted((type_a, type_b))), [])
