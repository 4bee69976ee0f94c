"""Public entry points reject malformed input with a DualGraphError subclass,
never a raw TypeError, ValueError, KeyError or decoding error."""

import copy
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgraph.belief import refresh_conditionals, relax_frames
from dualgraph.config import Config
from dualgraph.errors import (
    ConfigError,
    DualGraphError,
    GenerationError,
    ModelFormatError,
    SceneFormatError,
)
from dualgraph.generate import GeneratorSpec, generate_scenes
from dualgraph.image import ImageGraph
from dualgraph.model import fixture_path, load_model, load_model_file
from dualgraph.recognize import recognize
from dualgraph.scene import Primitive, Scene, parse_scene, write_scene
from test_image import graph_oracle

FRAME = {"origin": [0, 0], "axes": [[1, 0], [0, 1]]}
FRAME_3D = {"origin": [0, 0, 0], "axes": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
PART = {"name": "p", "type": "b", "frame": FRAME}


def _model(**fields):
    """A valid model document, but for `fields` set on its group type "a"."""
    group = {"type": "a", "frame": FRAME, "parts": [PART, dict(PART, name="q")]}
    return {"nodes": [{"type": "b", "frame": FRAME}, {**group, **fields}]}


def _graph(**fields):
    """A valid one-node image graph document, but for `fields` set on the node."""
    node = {"type": "linseg", "instance": 1, "frame": FRAME, "p": 0.5, "status": "verified",
            "weight": 1.0, "strength": 1.0, "prim": 0}
    return {"scene": "s", "nodes": [{**node, **fields}], "links": []}


def _linked(**fields):
    """A valid two-node image graph document, but for `fields` set on its one link."""
    doc = _graph()
    doc["nodes"].append(dict(doc["nodes"][0], instance=2, prim=1))
    link = {"kind": "specializes", "from": ["linseg", 2], "to": ["linseg", 1], "conditional": 0.5}
    doc["links"].append({**link, **fields})
    return doc


MODEL = load_model_file(fixture_path("face.json"))
(SCENE,) = generate_scenes(GeneratorSpec(MODEL, "face", jitter=0.0, n_distractors=2, seed=1))
SCENE_DOC = json.loads(write_scene(SCENE))
GRAPH_DOC = json.loads(recognize(SCENE, MODEL).to_bytes())


TRUCK_MODEL = load_model_file(fixture_path("truck.json"))
(TRUCK_SCENE,) = generate_scenes(GeneratorSpec(TRUCK_MODEL, "truck1", jitter=0.0,
                                               n_distractors=0, seed=5))
TRUCK_GRAPH_DOC = json.loads(recognize(TRUCK_SCENE, TRUCK_MODEL).to_bytes())


FLAT_MODEL = load_model_file(fixture_path("truck_flat.json"))
(FLAT_SCENE,) = generate_scenes(GeneratorSpec(FLAT_MODEL, "truck1", jitter=0.03,
                                              n_distractors=8, seed=3))


def _changed_after_build(scene, dim=None, extra=()):
    """A copy of `scene` whose `dim` is set and `extra` primitives appended
    after it was built, past the checks of Scene's constructor."""
    out = Scene(dim=scene.dim, primitives=list(scene.primitives), id=scene.id)
    out.primitives.extend(extra)
    out.dim = scene.dim if dim is None else dim
    return out


def _scaled(factor, scene=FLAT_SCENE):
    """The scene's document, truck_flat's by default, with every coordinate
    times `factor`; the scene range ends at 2**500 (about 3.3e150)."""
    doc = json.loads(write_scene(scene))
    for prim in doc["primitives"]:
        for key in ("p1", "p2", "center"):
            if key in prim:
                prim[key] = [v * factor for v in prim[key]]
        if "radius" in prim:
            prim["radius"] *= factor
    return doc


def _with_primitive(prim):
    """The truck_flat scene's document with `prim` appended."""
    doc = json.loads(write_scene(FLAT_SCENE))
    doc["primitives"].append(prim)
    return doc


def _recognize_parsed(doc):
    recognize(parse_scene(doc), FLAT_MODEL)


def _recognize_face(doc):
    recognize(parse_scene(doc), MODEL)


def _recognize_built(doc):
    """Recognize the document's primitives built by hand, not parsed."""
    recognize(Scene(doc["dim"], [Primitive(**p) for p in doc["primitives"]]), FLAT_MODEL)


def _face_graph(edit):
    """The recognized face graph document, with `edit(doc, link, member)` applied
    to a copy: `link` is its first group-member link and `member` that link's
    source node."""
    doc = copy.deepcopy(GRAPH_DOC)
    link = next(l for l in doc["links"] if l["kind"] == "group-member")
    (member,) = [n for n in doc["nodes"] if [n["type"], n["instance"]] == link["from"]]
    edit(doc, link, member)
    return doc


def _retype(doc, link, member):
    """Give the member a type the face model lacks, in its node and its links."""
    key = [member["type"], member["instance"]]
    member["type"] = "zzz"
    for l in doc["links"]:
        for end in ("from", "to"):
            if l[end] == key:
                l[end] = ["zzz", member["instance"]]


def _second_member(doc, link, member):
    """Link the member's next instance into the member's slot too."""
    doc["links"].append(dict(link, **{"from": [member["type"], member["instance"] + 1]}))


def _settled(obj):
    """Load an image graph against the face model, then refresh and relax it."""
    ig = ImageGraph.from_json(obj, MODEL)
    refresh_conditionals(ig)
    relax_frames(ig, ig.active_nodes())


NAN = float("nan")
CASES = [
    ("scene-bytes", parse_scene, b"\xff\xfe\x00", SceneFormatError),
    ("model-bytes", load_model, b"\xff\xfe\x00", ModelFormatError),
    ("model-dim", load_model, {"nodes": [], "dim": "x"}, ModelFormatError),
    ("model-nodes", load_model, {"nodes": 3}, ModelFormatError),
    ("model-frame", load_model, _model(frame={}), ModelFormatError),
    ("model-loa", load_model, _model(lower_loa=[[]]), ModelFormatError),
    ("model-part-type", load_model, _model(parts=[dict(PART, type=1.5)]), ModelFormatError),
    ("model-elasticity", load_model, _model(parts=[dict(PART, elasticity=[0.25, NAN, 0.25])]),
     ModelFormatError),
    ("model-tolerance", load_model, _model(relations=[["size-ratio", "p", "q", 1.0, NAN]]),
     ModelFormatError),
    # the pose relation is gone from the model format
    ("model-pose", load_model, _model(relations=[["pose", "p", "q", [0.5, 0.0], 1.0]]),
     ModelFormatError),
    # numbers only as JSON numbers, flags as booleans: these loaded
    ("model-origin-string-and-bool", load_model, _model(frame=dict(FRAME, origin=["0", True])),
     ModelFormatError),
    ("model-part-axis-string", load_model,
     _model(parts=[dict(PART, frame=dict(FRAME, axes=[["1", 0], [0, 1]]))]), ModelFormatError),
    ("model-elasticity-bool", load_model, _model(parts=[dict(PART, elasticity=[0.2, True, 0.25])]),
     ModelFormatError),
    ("model-essential-string", load_model, _model(parts=[dict(PART, essential="no")]),
     ModelFormatError),
    # a slot holds one member, and a node's higher-LoA links are derived from
    # the lower-LoA ones, so multiplicity and higher_loa are unknown keys; the
    # first three rows failed before as bad counts, the last two loaded
    ("model-multiplicity-bool", load_model, _model(parts=[dict(PART, multiplicity=True)]),
     ModelFormatError),
    ("model-multiplicity-strings", load_model, _model(parts=[dict(PART, multiplicity=["1", "2"])]),
     ModelFormatError),
    ("model-multiplicity-float", load_model, _model(parts=[dict(PART, multiplicity=[1, 2.0])]),
     ModelFormatError),
    ("model-part-multiplicity-one", load_model, _model(parts=[dict(PART, multiplicity=1)]),
     ModelFormatError),
    ("model-node-higher-loa", load_model,
     dict(_model(), nodes=_model()["nodes"] + [{"type": "c", "frame": FRAME, "higher_loa": ["b"]}]),
     ModelFormatError),
    # unknown keys: these were dropped silently
    ("model-key-unknown", load_model, dict(_model(), name="m"), ModelFormatError),
    ("model-node-key-unknown", load_model, _model(colour="red"), ModelFormatError),
    ("model-part-key-unknown", load_model, _model(parts=[dict(PART, essental=False)]),
     ModelFormatError),
    ("model-frame-key-unknown", load_model, _model(frame=dict(FRAME, scale=2)), ModelFormatError),
    # an int beyond the float range loaded, and recognize overflowed in placement_strain
    ("model-elasticity-int-beyond-float", load_model,
     _model(parts=[dict(PART, elasticity=[0.25, 10**400, 0.25])]), ModelFormatError),
    # an axis entry whose square overflows: Frame's Gram product raised a raw
    # RuntimeWarning
    ("model-axis-beyond-gram-range", load_model,
     dict(_model(), nodes=[{"type": "b", "frame": dict(FRAME, axes=[[1.35e154, 0], [0, 0]])},
                           _model()["nodes"][1]]), ModelFormatError),
    ("graph-axis-beyond-gram-range", ImageGraph.from_json,
     _graph(frame=dict(FRAME, axes=[[0, 0], [0, -1.35e154]])), SceneFormatError),
    # a frame that Frame rejects for skewed axes is a format error too: it
    # escaped as DegenerateFrameError
    ("model-axes-not-orthogonal", load_model,
     _model(parts=[dict(PART, frame=dict(FRAME, axes=[[1, 0], [0.5, 1]]))]), ModelFormatError),
    ("graph-axes-not-orthogonal", ImageGraph.from_json,
     _graph(frame=dict(FRAME, axes=[[1, 0], [0.5, 1]])), SceneFormatError),
    # dim only as the int 2 or 3: 2.0 loaded as 2
    ("model-dim-float", load_model, dict(_model(), dim=2.0), ModelFormatError),
    ("model-root-object", load_model, dict(_model(), root={"x": 1}), ModelFormatError),
    ("model-root-unknown", load_model, dict(_model(), root="c"), ModelFormatError),
    ("graph-nodes", ImageGraph.from_json, {"nodes": 3}, SceneFormatError),
    ("graph-list", ImageGraph.from_json, [], SceneFormatError),
    ("graph-link-key", ImageGraph.from_json,
     {"nodes": [], "links": [{"kind": "part-of", "from": [[]], "to": []}]}, SceneFormatError),
    ("graph-p-nan", ImageGraph.from_json, _graph(p=NAN), SceneFormatError),
    ("graph-p-above-one", ImageGraph.from_json, _graph(p=1.5), SceneFormatError),
    ("graph-strength-negative", ImageGraph.from_json, _graph(strength=-5), SceneFormatError),
    ("graph-strength-nan", ImageGraph.from_json, _graph(strength=NAN), SceneFormatError),
    ("graph-weight-inf", ImageGraph.from_json, _graph(weight=float("inf")), SceneFormatError),
    ("graph-weight-negative", ImageGraph.from_json, _graph(weight=-1.0), SceneFormatError),
    ("graph-prim-list", ImageGraph.from_json, _graph(prim=[]), SceneFormatError),
    ("graph-prim-bool", ImageGraph.from_json, _graph(prim=True), SceneFormatError),
    ("graph-prim-negative", ImageGraph.from_json, _graph(prim=-1), SceneFormatError),
    ("graph-prim-float", ImageGraph.from_json, _graph(prim=1.0), SceneFormatError),
    ("graph-spec-slot", ImageGraph.from_json, _graph(spec_slot=3), SceneFormatError),
    # numbers only as JSON numbers: these loaded, and to_bytes wrote them as floats
    ("graph-p-string", ImageGraph.from_json, _graph(p="0.5"), SceneFormatError),
    ("graph-p-bool", ImageGraph.from_json, _graph(p=True), SceneFormatError),
    ("graph-weight-string", ImageGraph.from_json, _graph(weight="2"), SceneFormatError),
    ("graph-strength-bool", ImageGraph.from_json, _graph(strength=True), SceneFormatError),
    ("graph-origin-strings", ImageGraph.from_json, _graph(frame=dict(FRAME, origin=["1", "2"])),
     SceneFormatError),
    ("graph-axis-bool", ImageGraph.from_json, _graph(frame=dict(FRAME, axes=[[True, 0], [0, 1]])),
     SceneFormatError),
    ("graph-axes-flat", ImageGraph.from_json, _graph(frame=dict(FRAME, axes=[1, 0])),
     SceneFormatError),
    ("graph-link-conditional-string", ImageGraph.from_json, _linked(conditional="0.2"),
     SceneFormatError),
    ("graph-link-conditional-bool", ImageGraph.from_json, _linked(conditional=True),
     SceneFormatError),
    # unknown keys: these loaded, and the misspelled link kept conditional 1.0
    ("graph-key-unknown", ImageGraph.from_json, dict(_graph(), name="s"), SceneFormatError),
    ("graph-node-key-unknown", ImageGraph.from_json, _graph(probability=0.5), SceneFormatError),
    ("graph-frame-key-unknown", ImageGraph.from_json, _graph(frame=dict(FRAME, scale=2)),
     SceneFormatError),
    ("graph-link-key-misspelled", ImageGraph.from_json, _linked(conditonal=0.2),
     SceneFormatError),
    ("graph-frame-list", ImageGraph.from_json, _graph(frame=[[0, 0], [[1, 0], [0, 1]]]),
     SceneFormatError),
    ("graph-link-conditional-nan", ImageGraph.from_json, _linked(conditional=NAN),
     SceneFormatError),
    ("graph-link-conditional-above-one", ImageGraph.from_json, _linked(conditional=1.5),
     SceneFormatError),
    ("graph-link-conditional-negative", ImageGraph.from_json, _linked(conditional=-0.1),
     SceneFormatError),
    ("graph-scene-int", ImageGraph.from_json, dict(_graph(), scene=3), SceneFormatError),
    ("graph-link-slot-int-no-model", ImageGraph.from_json, _linked(slot=5), SceneFormatError),
    ("graph-link-slots-int-and-name", lambda doc: ImageGraph.from_json(doc).to_bytes(),
     dict(_linked(slot="x"), links=_linked(slot=5)["links"] + _linked(slot="x")["links"]),
     SceneFormatError),
    ("graph-link-residuals-pairs", lambda doc: ImageGraph.from_json(doc).to_bytes(),
     _linked(residuals=[[1, 2], ["a", 3]]), SceneFormatError),
    ("graph-link-residual-string", ImageGraph.from_json, _linked(residuals={"a": "x"}),
     SceneFormatError),
    ("graph-link-residual-nan", ImageGraph.from_json, _linked(residuals={"a": NAN}),
     SceneFormatError),
    ("graph-link-residual-negative", ImageGraph.from_json, _linked(residuals={"a": -1.0}),
     SceneFormatError),
    ("graph-link-residual-bool", ImageGraph.from_json, _linked(residuals={"a": True}),
     SceneFormatError),
    ("graph-link-residual-int-name", ImageGraph.from_json, _linked(residuals={1: 2.0}),
     SceneFormatError),
    # a residual int beyond the float range loaded, and to_bytes wrote it back digit for digit
    ("graph-link-residual-int-beyond-float", ImageGraph.from_json,
     _linked(residuals={"a": 10**400, "b": 2}), SceneFormatError),
    ("graph-link-end-bool", ImageGraph.from_json, _linked(to=["linseg", True]),
     SceneFormatError),
    ("graph-link-end-float", ImageGraph.from_json, _linked(to=["linseg", 1.0]),
     SceneFormatError),
    ("graph-duplicate-node", ImageGraph.from_json,
     {"nodes": _graph()["nodes"] + _graph(p=0.25)["nodes"]}, SceneFormatError),
    ("graph-instance-bool", ImageGraph.from_json, _graph(instance=True), SceneFormatError),
    ("graph-instance-float", ImageGraph.from_json, _graph(instance=1.5), SceneFormatError),
    ("graph-instance-zero", ImageGraph.from_json, _graph(instance=0), SceneFormatError),
    ("graph-instance-string", ImageGraph.from_json, _graph(instance="1"), SceneFormatError),
    ("graph-link-slot-int", _settled, _face_graph(lambda d, l, m: l.update(slot=7)),
     SceneFormatError),
    ("graph-link-slot-unknown", _settled, _face_graph(lambda d, l, m: l.update(slot="zzz")),
     SceneFormatError),
    ("graph-member-type-unknown", _settled, _face_graph(_retype), SceneFormatError),
    ("graph-3d-with-flat-model", _settled, TRUCK_GRAPH_DOC, SceneFormatError),
    ("graph-one-3d-frame", _settled, _face_graph(lambda d, l, m: m.update(frame=FRAME_3D)),
     SceneFormatError),
    ("graph-carries-up-string", _settled,
     _face_graph(lambda d, l, m: l.update(carries_up="no")), SceneFormatError),
    ("graph-link-to-pruned", _settled, _face_graph(lambda d, l, m: m.update(status="pruned")),
     SceneFormatError),
    # a slot holds at most one member: these loaded, and the settle read the
    # first member of a slot and skipped a member without one
    ("graph-two-members-in-one-slot", _settled, _face_graph(_second_member), SceneFormatError),
    ("graph-member-without-slot", _settled, _face_graph(lambda d, l, m: l.pop("slot")),
     SceneFormatError),
    # a misspelled top-level key parsed as an empty scene, and dim 2.0 as 2
    ("scene-key-misspelled", parse_scene,
     {"dim": SCENE_DOC["dim"], "primitves": SCENE_DOC["primitives"]}, SceneFormatError),
    ("scene-dim-float", parse_scene, dict(SCENE_DOC, dim=2.0), SceneFormatError),
    # a JSON int beyond the float range raised a raw OverflowError
    ("scene-center-int-beyond-float", parse_scene,
     _with_primitive({"kind": "circle", "center": [0, 10**400, 0], "radius": 1}), SceneFormatError),
    ("scene-radius-int-beyond-float", parse_scene,
     _with_primitive({"kind": "circle", "center": [0, 0, 0], "radius": 10**400}), SceneFormatError),
    ("scene-p1-int-beyond-float", parse_scene,
     json.dumps(_with_primitive({"kind": "linseg", "p1": [-10**400, 0, 0], "p2": [0, 0, 0]})),
     SceneFormatError),
    ("scene-coordinates-1e154", _recognize_parsed, _scaled(1e154), SceneFormatError),
    ("scene-coordinates-1.2e154-built", _recognize_built, _scaled(1.2e154), SceneFormatError),
    # past 2**500: these were accepted, and recognize could overflow in the
    # clue pairs, the candidate query, touch's reach and the extent solver
    ("scene-face-coordinates-1e154", _recognize_face, _scaled(1e154, SCENE), SceneFormatError),
    ("scene-coordinates-1e153", _recognize_parsed, _scaled(1e153), SceneFormatError),
    ("scene-center-2**501", parse_scene,
     _with_primitive({"kind": "circle", "center": [0.0, 2.0**501, 0.0], "radius": 1.0}),
     SceneFormatError),
    ("scene-radius-2**501", parse_scene,
     _with_primitive({"kind": "circle", "center": [0.0, 0.0, 0.0], "radius": 2.0**501}),
     SceneFormatError),
    ("scene-p2-2**501-built", lambda p2: Primitive("linseg", p1=[0.0, 0.0], p2=p2),
     [-(2.0**501), 1.0], SceneFormatError),
    # below 2**-500: these were accepted, and the extent solver's Gram
    # entries were subnormal, so its regularizer underflowed to 0 and touch
    # failed between rectangles that touch (truck_flat at 1e-157 lost its truck)
    ("scene-coordinates-1e-157", _recognize_parsed, _scaled(1e-157), SceneFormatError),
    ("scene-segment-half-2**-501", parse_scene,
     _with_primitive({"kind": "linseg", "p1": [0.0, 0.0, 0.0], "p2": [2.0**-500, 0.0, 0.0]}),
     SceneFormatError),
    ("scene-radius-2**-501-built", lambda radius: Primitive("circle", center=[0.0, 0.0],
                                                            radius=radius),
     2.0**-501, SceneFormatError),
    # a nonzero extent whose square underflows to 0 has no frame
    ("scene-segment-3e-162-long", _recognize_parsed,
     _with_primitive({"kind": "linseg", "p1": [0.0, 0.0, 0.0], "p2": [3e-162, 0.0, 0.0]}),
     SceneFormatError),
    ("scene-circle-radius-1e-200", _recognize_parsed,
     _with_primitive({"kind": "circle", "center": [0.0, 0.0, 0.0], "radius": 1e-200}),
     SceneFormatError),
    # hand-built scenes of mixed dimension: recognize raised a raw ValueError
    # (an affine camera that does not map to the plane, an inhomogeneous
    # stack), a segment with a 2D and a 3D endpoint was built and its frame
    # raised a raw broadcast ValueError, and 2-D endpoints a raw TypeError
    ("scene-3d-primitives-as-2d-built",
     lambda prims: recognize(Scene(dim=2, primitives=prims), TRUCK_MODEL),
     TRUCK_SCENE.primitives, SceneFormatError),
    ("scene-2d-face-plus-3d-segment-built",
     lambda prims: recognize(Scene(dim=2, primitives=prims), MODEL),
     [*SCENE.primitives, Primitive("linseg", p1=[0.0, 0.0, 0.0], p2=[1.0, 1.0, 1.0])],
     SceneFormatError),
    # the same mixed scenes made by changing a built scene, which recognize
    # checks again
    ("scene-2d-face-plus-3d-segment-appended",
     lambda prim: recognize(_changed_after_build(SCENE, extra=[prim]), MODEL),
     Primitive("linseg", p1=[0.0, 0.0, 0.0], p2=[1.0, 1.0, 1.0]), SceneFormatError),
    ("scene-3d-truck-dim-set-to-2", lambda dim: recognize(_changed_after_build(
        TRUCK_SCENE, dim=dim), TRUCK_MODEL), 2, SceneFormatError),
    ("linseg-endpoints-of-two-lengths-built", lambda kw: Primitive(**kw).frame(),
     {"kind": "linseg", "p1": [0, 0], "p2": [1, 1, 1]}, SceneFormatError),
    ("linseg-endpoints-2-d-built", lambda kw: Primitive(**kw),
     {"kind": "linseg", "p1": [[0, 0]], "p2": [[1, 1]]}, SceneFormatError),
    # a center of strings raised a raw ValueError
    ("circle-center-strings-built", lambda kw: Primitive(**kw),
     {"kind": "circle", "center": ["a", "b"], "radius": 1.0}, SceneFormatError),
    # Primitive owns the parser's strength and radius rules: these strengths
    # were built, and recognized into a graph that did not reload; the radii
    # raised a raw TypeError or were built, and the center a raw OverflowError
    *((f"linseg-strength-{strength}-built", lambda kw: Primitive(**kw),
       {"kind": "linseg", "p1": [0, 0], "p2": [1, 1], "strength": strength}, SceneFormatError)
      for strength in (NAN, -3.0, 7.0, True)),
    *((f"circle-radius-{radius}-built", lambda kw: Primitive(**kw),
       {"kind": "circle", "center": [0, 0], "radius": radius}, SceneFormatError)
      for radius in (None, [1.0], 0.0)),
    ("circle-center-int-beyond-float-built", lambda kw: Primitive(**kw),
     {"kind": "circle", "center": [0, 10**400], "radius": 1.0}, SceneFormatError),
    # Config owns its bounds: s_fail -1 raised a raw ValueError in recognize,
    # and p0 NaN found a face at p 1.0
    *((f"recognize-config-{key}-{value}", lambda kw: recognize(SCENE, MODEL, Config(**kw)),
       {key: value}, ConfigError)
      for key, value in (("s_fail", -1.0), ("p0", NAN), ("max_waves", 2.5))),
    ("generate-n-scenes-string", generate_scenes, GeneratorSpec(MODEL, "face", n_scenes="3"),
     GenerationError),
    ("generate-distractors-float", generate_scenes,
     GeneratorSpec(MODEL, "face", n_distractors=2.5), GenerationError),
    ("generate-seed-negative", generate_scenes, GeneratorSpec(MODEL, "face", seed=-1),
     GenerationError),
    ("generate-jitter-nan", generate_scenes, GeneratorSpec(MODEL, "face", jitter=NAN),
     GenerationError),
    ("refresh", refresh_conditionals, ImageGraph(), SceneFormatError),
    ("relax", lambda ig: relax_frames(ig, ig.active_nodes()), ImageGraph(), SceneFormatError),
]


def test_the_model_case_base_is_valid():
    assert load_model(_model()).midx == {}
    assert load_model(_model(relations=[["size-ratio", "p", "q", 1.0, 0.1]])).midx
    part = dict(PART, essential=False, elasticity=[0.2, 1, 0.25], variant="v")
    assert load_model(_model(parts=[part, dict(PART, name="q")]))


def test_the_graph_case_base_is_valid():
    node = ImageGraph.from_json(_graph(spec_slot="side1")).node(("linseg", 1))
    assert node.prim_index == 0 and node.probability == 0.5 and node.spec_slot == "side1"
    ig = ImageGraph.from_json(_linked())
    assert [(l.source, l.target, l.conditional) for l in ig.links] == [
        (("linseg", 2), ("linseg", 1), 0.5)]
    blob = ImageGraph.from_json(_linked(residuals={"a": 0, "b": float("inf")})).to_bytes()
    assert ImageGraph.from_bytes(blob).links[0].residuals == {"a": 0, "b": float("inf")}
    (residual,) = ImageGraph.from_json(_linked(residuals={"a": 2})).links[0].residuals.values()
    assert type(residual) is float and residual == 2.0
    # every key to_bytes writes loads, and the document comes back byte for byte
    full = ImageGraph.from_json(_linked(slot="x", carries_up=False, residuals={"a": 0.5}))
    full.nodes[("linseg", 1)].spec_slot = "side1"
    blob = full.to_bytes()
    assert ImageGraph.from_bytes(blob).to_bytes() == blob
    _settled(_face_graph(lambda doc, link, member: None))
    ImageGraph.from_json(TRUCK_GRAPH_DOC, TRUCK_MODEL)


@pytest.mark.parametrize("entry, arg, error", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_input_raises_a_package_error(entry, arg, error):
    with pytest.raises(error):
        entry(arg)


def _tightened(doc, tolerance=None, elasticity=None):
    """A copy of a model document with every relation tolerance, or every
    part's elasticity, replaced."""
    doc = copy.deepcopy(doc)
    for node in doc["nodes"]:
        if tolerance is not None:
            for row in node.get("relations", []) + sum(node.get("specialize", {}).values(), []):
                row[4] = tolerance
        if elasticity is not None:
            for part in node.get("parts", []):
                part["elasticity"] = elasticity
    return doc


# tolerances and elasticities load as any positive finite number, but these
# make a squared strain term too large for a float; `**` raised a raw
# OverflowError on them, and the strain is now inf
TIGHT = [{"tolerance": 1e-160}, {"tolerance": 1e-300}, {"elasticity": [1e-300, 0.25, 0.25]},
         {"elasticity": [0.25, 1e-300, 0.25]}, {"elasticity": [0.25, 0.25, 1e-300]}]
TIGHT_SCENES = [("face.json", "face", None), ("truck_flat.json", "truck1", None),
                ("truck.json", "truck1", None), ("truck.json", "truck1", "random")]


@pytest.mark.parametrize("fixture, target, camera", TIGHT_SCENES,
                         ids=[f"{c[0]}-{c[2]}" for c in TIGHT_SCENES])
@pytest.mark.parametrize("tight", TIGHT, ids=[str(t) for t in TIGHT])
def test_a_strain_beyond_the_float_range_is_infinite(fixture, target, camera, tight):
    doc = json.loads(Path(fixture_path(fixture)).read_bytes())
    (scene,) = generate_scenes(GeneratorSpec(load_model(doc), target, jitter=0.03, seed=1,
                                             camera=camera))
    model = load_model(_tightened(doc, **tight))
    ig = recognize(scene, model)
    assert not any(math.isnan(s) for s in ig.strains.values())
    blob = ig.to_bytes()
    assert ImageGraph.from_bytes(blob, model).to_bytes() == blob


# -- fuzzing -------------------------------------------------------------------

# ints beyond +-2**1024 are JSON numbers too, but no float holds them
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**1024)
    | st.integers(max_value=-2**1024) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


# what a number leaf may become: no float holds the ints, and the rest are
# numbers only in name
edge_numbers = st.one_of(
    st.integers(min_value=2**1024), st.integers(max_value=-2**1024),
    st.sampled_from([math.nan, math.inf, -math.inf, True, False]),
    st.integers().map(str) | st.floats().map(repr),
)


def _paths(node, path=()):
    """The path to every value inside a document, each parent before its children."""
    items = (node.items() if isinstance(node, dict) else enumerate(node)
             if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """A deep copy of `doc` with one to three of its values, drawn alike from
    all of them, replaced or deleted; a number it replaces may become an
    edge number."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            continue
        *head, key = draw(st.sampled_from(paths))
        parent = doc
        for step in head:
            parent = parent[step]
        node = parent[key]
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[key]
        else:
            number = isinstance(node, (int, float)) and not isinstance(node, bool)
            parent[key] = draw(edge_numbers | json_values if number else json_values)
    return doc


FIXTURES = {name: json.loads(Path(fixture_path(name)).read_bytes())
            for name in ("face.json", "truck.json", "truck_flat.json")}
FUZZ = settings(max_examples=300, deadline=None)


def _rejects_cleanly(entry, arg):
    try:
        entry(arg)
    except DualGraphError:
        pass


@FUZZ
@given(st.one_of(json_values, st.binary(), mutated(SCENE_DOC)))
def test_parse_scene_raises_only_package_errors(arg):
    _rejects_cleanly(parse_scene, arg)


@FUZZ
@given(st.one_of(json_values, st.binary(),
                 st.sampled_from(sorted(FIXTURES)).flatmap(lambda n: mutated(FIXTURES[n]))))
def test_load_model_raises_only_package_errors(arg):
    _rejects_cleanly(load_model, arg)


@FUZZ
@given(st.one_of(json_values, mutated(GRAPH_DOC)))
def test_image_graph_from_json_raises_only_package_errors(arg):
    try:
        ig = ImageGraph.from_json(arg, MODEL)
    except DualGraphError:
        return
    # an odd but valid graph is written as json.dumps writes it
    assert ig.to_bytes() == graph_oracle(ig)


@FUZZ
@given(st.one_of(st.binary(), mutated(GRAPH_DOC).map(lambda d: json.dumps(d).encode())))
def test_image_graph_from_bytes_raises_only_package_errors(arg):
    _rejects_cleanly(lambda blob: ImageGraph.from_bytes(blob, MODEL), arg)
