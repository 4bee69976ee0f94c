"""Public entry points reject malformed input with a DualGraphError subclass,
never a raw TypeError, ValueError, KeyError or decoding error."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgraph.belief import refresh_conditionals, relax_frames
from dualgraph.errors import (
    DualGraphError,
    ModelFormatError,
    ModelValidationError,
    SceneFormatError,
)
from dualgraph.generate import GeneratorSpec, generate_scenes
from dualgraph.image import ImageGraph
from dualgraph.model import fixture_path, load_model, load_model_file
from dualgraph.recognize import recognize
from dualgraph.scene import parse_scene, write_scene

FRAME = {"origin": [0, 0], "axes": [[1, 0], [0, 1]]}
PART = {"name": "p", "type": "b", "frame": FRAME}


def _model(**fields):
    """A valid model document, but for `fields` set on its group type "a"."""
    group = {"type": "a", "frame": FRAME, "parts": [PART, dict(PART, name="q")]}
    return {"root": "a", "nodes": [{"type": "b", "frame": FRAME}, {**group, **fields}]}


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


def _face_with_pose(target):
    """face.json with one more face relation: a pose of eye_2 seen from eye_1."""
    doc = json.loads(Path(fixture_path("face.json")).read_bytes())
    (face,) = [n for n in doc["nodes"] if n["type"] == "face"]
    face["relations"].append(["pose", "eye_1", "eye_2", target, 1.0])
    return doc


NAN = float("nan")
CASES = [
    ("scene-bytes", parse_scene, b"\xff\xfe\x00", SceneFormatError),
    ("model-bytes", load_model, b"\xff\xfe\x00", ModelFormatError),
    ("model-dim", load_model, {"root": "a", "nodes": [], "dim": "x"}, ModelFormatError),
    ("model-nodes", load_model, {"root": "a", "nodes": 3}, ModelFormatError),
    ("model-frame", load_model, _model(frame={}), ModelFormatError),
    ("model-loa", load_model, _model(lower_loa=[[]]), ModelFormatError),
    ("model-part-type", load_model, _model(parts=[dict(PART, type=1.5)]), ModelFormatError),
    ("model-elasticity", load_model, _model(parts=[dict(PART, elasticity=[0.25, NAN, 0.25])]),
     ModelFormatError),
    ("model-tolerance", load_model, _model(relations=[["size-ratio", "p", "q", 1.0, NAN]]),
     ModelFormatError),
    ("model-pose-nan", load_model, _face_with_pose([NAN, 0.0]),
     (ModelFormatError, ModelValidationError)),
    ("model-pose-matrix", load_model, _face_with_pose([[0.0, 0.0]]),
     (ModelFormatError, ModelValidationError)),
    ("model-pose-long", load_model, _face_with_pose([0.0] * 7),
     (ModelFormatError, ModelValidationError)),
    ("model-pose-scalar", load_model, _face_with_pose(0.0), (ModelFormatError, ModelValidationError)),
    ("model-root-object", load_model, dict(_model(), root={"x": 1}), ModelValidationError),
    ("model-root-unknown", load_model, dict(_model(), root="c"), ModelValidationError),
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
    ("graph-link-conditional-nan", ImageGraph.from_json, _linked(conditional=NAN),
     SceneFormatError),
    ("graph-link-conditional-above-one", ImageGraph.from_json, _linked(conditional=1.5),
     SceneFormatError),
    ("graph-link-conditional-negative", ImageGraph.from_json, _linked(conditional=-0.1),
     SceneFormatError),
    ("graph-duplicate-node", ImageGraph.from_json,
     {"nodes": _graph()["nodes"] + _graph(p=0.25)["nodes"]}, SceneFormatError),
    ("graph-instance-bool", ImageGraph.from_json, _graph(instance=True), SceneFormatError),
    ("graph-instance-float", ImageGraph.from_json, _graph(instance=1.5), SceneFormatError),
    ("graph-instance-zero", ImageGraph.from_json, _graph(instance=0), SceneFormatError),
    ("graph-instance-string", ImageGraph.from_json, _graph(instance="1"), SceneFormatError),
    ("refresh", refresh_conditionals, ImageGraph(), SceneFormatError),
    ("relax", relax_frames, ImageGraph(), SceneFormatError),
]


def test_the_model_case_base_is_valid():
    assert load_model(_model()).midx == {}
    assert load_model(_model(relations=[["size-ratio", "p", "q", 1.0, 0.1]])).midx
    assert load_model(_face_with_pose([0.5, 0.0])).node("face").relations[-1].function == "pose"


def test_the_graph_case_base_is_valid():
    node = ImageGraph.from_json(_graph(spec_slot="side1")).node(("linseg", 1))
    assert node.prim_index == 0 and node.probability == 0.5 and node.spec_slot == "side1"
    ig = ImageGraph.from_json(_linked())
    assert [(l.source, l.target, l.conditional) for l in ig.links] == [
        (("linseg", 2), ("linseg", 1), 0.5)]


@pytest.mark.parametrize("entry, arg, error", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_malformed_input_raises_a_package_error(entry, arg, error):
    with pytest.raises(error):
        entry(arg)


# -- fuzzing -------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def mutated(draw, doc):
    """A deep copy of `doc` with one to three subtrees replaced or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        while (isinstance(node, (dict, list)) and node
               and (parent is None or draw(st.integers(0, 4)) > 0)):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            continue
        if isinstance(parent, dict) and draw(st.integers(0, 3)) == 0:
            del parent[key]
        else:
            parent[key] = draw(json_values)
    return doc


FIXTURES = {name: json.loads(Path(fixture_path(name)).read_bytes())
            for name in ("face.json", "truck.json", "truck_flat.json")}
MODEL = load_model_file(fixture_path("face.json"))
(SCENE,) = generate_scenes(GeneratorSpec(MODEL, "face", jitter=0.0, n_distractors=2, seed=1))
SCENE_DOC = json.loads(write_scene(SCENE))
GRAPH_DOC = recognize(SCENE, MODEL).to_json()
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
    _rejects_cleanly(lambda obj: ImageGraph.from_json(obj, MODEL), arg)


@FUZZ
@given(st.one_of(st.binary(), mutated(GRAPH_DOC).map(lambda d: json.dumps(d).encode())))
def test_image_graph_from_bytes_raises_only_package_errors(arg):
    _rejects_cleanly(lambda blob: ImageGraph.from_bytes(blob, MODEL), arg)
