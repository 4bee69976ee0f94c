import json

import numpy as np
import pytest

from conftest import shape_library
from dualgraph.errors import ModelFormatError, ModelValidationError
from dualgraph.model import (
    RelationSpec,
    build_midx,
    fixture_path,
    load_model,
    load_model_file,
    midx_lookup,
    validate,
)


# -- loading -------------------------------------------------------------------

def test_minimal_graph_is_valid():
    g = load_model(json.dumps({"nodes": [{"type": "top"}]}))
    assert list(g.nodes) == ["top"]
    assert validate(g) == []


def test_truck_fixture_loads_with_nine_nodes():
    g = load_model_file(fixture_path("truck.json"))
    assert len(g.nodes) == 9
    assert validate(g) == []
    assert set(g.nodes) == {
        "linseg", "side", "rectangle", "box", "cab", "trunk",
        "truck", "truck1", "truck2",
    }


def test_face_fixture_loads():
    g = load_model_file(fixture_path("face.json"))
    assert len(g.nodes) == 9
    assert validate(g) == []
    face = g.node("face")
    essential = [p.name for p in face.parts if p.essential]
    optional = [p.name for p in face.parts if not p.essential]
    assert essential == ["head", "eye_1", "eye_2", "nose", "mouth"]
    assert optional == ["ear_1", "ear_2"]


def test_dangling_part_reference_is_named():
    doc = {
        "nodes": [
            {"type": "truck1",
             "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]},
             "parts": [{"name": "cab9",
                        "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 0]]}}]},
        ],
    }
    with pytest.raises(ModelValidationError) as err:
        load_model(json.dumps(doc))
    assert any("cab9" in v for v in err.value.violations)


def test_loa_cycle_detected():
    doc = {
        "nodes": [
            {"type": "a", "lower_loa": ["b"], "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]}},
            {"type": "b", "lower_loa": ["a"], "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]}},
        ],
    }
    with pytest.raises(ModelValidationError) as err:
        load_model(json.dumps(doc))
    assert any("cycle" in v for v in err.value.violations)


def test_unknown_operand_detected():
    doc = {
        "nodes": [
            {"type": "cab", "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]}},
            {"type": "truck",
             "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]},
             "parts": [{"name": "cab",
                        "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]}}],
             "relations": [["size-ratio", "cab", "wing", 2.0, 0.3]]},
        ],
    }
    with pytest.raises(ModelValidationError) as err:
        load_model(json.dumps(doc))
    assert any("wing" in v for v in err.value.violations)


def test_part_and_loa_link_on_same_pair_rejected():
    doc = {
        "nodes": [
            {"type": "b", "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]}},
            {"type": "a",
             "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]},
             "lower_loa": ["b"],
             "parts": [{"name": "b",
                        "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]}}]},
        ],
    }
    with pytest.raises(ModelValidationError) as err:
        load_model(json.dumps(doc))
    assert any("both a part and an abstraction link" in v for v in err.value.violations)


def test_malformed_json_reports_path():
    with pytest.raises(ModelFormatError):
        load_model(b"{not json", path="bad.json")


def test_relation_spec_round_trip():
    spec = RelationSpec.from_json(["size-ratio", "cab", "trunk-a", 2.0, 0.3], "t")
    assert spec.function == "size-ratio"
    assert spec.operands == ("cab", "trunk-a")
    assert spec.target == 2.0
    assert spec.tolerance == 0.3
    with pytest.raises(ModelFormatError):
        RelationSpec.from_json(["touch", "a", "b", 1.0, 0.1], "t")
    with pytest.raises(ModelFormatError):
        RelationSpec.from_json(["size-ratio", "a", "b", 2.0, -0.1], "t")


def relation_usable(rel: RelationSpec, mnode, projected: bool) -> bool:
    """Reference rule for `RelationSpec.affine_invariant`, worked out per
    call from the slot frames of `mnode`: whether a relation can be trusted
    for the viewing mode. In a projected scene only topological relations,
    parallelism, a zero-angle target and ratios along parallel model
    directions hold."""
    if not projected:
        return True
    if rel.function in {"parallel", "touch", "inside"}:
        return True
    if rel.function == "angle":
        return abs(float(rel.target)) < 1e-9
    if rel.function in ("size-ratio", "distance-ratio"):
        fa = mnode.part(rel.operands[0]).frame
        fb = mnode.part(rel.operands[1]).frame
        da = fa.primary_axis
        db = fb.primary_axis if rel.function == "size-ratio" else fb.origin - fa.origin
        na = float(np.linalg.norm(da))
        nb = float(np.linalg.norm(db))
        if na < 1e-12 or nb < 1e-12:
            return False
        return abs(float(da @ db)) / (na * nb) > 1.0 - 1e-6
    return False


def test_the_model_decides_affine_invariance_by_the_per_call_rule():
    """Every relation and specialization screen of the packaged fixtures, the
    shape library and a pair of crossed segments: the flag the model keeps
    equals the per-call rule on the node's slot frames. Each ratio and the
    angle fall on both sides of it."""
    seg = {"origin": [0, 0], "axes": [[1, 0], [0, 0]]}
    crossed = load_model({"nodes": [
        {"type": "linseg", "symmetry": "undirected-segment", "frame": seg},
        {"type": "cross", "parts": [
            {"name": "a", "type": "linseg", "frame": seg},
            {"name": "b", "type": "linseg", "frame": {"origin": [3, 0], "axes": [[0, 2], [0, 0]]}}],
         "relations": [["size-ratio", "a", "b", 0.5, 0.1], ["distance-ratio", "a", "b", 3.0, 0.1],
                       ["angle", "a", "b", 0.0, 0.1]]}]})
    graphs = [load_model_file(fixture_path(name))
              for name in ("face.json", "truck.json", "truck_flat.json")]
    seen = {}
    for g in graphs + [shape_library(), crossed]:
        for mnode in g.nodes.values():
            screens = [r for rows in mnode.specialize_relations.values() for r in rows]
            for rel in mnode.relations + screens:
                assert rel.affine_invariant == relation_usable(rel, mnode, True), rel
                assert relation_usable(rel, mnode, False)
                seen.setdefault(rel.function, set()).add(rel.affine_invariant)
    assert seen["size-ratio"] == seen["distance-ratio"] == seen["angle"] == {True, False}


# -- link completion -----------------------------------------------------------

def test_one_sided_links_completed():
    g = load_model_file(fixture_path("truck.json"))
    assert g.node("side").higher_loa == ["linseg"]
    assert g.node("cab").higher_loa == ["box"]
    assert g.node("truck1").higher_loa == ["truck"]
    assert g.node("box").lower_loa == ["cab", "trunk"]


def test_abstract_types_climb():
    g = load_model_file(fixture_path("truck.json"))
    assert g.abstract_types("cab") == frozenset({"box"})
    assert g.abstract_types("side") == frozenset({"linseg"})
    assert g.abstract_types("rectangle") == frozenset({"rectangle"})
    assert g.abstract_types("truck1") == frozenset({"truck"})


# -- midx ----------------------------------------------------------------------

def test_truck_midx_keys():
    g = load_model_file(fixture_path("truck.json"))
    index = build_midx(g)
    assert {e.hypothesis for e in midx_lookup(index, "box", "box")} == {"truck"}
    assert {e.hypothesis for e in midx_lookup(index, "linseg", "linseg")} == {"rectangle"}
    # symmetric lookup
    assert midx_lookup(index, "rectangle", "rectangle") == midx_lookup(index, "rectangle", "rectangle")
    hypos = {e.hypothesis for e in midx_lookup(index, "rectangle", "rectangle")}
    assert hypos == {"box"}


def test_face_midx_includes_pair_and_face():
    g = load_model_file(fixture_path("face.json"))
    index = build_midx(g)
    hypos = {e.hypothesis for e in midx_lookup(index, "circle", "circle")}
    assert hypos == {"circle_pair", "face"}


def test_midx_entries_carry_screening_relations():
    g = load_model_file(fixture_path("truck.json"))
    index = build_midx(g)
    entries = midx_lookup(index, "box", "box")
    by_slots = {e.slots: e for e in entries}
    assert ("cab", "trunk-a") in by_slots
    fns = {s.function for s in by_slots[("cab", "trunk-a")].screening}
    assert fns == {"size-ratio", "touch", "parallel", "distance-ratio"}


def test_empty_midx_for_partless_graph():
    g = load_model(json.dumps({
        "nodes": [{"type": "only", "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]}}],
    }))
    assert build_midx(g) == {}


@pytest.mark.parametrize("source", ["face.json", "truck.json", "truck_flat.json", "builtin"])
def test_load_fills_the_lookup_tables(source):
    g = shape_library() if source == "builtin" else load_model_file(fixture_path(source))
    assert g.midx and g.midx == build_midx(g)
    assert g.abstract == {name: g.abstract_types(name) for name in g.nodes}


# -- the built-in shapes: tests/fixtures/shapes.json --------------------------

def test_builtin_library_validates():
    g = shape_library()
    assert validate(g) == []
    assert set(g.nodes) == {"linseg", "circle", "side", "rectangle", "box-face", "box", "circle_pair"}


def test_builtin_rectangle_shape():
    g = shape_library()
    rect = g.node("rectangle")
    assert len(rect.parts) == 4
    assert all(p.essential for p in rect.parts)
    assert all(p.type_name == "side" for p in rect.parts)
    fns = {s.function for s in rect.relations}
    assert {"parallel", "touch", "angle"} <= fns


def test_builtin_box_symmetry():
    g = shape_library()
    box = g.node("box")
    assert box.symmetry_class == "box"
    assert len(box.parts) == 6
    assert all(p.type_name == "box-face" for p in box.parts)


def test_builtin_midx_uses_abstract_types():
    g = shape_library()
    index = build_midx(g)
    assert {e.hypothesis for e in midx_lookup(index, "rectangle", "rectangle")} == {"box"}
    assert {e.hypothesis for e in midx_lookup(index, "circle", "circle")} == {"circle_pair"}

