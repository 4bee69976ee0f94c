"""Image graph construction and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgraph.errors import SceneFormatError
from dualgraph.geometry import Frame
from dualgraph.image import LINK_KINDS, NODE_STATUSES, ImageGraph


def graph_document(ig):
    """The serialized form of `ig` as a JSON object, built key by key."""
    nodes = []
    for n in ig.sorted_nodes():
        obj = {
            "type": n.model_type,
            "instance": n.instance,
            "frame": {"origin": n.frame.origin.tolist(), "axes": n.frame.axes.tolist()},
            "p": n.probability,
            "status": n.status,
            "weight": n.template_weight,
        }
        if n.strength:
            obj["strength"] = n.strength
        if n.prim_index is not None:
            obj["prim"] = n.prim_index
        if n.spec_slot is not None:
            obj["spec_slot"] = n.spec_slot
        nodes.append(obj)
    links = []
    for l in sorted(ig.links, key=lambda l: (l.kind, l.source, l.target, l.slot or "")):
        obj = {
            "kind": l.kind,
            "from": list(l.source),
            "to": list(l.target),
            "conditional": l.conditional,
        }
        if l.slot is not None:
            obj["slot"] = l.slot
        if not l.carries_up:
            obj["carries_up"] = False
        if l.residuals:
            obj["residuals"] = {k: l.residuals[k] for k in sorted(l.residuals)}
        links.append(obj)
    return {"scene": ig.scene_id, "nodes": nodes, "links": links}


def graph_oracle(ig) -> bytes:
    """What `ig.to_bytes()` must write: `graph_document` through `json.dumps`."""
    return (json.dumps(graph_document(ig), indent=2) + "\n").encode("utf-8")


def seg_frame(x0, y0, x1, y1):
    p1 = np.array([x0, y0], float)
    p2 = np.array([x1, y1], float)
    mid = (p1 + p2) / 2
    axes = np.zeros((2, 2))
    axes[0] = (p2 - p1) / 2
    return Frame(mid, axes)


def tiny_graph():
    ig = ImageGraph(scene_id="s1")
    a = ig.add_node("linseg", frame=seg_frame(0, 0, 2, 0), strength=1.0, prim_index=0,
                    status="verified", probability=0.9)
    b = ig.add_node("linseg", frame=seg_frame(0, 1, 2, 1), strength=0.5, prim_index=1,
                    status="verified", probability=0.45)
    g = ig.add_node("rectangle", frame=Frame(np.array([1.0, 0.5]),
                                             np.array([[1.0, 0.0], [0.0, 0.5]])),
                    template_weight=4.0, probability=0.8, status="verified")
    s = ig.add_node("side", frame=a.frame.copy(), spec_slot="side1", status="verified",
                    probability=0.9)
    ig.add_link("specializes", s.key, a.key)
    ig.add_link("part-of", s.key, g.key, slot="side1", conditional=0.95,
                residuals={"relations": 0.1})
    ig.add_link("group-member", a.key, g.key, slot="side1", carries_up=False,
                conditional=0.9)
    ig.add_link("group-member", b.key, g.key, slot="side2", carries_up=True,
                conditional=0.7)
    return ig, a, b, g, s


def test_instance_counters_per_type():
    ig = ImageGraph()
    f = seg_frame(0, 0, 1, 0)
    n1 = ig.add_node("linseg", frame=f)
    n2 = ig.add_node("linseg", frame=f)
    m1 = ig.add_node("rectangle", frame=f)
    assert (n1.instance, n2.instance, m1.instance) == (1, 2, 1)
    assert n2.key == ("linseg", 2)
    assert n2.label() == "linseg#2"


def test_node_lookup_and_filters():
    ig, a, b, g, s = tiny_graph()
    assert ig.node(("linseg", 1)) is a
    assert len(ig.links_from(s.key)) == 2
    assert [l.kind for l in ig.links_from(s.key, "part-of")] == ["part-of"]
    assert len(ig.links_to(g.key, "group-member")) == 2
    assert len(ig.active_nodes()) == 4
    a.status = "pruned"
    assert len(ig.active_nodes()) == 3


def test_is_primitive_flag():
    ig, a, b, g, s = tiny_graph()
    assert a.is_primitive and b.is_primitive
    assert not g.is_primitive and not s.is_primitive


def test_remove_links():
    ig, a, b, g, s = tiny_graph()
    doomed = ig.links_to(g.key, "group-member")
    gone = ig.remove_links(doomed)
    assert len(gone) == 2
    assert ig.links_to(g.key, "group-member") == []
    assert len(ig.links) == 2


def test_round_trip_bytes_identical():
    ig, *_ = tiny_graph()
    blob = ig.to_bytes()
    again = ImageGraph.from_bytes(blob).to_bytes()
    assert blob == again


def test_round_trip_preserves_fields():
    ig, a, b, g, s = tiny_graph()
    ig2 = ImageGraph.from_bytes(ig.to_bytes())
    assert ig2.scene_id == "s1"
    a2 = ig2.node(a.key)
    assert a2.strength == 1.0 and a2.prim_index == 0 and a2.is_primitive
    s2 = ig2.node(s.key)
    assert s2.spec_slot == "side1"
    g2 = ig2.node(g.key)
    assert g2.template_weight == 4.0 and abs(g2.probability - 0.8) < 1e-12
    po = ig2.links_to(g2.key, "part-of")
    assert len(po) == 1 and po[0].slot == "side1" and abs(po[0].conditional - 0.95) < 1e-12
    assert po[0].residuals == {"relations": 0.1}
    gm = {l.slot: l for l in ig2.links_to(g2.key, "group-member")}
    assert gm["side1"].carries_up is False and gm["side2"].carries_up is True
    assert np.allclose(a2.frame.origin, a.frame.origin)
    assert np.allclose(a2.frame.axes, a.frame.axes)


def test_counters_restored_after_load():
    ig, *_ = tiny_graph()
    ig2 = ImageGraph.from_bytes(ig.to_bytes())
    n = ig2.add_node("linseg", frame=seg_frame(5, 5, 6, 5))
    assert n.instance == 3


def test_bad_link_kind_rejected():
    ig, a, b, g, s = tiny_graph()
    with pytest.raises(ValueError):
        ig.add_link("friend-of", a.key, g.key)


def test_from_json_rejects_bad_status():
    ig, *_ = tiny_graph()
    doc = json.loads(ig.to_bytes())
    doc["nodes"][0]["status"] = "imaginary"
    with pytest.raises(SceneFormatError):
        ImageGraph.from_json(doc)


def test_from_json_rejects_dangling_link():
    ig, *_ = tiny_graph()
    doc = json.loads(ig.to_bytes())
    doc["links"][0]["from"] = ["ghost", 7]
    with pytest.raises(SceneFormatError):
        ImageGraph.from_json(doc)


def test_from_json_rejects_bad_kind():
    ig, *_ = tiny_graph()
    doc = json.loads(ig.to_bytes())
    doc["links"][0]["kind"] = "sibling"
    with pytest.raises(SceneFormatError):
        ImageGraph.from_json(doc)


def assert_index_matches_links(ig):
    """Every per-node query equals a brute-force filter of `ig.links`, in order."""
    for key in ig.nodes:
        assert ig.incident(key) == [l for l in ig.links if key in (l.source, l.target)]
        for kind in (None, *LINK_KINDS):
            assert ig.links_from(key, kind) == [
                l for l in ig.links if l.source == key and kind in (None, l.kind)]
            assert ig.links_to(key, kind) == [
                l for l in ig.links if l.target == key and kind in (None, l.kind)]


ADD = st.tuples(st.just("add"), st.sampled_from(LINK_KINDS), st.integers(0, 3),
                st.integers(0, 3), st.sampled_from([None, "side1", "side2"]))
# indices into every link ever added, so removed links are offered again
REMOVE = st.tuples(st.just("remove"), st.lists(st.integers(0, 40), max_size=4))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(ADD, REMOVE), max_size=30))
def test_link_index_follows_adds_removes_and_reload(ops):
    ig = ImageGraph(scene_id="store")
    keys = [ig.add_node("linseg", frame=seg_frame(i, 0, i + 1, 0)).key for i in range(4)]
    added = []
    for op in ops:
        if op[0] == "add":
            _, kind, i, j, slot = op
            added.append(ig.add_link(kind, keys[i], keys[j], slot=slot))
        elif added:
            doomed = [added[i % len(added)] for i in op[1]]
            live = {id(l) for l in ig.links}
            gone = ig.remove_links(doomed)
            assert {id(l) for l in gone} == {id(l) for l in doomed} & live
        assert_index_matches_links(ig)
    again = ImageGraph.from_bytes(ig.to_bytes())
    assert again.to_bytes() == ig.to_bytes()
    assert_index_matches_links(again)


# names with non-ASCII, quote, backslash and control characters
NAMES = st.text(max_size=6) | st.sampled_from(
    ["", "\u00e9t\u00e9", '"', "\\", "\x00\n\t\x7f", "\U0001f69a"])
# every number the writer meets: NaN and the infinities by name, the float
# extremes by repr, and ints in full
NUMBERS = (st.floats() | st.integers() | st.integers(min_value=2**1024)
           | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e308]))
# diagonal axes are orthogonal; the bound keeps each squared length finite
COORDS = st.floats(min_value=-1e150, max_value=1e150)


@st.composite
def frames(draw):
    dim = draw(st.sampled_from([2, 3]))
    origin = draw(st.lists(COORDS, min_size=dim, max_size=dim))
    return Frame(np.array(origin), np.diag(draw(st.lists(COORDS, min_size=dim, max_size=dim))))


@st.composite
def graphs(draw):
    """An image graph built directly, with any names, numbers and optional keys."""
    ig = ImageGraph(scene_id=draw(NAMES))
    for _ in range(draw(st.integers(0, 4))):
        ig.add_node(draw(NAMES), draw(frames()), probability=draw(NUMBERS),
                    status=draw(st.sampled_from(NODE_STATUSES) | NAMES),
                    template_weight=draw(NUMBERS),
                    strength=draw(st.just(0.0) | NUMBERS),
                    prim_index=draw(st.none() | st.integers(min_value=0)),
                    spec_slot=draw(st.none() | NAMES))
    ends = st.sampled_from(sorted(ig.nodes)) if ig.nodes else st.tuples(NAMES, st.integers(1))
    for _ in range(draw(st.integers(0, 4))):
        ig.add_link(draw(st.sampled_from(LINK_KINDS)), draw(ends), draw(ends),
                    conditional=draw(NUMBERS), slot=draw(st.none() | NAMES),
                    carries_up=draw(st.booleans()),
                    residuals=draw(st.dictionaries(NAMES, NUMBERS, max_size=3)))
    return ig


@settings(max_examples=300, deadline=None)
@given(graphs())
def test_to_bytes_writes_what_json_dumps_writes(ig):
    blob = ig.to_bytes()
    assert blob == graph_oracle(ig)
    assert blob.isascii() and blob.endswith(b"\n")
