import hashlib
import itertools
from dataclasses import replace

import numpy as np
import pytest

import dualgraph.model
import dualgraph.recognize
from dualgraph.belief import refresh_conditionals
from dualgraph.config import Config
from dualgraph.generate import GeneratorSpec, generate_scenes
from dualgraph.geometry import Frame
from dualgraph.image import ImageGraph
from dualgraph.model import ModelGraph, fixture_path, load_model_file
from dualgraph.recognize import (
    CandidateIndex,
    _clue_pairs,
    recognize,
    seed_image_graph,
)
from dualgraph.scene import Scene


def _scene(fixture, target, jitter, seed, distractors=32, camera=None):
    model = load_model_file(fixture_path(fixture))
    spec = GeneratorSpec(model, target, jitter=jitter, n_distractors=distractors, seed=seed,
                         camera=camera)
    (scene,) = generate_scenes(spec)
    return scene, model


# sha256 of to_bytes() recorded before refactors that were meant to leave
# every output byte unchanged: the face and truck_flat cases before the
# candidate index and the closed-form segment distance, the 3D truck cases
# (plain 3D, and projected through a random camera) before the relation
# loops were folded into one helper, and the 128-distractor clutter cases
# before clue screening and slot placement were prefiltered in columns.
# The truck hashes were recorded again when relaxation became one
# closed-form fit per group, which moves their group frames; the face
# frames were already at their fit, so the face hashes stayed. The
# projected truck is never found (ROADMAP open item 5), so `found` is
# asserted per case.
GOLDEN = [
    ("face.json", "face", 0.0, 32, None, True,
     "7bfacfce0a4acb60dbea6ac76e5196e8d12928b1cd950e65881a6dde4befe5b7"),
    ("truck_flat.json", "truck1", 0.03, 32, None, True,
     "56f156c75328842e486b3b64b250f5b42853711326454ba64c4ee4d70768112d"),
    ("face.json", "face", 0.0, 128, None, True,
     "e5bd9bb32c37ffbc2de23c6e6fb14462b5b29a7d908304b06b1a876925bc38eb"),
    ("truck_flat.json", "truck1", 0.03, 128, None, True,
     "6a2560d3bc9b205a1a8402b2a88f218a5b656099c20ec222b3c846cf5ef9de98"),
    ("truck.json", "truck1", 0.0, 0, None, True,
     "fb91536849695e36b19424172921f49beae51eb66698c23000cfb908d1b36732"),
    ("truck.json", "truck1", 0.0, 0, "random", False,
     "e7e8f25286ca1504c977d7ab20df04572103e790a60966e12c6a041dc9b578be"),
]


def assert_no_link_to_a_pruned_node(ig):
    for l in ig.links:
        assert ig.nodes[l.source].status != "pruned", l
        assert ig.nodes[l.target].status != "pruned", l


@pytest.mark.parametrize("fixture, target, jitter, distractors, camera, found, digest", GOLDEN,
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[-1]}" for c in GOLDEN])
def test_recognize_output_is_byte_identical(fixture, target, jitter, distractors, camera,
                                            found, digest):
    scene, model = _scene(fixture, target, jitter, seed=5, distractors=distractors,
                          camera=camera)
    ig = recognize(scene, model)
    blob = ig.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest
    assert ImageGraph.from_bytes(blob, model).to_bytes() == blob
    assert_no_link_to_a_pruned_node(ig)
    hits = [n for n in ig.nodes.values()
            if n.model_type == target and n.status != "pruned" and n.probability >= 0.5]
    assert bool(hits) == found


def _tiled_scene(fixture, target, copies, jitter, seed):
    """`copies` generated scenes, each centred, on a square grid whose pitch
    is 2.5 times the largest copy span, so no two copies overlap; only the
    first two coordinates move."""
    model = load_model_file(fixture_path(fixture))
    spec = GeneratorSpec(model, target, n_scenes=copies, jitter=jitter, seed=seed)
    scenes = generate_scenes(spec)
    boxes = []
    for s in scenes:
        pts = np.vstack([p.points() for p in s.primitives])
        boxes.append((pts.min(axis=0), pts.max(axis=0)))
    pitch = 2.5 * max(float(np.max(hi[:2] - lo[:2])) for lo, hi in boxes)
    cols = int(np.ceil(np.sqrt(copies)))
    prims = []
    for i, (s, (lo, hi)) in enumerate(zip(scenes, boxes)):
        offset = np.zeros_like(lo)
        offset[:2] = -(lo[:2] + hi[:2]) / 2.0 + pitch * np.array([i % cols, i // cols])
        prims += [replace(p, p1=p.p1 + offset, p2=p.p2 + offset) if p.kind == "linseg"
                  else replace(p, center=p.center + offset) for p in s.primitives]
    return Scene(dim=scenes[0].dim, primitives=prims, id=f"tiled-{target}-{seed}"), model


# Four separated truck_flat copies: competing claims between neighbouring
# groups and prune cascades through shadow nodes, which the single-object
# scenes above barely reach. Recorded before link storage moved into a
# per-node index, and again when relaxation became a closed-form fit.
TILED_DIGEST = "6fffc41311d2dac114523116e430cfe6390f72c429c42ed252e3f7e4f5f06561"
# Four separated face copies: every pair of a face's parts suggests the
# same face, so most hypotheses repeat a member set already verified in
# their wave, and the optional ears take part in the relation check.
# Recorded before verification memoized its refits and relation strains.
TILED_FACE_DIGEST = "42136837f75e2f4ab92756af745c5a626357cc2e1025c262fa36b9c0152d4cc8"


def _assert_tiled_output(fixture, target, digest):
    scene, model = _tiled_scene(fixture, target, copies=4, jitter=0.03, seed=5)
    ig = recognize(scene, model)
    blob = ig.to_bytes()
    assert hashlib.sha256(blob).hexdigest() == digest
    assert ImageGraph.from_bytes(blob, model).to_bytes() == blob
    assert_no_link_to_a_pruned_node(ig)
    hits = [n for n in ig.nodes.values()
            if n.model_type == target and n.status != "pruned" and n.probability >= 0.5]
    assert len(hits) == 4


def test_tiled_copies_are_byte_identical_and_each_found():
    _assert_tiled_output("truck_flat.json", "truck1", TILED_DIGEST)


def test_tiled_faces_are_byte_identical_and_each_found():
    _assert_tiled_output("face.json", "face", TILED_FACE_DIGEST)


def test_recognize_reads_the_model_tables_without_rebuilding(monkeypatch):
    scene, model = _scene("face.json", "face", 0.0, seed=5)
    calls = []
    abstract_types = ModelGraph.abstract_types
    build_midx = dualgraph.model.build_midx

    def count(name, fn):
        def wrapper(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        return wrapper

    monkeypatch.setattr(ModelGraph, "abstract_types", count("abstract_types", abstract_types))
    for module in (dualgraph.model, dualgraph.recognize):
        monkeypatch.setattr(module, "build_midx", count("build_midx", build_midx), raising=False)
    ig = recognize(scene, model)
    assert any(n.model_type == "face" for n in ig.nodes.values())
    assert calls == []


def test_reloaded_projected_graph_refreshes_like_the_original():
    scene, model = _scene("truck.json", "truck1", 0.0, seed=5, distractors=0, camera="random")
    ig = recognize(scene, model)
    reloaded = ImageGraph.from_bytes(ig.to_bytes(), model=model)
    assert ig.projected and reloaded.projected
    refresh_conditionals(ig)
    refresh_conditionals(reloaded)
    assert reloaded.to_bytes() == ig.to_bytes()


@pytest.fixture
def seeded():
    scene, model = _scene("face.json", "face", 0.0, seed=5)
    return seed_image_graph(scene, model)


@pytest.mark.parametrize("distractors", [32, 128])
@pytest.mark.parametrize("pick", [slice(None), slice(None, None, 3), slice(1)],
                         ids=["all", "every-third", "one"])
def test_clue_pairs_match_combinations_walk(distractors, pick):
    scene, model = _scene("face.json", "face", 0.0, seed=5, distractors=distractors)
    ig = seed_image_graph(scene, model)
    cfg = Config()
    nodes = ig.sorted_nodes()
    frontier = nodes[pick]
    keys = {n.key for n in frontier}
    expected = []
    for a, b in itertools.combinations(nodes, 2):
        if a.key not in keys and b.key not in keys:
            continue
        reach = cfg.gate_radius * max(a.frame.primary_length, b.frame.primary_length)
        if float(np.linalg.norm(a.frame.origin - b.frame.origin)) <= reach:
            expected.append((a.key, b.key))
    index = CandidateIndex(ig)
    got = [(index.nodes[i].key, index.nodes[j].key)
           for i, j in _clue_pairs(index, frontier, cfg.gate_radius)]
    assert got == expected
    assert len(expected) > len(frontier)


def test_near_returns_every_node_within_radius(seeded):
    ig = seeded
    index = CandidateIndex(ig)
    rng = np.random.default_rng(3)
    points = rng.uniform(index.cols.origins.min(axis=0), index.cols.origins.max(axis=0), size=(20, 2))
    radii = rng.uniform(0.05, 1.0, size=20) * index.cols.lengths.max()
    for p, r, (rows, d2) in zip(points, radii, index.near(points, radii)):
        scan = {n.key for n in ig.sorted_nodes()
                if float(np.linalg.norm(n.frame.origin - p)) <= r}
        assert scan <= {index.nodes[i].key for i in rows}
        assert np.allclose(d2, [np.sum((index.nodes[i].frame.origin - p) ** 2) for i in rows])


def _keys_near(index, point, radius):
    ((rows, _),) = index.near([point], [radius])
    hits = [index.nodes[i] for i in rows] + index.fresh()
    return {n.key for n in hits
            if n.status != "pruned" and float(np.linalg.norm(n.frame.origin - point)) <= radius}


def test_index_sees_added_pruned_and_moved_nodes(seeded):
    ig = seeded
    index = CandidateIndex(ig)
    far = np.array([1e3, 1e3])

    # a node inserted after the snapshot is still a candidate in this wave
    added = ig.add_node("linseg", frame=Frame(far, np.diag([0.5, 0.0])), status="verified")
    assert added.key in _keys_near(index, far, 1.0)

    # next wave: a pruned node is gone from the snapshot
    victim = ig.sorted_nodes()[0]
    victim.status = "pruned"
    index = CandidateIndex(ig)
    assert victim.key not in {n.key for n in index.nodes}
    assert victim.key not in _keys_near(index, victim.frame.origin, 1e-6)

    # relaxation replaces a frame; the next wave finds it at the new origin only
    mover = ig.sorted_nodes()[1]
    old = mover.frame.origin.copy()
    moved = old + np.array([50.0, -50.0])
    mover.frame = Frame(moved, mover.frame.axes.copy())
    index = CandidateIndex(ig)
    assert mover.key in _keys_near(index, moved, 1e-6)
    assert mover.key not in _keys_near(index, old, 1e-6)
