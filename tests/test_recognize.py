import hashlib
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import dualgraph.model
import dualgraph.recognize
from conftest import random_rotation
from dualgraph.belief import cond_probability, refresh_conditionals, relation_strain
from dualgraph.config import Config
from dualgraph.generate import GeneratorSpec, generate_scenes
from dualgraph.geometry import Frame
from dualgraph.image import ImageGraph
from dualgraph.model import ModelGraph, fixture_path, load_model, load_model_file
from dualgraph.recognize import (
    CandidateIndex,
    _clue_pairs,
    recognize,
    seed_image_graph,
)
from dualgraph.scene import SCENE_RANGE, Primitive, Scene


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
# frames were already at their fit, so the face hashes stayed. All but the
# projected truck's were recorded again when the wave came to settle once
# (relax, then one refresh and one propagation), which moves probabilities
# in their low digits. The projected truck is never found (ROADMAP open
# item 11), so `found` is asserted per case.
GOLDEN = [
    ("face.json", "face", 0.0, 32, None, True,
     "136e3a7f5e895f80ce082e643f21c5f8d34cc441158bf3620b8c9a1dc57a4bf8"),
    ("truck_flat.json", "truck1", 0.03, 32, None, True,
     "d218432cbdd998b3b1266b7958273dd0971b81b01e9f0e501225d0af8a17a554"),
    ("face.json", "face", 0.0, 128, None, True,
     "b470bf859b19b7c28fe13b1edc98320c3964e1560b24562b0af4223e1cd94088"),
    ("truck_flat.json", "truck1", 0.03, 128, None, True,
     "f166d4ac8146b225ada4a5435f16eabf3fa4b99ed4a2e56d1e5792a834dbe2aa"),
    ("truck.json", "truck1", 0.0, 0, None, True,
     "a41fc54198469834aadac1d7fdb41e4d235c48287f6c53c4a37b92fc9837cec2"),
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
# per-node index, again when relaxation became a closed-form fit, and
# again when the wave came to settle once.
TILED_DIGEST = "428d7508c5c563cb4c97d2fe46641adb356d54a08a54926cdfed9c0f05e9c639"
# Four separated face copies: every pair of a face's parts suggests the
# same face, so most hypotheses repeat a member set already verified in
# their wave, and the optional ears take part in the relation check.
# Recorded before verification memoized its refits and relation strains,
# and again when the wave came to settle once.
TILED_FACE_DIGEST = "c65d2ee87419deabde29c5119c06e6e8b9da20c309b270623c9f034d0192877e"


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


# One scene per slice of the bench workloads, at seed 1: clutter (face and
# truck_flat among 128 distractors, jitter 0 and 0.03), tiled (16 faces, 8
# truck_flats) and truck3d (the 3D truck plain and through random and drop-z
# cameras, jitter 0 and 0.03). Recorded before the belief stages took the
# wave's nodes as a required argument, and again when the wave came to
# settle once.
CORPUS = ([("clutter", fixture, target, jitter)
           for fixture, target in (("face.json", "face"), ("truck_flat.json", "truck1"))
           for jitter in (0.0, 0.03)]
          + [("tiled", "face.json", "face", 16), ("tiled", "truck_flat.json", "truck1", 8)]
          + [("truck3d", camera, jitter) for camera in (None, "random", "drop-z")
             for jitter in (0.0, 0.03)])
CORPUS_DIGEST = "70c03cfd92a48ba5d7e545b032f2cdfff5085a964d1277788575460a4ff93f8e"


def test_bench_corpus_outputs_are_byte_identical():
    digest = hashlib.sha256()
    for workload, *case in CORPUS:
        if workload == "clutter":
            fixture, target, jitter = case
            scene, model = _scene(fixture, target, jitter, seed=1, distractors=128)
        elif workload == "tiled":
            fixture, target, copies = case
            scene, model = _tiled_scene(fixture, target, copies=copies, jitter=0.03, seed=1)
        else:
            camera, jitter = case
            scene, model = _scene("truck.json", "truck1", jitter, seed=1, distractors=0,
                                  camera=camera)
        blob = recognize(scene, model).to_bytes()
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    assert digest.hexdigest() == CORPUS_DIGEST


def _best_p(ig, target):
    return max((n.probability for n in ig.nodes.values()
                if n.model_type == target and n.status != "pruned"), default=0.0)


def _moved(scene, linear, shift):
    """The scene under the similarity x -> linear @ x + shift."""
    scale = float(np.linalg.norm(linear[:, 0]))
    prims = [replace(p, p1=linear @ p.p1 + shift, p2=linear @ p.p2 + shift) if p.kind == "linseg"
             else replace(p, center=linear @ p.center + shift, radius=scale * p.radius)
             for p in scene.primitives]
    return Scene(dim=scene.dim, primitives=prims, id=scene.id)


@pytest.mark.parametrize("fixture, target", [("face.json", "face"), ("truck_flat.json", "truck1")])
def test_best_p_is_invariant_under_similarities(fixture, target):
    # a rotation, a scale in e^-1..e^1 and a shift within 50 per axis; and
    # at seed 3 scales by 1e80 and 1e-90, where squared products of
    # coordinates overflow and underflow, and by 1e150 or, where the scene
    # would leave the scene range, the scale that takes it to 2**499
    rng = np.random.default_rng(6)
    for seed in (1, 2, 3):
        scene, model = _scene(fixture, target, 0.03, seed=seed, distractors=32)
        want = _best_p(recognize(scene, model), target)
        assert want > 0.0
        moves = []
        for _ in range(4):
            linear = math.exp(rng.uniform(-1.0, 1.0)) * random_rotation(rng, scene.dim)
            moves.append((linear, rng.uniform(-50.0, 50.0, scene.dim)))
        if seed == 3:
            top = max(float(np.abs(p.points()).max()) for p in scene.primitives)
            moves += [(scale * np.eye(scene.dim), np.zeros(scene.dim))
                      for scale in (1e80, 1e-90, min(1e150, 0.5 * SCENE_RANGE / top))]
        for linear, shift in moves:
            moved = _moved(scene, linear, shift)
            assert abs(_best_p(recognize(moved, model), target) - want) <= 1e-9


@pytest.mark.parametrize("seed", (1, 2))
def test_every_3d_truck_p_is_invariant_under_binary_scales(seed):
    # a power of two scales every coordinate exactly, so rounding cannot move
    # a decision; far from 1 (2**-300, 2**300) p still moves, so some
    # threshold of the 3D path is not scale-free
    scene, model = _scene("truck.json", "truck1", 0.03, seed=seed, distractors=0)

    def probabilities(ig):
        return {key: (node.model_type, node.status, node.probability)
                for key, node in ig.nodes.items()}

    ig = recognize(scene, model)
    assert _best_p(ig, "truck1") > 0.5
    want = probabilities(ig)
    for exponent in (-1, 1, 40):
        moved = _moved(scene, 2.0**exponent * np.eye(3), np.zeros(3))
        assert probabilities(recognize(moved, model)) == want


WAVE_SCENES = [c[:5] for c in GOLDEN] + [
    ("truck_flat.json", "truck1", 0.03, "tiled", None), ("face.json", "face", 0.03, "tiled", None)]


@pytest.mark.parametrize("fixture, target, jitter, distractors, camera", WAVE_SCENES,
                         ids=[f"{c[0]}-{c[1]}-{c[3]}-{c[4]}" for c in WAVE_SCENES])
def test_the_wave_invariants_hold(monkeypatch, fixture, target, jitter, distractors, camera):
    # recognize verifies every hypothesis once, unchecked, takes every
    # candidate as a clue, binds only the nodes of the wave's snapshot,
    # relaxes only groups that are members of no group, on these grounds,
    # and settles each wave once: relax, refresh, propagate, prune
    if distractors == "tiled":
        scene, model = _tiled_scene(fixture, target, copies=4, jitter=jitter, seed=5)
    else:
        scene, model = _scene(fixture, target, jitter, seed=5, distractors=distractors,
                              camera=camera)
    generate, verify = dualgraph.recognize.generate_hypotheses, dualgraph.recognize.verify
    relax = dualgraph.recognize.relax_frames
    tried = set()
    wave = {}

    def pruned(ig):
        return {key for key, node in ig.nodes.items() if node.status == "pruned"}

    def generating(model, frontier, cfg, index):
        hypotheses = generate(model, frontier, cfg, index)
        for h in hypotheses:
            key = (h.group_type, frozenset((h.clue_a, h.clue_b)))
            assert key not in tried
            tried.add(key)
        wave["pruned"] = pruned(index.ig)
        wave["snapshot"] = len(index.ig.nodes)
        assert all(n.status == "verified" for n in index.nodes)
        return hypotheses

    def verifying(h, matching, model, cfg, index):
        ig = index.ig
        assert ig.nodes[h.clue_a].status != "pruned" and ig.nodes[h.clue_b].status != "pruned"
        created = verify(h, matching, model, cfg, index)
        assert pruned(ig) == wave["pruned"]
        new = itertools.islice(ig.nodes.values(), wave["snapshot"], None)
        assert all(n.spec_slot is not None or n.status == "verified" for n in new)
        if created:
            # the group binds no node made in its own wave
            snapshot = {n.key for n in index.nodes}
            assert all(l.source in snapshot for l in ig.links_to(created[0].key, "group-member"))
        wave["verified"] = wave.get("verified", 0) + bool(created)
        return created

    def relaxing(ig, nodes):
        # so a node's own slots hold every strain its frame takes part in
        assert not any(ig.links_from(n.key, "group-member") for n in nodes)
        wave["relaxed"] = wave.get("relaxed", 0) + len(nodes)
        return relax(ig, nodes)

    schedule = []

    def logged(name, stage):
        def call(*args):
            schedule.append(name)
            return stage(*args)
        return call

    for name, stage in (("generate_hypotheses", generating), ("verify", verifying),
                        ("relax_frames", relaxing),
                        ("refresh_conditionals", dualgraph.recognize.refresh_conditionals),
                        ("propagate", dualgraph.recognize.propagate),
                        ("prune", dualgraph.recognize.prune)):
        monkeypatch.setattr(dualgraph.recognize, name, logged(name, stage))
    recognize(scene, model)
    assert wave["verified"] and len(tried) > wave["verified"] and wave["relaxed"]
    waves = []
    for name in schedule:
        if name == "generate_hypotheses":
            waves.append([])
        else:
            waves[-1].append(name)
    settle = ["relax_frames", "refresh_conditionals", "propagate", "prune"]
    for i, calls in enumerate(waves):
        verifies = calls.count("verify")
        assert calls[:verifies] == ["verify"] * verifies
        # only a wave that adds nothing, the last, goes unsettled
        assert calls[verifies:] == settle or (calls[verifies:] == [] and i == len(waves) - 1)
    assert len(waves) > 1


def _circle(origin, radius):
    return {"origin": origin, "axes": [[radius, 0], [0, radius]]}


# `trio` takes a `pair` in its optional slot `t`, and both are made of
# circles, so one wave can build a pair next to a trio whose `t` slot it
# fits; midx indexes trio under (circle, circle) and (circle, pair)
RISING_MODEL = {
    "nodes": [
        {"type": "circle", "symmetry": "circle", "frame": _circle([0, 0], 1)},
        {"type": "pair", "symmetry": "rectangle",
         "frame": {"origin": [0, 0], "axes": [[0.9, 0], [0, 0.4]]},
         "parts": [{"name": "c_1", "type": "circle", "frame": _circle([-0.5, 0], 0.4)},
                   {"name": "c_2", "type": "circle", "frame": _circle([0.5, 0], 0.4)}],
         "relations": [["distance-ratio", "c_1", "c_2", 2.5, 0.1],
                       ["size-ratio", "c_1", "c_2", 1.0, 0.2]]},
        {"type": "trio", "frame": _circle([0, 0], 2),
         "parts": [{"name": "a", "type": "circle", "frame": _circle([-1, 0], 1)},
                   {"name": "b", "type": "circle", "frame": _circle([1, 0], 1)},
                   {"name": "t", "type": "pair", "essential": False,
                    "frame": {"origin": [0, 2.5], "axes": [[0.9, 0], [0, 0.4]]}}],
         "relations": [["distance-ratio", "a", "b", 2.0, 0.1],
                       ["size-ratio", "a", "b", 1.0, 0.2],
                       ["size-ratio", "t", "a", 0.9, 0.2]]},
    ],
}


def test_a_wave_binds_only_nodes_of_its_snapshot(monkeypatch):
    """The pair that wave 1 builds fits the `t` slot of the trio that wave 1
    also builds, but a wave binds only what its snapshot holds: the pair
    joins a trio in wave 2, through the (circle, pair) clues."""
    model = load_model(RISING_MODEL)
    prims = [Primitive("circle", center=c, radius=r) for c, r in (
        ((-1, 0), 1.0), ((1, 0), 1.0), ((-0.5, 2.5), 0.4), ((0.5, 2.5), 0.4))]
    generate, verify = dualgraph.recognize.generate_hypotheses, dualgraph.recognize.verify
    relax = dualgraph.recognize.relax_frames
    waves = []
    born = {}  # node key -> the wave that made it, 0 for the seeds
    bound = []  # (wave, group, slot, member) per group-member link a verify made

    def generating(model, frontier, cfg, index):
        born.update((n.key, 0) for n in index.nodes if n.key not in born)
        waves.append(len(waves) + 1)
        return generate(model, frontier, cfg, index)

    def verifying(h, matching, model, cfg, index):
        created = verify(h, matching, model, cfg, index)
        if created:
            wave, group = waves[-1], created[0]
            links = index.ig.links_to(group.key, "group-member")
            assert all(born[l.source] < wave for l in links)
            bound.extend((wave, group.model_type, l.slot, l.source) for l in links)
            born.update((n.key, wave) for n in created)
        return created

    monkeypatch.setattr(dualgraph.recognize, "generate_hypotheses", generating)
    monkeypatch.setattr(dualgraph.recognize, "verify", verifying)
    ig = recognize(Scene(dim=2, primitives=prims, id="rising"), model)
    pairs = {n.key for n in ig.nodes.values() if n.model_type == "pair"}
    assert pairs and all(born[key] == 1 for key in pairs)
    assert {(wave, slot) for wave, group, slot, member in bound if member in pairs} == {(2, "t")}
    assert (1, "trio", "a") in {(wave, group, slot) for wave, group, slot, _ in bound}


def test_the_refresh_alone_scores_a_specialization_link(monkeypatch):
    """verify links a passing specialization instance to its group at
    conditional 1; the wave's refresh then scores it from the summed
    strains of its screens on the group's member frames."""
    scene, model = _scene("truck_flat.json", "truck1", 0.03, seed=5)
    verify = dualgraph.recognize.verify
    refresh = dualgraph.recognize.refresh_conditionals
    made = []  # (group, specializes link) per instance, of the wave being verified
    totals = []

    def verifying(h, matching, model, cfg, index):
        created = verify(h, matching, model, cfg, index)
        for node in (created or [])[1:]:
            if node.spec_slot is None:
                (link,) = index.ig.links_from(node.key, "specializes")
                assert (link.target, link.conditional, link.residuals) == (created[0].key, 1.0, {})
                made.append((created[0], link))
        return created

    def refreshing(ig, cfg):
        refresh(ig, cfg)
        for group, link in made:
            screens = model.node(group.model_type).specialize_relations[
                ig.nodes[link.source].model_type]
            frames = {l.slot: ig.nodes[l.source].frame
                      for l in ig.links_to(group.key, "group-member")}
            strains = {f"{rel.function}({','.join(rel.operands)})":
                       relation_strain(rel, [frames[op] for op in rel.operands], cfg.s_fail)
                       for rel in screens}
            total = sum(strains.values(), 0.0)
            assert link.conditional == cond_probability(total)
            assert link.residuals == strains
            totals.append(total)
        made.clear()

    monkeypatch.setattr(dualgraph.recognize, "verify", verifying)
    monkeypatch.setattr(dualgraph.recognize, "refresh_conditionals", refreshing)
    ig = recognize(scene, model)
    assert _best_p(ig, "truck1") >= 0.5
    # jitter strains every screen, so verify's own score would read below 1
    assert totals and all(total > 0.0 for total in totals)


def test_a_specialization_instance_is_not_specialized_again():
    """`pair_a` re-declares the parts of `pair`, its parent, and screens a
    child of its own on them. An instance of `pair_a` is made when a
    `pair` verifies; its own screen applies only to a `pair_a` verified
    from its parts, which has no relation to be hypothesized by."""
    parts = [{"name": "c_1", "type": "circle", "frame": _circle([-0.5, 0], 0.4)},
             {"name": "c_2", "type": "circle", "frame": _circle([0.5, 0], 0.4)}]
    screen = [["size-ratio", "c_1", "c_2", 1.0, 0.2]]
    model = load_model({"nodes": [
        {"type": "circle", "symmetry": "circle", "frame": _circle([0, 0], 1)},
        {"type": "pair", "symmetry": "rectangle",
         "frame": {"origin": [0, 0], "axes": [[0.9, 0], [0, 0.4]]}, "parts": parts,
         "relations": [["distance-ratio", "c_1", "c_2", 2.5, 0.1], *screen],
         "lower_loa": ["pair_a"], "specialize": {"pair_a": screen}},
        {"type": "pair_a", "symmetry": "rectangle",
         "frame": {"origin": [0, 0], "axes": [[0.9, 0], [0, 0.4]]}, "parts": parts,
         "lower_loa": ["pair_aa"], "specialize": {"pair_aa": screen}},
        {"type": "pair_aa", "symmetry": "rectangle",
         "frame": {"origin": [0, 0], "axes": [[0.9, 0], [0, 0.4]]}},
    ]})
    prims = [Primitive("circle", center=c, radius=0.4) for c in ((-0.5, 0), (0.5, 0))]
    ig = recognize(Scene(dim=2, primitives=prims, id="nested"), model)
    types = [n.model_type for n in ig.nodes.values()]
    assert types.count("pair") == 1 and types.count("pair_a") == 1
    assert "pair_aa" not in types


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
    # each point asks for one type; the segment points fill more than one
    # query block
    ig = seeded
    index = CandidateIndex(ig)
    rng = np.random.default_rng(3)
    linsegs = len(index.of_types(frozenset({"linseg"}))[0])
    n = 2 * (dualgraph.recognize._QUERY_PAIRS // linsegs) + 45
    points = rng.uniform(index.cols.origins.min(axis=0), index.cols.origins.max(axis=0), size=(n, 2))
    radii = rng.uniform(0.05, 1.0, size=n) * index.cols.lengths.max()
    types = [frozenset({("linseg", "circle")[i % 2]}) for i in range(n)]
    hits = index.near(points, radii, types)
    for k, (p, r, t) in enumerate(zip(points, radii, types)):
        rows, d2 = hits.of(k)
        scan = {n.key for n in ig.sorted_nodes()
                if n.model_type in t and float(np.linalg.norm(n.frame.origin - p)) <= r}
        assert scan <= {index.nodes[i].key for i in rows}
        assert all(index.nodes[i].model_type in t for i in rows)
        assert rows.tolist() == sorted(rows.tolist())
        assert np.allclose(d2, [np.sum((index.nodes[i].frame.origin - p) ** 2) for i in rows])


def _keys_near(index, point, radius):
    rows, _ = index.near(np.array([point]), np.array([radius]),
                         [frozenset({"linseg", "circle"})]).of(0)
    return {n.key for n in (index.nodes[i] for i in rows)
            if n.status != "pruned" and float(np.linalg.norm(n.frame.origin - point)) <= radius}


def test_index_sees_added_pruned_and_moved_nodes(seeded):
    ig = seeded
    index = CandidateIndex(ig)
    far = np.array([1e3, 1e3])

    # a node inserted after the snapshot is no candidate until the next wave
    added = ig.add_node("linseg", frame=Frame(far, np.diag([0.5, 0.0])), status="verified")
    assert added.key not in _keys_near(index, far, 1.0)
    assert added.key in _keys_near(CandidateIndex(ig), far, 1.0)

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
