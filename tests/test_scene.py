"""Scene parsing and writing, and synthetic scene generation."""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import shape_library
from dualgraph.errors import GenerationError, SceneFormatError
from dualgraph.generate import GeneratorSpec, generate_scenes, sample_camera
from dualgraph.model import fixture_path, load_model, load_model_file
from dualgraph.scene import (
    Primitive,
    Scene,
    parse_scene,
    write_scene,
)


def _seg_set(scene, decimals=9):
    out = set()
    for p in scene.primitives:
        assert p.kind == "linseg"
        ends = sorted([tuple(np.round(p.p1, decimals)), tuple(np.round(p.p2, decimals))])
        out.add((ends[0], ends[1]))
    return out


# -- parsing and writing -------------------------------------------------------


def test_parse_minimal_scene():
    s = parse_scene(b'{"dim":2,"primitives":[{"kind":"linseg","p1":[0,0],"p2":[4,0]}]}')
    assert s.dim == 2
    assert len(s.primitives) == 1
    assert s.primitives[0].kind == "linseg"
    assert s.primitives[0].strength == 1.0
    np.testing.assert_array_equal(s.primitives[0].p2, [4.0, 0.0])


def test_round_trip_is_exact_and_idempotent():
    awkward = [0.1 + 0.2, 1e-17, np.pi, 2.0 / 3.0, -1.2345678901234567e8]
    s = Scene(
        2,
        [
            Primitive("linseg", p1=awkward[:2], p2=awkward[2:4]),
            Primitive("circle", center=[awkward[4], 7.25], radius=0.1 + 0.2, strength=0.625),
        ],
        id="weird",
    )
    blob = write_scene(s)
    back = parse_scene(blob)
    assert back.id == "weird"
    assert back.primitives[0].p1.tolist() == awkward[:2]
    assert back.primitives[0].p2.tolist() == awkward[2:4]
    assert back.primitives[1].center.tolist() == [awkward[4], 7.25]
    assert back.primitives[1].radius == 0.1 + 0.2
    assert back.primitives[1].strength == 0.625
    assert write_scene(back) == blob


def test_round_trip_many_random_coordinates(rng):
    prims = []
    for _ in range(40):
        pts = rng.normal(scale=1e3, size=4) * 10.0 ** rng.integers(-12, 12)
        prims.append(Primitive("linseg", p1=pts[:2], p2=pts[2:]))
    s = Scene(2, prims)
    back = parse_scene(write_scene(s))
    for a, b in zip(s.primitives, back.primitives):
        assert a.p1.tolist() == b.p1.tolist()
        assert a.p2.tolist() == b.p2.tolist()


@pytest.mark.parametrize(
    "blob, fragment",
    [
        (b"{not json", "JSON"),
        (b'{"dim":4,"primitives":[]}', "dim"),
        (b'{"dim":2,"primitives":[{"kind":"blob"}]}', "kind"),
        (b'{"dim":2,"primitives":[{"kind":"circle","center":[0,0],"radius":0}]}', "radius"),
        (b'{"dim":2,"primitives":[{"kind":"circle","center":[0,0],"radius":-2}]}', "radius"),
        (b'{"dim":2,"primitives":[{"kind":"linseg","p1":[0,0],"p2":[0,0]}]}', "coincide"),
        (b'{"dim":2,"primitives":[{"kind":"linseg","p1":[0,0],"p2":[1]}]}', "vector"),
        (b'{"dim":2,"primitives":[{"kind":"linseg","p1":[0,0],"p2":[1,"a"]}]}', "number"),
        (b'{"dim":2,"primitives":[{"kind":"linseg","p1":[0,0],"p2":[1,1e999]}]}', "finite"),
        (b'{"dim":2,"primitives":[{"kind":"linseg","p1":[0,0],"p2":[1,0],"x":1}]}', "unknown"),
        (b'{"dim":2,"primitives":[{"kind":"linseg","p1":[0,0],"p2":[1,0],"strength":1.5}]}', "strength"),
    ],
)
def test_parse_rejections(blob, fragment):
    with pytest.raises(SceneFormatError) as exc:
        parse_scene(blob)
    assert fragment.lower() in str(exc.value).lower()


def test_error_carries_field_path():
    blob = b'{"dim":2,"primitives":[{"kind":"linseg","p1":[0,0],"p2":[4,0]},{"kind":"circle","center":[0,0],"radius":0}]}'
    with pytest.raises(SceneFormatError) as exc:
        parse_scene(blob)
    assert "primitives[1]" in str(exc.value)


# -- generation ----------------------------------------------------------------


def test_rectangle_zero_jitter_gives_exact_template_segments():
    lib = shape_library()
    scene = generate_scenes(GeneratorSpec(model=lib, target="rectangle", jitter=0.0))[0]
    assert scene.dim == 3
    expected = {
        ((-1.0, -0.6, 0.0), (1.0, -0.6, 0.0)),
        ((-1.0, 0.6, 0.0), (1.0, 0.6, 0.0)),
        ((-1.0, -0.6, 0.0), (-1.0, 0.6, 0.0)),
        ((1.0, -0.6, 0.0), (1.0, 0.6, 0.0)),
    }
    assert _seg_set(scene) == expected


def test_box_expands_to_twelve_cube_edges():
    lib = shape_library()
    scene = generate_scenes(GeneratorSpec(model=lib, target="box", jitter=0.0))[0]
    edges = set()
    for span in range(3):
        others = [i for i in range(3) if i != span]
        for a in (-1.0, 1.0):
            for b in (-1.0, 1.0):
                lo = [0.0] * 3
                hi = [0.0] * 3
                lo[span] = -1.0
                hi[span] = 1.0
                lo[others[0]] = hi[others[0]] = a
                lo[others[1]] = hi[others[1]] = b
                ends = sorted([tuple(lo), tuple(hi)])
                edges.add((ends[0], ends[1]))
    assert len(edges) == 12
    assert _seg_set(scene) == edges


def test_truck_variants_share_edges_and_pick_their_trunk():
    g = load_model_file(fixture_path("truck.json"))
    one = generate_scenes(GeneratorSpec(model=g, target="truck1", jitter=0.0))[0]
    two = generate_scenes(GeneratorSpec(model=g, target="truck2", jitter=0.0))[0]
    # cab spans x in [-3,-1]; the long trunk reaches x=3, the short one x=1.4.
    # The four edges on the shared face plane x=-1 collapse: 24 - 4 = 20.
    assert len(one.primitives) == 20
    assert len(two.primitives) == 20
    pts1 = np.vstack([p.points() for p in one.primitives])
    pts2 = np.vstack([p.points() for p in two.primitives])
    np.testing.assert_allclose(pts1.min(axis=0), [-3, -1, -1], atol=1e-12)
    np.testing.assert_allclose(pts1.max(axis=0), [3, 1, 1], atol=1e-12)
    np.testing.assert_allclose(pts2.min(axis=0), [-3, -1, -1], atol=1e-12)
    np.testing.assert_allclose(pts2.max(axis=0), [1.4, 1, 1], atol=1e-12)


def test_a_specialization_that_fails_its_own_screen_is_not_generated():
    # truck_flat's truck2 shares truck's geometry, whose trunk is twice the
    # cab, but screens size-ratio(trunk, cab) = 1.2 +- 0.12: strain 44.4
    doc = json.loads(Path(fixture_path("truck_flat.json")).read_bytes())
    for n_scenes in (0, 1):  # checked once per spec, before any scene is drawn
        with pytest.raises(GenerationError, match="truck2"):
            generate_scenes(GeneratorSpec(model=load_model(doc), target="truck2",
                                          n_scenes=n_scenes))
    # within s_fail at a tolerance of 0.5: strain 2.56
    (truck,) = [node for node in doc["nodes"] if node["type"] == "truck"]
    truck["specialize"]["truck2"][0][4] = 0.5
    (scene,) = generate_scenes(GeneratorSpec(model=load_model(doc), target="truck2"))
    assert len(scene.primitives) == 7


def test_face_expansion_mixes_circles_and_segments():
    f = load_model_file(fixture_path("face.json"))
    scene = generate_scenes(GeneratorSpec(model=f, target="face", jitter=0.0))[0]
    kinds = sorted(p.kind for p in scene.primitives)
    assert kinds == ["circle"] * 5 + ["linseg"] * 2
    radii = sorted(p.radius for p in scene.primitives if p.kind == "circle")
    np.testing.assert_allclose(radii, [0.15, 0.15, 0.2, 0.2, 1.0], atol=1e-12)


def test_seeded_determinism():
    g = load_model_file(fixture_path("truck.json"))
    spec = GeneratorSpec(model=g, target="truck1", n_scenes=3, jitter=0.02, n_distractors=6, seed=11)
    a = [write_scene(s) for s in generate_scenes(spec)]
    b = [write_scene(s) for s in generate_scenes(spec)]
    assert a == b
    other = GeneratorSpec(model=g, target="truck1", n_scenes=3, jitter=0.02, n_distractors=6, seed=12)
    assert [write_scene(s) for s in generate_scenes(other)] != a


def test_distractors_append_after_identical_instance():
    lib = shape_library()
    plain = generate_scenes(GeneratorSpec(model=lib, target="rectangle", jitter=0.01, seed=5))[0]
    spiked = generate_scenes(
        GeneratorSpec(model=lib, target="rectangle", jitter=0.01, n_distractors=8, seed=5)
    )[0]
    assert len(spiked.primitives) == len(plain.primitives) + 8
    for a, b in zip(plain.primitives, spiked.primitives):
        np.testing.assert_array_equal(a.p1, b.p1)
        np.testing.assert_array_equal(a.p2, b.p2)
    pts = np.vstack([p.points() for p in plain.primitives])
    center = (pts.min(axis=0) + pts.max(axis=0)) / 2
    half = np.maximum((pts.max(axis=0) - pts.min(axis=0)) / 2, 0.5) * 1.5
    for extra in spiked.primitives[len(plain.primitives):]:
        mid = (extra.p1 + extra.p2) / 2
        assert np.all(np.abs(mid - center) <= half + 1e-9)


def test_jitter_spreads_size_ratio_around_one():
    lib = shape_library()
    scenes = generate_scenes(
        GeneratorSpec(model=lib, target="rectangle", n_scenes=120, jitter=0.05, seed=2)
    )
    ratios = []
    for s in scenes:
        lengths = sorted(np.linalg.norm(p.p2 - p.p1) for p in s.primitives)
        ratios.append(lengths[3] / lengths[2])  # the two long sides
    ratios = np.array(ratios)
    assert 1.0 <= ratios.mean() < 1.12
    assert 0.02 < ratios.std() < 0.18


def test_camera_drop_z_keeps_plane_coordinates():
    g = load_model_file(fixture_path("truck_flat.json"))
    flat = generate_scenes(GeneratorSpec(model=g, target="truck1", jitter=0.0))[0]
    dropped = generate_scenes(
        GeneratorSpec(model=g, target="truck1", jitter=0.0, camera="drop-z")
    )[0]
    assert dropped.dim == 2
    for a, b in zip(flat.primitives, dropped.primitives):
        np.testing.assert_allclose(a.p1[:2], b.p1, atol=1e-12)
        np.testing.assert_allclose(a.p2[:2], b.p2, atol=1e-12)


def test_drop_z_leaves_out_edges_seen_end_on():
    # the 3D truck's 6 edges along z project to points; the other 14 remain
    g = load_model_file(fixture_path("truck.json"))
    scenes = generate_scenes(
        GeneratorSpec(model=g, target="truck1", n_scenes=3, jitter=0.0, camera="drop-z", seed=1)
    )
    for scene in scenes:
        assert len(scene.primitives) == 14
        blob = write_scene(scene)
        assert write_scene(parse_scene(blob)) == blob


def test_sampled_cameras_are_well_conditioned(rng):
    for _ in range(25):
        cam = sample_camera(rng, "random")
        sv = np.linalg.svd(cam.linear[:, :2], compute_uv=False)
        assert sv[0] / sv[-1] <= 4.0 + 1e-12


def test_generation_errors():
    lib = shape_library()
    with pytest.raises(GenerationError):
        generate_scenes(GeneratorSpec(model=lib, target="nope"))
    with pytest.raises(GenerationError):
        generate_scenes(GeneratorSpec(model=lib, target="rectangle", jitter=-0.1))
    with pytest.raises(GenerationError):
        generate_scenes(GeneratorSpec(model=lib, target="rectangle", camera="tilt"))
    face = load_model_file(fixture_path("face.json"))
    with pytest.raises(GenerationError):
        generate_scenes(GeneratorSpec(model=face, target="face", camera="random"))
    ghost = load_model({"dim": 2, "nodes": [{"type": "ghost"}]})
    with pytest.raises(GenerationError):
        generate_scenes(GeneratorSpec(model=ghost, target="ghost"))

