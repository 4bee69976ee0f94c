"""The column prefilters, stacked fits and per-wave memos of hypothesis
generation and verification change no result.

`scalar_generate_hypotheses`, `scalar_match_slots` and `scalar_verify` are
the scalar recognizer steps they replaced: every clue pair and midx entry
screened by relation_strains, every screening that passes fitted one sign
assignment at a time (`scalar_fit_transform`), every instance within the
gate radius scored by placement_strain, and every hypothesis refitted and
its relations scored afresh. The oracle tests run recognition with both
versions side by side at every wave and demand equal results; the property
tests check that each column bound stays at or below the scalar strain it
stands in for, and that the stacked fits match the scalar ones byte for byte.
"""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import dualgraph.recognize as rec
from dualgraph.belief import (
    bind_member,
    cond_probability,
    group_weight,
    placement_strain,
    relation_strains,
)
from dualgraph.config import make_config
from dualgraph.errors import DegenerateFrameError, UnderConstrainedError
from dualgraph.geometry import (
    SYMMETRY_CLASSES,
    AffineCamera,
    Frame,
    SimilarityTransform,
    angle_between,
    boundary_distance,
    fit_affine,
    fit_similarities,
    fit_similarity,
    similarity_of,
)
from dualgraph.image import ImageGraph
from dualgraph.model import RelationSpec, fixture_path, load_model_file, midx_lookup
from dualgraph.scene import Primitive, Scene

from test_recognize import GOLDEN, _scene, _tiled_scene

# -- the scalar steps ------------------------------------------------------------


def scalar_fit_similarity(model_pts, image_pts):
    """The one-at-a-time similarity fit that `fit_similarities` stacks."""
    x = np.atleast_2d(np.asarray(model_pts, float))
    y = np.atleast_2d(np.asarray(image_pts, float))
    if x.shape != y.shape or x.shape[0] < 2:
        raise UnderConstrainedError("need at least two matching points of equal dimension")
    dim = x.shape[1]
    mx = x.mean(axis=0)
    my = y.mean(axis=0)
    xc = x - mx
    yc = y - my
    var_x = float((xc ** 2).sum()) / x.shape[0]
    if var_x < 1e-24:
        raise UnderConstrainedError("model points are coincident")
    cov = (yc.T @ xc) / x.shape[0]
    u, s, vt = np.linalg.svd(cov)
    d = np.ones(dim)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        d[-1] = -1.0
    rot = u @ np.diag(d) @ vt
    scale = float((s * d).sum()) / var_x
    if scale <= 0:
        raise UnderConstrainedError("degenerate correspondence (non-positive scale)")
    trans = my - scale * (rot @ mx)
    xform = SimilarityTransform(rot, scale, trans)
    residual = float(np.sqrt(((xform.apply_points(x) - y) ** 2).sum()))
    return xform, residual


def scalar_fit_transform(m1, m2, i1, i2, projected):
    """Best transform taking the two model slot frames onto the clue frames.

    Image axis directions are sign-ambiguous (a segment has no arrow), so
    every sign assignment of the usable tips is tried and the lowest-residual
    fit wins. Projected mode fits an affine camera instead of a similarity;
    there the tip order is searched too, because shear can swap which image
    axis comes out longest, so rank no longer pins the correspondence.
    """
    want = 2 if projected else 1
    mpts1, tips1 = rec._fit_points(m1, i1, want)
    mpts2, tips2 = rec._fit_points(m2, i2, want)
    model_pts = np.array(mpts1 + mpts2)
    if projected and len(tips1) > 1:
        orders1 = list(itertools.permutations(tips1))
    else:
        orders1 = [tuple(tips1)]
    if projected and len(tips2) > 1:
        orders2 = list(itertools.permutations(tips2))
    else:
        orders2 = [tuple(tips2)]
    n1 = len(tips1)
    best = None
    for t1 in orders1:
        for t2 in orders2:
            for signs in itertools.product((1.0, -1.0), repeat=n1 + len(t2)):
                ipts = [i1.origin]
                ipts += [i1.origin + s * t for s, t in zip(signs[:n1], t1)]
                ipts.append(i2.origin)
                ipts += [i2.origin + s * t for s, t in zip(signs[n1:], t2)]
                try:
                    if projected:
                        (linear, trans), res = fit_affine(model_pts, np.array(ipts))
                        cand = AffineCamera(linear, trans)
                    else:
                        cand, res = scalar_fit_similarity(model_pts, np.array(ipts))
                except (UnderConstrainedError, DegenerateFrameError):
                    continue
                if best is None or res < best[1]:
                    best = (cand, res)
    if best is None:
        raise UnderConstrainedError("no usable transform fit")
    return best


def scalar_generate_hypotheses(ig, model, frontier, cfg, index):
    projected = ig.projected
    fits = model.abstract
    best = {}
    for i, j in rec._clue_pairs(index, frontier, cfg.gate_radius):
        a, b = index.nodes[i], index.nodes[j]
        for entry in midx_lookup(model.midx, a.model_type, b.model_type):
            mnode = model.node(entry.hypothesis)
            s1, s2 = entry.slots
            fits1 = fits.get(mnode.part(s1).type_name, frozenset())
            fits2 = fits.get(mnode.part(s2).type_name, frozenset())
            for ca, cb in ((a, b), (b, a)):
                if ca.model_type not in fits1 or cb.model_type not in fits2:
                    continue
                frames = {s1: ca.frame, s2: cb.frame}
                score = 1.0
                for _, s in relation_strains(mnode, entry.screening, frames,
                                             cfg.s_fail, projected):
                    score *= cond_probability(min(s, 1e6))
                if score < cfg.screen_min:
                    continue
                try:
                    transform, _ = scalar_fit_transform(mnode.part(s1).frame,
                                                        mnode.part(s2).frame,
                                                        ca.frame, cb.frame, projected)
                except (UnderConstrainedError, DegenerateFrameError):
                    continue
                key = (entry.hypothesis, frozenset((ca.key, cb.key)))
                h = rec.Hypothesis(entry.hypothesis, ca.key, cb.key, entry.slots,
                                   transform, score)
                if key not in best or score > best[key].screening_score:
                    best[key] = h
    return sorted(best.values(), key=lambda h: h.order_key())


def scalar_match_slots(index, model, mnode, transform, cfg, projected, strain_gate=True):
    predictions = {}
    for slot in mnode.parts:
        try:
            predictions[slot.name] = rec._predict(transform, slot.frame, projected)
        except DegenerateFrameError:
            return None, {}
    live = [(slot, predictions[slot.name]) for slot in mnode.parts
            if predictions[slot.name].primary_length > 0]
    everyone = index.nodes + index.fresh()
    candidates = []
    for slot, pred in live:
        scale = pred.primary_length
        fits = model.abstract.get(slot.type_name, frozenset())
        for node in everyone:
            if node.status == "pruned" or node.spec_slot is not None:
                continue
            if node.model_type not in fits:
                continue
            d = rec._distance(node.frame.origin, pred.origin)
            if d > cfg.gate_radius * scale:
                continue
            sym = model.node(node.model_type).symmetry_class
            s = placement_strain(pred, node.frame, slot.elasticity, sym)
            if strain_gate and s > cfg.s_fail:
                continue
            rank = s if strain_gate else d / scale
            candidates.append((rank, slot.name, node.key, s))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    matched = {}
    strains = {}
    used = set()
    limits = {slot.name: slot.multiplicity for slot in mnode.parts}
    for _, name, key, s in candidates:
        if key in used:
            continue
        lo, hi = limits[name]
        if hi is not None and len(matched.get(name, [])) >= hi:
            continue
        matched.setdefault(name, []).append(key)
        strains.setdefault(name, []).append(s)
        used.add(key)
    tags = {}
    for slot in mnode.parts:
        if slot.variant_tag is not None and slot.name in matched:
            tags.setdefault(slot.variant_tag, []).append(slot.name)
    for tag, names in sorted(tags.items()):
        if len(names) < 2:
            continue
        keep = min(names, key=lambda n: (min(strains[n]), n))
        for name in names:
            if name != keep:
                matched.pop(name)
                strains.pop(name)
    covered = set()
    for slot in mnode.parts:
        if (slot.variant_tag is not None
                and len(matched.get(slot.name, [])) >= slot.multiplicity[0]):
            covered.add(slot.variant_tag)
    for slot in mnode.parts:
        have = len(matched.get(slot.name, []))
        if slot.variant_tag is not None:
            if slot.essential and slot.variant_tag not in covered:
                return None, strains
            continue
        if slot.essential and have < slot.multiplicity[0]:
            return None, strains
    return matched, strains


def scalar_drop_relation_offenders(ig, mnode, matched, cfg, projected, group_frame=None):
    while True:
        frames = {name: ig.nodes[keys[0]].frame for name, keys in matched.items()}
        worst = None
        for rel, s in relation_strains(mnode, mnode.relations, frames,
                                       cfg.s_fail, projected, group_frame):
            if s > cfg.s_fail and (worst is None or s > worst[0]):
                worst = (s, rel)
        if worst is None:
            return matched
        _, rel = worst
        optional = [op for op in rel.operands
                    if op in matched and not mnode.part(op).essential]
        if not optional:
            return None
        matched.pop(sorted(optional)[0])


def scalar_verify(h, ig, model, cfg, index):
    """`verify` without the wave's memos: the refit and its matching, and
    every relation strain, computed afresh; a duplicate member set found by
    walking every node."""
    projected = ig.projected
    mnode = model.node(h.group_type)
    (matched, strains), (rough, _) = rec._match_slots(index, model, mnode, h.transform,
                                                      cfg, projected, rough=True)
    transform = h.transform
    if rough:
        refit = rec._refit(mnode, rough, ig, h.transform, projected)
        (re_matched, re_strains), _ = rec._match_slots(index, model, mnode, refit, cfg,
                                                       projected)
        if rec._match_score(re_matched, re_strains) < rec._match_score(matched, strains):
            matched, strains, transform = re_matched, re_strains, refit
    if matched is None:
        return None
    try:
        if projected:
            frame = rec._aligned_projection(transform, mnode.frame_template)
        else:
            frame = transform.apply_frame(mnode.frame_template)
    except DegenerateFrameError:
        return None
    matched = scalar_drop_relation_offenders(ig, mnode, matched, cfg, projected, frame)
    if matched is None:
        return None
    member_set = frozenset(k for keys in matched.values() for k in keys)
    for node in ig.nodes.values():
        if node.model_type != h.group_type or node.status == "pruned":
            continue
        existing = frozenset(l.source for l in ig.links_to(node.key, "group-member"))
        if existing == member_set:
            return None
    group = ig.add_node(h.group_type, frame=frame, status="verified",
                        template_weight=group_weight(mnode, cfg.optional_weight))
    created = [group]
    for name in sorted(matched):
        for key in matched[name]:
            shadow = bind_member(ig, group.key, name, key)
            if shadow is not None:
                created.append(shadow)
    created.extend(rec._specialize(ig, model, group, matched, cfg, projected))
    return created


# -- side-by-side runs -------------------------------------------------------------


def _transform_bytes(t):
    if isinstance(t, rec.AffineCamera):
        return (t.linear.tobytes(), t.translation.tobytes())
    return (t.rotation.tobytes(), np.float64(t.scale).tobytes(), t.translation.tobytes())


def _hypothesis_fields(h):
    return (h.group_type, h.clue_a, h.clue_b, h.slots, h.screening_score,
            type(h.transform), _transform_bytes(h.transform))


def _failed_as_empty(side):
    """A failed side as `_match_slots` returns it: (None, {}). The scalar
    step keeps the strains of its partial binding, which `verify` never
    reads: a failed side only reaches `_match_score`, which ignores them."""
    matched, strains = side
    return (None, {}) if matched is None else (matched, strains)


def _frame_bytes(frame):
    return frame.origin.tobytes(), frame.axes.tobytes()


def _verified(created, ig, nodes_before, links_before):
    """What a verify call returned and added: the created nodes, and every
    node and link inserted, field by field, frames as bytes."""
    def fields(n):
        return (n.key, _frame_bytes(n.frame), n.probability, n.status, n.template_weight,
                n.spec_slot)

    return (None if created is None else [fields(n) for n in created],
            [fields(n) for n in itertools.islice(ig.nodes.values(), nodes_before, None)],
            [(l.kind, l.source, l.target, l.conditional, l.slot, l.carries_up, l.residuals)
             for l in ig.links[links_before:]])


def _run_side_by_side(monkeypatch, scene, model, cfg):
    """Recognize with both versions compared at every call; returns the
    number of waves, of compared slot matchings, of gated matchings that
    bound a variant-tagged slot, of compared verify calls, and of refits
    the memo served."""
    new_generate, new_match, new_verify = rec.generate_hypotheses, rec._match_slots, rec.verify
    refit = rec._refit
    seen = {"waves": 0, "matchings": 0, "variant_matchings": 0, "verifies": 0,
            "refit_hits": 0, "refits": 0}

    def generate(ig, model, frontier, cfg, index):
        got = new_generate(ig, model, frontier, cfg, index)
        want = scalar_generate_hypotheses(ig, model, frontier, cfg, index)
        assert [_hypothesis_fields(h) for h in got] == [_hypothesis_fields(h) for h in want]
        seen["waves"] += 1
        return got

    def match(index, model, mnode, transform, cfg, projected, rough=False):
        got = new_match(index, model, mnode, transform, cfg, projected, rough=rough)
        gated = _failed_as_empty(scalar_match_slots(index, model, mnode, transform, cfg,
                                                    projected))
        loose = (_failed_as_empty(scalar_match_slots(index, model, mnode, transform, cfg,
                                                     projected, strain_gate=False))
                 if rough else None)
        assert got == (gated, loose)
        seen["matchings"] += 1
        matched = got[0][0] or {}
        if any(slot.variant_tag is not None and slot.name in matched for slot in mnode.parts):
            seen["variant_matchings"] += 1
        return got

    def counted_refit(*args):
        seen["refits"] += 1
        return refit(*args)

    def verify(h, ig, model, cfg, index):
        # the memo-free body runs on a copy of the graph and the wave's
        # index, with the memos emptied; the model is shared
        ig_copy, index_copy = copy.deepcopy((ig, index), {id(model): model})
        index_copy.strains.clear()
        index_copy.refits.clear()
        before = len(ig.nodes), len(ig.links)
        start = seen["refits"]
        want = scalar_verify(h, ig_copy, model, cfg, index_copy)
        middle = seen["refits"]
        got = new_verify(h, ig, model, cfg, index)
        assert _verified(got, ig, *before) == _verified(want, ig_copy, *before)
        seen["verifies"] += 1
        seen["refit_hits"] += (middle - start) - (seen["refits"] - middle)
        return got

    monkeypatch.setattr(rec, "generate_hypotheses", generate)
    monkeypatch.setattr(rec, "_match_slots", match)
    monkeypatch.setattr(rec, "_refit", counted_refit)
    monkeypatch.setattr(rec, "verify", verify)
    rec.recognize(scene, model, cfg)
    return seen


@pytest.mark.parametrize("fixture, target, jitter, distractors, camera", [c[:5] for c in GOLDEN],
                         ids=[f"{c[0]}-{c[1]}-{c[2]}-{c[3]}-{c[4]}" for c in GOLDEN])
def test_golden_scenes_match_the_scalar_steps(monkeypatch, fixture, target, jitter,
                                              distractors, camera):
    scene, model = _scene(fixture, target, jitter, seed=5, distractors=distractors,
                          camera=camera)
    seen = _run_side_by_side(monkeypatch, scene, model, make_config())
    assert seen["waves"] >= 2 and seen["matchings"] > 0
    if fixture == "truck.json" and camera is None:
        assert seen["variant_matchings"] > 0


def test_the_side_by_side_set_binds_variant_tagged_slots():
    """truck.json's trunks share a variant tag, which the fast path leaves
    out of its essential slots; the plain 3D truck scene binds them."""
    assert [c[:5] for c in GOLDEN if c[0] == "truck.json" and c[4] is None]


def test_tiled_scene_matches_the_scalar_steps(monkeypatch):
    scene, model = _tiled_scene("truck_flat.json", "truck1", copies=4, jitter=0.03, seed=5)
    seen = _run_side_by_side(monkeypatch, scene, model, make_config())
    assert seen["waves"] >= 2 and seen["matchings"] > 0
    assert seen["refit_hits"] > 0


def test_tiled_faces_match_the_scalar_steps(monkeypatch):
    """Most face hypotheses of a wave repeat a rough matching: the memo
    serves their refits, and the relation check reads cached strains."""
    scene, model = _tiled_scene("face.json", "face", copies=4, jitter=0.03, seed=5)
    seen = _run_side_by_side(monkeypatch, scene, model, make_config())
    assert seen["waves"] >= 2 and seen["matchings"] > 0
    assert seen["refit_hits"] > 0


@pytest.mark.parametrize("overrides", [
    {"screen_min": 0.0},     # every screening passes: the bounds may skip nothing
    {"screen_min": 1.0},     # only a strain-free screening passes
    {"s_fail": 1.0},
    {"s_fail": 20.0},
    {"gate_radius": 0.5},    # the gate radius, not sigma_o * sqrt(s_fail), is the tighter
    {"gate_radius": 6.0},
], ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
@pytest.mark.parametrize("fixture, target, camera", [
    ("face.json", "face", None),
    ("truck_flat.json", "truck1", None),
    ("truck.json", "truck1", "random"),
])
def test_non_default_configs_match_the_scalar_steps(monkeypatch, overrides, fixture, target,
                                                    camera):
    scene, model = _scene(fixture, target, 0.03, seed=5,
                          distractors=0 if camera else 12, camera=camera)
    seen = _run_side_by_side(monkeypatch, scene, model, make_config(**overrides))
    assert seen["waves"] >= 1


# -- failing fast ----------------------------------------------------------------


def _face_scene(with_segments):
    """The face model's circle slots (and with `with_segments` its nose and
    mouth) as scene primitives in model coordinates: the identity transform
    predicts each slot onto its primitive."""
    model = load_model_file(fixture_path("face.json"))
    mnode = model.node("face")
    prims = [Primitive("circle", center=mnode.part(name).frame.origin,
                       radius=mnode.part(name).frame.primary_length)
             for name in ("head", "eye_1", "eye_2")]
    if with_segments:
        for name in ("nose", "mouth"):
            frame = mnode.part(name).frame
            prims.append(Primitive("linseg", p1=frame.origin - frame.axes[0],
                                   p2=frame.origin + frame.axes[0]))
    ig = rec.seed_image_graph(Scene(dim=2, primitives=prims, id="face-parts"), model)
    return model, mnode, rec.CandidateIndex(ig)


IDENTITY = SimilarityTransform(np.eye(2), 1.0, np.zeros(2))


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(rec, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(rec, name, counted)
    return calls


def test_an_unfillable_essential_slot_fails_both_sides_before_any_strain(monkeypatch):
    # no segment lies within the rough gate of the nose or the mouth
    model, mnode, index = _face_scene(with_segments=False)
    cfg = make_config()
    assert scalar_match_slots(index, model, mnode, IDENTITY, cfg, False)[0] is None
    predicted = _count_calls(monkeypatch, "_predict")
    strains = _count_calls(monkeypatch, "placement_strain")
    got = rec._match_slots(index, model, mnode, IDENTITY, cfg, False, rough=True)
    assert got == ((None, {}), (None, {}))
    assert not strains
    essential = [slot for slot in mnode.parts if slot.essential and slot.variant_tag is None]
    assert len(essential) < len(mnode.parts)  # the ears are optional
    assert [id(frame) for _, frame, _ in predicted] == [id(slot.frame) for slot in essential]
    assert rec._match_slots(index, model, mnode, IDENTITY, cfg, False) == ((None, {}), None)
    assert not strains


def test_a_degenerate_optional_prediction_fails_both_sides(monkeypatch):
    model, mnode, index = _face_scene(with_segments=True)
    cfg = make_config()
    (matched, _), (rough, _) = rec._match_slots(index, model, mnode, IDENTITY, cfg, False,
                                                rough=True)
    assert set(matched) == set(rough) == {"head", "eye_1", "eye_2", "nose", "mouth"}
    ear = mnode.part("ear_1").frame
    predict = rec._predict

    def degenerate_ear(transform, frame, projected):
        if frame is ear:
            raise DegenerateFrameError("the ear's prediction has no valid frame")
        return predict(transform, frame, projected)

    monkeypatch.setattr(rec, "_predict", degenerate_ear)
    got = rec._match_slots(index, model, mnode, IDENTITY, cfg, False, rough=True)
    assert got == ((None, {}), (None, {}))
    assert _failed_as_empty(scalar_match_slots(index, model, mnode, IDENTITY, cfg,
                                               False)) == (None, {})
    assert rec._match_slots(index, model, mnode, IDENTITY, cfg, False) == ((None, {}), None)


# -- the per-wave memos ----------------------------------------------------------


def _rough(model, mnode, index):
    _, (rough, _) = rec._match_slots(index, model, mnode, IDENTITY, make_config(), False,
                                     rough=True)
    return rough


def test_the_refit_memo_hands_out_a_fresh_matched_map():
    model, mnode, index = _face_scene(with_segments=True)
    cfg = make_config()
    rough = _rough(model, mnode, index)
    calls = [rec._refit_matching(index, model, mnode, rough, IDENTITY, cfg, False)
             for _ in range(2)]
    assert len(index.refits) == 1
    (refit, (matched, strains)), (again, (matched_again, strains_again)) = calls
    assert again is refit and strains_again is strains
    assert matched_again == matched and matched_again is not matched
    matched.pop("nose")  # as the relation check unbinds an offender
    _, (third, _) = rec._refit_matching(index, model, mnode, rough, IDENTITY, cfg, False)
    assert "nose" in third


def test_a_node_that_fits_a_slot_retires_the_refit_memo_entry():
    model, mnode, index = _face_scene(with_segments=True)
    cfg = make_config()
    rough = _rough(model, mnode, index)
    _, (matched, _) = rec._refit_matching(index, model, mnode, rough, IDENTITY, cfg, False)
    assert "ear_1" not in matched
    # a shadow node or a node of a type no slot takes leaves the entry valid
    ear = mnode.part("ear_1").frame
    index.ig.add_node("circle", frame=ear, status="verified", spec_slot="c_1")
    index.ig.add_node("face", frame=ear, status="verified")
    _, (matched, _) = rec._refit_matching(index, model, mnode, rough, IDENTITY, cfg, False)
    assert "ear_1" not in matched and len(index.refits) == 1
    # a circle can be an ear: the next lookup refits and binds it
    index.ig.add_node("circle", frame=ear, status="verified")
    _, (matched, _) = rec._refit_matching(index, model, mnode, rough, IDENTITY, cfg, False)
    assert len(matched["ear_1"]) == 1 and len(index.refits) == 2


def test_a_refit_that_falls_back_is_not_kept():
    model, mnode, index = _face_scene(with_segments=True)
    one_slot = {"head": _rough(model, mnode, index)["head"]}
    got, _ = rec._refit_matching(index, model, mnode, one_slot, IDENTITY, make_config(), False)
    assert got is IDENTITY and not index.refits


def test_projected_row_resolved_strains_with_a_group_frame_are_not_cached():
    """In a projected scene a group frame picks the rows that size-ratio,
    distance-ratio, angle and parallel read, so their strain with a group
    frame is never served from, nor kept in, the screening cache."""
    model = load_model_file(fixture_path("truck.json"))
    mnode = model.node("box")
    cfg = make_config()
    rng = np.random.default_rng(11)
    differ = 0
    for rel in [r for r in mnode.relations if r.function in rec._ROW_RESOLVED]:
        for _ in range(20):
            ig = ImageGraph(projected=True)
            a, b = (ig.add_node("face", frame=_planar_frame(rng)) for _ in range(2))
            group_frame = _planar_frame(rng)
            index = rec.CandidateIndex(ig)
            frames = dict(zip(rel.operands, (a.frame, b.frame)))
            ((_, screening),) = relation_strains(mnode, [rel], frames, cfg.s_fail, True)
            ((_, checked),) = relation_strains(mnode, [rel], frames, cfg.s_fail, True,
                                               group_frame)
            differ += screening != checked
            for first in (None, group_frame), (group_frame, None):
                index.strains.clear()
                for g in first:
                    got = rec._relation_strain(index, mnode, rel, a, b, cfg.s_fail, True, g)
                    assert got == (screening if g is None else checked)
    assert differ  # the group frame changes some of these strains


def _planar_frame(rng):
    """A 2D frame with two nonzero axes under a random rotation."""
    t = rng.uniform(-math.pi, math.pi)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return Frame(rng.uniform(-1, 1, 2), np.diag(rng.uniform(0.2, 2.0, 2)) @ rot)


# -- the bounds never exceed the scalar strains ----------------------------------

finite = st.floats(-5.0, 5.0)
length = st.one_of(st.just(0.0), st.just(1.0), st.floats(1e-3, 10.0))


@st.composite
def frames(draw, dim):
    """A frame with random axis lengths, zero (degenerate) and equal (tied)
    ones included, under a random rotation."""
    lengths = draw(st.lists(length, min_size=dim, max_size=dim))
    if draw(st.booleans()):
        lengths[-1] = lengths[0]
    angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3))
    if dim == 2:
        c, s = math.cos(angles[0]), math.sin(angles[0])
        rot = np.array([[c, -s], [s, c]])
    else:
        rot = Rotation.from_rotvec(angles).as_matrix()
    origin = draw(st.lists(finite, min_size=dim, max_size=dim))
    return Frame(np.array(origin), np.diag(lengths) @ rot)


@st.composite
def frame_pairs(draw):
    dim = draw(st.sampled_from([2, 3]))
    a = draw(frames(dim))
    if draw(st.booleans()):
        # nearly coincident or nearly parallel pairs sit at the gates' edges
        eps = draw(st.floats(-1e-3, 1e-3))
        b = Frame(a.origin + eps, a.axes * draw(st.floats(0.5, 2.0)))
    else:
        b = draw(frames(dim))
    return a, b


def _scalar_strain(rel, a, b, s_fail, projected=False):
    ((_, s),) = relation_strains(None, [rel], {"a": a, "b": b}, s_fail, projected)
    return min(s, 1e6)


def _bound(rel, a, b, s_fail, projected=False):
    cols = rec._Columns.of([a]), rec._Columns.of([b])
    return min(float(rec._screening_bound(rel, *cols, s_fail, projected)[0]), 1e6)


@settings(max_examples=400, deadline=None)
@given(pair=frame_pairs(), sym=st.sampled_from(SYMMETRY_CLASSES),
       sigma=st.floats(0.01, 2.0), s_fail=st.floats(0.1, 50.0))
def test_origin_bound_never_exceeds_placement_strain(pair, sym, sigma, s_fail):
    pred, obs = pair
    if pred.primary_length == 0:
        return  # a prediction without extent is never matched
    d = rec._distance(obs.origin, pred.origin)
    strain = placement_strain(pred, obs, (sigma, 0.25, 0.25), sym)
    assert rec._origin_bound(d, sigma, pred.primary_length) <= strain
    # the tight near radius holds every instance that can pass the gate
    if strain <= s_fail:
        assert d <= sigma * math.sqrt(s_fail) * pred.primary_length * (1 + rec._PREFILTER_SLACK)


@settings(max_examples=600, deadline=None)
@given(pair=frame_pairs(),
       function=st.sampled_from(["size-ratio", "distance-ratio", "touch", "angle", "parallel"]),
       target=st.floats(0.0, 3.0), tolerance=st.floats(0.01, 2.0),
       s_fail=st.floats(0.1, 50.0), swap=st.booleans())
def test_screening_bounds_never_exceed_the_scalar_strain(pair, function, target, tolerance,
                                                         s_fail, swap):
    a, b = pair[::-1] if swap else pair
    if function in ("touch", "parallel"):
        target = True
    elif function == "angle":
        target = min(target, math.pi / 2)
    rel = RelationSpec(function, ("a", "b"), target, tolerance)
    assert _bound(rel, a, b, s_fail) <= _scalar_strain(rel, a, b, s_fail)
    if function == "touch":
        assert _bound(rel, a, b, s_fail, True) <= _scalar_strain(rel, a, b, s_fail, True)


def _segment(origin, half_axis):
    """A frame whose only nonzero row is `half_axis`, or None for a zero one."""
    axes = np.zeros((len(origin), len(origin)))
    axes[0] = half_axis
    return Frame(origin, axes) if np.any(half_axis != 0) else None


@settings(max_examples=400, deadline=None)
@given(dim=st.sampled_from([2, 3]),
       coords=st.lists(finite, min_size=12, max_size=12),
       parallel=st.booleans())
def test_segment_columns_match_the_scalar_kernels(dim, coords, parallel):
    ca, ha, cb, hb = (np.array(coords[k * 3:k * 3 + dim]) for k in range(4))
    if parallel:
        hb = 0.5 * ha
    a, b = _segment(ca, ha), _segment(cb, hb)
    assume(a is not None and b is not None)
    assume(a.primary_length > 0 and b.primary_length > 0)  # no underflow to zero
    cols = rec._Columns.of([a]), rec._Columns.of([b])
    assert cols[0].single[0] and cols[1].single[0]
    got = rec._segment_distances(*cols)[0]
    assert np.float64(got).tobytes() == np.float64(boundary_distance(a, b)).tobytes()
    assert rec._segment_angles(*cols)[0] == pytest.approx(angle_between(a, b), abs=1e-12)


# -- the stacked fits match the scalar ones byte for byte --------------------------


def _bytes(*arrays):
    return [np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays]


def _regular_polygon(k, dim, radius, angle):
    """k points on a circle: their covariance is isotropic in the plane."""
    t = angle + 2.0 * math.pi * np.arange(k) / k
    pts = np.zeros((k, dim))
    pts[:, 0], pts[:, 1] = radius * np.cos(t), radius * np.sin(t)
    return pts


@st.composite
def similarity_stacks(draw):
    """(n, k, d) stacks of model and image points. Besides general rows: rows
    whose model points coincide, rows whose image points coincide (a scale
    of zero up to the rounding of their mean, and exactly zero at the
    origin), and mirrored regular polygons: in 2D their scale is zero up to
    rounding, so it may come out negative."""
    dim = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 6))
    points = st.lists(finite, min_size=k * dim, max_size=k * dim)
    model, image, kinds = [], [], []
    for _ in range(n):
        x = np.array(draw(points)).reshape(k, dim)
        y = np.array(draw(points)).reshape(k, dim)
        kind = draw(st.sampled_from(["general", "model-coincident", "image-coincident",
                                     "image-at-origin", "mirror"]))
        if kind == "model-coincident":
            x[:] = x[0]
        elif kind == "image-coincident":
            y[:] = y[0]
        elif kind == "image-at-origin":
            y[:] = 0.0
        elif kind == "mirror" and k > 2:
            x = _regular_polygon(k, dim, draw(st.floats(0.1, 5.0)),
                                 draw(st.floats(-math.pi, math.pi)))
            y = x * np.array([1.0, -1.0, 1.0][:dim]) + y[0]
        model.append(x)
        image.append(y)
        kinds.append(kind)
    return np.array(model), np.array(image), kinds


@settings(max_examples=500, deadline=None)
@given(stack=similarity_stacks())
def test_stacked_similarities_match_the_scalar_fit(stack):
    model, image, kinds = stack
    fit = fit_similarities(model, image)
    for i, kind in enumerate(kinds):
        try:
            want, residual = scalar_fit_similarity(model[i], image[i])
        except UnderConstrainedError:
            assert not fit.ok[i]
            with pytest.raises(UnderConstrainedError):
                fit_similarity(model[i], image[i])
            continue
        assert fit.ok[i], kind
        expected = _bytes(want.rotation, want.scale, want.translation, residual)
        got = similarity_of(fit, i)
        assert _bytes(got.rotation, got.scale, got.translation, fit.residuals[i]) == expected
        one, one_residual = fit_similarity(model[i], image[i])
        assert _bytes(one.rotation, one.scale, one.translation, one_residual) == expected
    for i, kind in enumerate(kinds):
        if kind in ("model-coincident", "image-at-origin"):
            assert not fit.ok[i]


def test_a_rank_deficient_camera_is_skipped_even_at_the_lowest_residual():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 3))
    flat = np.array([[1.0, 2.0, 0.5], [2.0, 4.0, 1.0]])  # rank 1
    sets = np.array([x @ flat.T, rng.normal(size=(5, 2)), x @ flat.T + 1.0])
    residuals = [fit_affine(x, y)[1] for y in sets]
    assert residuals[0] < residuals[1] and residuals[2] < residuals[1]
    with pytest.raises(DegenerateFrameError):
        AffineCamera(*fit_affine(x, sets[0])[0])
    got = rec._fit_camera(x, sets)
    (linear, trans), _ = fit_affine(x, sets[1])
    assert _bytes(got.linear, got.translation) == _bytes(linear, trans)
