"""The column prefilters, stacked fits, wave-wide matchings and per-wave
memos of hypothesis generation and verification change no result.

`scalar_generate_hypotheses`, `scalar_match_slots` and `scalar_verify` are
the scalar recognizer steps they replaced: every clue pair and midx entry
screened by relation_strains, every screening that passes fitted one sign
assignment at a time (`scalar_fit_transform`), every instance within the
gate radius in the wave's snapshot scored by placement_strain (a rough
matching ranks by origin offset alone and scores nothing), and every
hypothesis matched, refitted one fit at a time (`scalar_refit`) and its
relations scored afresh when it is verified. The oracle tests run recognition with both
versions side by side at every wave and demand equal results; the property
tests check that each column bound stays at or below the scalar strain it
stands in for, that the stacked fits match the scalar ones byte for byte,
and that a fit round's column-built correspondence sets and best-row picks
are the per-head ones (`_correspondences`, `_first_lowest`).
The stacked slot predictions, their stacked `Frame` check and the seeded
segment frames are held to their scalar forms byte for byte too.
"""

import copy
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import dualgraph.belief as belief
import dualgraph.recognize as rec
from dualgraph.belief import (
    ROW_RESOLVED,
    bind_member,
    cond_probability,
    group_weight,
    placement_strain,
    relation_strains,
)
from dualgraph.config import make_config
from dualgraph.errors import DegenerateFrameError, UnderConstrainedError
from dualgraph.geometry import (
    _AXIS_RANGE,
    _ORTHO_TOL,
    AffineCamera,
    Frame,
    SimilarityTransform,
    angle_between,
    boundary_distance,
    canonicalize_frame,
    check_frames,
    fit_affine,
    fit_similarities,
    fit_similarity,
    frame_from_segment,
    project,
    similarity_of,
    unambiguous_axes,
)
from dualgraph.image import ImageGraph
from dualgraph.model import (
    RelationSpec,
    fixture_path,
    load_model,
    load_model_file,
    midx_lookup,
)
from dualgraph.scene import Primitive, Scene

from conftest import random_frame
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
    residual = float(np.sqrt((((scale * (rot @ x.T)).T + trans - y) ** 2).sum()))
    return xform, residual


def _fit_points(mframe, iframe, want):
    """Correspondence points contributed by one clue, the way the
    recognizer built them one head at a time.

    The origin always corresponds; axis tips correspond only at ranks where
    both the model slot and the image instance have an unambiguous axis
    (tied lengths make the canonical direction an artifact). Returns the
    model points and the image tip vectors to be sign-searched.
    """
    m_idx = unambiguous_axes(mframe, want)
    i_idx = unambiguous_axes(iframe, want)
    k = min(len(m_idx), len(i_idx))
    mpts = [mframe.origin]
    tips = []
    for j in range(k):
        mpts.append(mframe.origin + mframe.axes[m_idx[j]])
        tips.append(iframe.axes[i_idx[j]])
    return mpts, tips


def _correspondences(m1, m2, i1, i2, projected):
    """One head's model points (k, dm) and candidate image point sets
    (r, k, di), the r sets running over tip orders, then sign assignments:
    the per-head form of `rec._correspondence_sets`."""
    want = 2 if projected else 1
    mpts1, tips1 = _fit_points(m1, i1, want)
    mpts2, tips2 = _fit_points(m2, i2, want)
    n1, n2, dim = len(tips1), len(tips2), i1.dim
    orders1 = list(itertools.permutations(tips1)) if projected and n1 > 1 else [tips1]
    orders2 = list(itertools.permutations(tips2)) if projected and n2 > 1 else [tips2]
    n_orders, n_signs = len(orders1) * len(orders2), 2 ** (n1 + n2)
    tips = np.array([list(t1) + list(t2) for t1 in orders1 for t2 in orders2]
                    ).reshape(n_orders, 1, n1 + n2, dim)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n1 + n2))
                     ).reshape(1, n_signs, n1 + n2, 1)
    rows = n_orders * n_signs
    signed = (signs * tips).reshape(rows, n1 + n2, dim)
    image = np.empty((rows, n1 + n2 + 2, dim))
    image[:, 0] = i1.origin
    image[:, 1:n1 + 1] = i1.origin + signed[:, :n1]
    image[:, n1 + 1] = i2.origin
    image[:, n1 + 2:] = i2.origin + signed[:, n1:]
    return np.array(mpts1 + mpts2), image


def _first_lowest(residuals, usable):
    """Index of the row the sequential search "keep the first usable row,
    replace it only by a strictly lower residual" ends on, or None: the
    per-set form of `rec._best_rows`."""
    rows = np.flatnonzero(usable)
    if not len(rows):
        return None
    res = residuals[rows]
    if np.isnan(res[0]):
        return int(rows[0])
    return int(rows[np.argmin(np.where(np.isnan(res), np.inf, res))])


def scalar_fit_transform(m1, m2, i1, i2, projected):
    """Best transform taking the two model slot frames onto the clue frames.

    Image axis directions are sign-ambiguous (a segment has no arrow), so
    every sign assignment of the usable tips is tried and the lowest-residual
    fit wins. Projected mode fits an affine camera instead of a similarity;
    there the tip order is searched too, because shear can swap which image
    axis comes out longest, so rank no longer pins the correspondence.
    """
    want = 2 if projected else 1
    mpts1, tips1 = _fit_points(m1, i1, want)
    mpts2, tips2 = _fit_points(m2, i2, want)
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


def scalar_generate_hypotheses(model, frontier, cfg, index):
    projected = index.ig.projected
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
                for _, s in relation_strains(ImageGraph(projected=projected), mnode,
                                             entry.screening, frames, cfg.s_fail):
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


def scalar_predict(transform, frame, projected):
    """One slot's prediction as a checked `Frame`, the step that
    `rec._predict_slots` stacks; raises DegenerateFrameError."""
    return project(transform, frame) if projected else transform.apply_frame(frame)


def scalar_match_slots(index, model, mnode, transform, cfg, projected, strain_gate=True):
    """The gated matching, or with `strain_gate` False the rough one, of
    one transform: (matched, ranks), where a gated candidate ranks by its
    placement strain and a rough one by its origin offset over the
    predicted scale, and a variant tag keeps its best-ranked slot."""
    predictions = {}
    for slot in mnode.parts:
        try:
            predictions[slot.name] = scalar_predict(transform, slot.frame, projected)
        except DegenerateFrameError:
            return None, {}
    live = [(slot, predictions[slot.name]) for slot in mnode.parts
            if predictions[slot.name].primary_length > 0]
    candidates = []
    for slot, pred in live:
        scale = pred.primary_length
        fits = model.abstract.get(slot.type_name, frozenset())
        for node in index.nodes:
            if node.status == "pruned" or node.spec_slot is not None:
                continue
            if node.model_type not in fits:
                continue
            d = rec._distance(node.frame.origin, pred.origin)
            if d > cfg.gate_radius * scale:
                continue
            rank = d / scale
            if strain_gate:
                sym = model.node(node.model_type).symmetry_class
                rank = placement_strain(pred, node.frame, slot.elasticity, sym)
                if rank > cfg.s_fail:
                    continue
            candidates.append((rank, slot.name, node.key))
    candidates.sort()
    matched = {}
    ranks = {}
    used = set()
    limits = {slot.name: slot.multiplicity for slot in mnode.parts}
    for rank, name, key in candidates:
        if key in used:
            continue
        lo, hi = limits[name]
        if hi is not None and len(matched.get(name, [])) >= hi:
            continue
        matched.setdefault(name, []).append(key)
        ranks.setdefault(name, []).append(rank)
        used.add(key)
    tags = {}
    for slot in mnode.parts:
        if slot.variant_tag is not None and slot.name in matched:
            tags.setdefault(slot.variant_tag, []).append(slot.name)
    for tag, names in sorted(tags.items()):
        if len(names) < 2:
            continue
        keep = min(names, key=lambda n: (min(ranks[n]), n))
        for name in names:
            if name != keep:
                matched.pop(name)
                ranks.pop(name)
    covered = set()
    for slot in mnode.parts:
        if (slot.variant_tag is not None
                and len(matched.get(slot.name, [])) >= slot.multiplicity[0]):
            covered.add(slot.variant_tag)
    for slot in mnode.parts:
        have = len(matched.get(slot.name, []))
        if slot.variant_tag is not None:
            if slot.essential and slot.variant_tag not in covered:
                return None, ranks
            continue
        if slot.essential and have < slot.multiplicity[0]:
            return None, ranks
    return matched, ranks


def scalar_drop_relation_offenders(ig, mnode, matched, cfg, projected, group_frame=None):
    while True:
        frames = {name: ig.nodes[keys[0]].frame for name, keys in matched.items()}
        worst = None
        for rel, s in relation_strains(ImageGraph(projected=projected), mnode,
                                       mnode.relations, frames, cfg.s_fail, group_frame):
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


def _match(index, model, mnode, transform, cfg, projected):
    """The gated and the rough matching of one transform, predicted alone."""
    (queries,) = rec._predict_slots(index, model, mnode, [transform], cfg, projected)
    return (rec._gated_matching(index, model, mnode, queries, cfg),
            rec._rough_matching(index, mnode, queries, cfg))


def scalar_refit(mnode, matched, ig, transform, projected):
    """The transform re-estimated from every matched slot's origin, one fit
    at a time; the original transform when the refit is degenerate."""
    mpts = np.array([mnode.part(name).frame.origin for name in sorted(matched)])
    ipts = np.array([ig.nodes[matched[name][0]].frame.origin for name in sorted(matched)])
    if len(mpts) < 2:
        return transform
    try:
        if projected:
            (linear, trans), _ = fit_affine(mpts, ipts)
            return AffineCamera(linear, trans)
        return scalar_fit_similarity(mpts, ipts)[0]
    except (UnderConstrainedError, DegenerateFrameError):
        return transform


def scalar_verify(h, model, cfg, index):
    """`verify` without the wave's batches and memos: the slot predictions,
    the refit and its matching, and every relation strain, computed afresh
    at the time of the call; a degenerate refit falls back to the
    hypothesis's transform; a duplicate member set is found by walking every
    node."""
    ig = index.ig
    projected = ig.projected
    mnode = model.node(h.group_type)
    (matched, strains), rough = _match(index, model, mnode, h.transform, cfg, projected)
    transform = h.transform
    if rough:
        refit = scalar_refit(mnode, rough, ig, h.transform, projected)
        (re_matched, re_strains), _ = _match(index, model, mnode, refit, cfg, projected)
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
    created.extend(rec._specialize(ig, model, group, matched, cfg))
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
    """A failed gated matching as `_gated_matching` returns it: (None, {}).
    The scalar step keeps the strains of its partial binding, which
    `verify` never reads: a failed matching only reaches `_match_score`,
    which ignores them."""
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
    number of waves, of compared gated matchings, of those that bound a
    variant-tagged slot, of compared verify calls, and of rough matchings
    that shared their refit with an earlier one of their `_match_wave`
    call, and under "graph" the recognized graph. A gated matching is
    compared whole, a rough one by the members it binds, which is all that
    `_match_wave` reads of it.

    A matching's transform is the one its queries were predicted from:
    every query list `_predict_slots` returns is mapped to its transform,
    those of a wave's hypotheses and of its refits alike."""
    new_generate, new_verify = rec.generate_hypotheses, rec.verify
    new_gated, new_rough = rec._gated_matching, rec._rough_matching
    new_predict, new_refits = rec._predict_slots, rec._refits
    seen = {"waves": 0, "matchings": 0, "variant_matchings": 0, "verifies": 0,
            "refit_hits": 0}
    # id of a query list -> (the list, kept alive so that its id stays
    # unique, and its transform)
    transforms = {}

    def generate(model, frontier, cfg, index):
        got = new_generate(model, frontier, cfg, index)
        want = scalar_generate_hypotheses(model, frontier, cfg, index)
        assert [_hypothesis_fields(h) for h in got] == [_hypothesis_fields(h) for h in want]
        seen["waves"] += 1
        return got

    def predict(index, model, mnode, batch, cfg, projected):
        got = new_predict(index, model, mnode, batch, cfg, projected)
        for transform, queries in zip(batch, got):
            if queries is not None:
                transforms[id(queries)] = queries, transform
        return got

    def scalar(index, mnode, queries, cfg, strain_gate):
        """The scalar matching of the transform `queries` were predicted
        from, or None for no queries: a degenerate prediction or a short
        essential slot, as the batched tests pin."""
        if queries is None:
            return None
        _, transform = transforms[id(queries)]
        return scalar_match_slots(index, model, mnode, transform, cfg, index.ig.projected,
                                  strain_gate)

    def gated(index, model, mnode, queries, cfg):
        got = new_gated(index, model, mnode, queries, cfg)
        want = scalar(index, mnode, queries, cfg, True)
        assert got == ((None, {}) if want is None else _failed_as_empty(want))
        seen["matchings"] += 1
        matched = got[0] or {}
        if any(slot.variant_tag is not None and slot.name in matched for slot in mnode.parts):
            seen["variant_matchings"] += 1
        return got

    def rough(index, mnode, queries, cfg):
        got = new_rough(index, mnode, queries, cfg)
        want = scalar(index, mnode, queries, cfg, False)
        assert got == (None if want is None else want[0])
        seen["refit_hits"] += got is not None
        return got

    def refits(ig, model, keys, projected):
        seen["refit_hits"] -= len(keys)
        return new_refits(ig, model, keys, projected)

    def verify(h, matching, model, cfg, index):
        # the batch- and memo-free body runs on a copy of the wave's index
        # and its graph, with the graph's strain memo emptied; the model is
        # shared
        index_copy = copy.deepcopy(index, {id(model): model})
        index_copy.ig.strains.clear()
        ig, ig_copy = index.ig, index_copy.ig
        before = len(ig.nodes), len(ig.links)
        hits = seen["refit_hits"]
        want = scalar_verify(h, model, cfg, index_copy)
        got = new_verify(h, matching, model, cfg, index)
        assert _verified(got, ig, *before) == _verified(want, ig_copy, *before)
        seen["verifies"] += 1
        # the oracle's matchings share no refit of the wave
        seen["refit_hits"] = hits
        return got

    monkeypatch.setattr(rec, "generate_hypotheses", generate)
    monkeypatch.setattr(rec, "_predict_slots", predict)
    monkeypatch.setattr(rec, "_gated_matching", gated)
    monkeypatch.setattr(rec, "_rough_matching", rough)
    monkeypatch.setattr(rec, "_refits", refits)
    monkeypatch.setattr(rec, "verify", verify)
    seen["graph"] = rec.recognize(scene, model, cfg)
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
    """Most face hypotheses of a wave repeat a rough matching: they share
    one refit, and the relation check reads cached strains."""
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


def _face_parts(mnode, with_segments, circles=("head", "eye_1", "eye_2")):
    """The face model's `circles` slots (and with `with_segments` its nose
    and mouth) as scene primitives in model coordinates: the identity
    transform predicts each slot onto its primitive."""
    prims = [Primitive("circle", center=mnode.part(name).frame.origin,
                       radius=mnode.part(name).frame.primary_length)
             for name in circles]
    if with_segments:
        for name in ("nose", "mouth"):
            frame = mnode.part(name).frame
            prims.append(Primitive("linseg", p1=frame.origin - frame.axes[0],
                                   p2=frame.origin + frame.axes[0]))
    return prims


def _face_scene(with_segments):
    model = load_model_file(fixture_path("face.json"))
    mnode = model.node("face")
    scene = Scene(dim=2, primitives=_face_parts(mnode, with_segments), id="face-parts")
    return model, mnode, rec.CandidateIndex(rec.seed_image_graph(scene, model))


IDENTITY = SimilarityTransform(np.eye(2), 1.0, np.zeros(2))


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(rec, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(rec, name, counted)
    return calls


def test_an_unfillable_essential_slot_fails_both_sides_before_any_strain(monkeypatch):
    # no segment lies within the gate radius of the nose or the mouth
    model, mnode, index = _face_scene(with_segments=False)
    cfg = make_config()
    assert scalar_match_slots(index, model, mnode, IDENTITY, cfg, False)[0] is None
    strains = _count_calls(monkeypatch, "placement_strain")
    assert _match(index, model, mnode, IDENTITY, cfg, False) == ((None, {}), None)
    assert not strains


def test_a_degenerate_optional_prediction_fails_both_sides(monkeypatch):
    model, mnode, index = _face_scene(with_segments=True)
    cfg = make_config()
    (matched, _), rough = _match(index, model, mnode, IDENTITY, cfg, False)
    assert set(matched) == set(rough) == {"head", "eye_1", "eye_2", "nose", "mouth"}
    ear = mnode.part("ear_1").frame
    row = [slot.name for slot in mnode.parts].index("ear_1")
    check, predict = rec.check_frames, scalar_predict

    def degenerate_ear(origins, axes):
        # the stacked check rejects the ear's row of the one transform
        ok, lengths = check(origins, axes)
        ok[row] = False
        return ok, lengths

    def degenerate_scalar_ear(transform, frame, projected):
        if frame is ear:
            raise DegenerateFrameError("the ear's prediction has no valid frame")
        return predict(transform, frame, projected)

    monkeypatch.setattr(rec, "check_frames", degenerate_ear)
    monkeypatch.setitem(globals(), "scalar_predict", degenerate_scalar_ear)
    assert _match(index, model, mnode, IDENTITY, cfg, False) == ((None, {}), None)
    assert _failed_as_empty(scalar_match_slots(index, model, mnode, IDENTITY, cfg,
                                               False)) == (None, {})


def test_an_optional_member_that_fails_a_relation_is_unbound(monkeypatch):
    """ear_2 is half an ear at its slot origin: its placement strain stays
    under s_fail, but size-ratio(head, ear_2) does not, so the relation
    check unbinds the optional ear and the face keeps ear_1. A scalar
    relation is the offender: a failed boolean one costs exactly s_fail,
    which is not worse than s_fail."""
    model = load_model_file(fixture_path("face.json"))
    mnode = model.node("face")
    cfg = make_config()
    slot = mnode.part("ear_2")
    small = Frame(slot.frame.origin, slot.frame.axes / 2.0)
    placement = placement_strain(slot.frame, small, slot.elasticity, "circle")
    (size_ratio,) = [r for r in mnode.relations
                     if r.function == "size-ratio" and r.operands == ("head", "ear_2")]
    ((_, relation),) = relation_strains(ImageGraph(), mnode, [size_ratio], {
        "head": mnode.part("head").frame, "ear_2": small}, cfg.s_fail)
    assert 7.6 < placement < cfg.s_fail < 11.0 < relation < 11.2
    prims = _face_parts(mnode, True, ("head", "eye_1", "eye_2", "ear_1")) + [
        Primitive("circle", center=small.origin, radius=small.primary_length)]
    unbound = []
    drop = rec._drop_relation_offenders

    def dropping(index, mnode, matched, *args):
        before = set(matched)
        kept = drop(index, mnode, matched, *args)
        if kept is not None:
            unbound.extend(before - set(kept))
        return kept

    monkeypatch.setattr(rec, "_drop_relation_offenders", dropping)
    seen = _run_side_by_side(monkeypatch, Scene(dim=2, primitives=prims, id="small-ear"),
                             model, cfg)
    ig = seen["graph"]
    assert "ear_2" in unbound
    faces = [n for n in ig.nodes.values() if n.model_type == "face" and n.status != "pruned"]
    assert faces
    for face in faces:
        slots = {l.slot for l in ig.links_to(face.key, "group-member")}
        assert "ear_1" in slots and "ear_2" not in slots


def test_a_gated_row_beyond_the_exact_gate_radius_is_skipped():
    """At gate_radius 0.5, under sigma_o sqrt(s_fail) = 0.75, the radius
    binds. An ear just beyond 0.5 predicted primary lengths passes the slot
    gate, which spares `_PREFILTER_SLACK`, and its placement strain (about
    4) is within s_fail, so only the exact radius rejects it."""
    model = load_model_file(fixture_path("face.json"))
    mnode = model.node("face")
    cfg = make_config(gate_radius=0.5)
    slot = mnode.part("ear_1").frame
    far = slot.origin - np.array([cfg.gate_radius * slot.primary_length * (1.0 + 1e-8), 0.0])
    prims = _face_parts(mnode, True) + [Primitive("circle", center=far,
                                                  radius=slot.primary_length)]
    index = rec.CandidateIndex(rec.seed_image_graph(Scene(dim=2, primitives=prims,
                                                          id="far-ear"), model))
    (queries,) = rec._predict_slots(index, model, mnode, [IDENTITY], cfg, False)
    (ear,) = [q for q in queries if q.slot.name == "ear_1"]
    (row,) = ear.gated.tolist()
    node = index.nodes[row]
    reach = cfg.gate_radius * slot.primary_length
    assert rec._distance(node.frame.origin, ear.pred.origin) > reach
    assert placement_strain(ear.pred, node.frame, ear.slot.elasticity, "circle") < cfg.s_fail
    (matched, _), _ = _match(index, model, mnode, IDENTITY, cfg, False)
    assert set(matched) == {"head", "eye_1", "eye_2", "nose", "mouth"}
    assert matched == scalar_match_slots(index, model, mnode, IDENTITY, cfg, False)[0]


# -- the wave's matchings and memos ------------------------------------------------


def _rough(model, mnode, index):
    return _match(index, model, mnode, IDENTITY, make_config(), False)[1]


def _face_hypotheses(index, transforms=(IDENTITY,)):
    """Face hypotheses with `transforms`, each suggested by the head and
    eye_1 primitives."""
    head, eye = (n.key for n in index.nodes[:2])
    return [rec.Hypothesis("face", head, eye, ("head", "eye_1"), t, 1.0) for t in transforms]


def test_the_refit_memo_hands_out_a_fresh_matched_map(monkeypatch):
    """Hypotheses with one rough matching share one refit and its gated
    matching, and each verify unbinds from its own copy of the matched map,
    even when the wave hands two hypotheses one matching."""
    model, mnode, index = _face_scene(with_segments=True)
    cfg = make_config()
    hypotheses = _face_hypotheses(index, (IDENTITY, IDENTITY))
    refits = _count_calls(monkeypatch, "_refits")
    predictions = _count_calls(monkeypatch, "_predict_slots")
    gated = _count_calls(monkeypatch, "_gated_matching")
    rough = _count_calls(monkeypatch, "_rough_matching")
    matchings = rec._match_wave(index, model, hypotheses, cfg)
    ((_, _, keys, _),) = refits
    assert len(keys) == 1
    # one prediction of the hypotheses and one of the shared refit
    assert [len(call[3]) for call in predictions] == [2, 1]
    assert len(rough) == 2 and len(gated) == 3
    assert all("nose" in matched for matched, _, _ in matchings)
    given = []
    drop = rec._drop_relation_offenders

    def dropping(index, mnode, matched, *args):
        given.append(matched)
        kept = drop(index, mnode, matched, *args)
        kept.pop("nose")  # as the relation check unbinds an offender
        return kept

    monkeypatch.setattr(rec, "_drop_relation_offenders", dropping)
    for h in hypotheses:
        rec.verify(h, matchings[0], model, cfg, index)
    assert len(given) == 2 and given[0] is not given[1]
    assert all(matched is not matchings[0][0] for matched in given)
    assert "nose" in matchings[0][0]


def test_a_refit_that_falls_back_is_not_kept(monkeypatch):
    """A refit from one slot, or onto coincident image points, is dropped,
    and a hypothesis whose refit is dropped keeps its gated matching and
    its own transform."""
    model, mnode, index = _face_scene(with_segments=True)
    cfg = make_config()
    rough = _rough(model, mnode, index)
    head = ("head", tuple(rough["head"]))
    full = tuple((name, tuple(rough[name])) for name in sorted(rough))
    keys = [("face", (head,)), ("face", (("eye_1", head[1]), head)), ("face", full)]
    one, coincident, usable = rec._refits(index.ig, model, keys, False)
    assert one is None and coincident is None and usable is not None
    monkeypatch.setattr(rec, "_refits", lambda ig, model, keys, projected: [None] * len(keys))
    predictions = _count_calls(monkeypatch, "_predict_slots")
    (matched, strains, transform), = rec._match_wave(index, model, _face_hypotheses(index), cfg)
    assert len(predictions) == 1 and transform is IDENTITY  # no refit is predicted
    gated, _ = _match(index, model, mnode, IDENTITY, cfg, False)
    assert (matched, strains) == gated


def test_a_rough_matching_keeps_its_best_ranked_variant():
    """truck.json's trunk-a and trunk-b share a variant tag. `near` sits by
    trunk-a's origin with trunk-b's shape, and `fit` is trunk-b a little
    off its origin. Each ranks first in its own slot, so a matching binds
    both, and the tie-break keeps the tagged slot with the best rank: the
    rough matching, which ranks by origin offset over the predicted scale,
    keeps trunk-a, whose placement strain is the worse, and the gated one,
    which ranks by placement strain, keeps trunk-b."""
    model = load_model_file(fixture_path("truck.json"))
    mnode = model.node("truck")
    ig = ImageGraph(scene_id="trunks", model=model)
    short = np.diag([1.2, 1.0, 1.0])
    cab, near, fit = (ig.add_node("box", frame=Frame(np.array([x, 0.0, 0.0]), axes),
                                  status="verified")
                      for x, axes in ((-2.0, np.eye(3)), (1.05, short), (0.32, short)))
    index = rec.CandidateIndex(ig)
    cfg = make_config()
    identity = SimilarityTransform(np.eye(3), 1.0, np.zeros(3))

    def rank(name, node):
        frame = mnode.part(name).frame
        return rec._distance(node.frame.origin, frame.origin) / frame.primary_length

    def strain(name, node):
        slot = mnode.part(name)
        return placement_strain(slot.frame, node.frame, slot.elasticity, "box")

    assert rank("trunk-a", near) < rank("trunk-b", fit) < min(rank("trunk-a", fit),
                                                              rank("trunk-b", near))
    assert strain("trunk-b", fit) < strain("trunk-a", near) < min(strain("trunk-a", fit),
                                                                  strain("trunk-b", near))
    assert strain("trunk-b", near) < cfg.s_fail
    (matched, _), rough = _match(index, model, mnode, identity, cfg, False)
    assert rough == {"cab": [cab.key], "trunk-a": [near.key]}
    assert rough == scalar_match_slots(index, model, mnode, identity, cfg, False,
                                       strain_gate=False)[0]
    assert matched == {"cab": [cab.key], "trunk-b": [fit.key]}


@pytest.mark.parametrize("fixture, target", [("face.json", "face"), ("truck_flat.json", "truck1")])
@pytest.mark.parametrize("jitter", [0.0, 0.03])
def test_a_transforms_tight_matching_is_the_gated_side_of_its_rough_one(monkeypatch, fixture,
                                                                        target, jitter):
    """Why `_match_wave` may drop a degenerate refit: the transform would
    fall back to the hypothesis's own, and the gated matching of that
    transform, predicted alone, is the one the wave made from the queries
    of its rough matching, which an equal score never beats. Checked for
    every transform the seed-1 clutter bench scenes predict, at the
    snapshot of each wave."""
    scene, model = _scene(fixture, target, jitter, seed=1, distractors=128)
    predict = rec._predict_slots
    seen = {"transforms": 0, "matched": 0}

    def predicting(index, model, mnode, transforms, cfg, projected):
        got = predict(index, model, mnode, transforms, cfg, projected)
        for transform, queries in zip(transforms, got):
            (alone,) = predict(index, model, mnode, [transform], cfg, projected)
            gated = rec._gated_matching(index, model, mnode, queries, cfg)
            assert rec._gated_matching(index, model, mnode, alone, cfg) == gated
            seen["transforms"] += 1
            seen["matched"] += gated[0] is not None
        return got

    monkeypatch.setattr(rec, "_predict_slots", predicting)
    rec.recognize(scene, model)
    assert seen["transforms"] > 50 and seen["matched"] > 0


def test_projected_row_resolved_strains_are_kept_per_group_frame(monkeypatch):
    """In a projected scene a group frame picks the rows that size-ratio,
    distance-ratio, angle and parallel read, through the group type's
    template and the relation's operands, so the scene's strain memo keys
    such a strain by all three as well: the same group frame is served from
    the memo, while another group frame, other operands or another group
    type is scored again and matches a memo-free strain bit for bit."""
    model = load_model_file(fixture_path("truck.json"))
    mnode = model.node("rectangle")
    template = mnode.frame_template
    # the same parts under a turned template, which resolves other rows
    turn = Rotation.from_rotvec([0.0, 0.0, 0.7]).as_matrix()
    other_type = dataclasses.replace(mnode, type_name="turned_rectangle", pinv_cache={},
                                     frame_template=Frame(template.origin, template.axes @ turn.T))
    cfg = make_config()
    scored = []
    contextual = belief.contextual_relation_strain

    def counted(*args):
        scored.append(args)
        return contextual(*args)

    monkeypatch.setattr(belief, "contextual_relation_strain", counted)

    def strain(node, rel, frames, group_frame, ig):
        ((_, s),) = relation_strains(ig, node, [rel], dict(zip(rel.operands, frames)),
                                     cfg.s_fail, group_frame)
        return np.float64(s).tobytes()

    crossed = {"side1": "side3", "side2": "side4", "side3": "side1", "side4": "side2"}
    rng = np.random.default_rng(11)
    differ = {"group frame": 0, "operands": 0, "group type": 0}
    for rel in [r for r in mnode.relations
                if r.function in ROW_RESOLVED and belief.relation_usable(r, mnode, True)]:
        # the same spec on a side that crosses the second operand
        first, second = rel.operands
        crossing = RelationSpec(rel.function, (first, crossed[second]), rel.target,
                                rel.tolerance)
        for _ in range(20):
            a, b, group_frame, other_frame = (_planar_frame(rng) for _ in range(4))
            cases = {"screening": (mnode, rel, None), "base": (mnode, rel, group_frame),
                     "group frame": (mnode, rel, other_frame),
                     "operands": (mnode, crossing, group_frame),
                     "group type": (other_type, rel, group_frame)}
            if not belief.relation_usable(crossing, mnode, True):
                del cases["operands"]  # a relation projection spoils is never scored
            ig, got = ImageGraph(projected=True), {}
            for name, (node, r, g) in cases.items():
                want = strain(node, r, (a, b), g, ImageGraph(projected=True))
                scored.clear()
                got[name] = strain(node, r, (a, b), g, ig)
                assert len(scored) == 1 and got[name] == want, name
                scored.clear()
                assert strain(node, r, (a, b), g, ig) == want and not scored, name
            for name in differ:
                differ[name] += name in got and got[name] != got["base"]
            assert len(ig.strains) == len(cases)
    assert all(differ.values()), differ  # each part of the key changes some strains


def _planar_frame(rng):
    """A 2D frame with two nonzero axes under a random rotation."""
    t = rng.uniform(-math.pi, math.pi)
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return Frame(rng.uniform(-1, 1, 2), np.diag(rng.uniform(0.2, 2.0, 2)) @ rot)


def test_each_screening_bound_is_computed_once_per_spec_and_sides(monkeypatch):
    """truck_flat's rectangle repeats the spec touch tol 0.12 in four midx
    entries, each screened in both orientations; `_screened` screens a
    wave's pairs in one block and computes each column bound once per
    (wave, type pair) and (spec, operand sides). Checked over every wave of
    the seed-1 clutter truck_flat scene."""
    scene, model = _scene("truck_flat.json", "truck1", 0.03, seed=1, distractors=128)
    screened, bound = rec._screened, rec._screening_bound
    want = []  # per (wave, type pair) with a bound to compute: its distinct keys
    naive = 0  # bounds one per (entry, orientation, screening relation)
    calls = []  # (columns a, columns b, spec), which keeps the columns' ids unique

    def screening(index, model, pairs, cfg, projected):
        nonlocal naive
        nodes = index.nodes
        if pairs:
            types = {(nodes[i].model_type, nodes[j].model_type): None for i, j in pairs}
            for type_a, type_b in types:
                keys = set()
                for entry in midx_lookup(model.midx, type_a, type_b):
                    mnode = model.node(entry.hypothesis)
                    s1, s2 = entry.slots
                    fits1 = model.abstract.get(mnode.part(s1).type_name, frozenset())
                    fits2 = model.abstract.get(mnode.part(s2).type_name, frozenset())
                    for o, (ta, tb) in enumerate(((type_a, type_b), (type_b, type_a))):
                        if ta in fits1 and tb in fits2:
                            sides = {s1: o, s2: 1 - o}
                            keys |= {rel.spec + tuple(sides[op] for op in rel.operands)
                                     for rel in entry.screening}
                            naive += len(entry.screening)
                if keys:
                    want.append(keys)
        yield from screened(index, model, pairs, cfg, projected)

    def bounding(rel, a, b, s_fail, projected):
        calls.append((a, b, rel.spec))
        return bound(rel, a, b, s_fail, projected)

    monkeypatch.setattr(rec, "_screened", screening)
    monkeypatch.setattr(rec, "_screening_bound", bounding)
    rec.recognize(scene, model)
    # a (wave, type pair) takes its own two column sets, in the order of `want`
    got = {}
    for a, b, spec in calls:
        got.setdefault(frozenset((id(a), id(b))), []).append((spec, id(a), id(b)))
    got = list(got.values())
    assert [len(keys) for keys in got] == [len(keys) for keys in want]
    assert all(len(set(keys)) == len(keys) for keys in got)
    assert len(calls) < naive


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
    ((_, s),) = relation_strains(ImageGraph(projected=projected), None, [rel], {"a": a, "b": b},
                                 s_fail)
    return min(s, 1e6)


def _bound(rel, a, b, s_fail, projected=False):
    cols = rec._Columns.of([a]), rec._Columns.of([b])
    return min(float(rec._screening_bound(rel, *cols, s_fail, projected)[0]), 1e6)


@settings(max_examples=600, deadline=None)
@given(pair=frame_pairs(),
       function=st.sampled_from(["size-ratio", "distance-ratio", "touch", "inside", "angle",
                                 "parallel"]),
       target=st.floats(0.0, 3.0), tolerance=st.floats(0.01, 2.0),
       s_fail=st.floats(0.1, 50.0), swap=st.booleans())
def test_screening_bounds_never_exceed_the_scalar_strain(pair, function, target, tolerance,
                                                         s_fail, swap):
    a, b = pair[::-1] if swap else pair
    if function in ("touch", "inside", "parallel"):
        target = True
    elif function == "angle":
        target = min(target, math.pi / 2)
    rel = RelationSpec(function, ("a", "b"), target, tolerance)
    assert _bound(rel, a, b, s_fail) <= _scalar_strain(rel, a, b, s_fail)
    if function in ("touch", "inside"):
        assert _bound(rel, a, b, s_fail, True) <= _scalar_strain(rel, a, b, s_fail, True)


@settings(max_examples=600, deadline=None)
@given(pair=frame_pairs(), tolerance=st.floats(1e-6, 2.0), s_fail=st.floats(0.1, 50.0),
       signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
       direction=st.none() | st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
       stretch=st.one_of(st.floats(0.999, 1.001), st.floats(0.0, 3.0)),
       inner_size=st.sampled_from([0.0, 1e-3, 1.0]), scale=st.sampled_from([1.0, 1e-90, 1e150]))
def test_the_inside_bound_never_exceeds_the_scalar_strain(pair, tolerance, s_fail, signs,
                                                          direction, stretch, inner_size, scale):
    """The inner origin sits `stretch` times the distance to a corner of
    the outer extent plus slack, or, in a given direction, `stretch` times
    the bound's reach (outer rss plus sqrt(dim) slack), so many cases lie
    at the edge of the relation or of the bound; outers of every rank, zero
    axes included, inners down to a point, and scenes rescaled to either
    end of the range."""
    outer, inner = (Frame(f.origin * scale, f.axes * scale) for f in pair)
    dim = outer.dim
    slack = tolerance * outer.primary_length
    if direction is None:
        corner = (np.array(signs[:dim])[:, None] * outer.unit_dirs()).T @ (
            np.array(sorted(outer.lengths, reverse=True)) + slack)
        offset = corner * stretch
    else:
        direction = np.array(direction[:dim])
        assume(np.linalg.norm(direction) > 1e-3)
        reach = math.sqrt(float(outer.lengths @ outer.lengths)) + math.sqrt(dim) * slack
        offset = direction / np.linalg.norm(direction) * reach * stretch
    inner = Frame(outer.origin + offset, inner.axes * inner_size)
    rel = RelationSpec("inside", ("a", "b"), True, tolerance)
    for projected in (False, True):
        bound = _bound(rel, outer, inner, s_fail, projected)
        assert bound <= _scalar_strain(rel, outer, inner, s_fail, projected)
        if direction is not None and stretch > 1.0 + 1e-5 and outer.primary_length > 0:
            assert bound == s_fail


def _segment(origin, half_axis):
    """A frame whose only nonzero row is `half_axis`, or None for a zero one."""
    axes = np.zeros((len(origin), len(origin)))
    axes[0] = half_axis
    return Frame(origin, axes) if np.any(half_axis != 0) else None


@settings(max_examples=600, deadline=None)
@given(dim=st.sampled_from([2, 3]),
       coords=st.lists(finite, min_size=12, max_size=12),
       parallel=st.booleans(),
       scale=st.sampled_from([1.0, 1e80, 1e-90]))
# a half axis whose square underflows once the scene is rescaled to its longest
# component: second segment tiny, then first segment tiny and off the other's line
@example(dim=2, coords=[0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.267758854042544e-162, 0.0],
         parallel=False, scale=1e80)
@example(dim=2, coords=[1.0, 5.0, 0.0, 7.267758854042544e-162, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0],
         parallel=False, scale=1e80)
def test_segment_columns_match_the_scalar_kernels(dim, coords, parallel, scale):
    """Columns and scalar kernels agree, also at scales where the squared
    products the kernels form would overflow (1e80) or underflow (1e-90),
    and there the kernels give the scaled distance and the same angle."""
    ca, ha, cb, hb = (np.array(coords[k * 3:k * 3 + dim]) for k in range(4))
    if parallel:
        hb = 0.5 * ha
    a, b = _segment(ca, ha), _segment(cb, hb)
    assume(a is not None and b is not None)
    assume(a.primary_length > 0 and b.primary_length > 0)  # no underflow to zero
    if scale != 1.0:
        plain = boundary_distance(a, b), angle_between(a, b)
        a, b = (Frame(f.origin * scale, f.axes * scale) for f in (a, b))
        assume(a.primary_length > 0 and b.primary_length > 0)
        reach = scale * max(1.0, *map(abs, coords))
        assert boundary_distance(a, b) == pytest.approx(scale * plain[0], rel=1e-9,
                                                        abs=1e-9 * reach)
        assert angle_between(a, b) == pytest.approx(plain[1], abs=1e-9)
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


@st.composite
def fit_frames(draw, dim):
    """A frame for the correspondence sets: random lengths, at times one
    axis near another (a factor 0.85 to 1 of it, so tied within 10% or just
    not) and one of zero length, under a random rotation."""
    lengths = draw(st.lists(st.floats(1e-3, 10.0), min_size=dim, max_size=dim))
    i, j, k = draw(st.permutations(range(3)))
    if draw(st.booleans()) and max(i, j) < dim:
        lengths[j] = lengths[i] * draw(st.floats(0.85, 1.0))
    if draw(st.booleans()) and k < dim:
        lengths[k] = 0.0
    angles = draw(st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3))
    if dim == 2:
        c, s = math.cos(angles[0]), math.sin(angles[0])
        rot = np.array([[c, -s], [s, c]])
    else:
        rot = Rotation.from_rotvec(angles).as_matrix()
    origin = draw(st.lists(finite, min_size=dim, max_size=dim))
    return Frame(np.array(origin), np.diag(lengths) @ rot)


@st.composite
def fit_rounds(draw):
    """(quads, projected): a fit round's (model slot frame 1, model slot
    frame 2, clue frame 1, clue frame 2), drawn from small pools so that
    frames repeat across quads as slot and clue frames do. Plain mode views
    2D or 3D models in a scene of their dimension, projected mode 3D models
    in a 2D scene."""
    projected = draw(st.booleans())
    model_dim = 3 if projected else draw(st.sampled_from([2, 3]))
    slots = draw(st.lists(fit_frames(model_dim), min_size=1, max_size=4))
    clues = draw(st.lists(fit_frames(2 if projected else model_dim), min_size=1, max_size=4))
    pick = st.tuples(*(st.sampled_from(pool) for pool in (slots, slots, clues, clues)))
    return draw(st.lists(pick, min_size=1, max_size=8)), projected


@settings(max_examples=300, deadline=None)
@given(fit_round=fit_rounds())
def test_column_built_sets_are_the_per_head_ones(fit_round):
    """Each quad's stacked model points and image point sets equal the
    per-head `_correspondences` byte for byte, under the tip shape of its
    `_fit_points`, and each plain set's picked fit is the per-head stacked
    fit's `_first_lowest` row, bit for bit."""
    quads, projected = fit_round
    want_tips = 2 if projected else 1
    placed = []
    for (n1, n2), (members, model_pts, image_pts) in rec._correspondence_sets(
            quads, projected).items():
        assert model_pts.shape[0] == image_pts.shape[0] == len(members)
        fits = rec._best_fits(model_pts, image_pts, projected)
        for c, got_model, got_image, fit in zip(members, model_pts, image_pts, fits):
            m1, m2, i1, i2 = quads[c]
            assert (len(_fit_points(m1, i1, want_tips)[1]),
                    len(_fit_points(m2, i2, want_tips)[1])) == (n1, n2)
            want_model, want_image = _correspondences(m1, m2, i1, i2, projected)
            assert got_model.shape == want_model.shape and got_image.shape == want_image.shape
            assert _bytes(got_model, got_image) == _bytes(want_model, want_image)
            if projected:
                want = rec._fit_camera(want_model, want_image)
            else:
                one = fit_similarities(np.repeat(want_model[None], len(want_image), axis=0),
                                       want_image)
                best = _first_lowest(one.residuals, one.ok)
                want = None if best is None else similarity_of(one, best)
            assert (fit is None) == (want is None)
            if fit is not None:
                assert _transform_bytes(fit) == _transform_bytes(want)
            placed.append(c)
    assert sorted(placed) == list(range(len(quads)))


residual = st.one_of(st.sampled_from([0.0, 1.0, 2.0, math.nan, math.inf]),
                     st.floats(0.0, 10.0))


@settings(max_examples=500, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda r: st.lists(
    st.tuples(st.lists(residual, min_size=r, max_size=r),
              st.lists(st.booleans(), min_size=r, max_size=r)), min_size=1, max_size=6)))
def test_the_best_row_pick_is_the_sequential_one(rows):
    """`_best_rows` picks, per set, the row `_first_lowest` picks, or -1 for
    none, on residuals with ties, NaN and inf entries and unusable rows."""
    residuals = np.array([r for r, _ in rows])
    usable = np.array([u for _, u in rows])
    got = rec._best_rows(residuals, usable).tolist()
    want = [_first_lowest(r, u) for r, u in zip(residuals, usable)]
    assert got == [-1 if w is None else w for w in want]


# -- the stacked predictions and checks match the scalar ones byte for byte --------


def _checked_or_none(origin, axes):
    try:
        # lengths whose squares overflow are the rows' own; Frame takes them
        with np.errstate(over="ignore"):
            return Frame(origin, axes)
    except DegenerateFrameError:
        return None


def _edge_rows(dim):
    """(origin, axes, whether Frame accepts it) for rows at the edges of its
    checks: a NaN or infinite entry in the origin or the axes, and axes 0
    and 1 whose dot product is just inside or just outside `_ORTHO_TOL`
    times the product of their lengths (long axes) or times 1 (short)."""
    rows = []
    for bad in (math.nan, math.inf, -math.inf):
        origin = np.ones(dim)
        origin[-1] = bad
        rows.append((origin, np.eye(dim), False))
        axes = np.eye(dim)
        axes[0, -1] = bad
        rows.append((np.ones(dim), axes, False))
    for length in (1e3, 1.0, 1e-3):
        for factor in (0.5, 0.999, 1.001, 2.0):
            axes = np.eye(dim) * length
            axes[1, 0] = factor * _ORTHO_TOL * max(length * length, 1.0) / length
            rows.append((np.zeros(dim), axes, factor < 1.0))
    return rows


@pytest.mark.parametrize("dim", [2, 3])
def test_the_stacked_check_rejects_exactly_what_frame_rejects(dim):
    """check_frames against Frame(...) row by row: random frames, some with
    a zero axis, some skewed around the orthogonality tolerance, some
    scaled to lengths whose squares overflow or underflow, and the edge
    rows. A row that passes, built by Frame.from_checked, is the Frame
    bit for bit, lengths included."""
    rng = np.random.default_rng(dim)
    rows = []
    for k in range(400):
        frame = random_frame(rng, dim)
        axes = frame.axes.copy()
        if k % 4 == 1:
            axes[rng.integers(dim)] = 0.0
        elif k % 4 == 2:
            axes[1] += 10.0 ** rng.uniform(-12.0, -7.0) * rng.choice([-1.0, 1.0]) * axes[0]
        elif k % 4 == 3:
            axes *= 10.0 ** rng.uniform(-200.0, 200.0)
        rows.append((frame.origin, axes, None))
    rows += _edge_rows(dim)
    ok, lengths = check_frames(np.array([r[0] for r in rows]), np.array([r[1] for r in rows]))
    accepted = 0
    for (origin, axes, expected), passed, length in zip(rows, ok.tolist(), lengths.tolist()):
        want = _checked_or_none(origin, axes)
        assert passed == (want is not None)
        if expected is not None:
            assert passed == expected
        if want is not None:
            got = Frame.from_checked(origin, axes, tuple(length))
            assert _frame_bytes(got) == _frame_bytes(want)
            assert got._length_tuple == want._length_tuple
            assert got.primary_length == want.primary_length
            accepted += 1
    assert 0 < accepted < len(rows)


def q_tight(slot, cfg):
    """A slot's gated matching radius in predicted primary lengths."""
    return min(cfg.gate_radius, slot.elasticity[0] * math.sqrt(cfg.s_fail))


def scalar_rows(index, model, slot, pred, radius):
    """Brute force: the snapshot rows of the candidates of a type that fits
    `slot` within `radius` predicted primary lengths (with the prefilter
    slack) of its prediction, ascending; none for a prediction with no
    extent, which is never queried."""
    scale = pred.primary_length
    if scale == 0:
        return []
    fits = model.abstract.get(slot.type_name, frozenset())
    reach = scale * radius * (1.0 + rec._PREFILTER_SLACK)
    return [row for row, node in enumerate(index.nodes)
            if node.model_type in fits and rec._distance(node.frame.origin, pred.origin) <= reach]


def exact_rows(index, model, slot, pred, cfg):
    """The snapshot rows of the candidates of a type that fits `slot` that
    pass the gated matching's exact gate: within gate_radius predicted
    primary lengths of `pred` by `_distance`, and a placement strain within
    s_fail."""
    scale = pred.primary_length
    fits = model.abstract.get(slot.type_name, frozenset())
    return [row for row, node in enumerate(index.nodes)
            if node.model_type in fits
            and rec._distance(node.frame.origin, pred.origin) <= cfg.gate_radius * scale
            and placement_strain(pred, node.frame, slot.elasticity,
                                 model.node(node.model_type).symmetry_class) <= cfg.s_fail]


@pytest.mark.parametrize("fixture, target, camera, distractors", [
    ("face.json", "face", None, 128),
    ("truck_flat.json", "truck1", None, 128),
    ("truck.json", "truck1", "random", 0),
], ids=["face", "truck_flat", "truck-random-camera"])
def test_every_batched_prediction_is_the_scalar_one(monkeypatch, fixture, target, camera,
                                                     distractors):
    """On bench-corpus scenes (seed 1, jitter 0.03), every slot that
    `_predict_slots` predicts, in a wave's batch of hypotheses or of
    refits, is `apply_frame` or `project` of the slot frame bit for bit; a
    transform has no queries exactly when one of its scalar predictions
    raises or a brute-force search of the snapshot's nodes (`scalar_rows`)
    finds an essential slot short, and otherwise its queries are its slots
    with an extent, in part order, each holding the rows that search finds
    within the gate radius, and gated rows (`_Query.gated`) that lie within
    the slot's tight radius (`q_tight`) and hold every row that passes the
    exact gate (`exact_rows`). The hypothesis
    calls are one per wave and group type, on the transforms of the wave's
    hypotheses of that type in order, and the refit calls, made once the
    wave's refits are fitted, are one per wave and group type too."""
    scene, model = _scene(fixture, target, 0.03, seed=1, distractors=distractors, camera=camera)
    generate, predict, fit = rec.generate_hypotheses, rec._predict_slots, rec._refits
    seen = {"batches": 0, "predictions": 0, "refits": 0, "short": 0, "gated": 0, "rows": 0}
    waves, hypothesis_calls, refit_calls = [], [], []
    refitting = []

    def generating(model, frontier, cfg, index):
        hypotheses = generate(model, frontier, cfg, index)
        waves.append(hypotheses)
        refitting.clear()
        return hypotheses

    def refits(*args):
        refitting.append(True)
        return fit(*args)

    def checked(index, model, mnode, transforms, cfg, projected):
        got = predict(index, model, mnode, transforms, cfg, projected)
        seen["batches"] += len(transforms) > 1
        if not refitting:
            hypothesis_calls.append((len(waves), mnode.type_name, transforms))
        else:
            refit_calls.append((len(waves), mnode.type_name))
            seen["refits"] += len(transforms)
        assert len(got) == len(transforms)
        for transform, queries in zip(transforms, got):
            try:
                want = [(slot, scalar_predict(transform, slot.frame, projected))
                        for slot in mnode.parts]
            except DegenerateFrameError:
                assert queries is None
                continue
            short = [slot for slot, pred in want if len(scalar_rows(
                index, model, slot, pred, cfg.gate_radius
            )) < (slot.multiplicity[0] if slot.essential and slot.variant_tag is None else 0)]
            seen["short"] += bool(short)
            if short:
                assert queries is None
                continue
            want = [(slot, pred) for slot, pred in want if pred.primary_length > 0]
            assert [q.slot for q in queries] == [slot for slot, _ in want]
            for q, (_, pred) in zip(queries, want):
                assert _frame_bytes(q.pred) == _frame_bytes(pred)
                seen["rows"] += len(q.rows)
                assert q.pred._length_tuple == pred._length_tuple
                assert q.rows.tolist() == scalar_rows(index, model, q.slot, pred, cfg.gate_radius)
                gated = q.gated.tolist()
                assert gated == sorted(set(gated))
                assert set(gated) <= set(scalar_rows(index, model, q.slot, pred,
                                                     q_tight(q.slot, cfg)))
                assert set(gated) >= set(exact_rows(index, model, q.slot, pred, cfg))
                seen["gated"] += len(gated)
                seen["predictions"] += 1
        return got

    monkeypatch.setattr(rec, "generate_hypotheses", generating)
    monkeypatch.setattr(rec, "_refits", refits)
    monkeypatch.setattr(rec, "_predict_slots", checked)
    rec.recognize(scene, model)
    assert seen["batches"] > 0 and seen["predictions"] > 100 and seen["refits"] > 0
    assert seen["gated"] < seen["rows"]
    # truck_flat's distractor segments leave no essential slot short within
    # the gate radius; the other two scenes have short transforms
    assert seen["short"] > 0 or fixture == "truck_flat.json"
    assert len(set(refit_calls)) == len(refit_calls)
    want = []
    for wave, hypotheses in enumerate(waves, start=1):
        by_type = {}
        for h in hypotheses:
            by_type.setdefault(h.group_type, []).append(h.transform)
        want += [(wave, group_type, batch) for group_type, batch in by_type.items()]
    assert len(hypothesis_calls) == len(want)
    for (wave, group_type, batch), (want_wave, want_type, want_batch) in zip(hypothesis_calls,
                                                                             want):
        assert (wave, group_type) == (want_wave, want_type)
        assert len(batch) == len(want_batch)
        assert all(got is transform for got, transform in zip(batch, want_batch))


# one node type per symmetry class, and a group with one optional slot of each
GATE_TYPES = {"c": "circle", "s": "undirected-segment", "r": "rectangle", "b": "box",
              "n": "none"}


def _frame_doc(frame):
    return {"origin": frame.origin.tolist(), "axes": frame.axes.tolist()}


@st.composite
def gate_scenes(draw):
    """A 3D model whose group "g" has one optional slot per symmetry class,
    with random slot frames (zero and tied lengths included) and
    elasticities; a similarity at a scale from 1e-90 to 1e150; and
    candidates of every class placed about the predictions at the edge of
    the strain gate: origin and size offsets up to 1.2 times what s_fail
    allows, elongated circles (whose canonical scale is their mean radius)
    and frames too flat for their class among them."""
    scale = 10.0 ** draw(st.integers(-90, 150))
    s_fail = draw(st.floats(1.0, 25.0))
    part_frames, parts = {}, []
    for t in GATE_TYPES:
        frame = draw(frames(3))
        assume(frame.primary_length > 0)
        part_frames[t] = frame
        sigma = draw(st.tuples(st.floats(0.05, 2.0), st.floats(0.05, 2.0), st.floats(0.05, 2.0)))
        parts.append({"name": f"p_{t}", "type": t, "essential": False,
                      "frame": _frame_doc(frame), "elasticity": list(sigma)})
    unit = {"origin": [0, 0, 0], "axes": np.eye(3).tolist()}
    model = load_model({"root": "g", "dim": 3, "nodes": [
        *({"type": t, "symmetry": sym, "frame": unit} for t, sym in GATE_TYPES.items()),
        {"type": "g", "symmetry": "none", "frame": unit, "parts": parts}]})
    rot = Rotation.from_rotvec(draw(st.lists(st.floats(-3.0, 3.0), min_size=3,
                                             max_size=3))).as_matrix()
    shift = np.array(draw(st.lists(finite, min_size=3, max_size=3))) * scale
    transform = SimilarityTransform(rot, scale * math.exp(draw(st.floats(-1.0, 1.0))), shift)
    ig = ImageGraph(scene_id="gate", model=model)
    for _ in range(draw(st.integers(1, 12))):
        t = draw(st.sampled_from(sorted(GATE_TYPES)))
        try:
            pred = transform.apply_frame(part_frames[t])
        except DegenerateFrameError:  # past the axis range: the test checks the stacked path
            continue
        sigma_o, sigma_s, _ = model.node("g").part(f"p_{t}").elasticity
        reach = math.sqrt(s_fail)
        direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
        assume(np.linalg.norm(direction) > 1e-3)
        offset = draw(st.floats(0.0, 1.2)) * sigma_o * reach * pred.primary_length
        lengths = pred.primary_length * np.exp(draw(st.floats(-1.2, 1.2)) * sigma_s * reach
                                               * np.array([1.0, *draw(st.tuples(
                                                   st.floats(0.0, 1.0), st.floats(0.0, 1.0)))]))
        flat = draw(st.integers(0, 2))
        if flat:
            lengths[-flat:] = 0.0
        turn = Rotation.from_rotvec(draw(st.lists(st.floats(-3.0, 3.0), min_size=3,
                                                  max_size=3))).as_matrix()
        origin = pred.origin + direction / np.linalg.norm(direction) * offset
        axes = np.diag(lengths) @ turn
        try:
            frame = Frame(origin, axes)
        except DegenerateFrameError:
            # Frame owns the axis range, and rejects a candidate only past it
            assert np.abs(axes).max() > _AXIS_RANGE
            event("a candidate past the axis range is left out")
            continue
        ig.add_node(t, frame=frame, status="verified")
    return model, transform, make_config(s_fail=s_fail), rec.CandidateIndex(ig)


def _beyond_axis_range(transform, frame):
    """Whether `Frame` rejects the scalar prediction of `frame`, which it
    may do only for an entry past the axis range."""
    try:
        transform.apply_frame(frame)
    except DegenerateFrameError:
        assert np.abs(transform.scale * (frame.axes @ transform.rotation.T)).max() > _AXIS_RANGE
        return True
    return False


@settings(max_examples=300, deadline=None)
@given(case=gate_scenes())
def test_every_candidate_that_passes_the_exact_gate_survives_the_slot_gate(case):
    """The stacked path agrees with `Frame` on the axis range: a transform
    with a slot prediction past it gets no queries. Scales up to 1e150 keep
    the predictions inside it, but candidates can leave it."""
    model, transform, cfg, index = case
    (queries,) = rec._predict_slots(index, model, model.node("g"), [transform], cfg, False)
    if any(_beyond_axis_range(transform, part.frame) for part in model.node("g").parts):
        event("a slot prediction past the axis range")
        assert queries is None
        return
    assert queries is not None
    for q in queries:
        gated = q.gated.tolist()
        assert set(gated) <= set(q.rows.tolist())
        assert set(gated) >= set(exact_rows(index, model, q.slot, q.pred, cfg))


def _scored_once(monkeypatch, scene, model):
    """Recognize `scene`, checking that generate_hypotheses scores a
    screening once per wave for each signature and ordered clue pair, and
    that every screening that shares the score has the score of its own
    entry, scored without the memo. Returns, per wave and distinct key, the
    per-entry scores of its screenings."""
    screened, score = rec._screened, rec._screening_score
    waves = []
    scored = []  # per wave: the number of _screening_score calls

    def per_entry(index, entry, ca, cb, cfg):
        s1, s2 = entry.slots
        out = 1.0
        for _, s in relation_strains(ImageGraph(projected=index.ig.projected),
                                     model.node(entry.hypothesis), entry.screening,
                                     {s1: ca.frame, s2: cb.frame}, cfg.s_fail):
            out *= cond_probability(min(s, 1e6))
        return out

    def screening(index, model, pairs, cfg, projected):
        waves.append({})
        scored.append(0)
        for entry, (ca, cb), signature in screened(index, model, pairs, cfg, projected):
            want = per_entry(index, entry, ca, cb, cfg)
            waves[-1].setdefault((signature, ca.key, cb.key), []).append(want)
            yield entry, (ca, cb), signature

    def scoring(mnode, entry, ca, cb, cfg, index):
        got = score(mnode, entry, ca, cb, cfg, index)
        assert got == per_entry(index, entry, ca, cb, cfg)
        scored[-1] += 1
        return got

    monkeypatch.setattr(rec, "_screened", screening)
    monkeypatch.setattr(rec, "_screening_score", scoring)
    rec.recognize(scene, model)
    assert scored == [len(keys) for keys in waves]
    for keys in waves:
        assert all(len(set(scores)) == 1 for scores in keys.values())
    return waves


@pytest.mark.parametrize("fixture, target, camera, distractors", [
    ("face.json", "face", None, 32),
    ("truck_flat.json", "truck1", None, 32),
    ("truck.json", "truck1", "random", 0),
], ids=["face", "truck_flat", "truck-random-camera"])
def test_each_distinct_screening_is_scored_once(monkeypatch, fixture, target, camera,
                                                distractors):
    scene, model = _scene(fixture, target, 0.03, seed=1, distractors=distractors, camera=camera)
    waves = _scored_once(monkeypatch, scene, model)
    shared = [scores for keys in waves for scores in keys.values() if len(scores) > 1]
    assert shared or camera is not None  # plain scenes repeat screenings


def test_screenings_that_read_their_clues_the_other_way_round_are_scored_apart(monkeypatch):
    """The group's entries (a, b) and (a, c) screen by the same size-ratio
    spec, but (a, c)'s relation takes its operands in the other order, so
    on the same ordered clues the two score differently."""
    seg = {"origin": [0, 0], "axes": [[1, 0], [0, 0]]}
    model = load_model({"root": "pair", "dim": 2, "nodes": [
        {"type": "linseg", "symmetry": "undirected-segment", "frame": seg},
        {"type": "pair", "symmetry": "none", "frame": {"origin": [0, 0], "axes": [[1, 0], [0, 1]]},
         "parts": [{"name": "a", "type": "linseg", "frame": seg},
                   {"name": "b", "type": "linseg",
                    "frame": {"origin": [0, 1], "axes": [[0.5, 0], [0, 0]]}},
                   {"name": "c", "type": "linseg",
                    "frame": {"origin": [0, -1], "axes": [[2, 0], [0, 0]]}}],
         "relations": [["size-ratio", "a", "b", 2.0, 2.0], ["size-ratio", "c", "a", 2.0, 2.0]]}]})
    scene = Scene(dim=2, primitives=[Primitive("linseg", p1=[0.0, 0.0], p2=[2.0, 0.0]),
                                     Primitive("linseg", p1=[0.0, 1.0], p2=[1.0, 1.0])])
    (keys,) = _scored_once(monkeypatch, scene, model)[:1]
    assert len(keys) == 4 and all(len(scores) == 1 for scores in keys.values())
    assert len({scores[0] for scores in keys.values()}) == 2


def scalar_frame_from_segment(p1, p2):
    """The segment frame as `frame_from_segment` built it before: the half
    segment as the first axis, then canonicalized."""
    p1, p2 = np.asarray(p1, float), np.asarray(p2, float)
    axes = np.zeros((p1.size, p1.size))
    axes[0] = (p2 - p1) / 2.0
    return canonicalize_frame(Frame((p1 + p2) / 2.0, axes), "undirected-segment")


def test_segment_frames_are_built_canonical():
    """frame_from_segment, and the seeded frame of every segment of
    bench-corpus scenes, equal the canonicalized frames of the old path bit
    for bit: random segments in 2D and 3D, axis-aligned ones whose first
    nonzero component is negative (their negation makes -0.0 entries), and
    segments from the scenes. A half-extent that squares to 0 still raises."""
    rng = np.random.default_rng(12)
    ends = [(rng.normal(size=dim) * 10.0, rng.normal(size=dim) * 10.0)
            for dim in (2, 3) for _ in range(200)]
    ends += [(np.zeros(dim), np.eye(dim)[k] * sign) for dim in (2, 3) for k in range(dim)
             for sign in (1.0, -1.0)]
    for p1, p2 in ends:
        want = canonicalize_frame(scalar_frame_from_segment(p1, p2), "undirected-segment")
        got = frame_from_segment(p1, p2)
        assert _frame_bytes(got) == _frame_bytes(want)
        assert got._length_tuple == want._length_tuple
    for fixture, target in (("face.json", "face"), ("truck_flat.json", "truck1")):
        scene, model = _scene(fixture, target, 0.03, seed=1, distractors=128)
        ig = rec.seed_image_graph(scene, model)
        for node in ig.nodes.values():
            prim = scene.primitives[node.prim_index]
            if prim.kind == "linseg":
                want = canonicalize_frame(scalar_frame_from_segment(prim.p1, prim.p2),
                                          model.node("linseg").symmetry_class)
                assert _frame_bytes(node.frame) == _frame_bytes(want)
    tiny = (np.zeros(2), np.array([2e-170, -2e-170]))  # nonzero, but squares to 0
    for make in (frame_from_segment, scalar_frame_from_segment):
        with pytest.raises(DegenerateFrameError):
            make(*tiny)
