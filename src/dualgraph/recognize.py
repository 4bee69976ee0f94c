"""Scene recognition: growing an image graph upward from primitives.

Recognition is graph construction, not graph matching. Every model access is
a lookup by type name or by the hypothesis index key, never a traversal that
compares structures. The driver alternates bottom-up grouping hypotheses
(two nearby instances suggest a group via the index) with top-down
verification (predict every slot of the group, find the parts, bind them),
then lets belief propagation, relaxation, and pruning settle each wave.

A 3D model viewed in a 2D scene runs in projected mode: hypothesis
transforms are fitted affine cameras, predictions are projections, and only
affine-invariant relations are scored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .belief import (
    bind_member,
    cond_probability,
    group_weight,
    placement_strain,
    propagate,
    prune,
    refresh_conditionals,
    relation_strains,
    relation_usable,
    relax_frames,
)
from .config import Config
from .errors import DegenerateFrameError, SceneFormatError, UnderConstrainedError
from .geometry import (
    AffineCamera,
    Frame,
    canonicalize_frame,
    fit_affine,
    fit_similarity,
    project,
    unambiguous_axes,
)
from .image import ImageGraph
from .model import ModelGraph, midx_lookup
from .scene import Scene


@dataclass
class Hypothesis:
    """A candidate group suggested by two clue instances."""

    group_type: str
    clue_a: tuple
    clue_b: tuple
    slots: tuple
    transform: object
    screening_score: float

    def order_key(self):
        return (-self.screening_score, self.group_type, self.clue_a, self.clue_b)


def seed_image_graph(scene: Scene, model: ModelGraph | None = None,
                     cfg: Config | None = None) -> ImageGraph:
    """One verified node per scene primitive, frames canonicalized."""
    cfg = cfg or Config()
    ig = ImageGraph(scene_id=scene.id, model=model,
                    projected=model is not None and model.dim == 3 and scene.dim == 2)
    for i, prim in enumerate(scene.primitives):
        sym = "circle" if prim.kind == "circle" else "undirected-segment"
        if model is not None and prim.kind in model.nodes:
            sym = model.node(prim.kind).symmetry_class
        frame = canonicalize_frame(prim.frame(), sym)
        ig.add_node(prim.kind, frame=frame, status="verified",
                    strength=prim.strength, prim_index=i,
                    probability=min(1.0, cfg.p0 * prim.strength))
    return ig


# -- transform fitting -------------------------------------------------------------


def _fit_points(mframe: Frame, iframe: Frame, want: int):
    """Correspondence points contributed by one clue.

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


def _fit_transform(m1, m2, i1, i2, projected):
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
                        cand, res = fit_similarity(model_pts, np.array(ipts))
                except (UnderConstrainedError, DegenerateFrameError):
                    continue
                if best is None or res < best[1]:
                    best = (cand, res)
    if best is None:
        raise UnderConstrainedError("no usable transform fit")
    return best


def _refit(mnode, matched, ig, transform, projected):
    """Re-estimate the transform from every matched slot's origin.

    A two-clue fit can leave rotational slack (tied axes carry no direction);
    the matched set usually pins it down. Falls back to the original
    transform when the refit is degenerate.
    """
    mpts = []
    ipts = []
    for name in sorted(matched):
        mpts.append(mnode.part(name).frame.origin)
        ipts.append(ig.nodes[matched[name][0]].frame.origin)
    if len(mpts) < 2:
        return transform
    try:
        if projected:
            (linear, trans), _ = fit_affine(np.array(mpts), np.array(ipts))
            return AffineCamera(linear, trans)
        xform, _ = fit_similarity(np.array(mpts), np.array(ipts))
        return xform
    except (UnderConstrainedError, DegenerateFrameError):
        return transform


def _predict(transform, model_frame: Frame, projected: bool) -> Frame:
    if projected:
        return project(transform, model_frame)
    return transform.apply_frame(model_frame)


def _aligned_projection(camera, template: Frame) -> Frame:
    """Project a template so the result's rows follow the template's rows.

    project() orders axes by projected magnitude, but the stored group frame
    anchors later template-to-instance maps, so row i must track template
    row i (sign included) or slot predictions would mirror.
    """
    f = project(camera, template)
    raw = (camera.linear @ template.axes.T).T[:2]
    out = np.zeros((2, 2))
    used = set()
    for i in np.argsort([-float(np.linalg.norm(r)) for r in raw]):
        r = raw[i]
        if float(np.linalg.norm(r)) < 1e-12:
            continue
        pick, dot = None, 0.0
        for j in range(2):
            if j in used:
                continue
            c = float(f.axes[j] @ r)
            if pick is None or abs(c) > abs(dot):
                pick, dot = j, c
        if pick is None:
            continue
        used.add(pick)
        out[i] = f.axes[pick] if dot >= 0 else -f.axes[pick]
    return Frame(f.origin, out)


# -- candidate index ----------------------------------------------------------------

# Relative slack of the vectorized prefilters; survivors then face the exact
# scalar gate, so rounding differences never change a decision.
_PREFILTER_SLACK = 1e-6


class CandidateIndex:
    """Per-wave snapshot of the candidate nodes, for cheap radius queries.

    Holds the non-spec, non-pruned nodes in key order with their origins in
    one contiguous array, taken once the graph has settled (after relax and
    prune). Frames and statuses only change between waves, and nodes are
    never removed from `ig.nodes`, so within a wave the snapshot stays valid
    and nodes inserted after it are exactly the tail of `ig.nodes`.
    """

    def __init__(self, ig: ImageGraph):
        self.ig = ig
        self.nodes = [n for n in ig.sorted_nodes()
                      if n.spec_slot is None and n.status != "pruned"]
        self._seen = len(ig.nodes)
        self.origins = np.array([n.frame.origin for n in self.nodes])
        self.lengths = np.array([n.frame.primary_length for n in self.nodes])

    def fresh(self) -> list:
        """Nodes inserted since the snapshot, in insertion order."""
        return list(itertools.islice(self.ig.nodes.values(), self._seen, None))

    def near(self, points, radii) -> list:
        """Per query point, the snapshot nodes within its radius (plus a small
        slack) followed by every node inserted since the snapshot.

        A superset of the exact answer: callers re-check status, spec slot
        and the exact distance on what comes back.
        """
        fresh = self.fresh()
        if not self.nodes:
            return [list(fresh) for _ in radii]
        diff = self.origins[None, :, :] - np.asarray(points)[:, None, :]
        d2 = np.einsum("knd,knd->kn", diff, diff)
        reach = np.asarray(radii) * (1.0 + _PREFILTER_SLACK)
        hits = d2 <= (reach * reach)[:, None]
        nodes = self.nodes
        return [[nodes[i] for i in np.flatnonzero(row)] + fresh for row in hits]


def _distance(p, q) -> float:
    """Euclidean distance, bit for bit what np.linalg.norm(p - q) returns
    (sqrt of the dot product) without its dispatch overhead."""
    diff = p - q
    return math.sqrt(float(diff.dot(diff)))


# -- hypothesis generation ----------------------------------------------------------


def _clue_pairs(index: CandidateIndex, frontier, gate_radius: float) -> list:
    """Node pairs (a, b), both verified, at least one in the frontier, whose
    origins lie within gate_radius times the larger primary length; in the
    order of a combinations walk over index.nodes."""
    nodes = index.nodes
    if not nodes:
        return []
    frontier_keys = {n.key for n in frontier}
    verified = np.array([n.status == "verified" for n in nodes])
    pairs = set()
    for i, node in enumerate(nodes):
        if node.key not in frontier_keys or not verified[i]:
            continue
        diff = index.origins - index.origins[i]
        d2 = np.einsum("nd,nd->n", diff, diff)
        reach = (gate_radius * (1.0 + _PREFILTER_SLACK)
                 * np.maximum(index.lengths, index.lengths[i]))
        for j in np.flatnonzero((d2 <= reach * reach) & verified):
            if j != i:
                pairs.add((i, int(j)) if i < j else (int(j), i))
    out = []
    for i, j in sorted(pairs):
        a, b = nodes[i], nodes[j]
        reach = gate_radius * max(a.frame.primary_length, b.frame.primary_length)
        if _distance(a.frame.origin, b.frame.origin) <= reach:
            out.append((a, b))
    return out


def generate_hypotheses(ig: ImageGraph, model: ModelGraph, frontier, cfg: Config,
                        index: CandidateIndex) -> list:
    """Pairs with a frontier member and close origins suggest groups.

    Keeps, per (group type, clue pair), the best-screening slot assignment
    with its fitted transform; a screening score is the product of the
    screening-relation conditionals and must reach cfg.screen_min. `index`
    must be a snapshot of the graph as it is now.
    """
    projected = ig.projected
    fits = model.abstract
    best: dict = {}
    for a, b in _clue_pairs(index, frontier, cfg.gate_radius):
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
                    transform, _ = _fit_transform(mnode.part(s1).frame,
                                                  mnode.part(s2).frame,
                                                  ca.frame, cb.frame, projected)
                except (UnderConstrainedError, DegenerateFrameError):
                    continue
                key = (entry.hypothesis, frozenset((ca.key, cb.key)))
                h = Hypothesis(entry.hypothesis, ca.key, cb.key, entry.slots,
                               transform, score)
                if key not in best or score > best[key].screening_score:
                    best[key] = h
    return sorted(best.values(), key=lambda h: h.order_key())


# -- verification -------------------------------------------------------------------


def _match_slots(index, model, mnode, transform, cfg, projected, strain_gate=True):
    """Predict every slot and greedily bind the closest unclaimed instances.

    With the strain gate on, candidates must sit within s_fail of their
    predicted placement; without it only the origin radius gate applies,
    which tolerates the rotational slack of a rough transform. Returns
    (matched, strains) where matched maps slot name to member keys, or
    (None, strains) when an essential slot cannot be filled.
    """
    predictions = {}
    for slot in mnode.parts:
        try:
            predictions[slot.name] = _predict(transform, slot.frame, projected)
        except DegenerateFrameError:
            return None, {}
    live = [(slot, predictions[slot.name]) for slot in mnode.parts
            if predictions[slot.name].primary_length > 0]
    near = index.near([pred.origin for _, pred in live],
                      [cfg.gate_radius * pred.primary_length for _, pred in live])
    candidates = []
    for (slot, pred), hits in zip(live, near):
        scale = pred.primary_length
        fits = model.abstract.get(slot.type_name, frozenset())
        for node in hits:
            if node.status == "pruned" or node.spec_slot is not None:
                continue
            if node.model_type not in fits:
                continue
            d = _distance(node.frame.origin, pred.origin)
            if d > cfg.gate_radius * scale:
                continue
            sym = model.node(node.model_type).symmetry_class
            s = placement_strain(pred, node.frame, slot.elasticity, sym)
            if strain_gate and s > cfg.s_fail:
                continue
            rank = s if strain_gate else d / scale
            candidates.append((rank, slot.name, node.key, s))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    matched: dict = {}
    strains: dict = {}
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

    # one winner per variant tag: keep the best-strained tagged slot
    tags: dict = {}
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


def _match_score(matched, strains):
    """Fuller matchings beat sparse ones; total strain breaks ties."""
    if matched is None:
        return (1, 0, math.inf)
    total = sum(sum(v) for v in strains.values())
    return (0, -sum(len(v) for v in matched.values()), total)


def _drop_relation_offenders(ig, mnode, matched, cfg, projected, group_frame=None):
    """Relations worse than s_fail fail the group outright when every
    operand is essential; otherwise the optional offender is unbound."""
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


def verify(h: Hypothesis, ig: ImageGraph, model: ModelGraph, cfg: Config,
           index: CandidateIndex):
    """Top-down confirmation of one hypothesis.

    Success creates the group node, its member bundles, and any passing
    specialization instances, and returns the list of created nodes.
    Failure creates nothing and returns None. `index` is a snapshot taken
    earlier in the same wave.
    """
    projected = ig.projected
    mnode = model.node(h.group_type)

    matched, strains = _match_slots(index, model, mnode, h.transform, cfg,
                                    projected, strain_gate=True)
    transform = h.transform
    rough, _ = _match_slots(index, model, mnode, h.transform, cfg, projected,
                            strain_gate=False)
    if rough:
        refit = _refit(mnode, rough, ig, h.transform, projected)
        re_matched, re_strains = _match_slots(index, model, mnode, refit, cfg,
                                              projected, strain_gate=True)
        if _match_score(re_matched, re_strains) < _match_score(matched, strains):
            matched, strains, transform = re_matched, re_strains, refit
    if matched is None:
        return None
    try:
        if projected:
            frame = _aligned_projection(transform, mnode.frame_template)
        else:
            frame = transform.apply_frame(mnode.frame_template)
    except DegenerateFrameError:
        return None
    matched = _drop_relation_offenders(ig, mnode, matched, cfg, projected, frame)
    if matched is None:
        return None

    member_set = frozenset(k for keys in matched.values() for k in keys)
    for node in ig.sorted_nodes():
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
    created.extend(_specialize(ig, model, group, matched, cfg, projected))
    return created


def _specialize(ig, model, group, matched, cfg, projected):
    """Screen stored child relations on the matched parts; passing children
    become specialization instances, failing ones are never added."""
    created = []
    frames = {name: ig.nodes[keys[0]].frame for name, keys in matched.items()}
    group_mnode = model.node(group.model_type)
    queue = [(group.model_type, group)]
    while queue:
        type_name, parent = queue.pop(0)
        mnode = model.node(type_name)
        for child_name in sorted(mnode.specialize_relations):
            rels = mnode.specialize_relations[child_name]
            usable = [r for r in rels if relation_usable(r, group_mnode, projected)]
            if not usable:
                continue
            if not all(all(op in frames for op in r.operands) for r in usable):
                continue
            total = 0.0
            passed = True
            for _, s in relation_strains(group_mnode, usable, frames, cfg.s_fail,
                                         projected, group.frame):
                if s > cfg.s_fail:
                    passed = False
                    break
                total += s
            if not passed:
                continue
            child = ig.add_node(child_name, frame=parent.frame, status="verified")
            ig.add_link("specializes", child.key, parent.key,
                        conditional=cond_probability(total))
            created.append(child)
            queue.append((child_name, child))
    return created


# -- driver -------------------------------------------------------------------------


def recognize(scene: Scene, model: ModelGraph, cfg: Config | None = None) -> ImageGraph:
    """Build the image graph for a scene: seed, then hypothesize/verify waves
    with belief settling in between, until a wave adds nothing."""
    cfg = cfg or Config()
    if scene.dim == 3 and model.dim == 2:
        raise SceneFormatError("cannot explain a 3D scene with a flat model")
    ig = seed_image_graph(scene, model, cfg)
    frontier = list(ig.sorted_nodes())
    attempted: set = set()
    for _ in range(cfg.max_waves):
        if not frontier:
            break
        index = CandidateIndex(ig)
        hypotheses = generate_hypotheses(ig, model, frontier, cfg, index)
        fresh = []
        for h in hypotheses:
            key = (h.group_type, frozenset((h.clue_a, h.clue_b)))
            if key in attempted:
                continue
            attempted.add(key)
            if (ig.nodes[h.clue_a].status == "pruned"
                    or ig.nodes[h.clue_b].status == "pruned"):
                continue
            created = verify(h, ig, model, cfg, index)
            if created:
                fresh.extend(created)
        if not fresh:
            break
        refresh_conditionals(ig, cfg)
        propagate(ig, fresh, cfg)
        relax_frames(ig, cfg, only={n.key for n in fresh})
        refresh_conditionals(ig, cfg)
        propagate(ig, fresh, cfg)
        prune(ig, cfg)
        frontier = [ig.nodes[n.key] for n in fresh
                    if ig.nodes[n.key].status != "pruned"]
    return ig
