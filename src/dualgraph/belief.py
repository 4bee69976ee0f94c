"""Elastic strain, conditional probabilities, propagation, pruning, relaxation.

Every geometric deviation becomes a strain s = ((observed - target)/tolerance)^2
and every strain becomes a conditional probability exp(-s/2), so a deviation of
one tolerance costs a factor exp(-1/2). Tolerances double as spring constants:
the same numbers weight the relaxation objective.

Probability flows along image-graph links. A node's probability is the sum of
its supporters' probabilities times the link conditionals, normalized by the
slot count of its model template plus its realized upward memberships, so a
missing optional part depresses the result instead of inflating it. Backward
flow (a group vouching for its members) is limited per wave by a visited set
and a hop budget.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Config
from .errors import DegenerateFrameError
from .geometry import (
    AFFINE_SAFE,
    Frame,
    angle_between,
    canonical_scale,
    eval_relation,
    frame_onto,
)
from .model import SCALAR_RELATIONS, RelationSpec


def cond_probability(strain: float) -> float:
    """exp(-strain/2): certainty at zero deviation, exp(-1/2) at one tolerance."""
    if not math.isfinite(strain) or strain < 0:
        if math.isinf(strain) and strain > 0:
            return 0.0
        raise ValueError(f"strain must be nonnegative, got {strain}")
    return math.exp(-strain / 2.0)


def relation_usable(rel: RelationSpec, mnode, projected: bool) -> bool:
    """Whether a relation can be trusted for the current viewing mode.

    In a projected scene (a 3D model seen through an unknown affine camera)
    only affine-invariant measurements hold: topological relations always,
    parallelism always, a zero-angle target, and ratios along parallel model
    directions. Everything else is skipped rather than mis-scored.
    """
    if not projected:
        return True
    if rel.function in AFFINE_SAFE:
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


def relation_strain(rel: RelationSpec, frames, s_fail: float = 9.0) -> float:
    """Strain of one relation evaluated on observed frames."""
    if rel.function in SCALAR_RELATIONS:
        observed = eval_relation(rel.function, frames)
        return float(((observed - rel.target) / rel.tolerance) ** 2)
    if rel.function == "pose":
        observed = eval_relation("pose", frames)
        diff = np.asarray(observed, float) - np.asarray(rel.target, float)
        return float(diff @ diff) / float(rel.tolerance) ** 2
    ok = eval_relation(rel.function, frames, slack=rel.tolerance)
    return 0.0 if ok else float(s_fail)


def _aligned_row(f: Frame, direction) -> int | None:
    """Index of the nonzero row of `f` most parallel to `direction`."""
    lens = f.lengths
    best = None
    best_c = 0.0
    for i in range(f.dim):
        if lens[i] <= 0.0:
            continue
        c = abs(float(f.axes[i] @ direction)) / lens[i]
        if c > best_c:
            best, best_c = i, c
    return best


def _operand_image_dir(mnode, op: str, group_frame: Frame):
    """Image direction of an operand's primary template axis.

    A projected group frame's rows track the group template's rows, so a
    direction expressed in group coordinates maps into the image by its
    template-basis coefficients. Returns None when the direction projects
    away or the template is degenerate.
    """
    t = mnode.part(op).frame
    tl = t.lengths
    i_p = int(np.argmax(tl))
    if tl[i_p] <= 0.0:
        return None
    d = t.axes[i_p]
    g = mnode.frame_template
    gl = g.lengths
    out = np.zeros(group_frame.dim)
    for k in range(min(group_frame.dim, g.dim)):
        if gl[k] <= 0.0:
            continue
        out += (float(d @ g.axes[k]) / float(gl[k]) ** 2) * group_frame.axes[k]
    n = math.sqrt(float(out @ out))
    if n < 1e-12:
        return None
    return out / n


def relation_strain_projected(rel: RelationSpec, mnode, frames,
                              s_fail: float = 9.0, group_frame=None) -> float:
    """Relation strain in a projected scene.

    A frame's canonical primary (its longest axis) is not stable under an
    affine camera: shear can swap which direction comes out longest. What
    survives projection is the ratio of lengths along parallel directions,
    so scalar and direction relations are read along resolved rows instead.
    With a fitted group frame the operand's template direction is carried
    into the image through it; before any fit exists the most favorable
    row pairing stands in, which keeps screening permissive rather than
    wrongly fatal.
    """
    f = rel.function
    if f not in ("size-ratio", "distance-ratio", "angle", "parallel"):
        return relation_strain(rel, frames, s_fail)
    a, b = frames
    rows_a = rows_b = None
    if group_frame is not None:
        da = _operand_image_dir(mnode, rel.operands[0], group_frame)
        db = _operand_image_dir(mnode, rel.operands[1], group_frame)
        ia = _aligned_row(a, da) if da is not None else None
        ib = _aligned_row(b, db) if db is not None else None
        if ia is not None and ib is not None:
            rows_a, rows_b = [ia], [ib]
    if rows_a is None:
        rows_a = [i for i in range(a.dim) if a.lengths[i] > 0.0]
        rows_b = [i for i in range(b.dim) if b.lengths[i] > 0.0]
        if not rows_a or not rows_b:
            raise DegenerateFrameError("no usable axis for a projected relation")
    best = math.inf
    for i in rows_a:
        la = float(a.lengths[i])
        if f == "distance-ratio":
            diff = b.origin - a.origin
            gap = math.sqrt(float(diff @ diff))
            best = min(best, ((gap / la - rel.target) / rel.tolerance) ** 2)
            continue
        for j in rows_b:
            lb = float(b.lengths[j])
            if f == "size-ratio":
                s = ((la / lb - rel.target) / rel.tolerance) ** 2
            else:
                cosv = abs(float(a.axes[i] @ b.axes[j])) / (la * lb)
                ang = math.acos(min(1.0, cosv))
                if f == "parallel":
                    s = 0.0 if ang <= rel.tolerance else float(s_fail)
                else:
                    s = ((ang - rel.target) / rel.tolerance) ** 2
            best = min(best, s)
    return float(best)


def contextual_relation_strain(rel: RelationSpec, mnode, frames,
                               s_fail: float, projected: bool,
                               group_frame=None) -> float:
    """Canonical strain in a plain scene, row-resolved in a projected one."""
    if not projected:
        return relation_strain(rel, frames, s_fail)
    return relation_strain_projected(rel, mnode, frames, s_fail, group_frame)


def relation_strains(mnode, rels, frames, s_fail: float, projected: bool,
                     group_frame=None):
    """Yield (rel, strain) for each relation of `rels` that can be scored.

    A relation is scored when `relation_usable` accepts it for the viewing
    mode and every operand has a frame in `frames` (a map from slot name to
    frame); the others are skipped. A degenerate evaluation is charged as
    infinite strain. Relations come out in the order of `rels`, so sums
    over them keep their float order, and lazily, so a caller may stop at
    the first failure without evaluating the rest.
    """
    for rel in rels:
        if not relation_usable(rel, mnode, projected):
            continue
        try:
            operand_frames = [frames[op] for op in rel.operands]
        except KeyError:
            continue
        try:
            s = contextual_relation_strain(rel, mnode, operand_frames, s_fail,
                                           projected, group_frame)
        except DegenerateFrameError:
            s = math.inf
        yield rel, s


def placement_strain(pred: Frame, obs: Frame, elasticity, sym: str) -> float:
    """How badly an observed frame sits in a predicted slot.

    Origin deviation is measured relative to the predicted primary length,
    size deviation on a log scale, angle between primary directions in
    radians; each against its own tolerance. Circles skip the angle term.
    Degenerate predictions cost infinite strain.
    """
    sigma_o, sigma_s, sigma_a = elasticity
    try:
        scale = canonical_scale(pred, sym)
        obs_scale = canonical_scale(obs, sym)
    except DegenerateFrameError:
        return math.inf
    diff = pred.origin - obs.origin
    d = math.sqrt(float(diff @ diff))
    s = (d / (sigma_o * scale)) ** 2
    s += (math.log(obs_scale / scale) / sigma_s) ** 2
    if sym != "circle":
        s += (angle_between(pred, obs) / sigma_a) ** 2
    return float(s)


# -- conditional refresh --------------------------------------------------------


def _flatten_frame(f: Frame) -> Frame:
    """The in-plane part of a planar 3D frame (z components dropped)."""
    return Frame(f.origin[:2], f.axes[:2, :2])


def _template_pinv(mnode, flat: bool) -> np.ndarray:
    """pinv of the node's template axes, cached on the node (templates never change)."""
    p = mnode.pinv_cache.get(flat)
    if p is None:
        src = _flatten_frame(mnode.frame_template) if flat else mnode.frame_template
        p = np.linalg.pinv(src.axes.T)
        mnode.pinv_cache[flat] = p
    return p


class _GroupSlots:
    """A group's realized slots, gathered so they can be placed under any
    frame of the group.

    `members` maps each realized slot to its member node (the first
    group-member link per slot) and `frames` to that member's frame;
    `placed` holds per slot its template frame, the member's frame, the slot
    elasticity and the member's symmetry class.
    In projected mode the group instance lives in 2D while the template is
    3D; planar templates flatten to the view plane, which is exact for the
    planar substructures whose ratios survive affine projection. A template
    or slot frame that degenerates when flattened is None and costs infinite
    strain.
    """

    def __init__(self, ig, group):
        model = ig.model
        self.mnode = mnode = model.node(group.model_type)
        self.members = {}
        for gm in ig.links_to(group.key, "group-member"):
            if gm.slot is not None and gm.slot not in self.members:
                self.members[gm.slot] = ig.nodes[gm.source]
        self.frames = {name: member.frame for name, member in self.members.items()}
        self.flat = ig.projected and group.frame.dim < mnode.frame_template.dim
        try:
            self.template = _flatten_frame(mnode.frame_template) if self.flat else mnode.frame_template
            self.pinv = _template_pinv(mnode, self.flat)
        except DegenerateFrameError:
            self.template = None
        self.placed = [
            (name, self.slot_frame(name), member.frame, mnode.part(name).elasticity,
             model.node(member.model_type).symmetry_class)
            for name, member in self.members.items()
        ]

    def slot_frame(self, name: str) -> Frame | None:
        frame = self.mnode.part(name).frame
        if not self.flat:
            return frame
        try:
            return _flatten_frame(frame)
        except DegenerateFrameError:
            return None

    def predictions(self, group_frame: Frame, slot_frames) -> list:
        """Scene placements of `slot_frames` for the given group frame, each
        None where the template, the slot frame or the mapped frame degenerates."""
        if self.template is None:
            return [None] * len(slot_frames)
        T = frame_onto(self.template, group_frame, self.pinv)
        preds = []
        for src in slot_frames:
            try:
                preds.append(None if src is None else T.apply_frame(src))
            except DegenerateFrameError:
                preds.append(None)
        return preds

    def placement_strains(self, group_frame: Frame) -> dict:
        """Placement strain of every realized slot by name, for the given group frame."""
        preds = self.predictions(group_frame, [src for _, src, *_ in self.placed])
        return {
            name: math.inf if pred is None else placement_strain(pred, obs, elasticity, sym)
            for pred, (name, _, obs, elasticity, sym) in zip(preds, self.placed)
        }


def refresh_conditionals(ig, cfg: Config | None = None):
    """Re-derive every link conditional from the current frames."""
    cfg = cfg or Config()
    model = ig.require_model()
    for group in sorted(ig.active_nodes(), key=lambda n: n.key):
        mnode = model.nodes.get(group.model_type)
        if mnode is None or not mnode.parts:
            continue
        slots = _GroupSlots(ig, group)
        frames = slots.frames
        s_slot = slots.placement_strains(group.frame)
        share = {name: 0.0 for name in slots.members}
        if slots.template is not None:
            for rel, s in relation_strains(mnode, mnode.relations, frames, cfg.s_fail,
                                           ig.projected, group.frame):
                for op in rel.operands:
                    share[op] += s / 2.0
        for gm in ig.links_to(group.key, "group-member"):
            if gm.slot not in frames:
                continue
            gm.conditional = cond_probability(s_slot[gm.slot] + share[gm.slot])
            gm.residuals = {"placement": s_slot[gm.slot], "relations": share[gm.slot]}
        for po in ig.links_to(group.key, "part-of"):
            if po.slot not in frames:
                continue
            po.conditional = cond_probability(share[po.slot])
            po.residuals = {"relations": share[po.slot]}
            spec = ig.nodes.get(po.source)
            if spec is not None:
                for sl in ig.links_from(spec.key, "specializes"):
                    sl.conditional = cond_probability(s_slot[po.slot])
                    sl.residuals = {"placement": s_slot[po.slot]}
        # specialization instances screened on this group's matched parts
        for sl in ig.links_to(group.key, "specializes"):
            if sl.slot is not None:
                continue
            child = ig.nodes[sl.source]
            if child.spec_slot is not None:
                continue
            screens = mnode.specialize_relations.get(child.model_type)
            if not screens:
                continue
            total = 0.0
            residuals = {}
            for rel, s in relation_strains(mnode, screens, frames, cfg.s_fail,
                                           ig.projected, group.frame):
                total += s
                residuals["{}({})".format(rel.function, ",".join(rel.operands))] = s
            sl.conditional = cond_probability(total)
            sl.residuals = residuals
    return ig


def bind_member(ig, group_key, slot_name: str, member_key):
    """Realize one slot of a group instance with the given member node.

    When the slot's declared type matches the member's type, one
    group-member link carries support both ways. Otherwise a shadow node of
    the slot's type mirrors the member: the member's claim on the group
    travels through the shadow (specializes up to the shadow, part-of into
    the group) while the direct group-member link only lets the group vouch
    back for the member. Conditionals start at 1 until refreshed.

    Returns the shadow node, or None when the types matched directly.
    """
    group = ig.nodes[tuple(group_key)]
    member = ig.nodes[tuple(member_key)]
    mnode = ig.model.node(group.model_type)
    slot = mnode.part(slot_name)
    if slot.type_name == member.model_type:
        ig.add_link("group-member", member.key, group.key, slot=slot_name, carries_up=True)
        return None
    shadow = ig.add_node(
        slot.type_name, frame=member.frame, spec_slot=slot_name, status=group.status
    )
    ig.add_link("specializes", shadow.key, member.key)
    ig.add_link("part-of", shadow.key, group.key, slot=slot_name)
    ig.add_link("group-member", member.key, group.key, slot=slot_name, carries_up=False)
    return shadow


def group_weight(mnode, optional_weight: float = 0.5) -> float:
    """Template weight of a group: essential slots count 1, optional slots
    count `optional_weight`, and slots sharing a variant tag count once."""
    weight = 0.0
    seen_tags = set()
    for part in mnode.parts:
        if part.variant_tag is not None:
            if part.variant_tag in seen_tags:
                continue
            seen_tags.add(part.variant_tag)
        weight += 1.0 if part.essential else optional_weight
    return weight


# -- propagation -----------------------------------------------------------------


def _update_node(ig, key, cfg, trace, wave):
    node = ig.nodes[key]
    num = 0.0
    den = node.template_weight
    supported = False
    if node.is_primitive and node.strength > 0:
        num += cfg.p0 * node.strength
        supported = True
    for l in ig.incident(key):
        if l.source == key:
            if l.kind == "group-member":
                target = ig.nodes[l.target]
                if target.status != "pruned":
                    num += target.probability * l.conditional
                    den += 1.0
                    supported = True
            elif l.kind == "specializes":
                target = ig.nodes[l.target]
                if target.status != "pruned":
                    num += target.probability * l.conditional
                    supported = True
        elif l.target == key:
            source = ig.nodes[l.source]
            if source.status == "pruned":
                continue
            if l.kind == "part-of" or (l.kind == "group-member" and l.carries_up):
                num += source.probability * l.conditional
                supported = True
    if not supported:
        return 0.0
    p = min(1.0, max(0.0, num / den)) if den > 0 else 0.0
    if node.is_primitive:
        p = max(p, min(1.0, cfg.p0 * node.strength))
    before = node.probability
    node.probability = p
    if trace is not None:
        trace.append(
            {"wave": wave, "node": node.label(), "p_before": before, "p_after": p}
        )
    return abs(p - before)


def _upward_ranks(ig):
    """Height of each node in the support order: primitives lowest, then
    shadows, then their groups, and so on. Nodes update supporters-first."""
    memo: dict = {}
    stack_guard: set = set()

    def rank(key):
        if key in memo:
            return memo[key]
        if key in stack_guard:
            return 0
        stack_guard.add(key)
        deps = []
        for l in ig.incident(key):
            if l.target == key and (
                l.kind == "part-of" or (l.kind == "group-member" and l.carries_up)
            ):
                deps.append(l.source)
            elif l.source == key and l.kind == "specializes":
                deps.append(l.target)
        r = 1 + max((rank(d) for d in deps), default=0)
        stack_guard.discard(key)
        memo[key] = r
        return r

    for k in list(ig.nodes):
        rank(k)
    return memo


def propagate(ig, new_nodes=None, cfg: Config | None = None, trace=None):
    """One wave of probability updates.

    A breadth-first wave flows outward from `new_nodes` (pass everything a
    verification just created; None seeds it with every active node, a
    global sweep): upward through part-of and carrying group-member links
    immediately, downward (a group supporting its members) through at most
    cfg.backward_depth hops, with shadow-node refreshes free. Within each
    front nodes update supporters-first, and each node updates at most once
    per wave.
    """
    cfg = cfg or Config()
    ranks = _upward_ranks(ig)
    order_key = lambda k: (ranks.get(k, 0), k)
    if new_nodes is None:
        new_nodes = ig.active_nodes()
    seeds = []
    for item in new_nodes:
        key = tuple(item.key) if hasattr(item, "key") else tuple(item)
        seeds.append(key)
    visited = set()
    depth = {k: 0 for k in seeds}
    frontier = sorted(set(seeds), key=order_key)
    wave = 0
    while frontier:
        offers = {}
        for key in frontier:
            if key in visited:
                continue
            node = ig.nodes.get(key)
            if node is None or node.status == "pruned":
                continue
            visited.add(key)
            _update_node(ig, key, cfg, trace, wave)
            d = depth[key]
            for l in ig.incident(key):
                if l.source == key:
                    if l.kind == "part-of" or (l.kind == "group-member" and l.carries_up):
                        _offer(offers, depth, l.target, d)
                elif l.target == key:
                    if l.kind == "specializes":
                        _offer(offers, depth, l.source, d)
                    elif l.kind == "group-member" and d + 1 <= cfg.backward_depth:
                        _offer(offers, depth, l.source, d + 1)
        frontier = sorted((k for k in offers if k not in visited), key=order_key)
        wave += 1
        if wave > len(ig.nodes) + 2:
            break
    return ig


def _offer(offers, depth, key, d):
    if key not in depth or d < depth[key]:
        depth[key] = d
    offers[key] = True


# -- pruning ---------------------------------------------------------------------


def _bundle_links(ig, link):
    """Expand one doomed link to its whole slot bundle (and its shadow node)."""
    doomed = {id(link): link}
    spec_nodes = []
    group_key = None
    slot = link.slot
    if link.kind in ("group-member", "part-of") and slot is not None:
        group_key = link.target
    elif link.kind == "specializes":
        src = ig.nodes.get(link.source)
        if src is not None:
            spec_nodes.append(src)
            if src.spec_slot is not None:
                for po in ig.links_from(src.key, "part-of"):
                    group_key = po.target
                    slot = po.slot
    if group_key is not None and slot is not None:
        for l in ig.links_to(group_key):
            if l.slot == slot and l.kind in ("group-member", "part-of"):
                doomed[id(l)] = l
                if l.kind == "part-of":
                    src = ig.nodes.get(l.source)
                    if src is not None and src.spec_slot is not None:
                        spec_nodes.append(src)
                        for sl in ig.links_from(src.key, "specializes"):
                            doomed[id(sl)] = sl
    return list(doomed.values()), spec_nodes


def prune(ig, cfg: Config | None = None):
    """Cut weak links, settle competing claims, drop weak nodes.

    Returns (pruned node keys, removed links). A member claimed by several
    instances of one type keeps claims within cfg.competition_ratio of the
    strongest and loses the rest. Shadow nodes fall with their parents.
    """
    cfg = cfg or Config()
    pruned_keys: list = []
    removed: list = []

    weak = [l for l in ig.links if l.conditional < cfg.link_threshold]
    _cut_links(ig, weak, pruned_keys, removed)

    claims: dict = {}
    for l in ig.links:
        if l.kind == "group-member":
            claims.setdefault((l.source, l.target[0]), []).append(l)
    losers = []
    for (_, _), ls in sorted(claims.items()):
        if len(ls) < 2:
            continue
        best = max(l.conditional for l in ls)
        losers += [l for l in ls if l.conditional < best * cfg.competition_ratio]
    _cut_links(ig, losers, pruned_keys, removed)

    for node in sorted(ig.active_nodes(), key=lambda n: n.key):
        if node.probability < cfg.drop_threshold:
            _prune_node(ig, node, pruned_keys, removed)

    return pruned_keys, removed


def _cut_links(ig, links, pruned_keys, removed):
    """Cut each live link, last first, with its slot bundle; prune the shadows it names."""
    for link in reversed(links):
        if link not in ig.incident(link.source):
            continue
        bundle, spec_nodes = _bundle_links(ig, link)
        removed += ig.remove_links(bundle)
        for spec in spec_nodes:
            _prune_node(ig, spec, pruned_keys, removed)


def _prune_node(ig, node, pruned_keys, removed):
    """Mark `node` pruned and cut its links; its shadows fall with them."""
    if node.status == "pruned":
        return
    node.status = "pruned"
    pruned_keys.append(node.key)
    _cut_links(ig, list(ig.incident(node.key)), pruned_keys, removed)


# -- relaxation --------------------------------------------------------------------


def fd_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate step scaling."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        hi = x.copy()
        lo = x.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (f(hi) - f(lo)) / (2.0 * step)
    return g


def descend(f, x0, max_iters: int = 100, eps: float = 1e-6, h: float = 1e-6):
    """Gradient descent with backtracking line search on any scalar function.

    Returns (x, trace) where trace holds the objective after each accepted
    step (monotone non-increasing, first entry is the starting value).
    """
    x = np.atleast_1d(np.asarray(x0, float))
    fx = float(f(x))
    trace = [fx]
    if not math.isfinite(fx):
        return x, trace
    for _ in range(max_iters):
        g = fd_gradient(f, x, h)
        gn = float(np.linalg.norm(g))
        if not math.isfinite(gn) or gn == 0.0:
            break
        alpha = 1.0 / max(1.0, gn)
        for _ in range(40):
            cand = x - alpha * g
            fc = float(f(cand))
            if math.isfinite(fc) and fc < fx:
                x, fx = cand, fc
                break
            alpha *= 0.5
        else:  # no step of 40 halvings lowered f
            break
        trace.append(fx)
        if len(trace) >= 2 and trace[-2] - trace[-1] < eps:
            break
    return x, trace


def _rotvec_matrix(v) -> np.ndarray:
    """Rotation by |v| radians about v, through the unit quaternion: the float
    operations, in order, of `Rotation.from_rotvec(v).as_matrix()`, so bit for bit."""
    x, y, z = (float(c) for c in v)
    angle = math.sqrt(x * x + y * y + z * z)
    a2 = angle * angle  # the Taylor scale below 1e-3 rad avoids sin(angle/2)/angle -> 0/0
    scale = 0.5 - a2 / 48 + a2 * a2 / 3840 if angle <= 1e-3 else math.sin(angle / 2) / angle
    x, y, z, w = x * scale, y * scale, z * scale, math.cos(angle / 2)
    x2, y2, z2, w2 = x * x, y * y, z * z, w * w
    xy, zw, xz, yw, yz, xw = x * y, z * w, x * z, y * w, y * z, x * w
    return np.array([[x2 - y2 - z2 + w2, 2 * (xy - zw), 2 * (xz + yw)],
                     [2 * (xy + zw), -x2 + y2 - z2 + w2, 2 * (yz - xw)],
                     [2 * (xz - yw), 2 * (yz + xw), -x2 - y2 + z2 + w2]])


class FrameParams:
    """Bijection between a frame and a flat parameter vector.

    Parameters are origin coordinates, a rotation (one angle in 2D, a
    rotation vector in 3D) applied to the starting axis directions, and the
    log of each nonzero axis length. Zero axes stay zero, so planar frames
    embedded in 3D keep their rank.

    `decode` keeps the rotated axis directions of its last call and reuses
    them when the rotation parameters have the same bits, as they do for
    every finite-difference step along an origin or length coordinate. The
    test is on bits, not values (0.0 == -0.0), so a reused rotation is always
    the one these exact parameters would build.
    """

    def __init__(self, frame: Frame):
        # frames are never mutated in place, so the start needs no copy
        self.frame0 = frame
        self.dim = frame.dim
        lengths = frame.lengths
        self.active = [i for i in range(self.dim) if lengths[i] > 0]
        self.units = np.zeros((self.dim, self.dim))
        for i in self.active:
            self.units[i] = frame.axes[i] / lengths[i]
        self._rot_end = 3 if self.dim == 2 else 6
        self._rot_key = None
        self._rotated = None

    def encode(self) -> np.ndarray:
        f = self.frame0
        rot = np.zeros(1 if self.dim == 2 else 3)
        logs = [math.log(f.lengths[i]) for i in self.active]
        return np.concatenate([f.origin, rot, logs])

    def decode(self, x) -> Frame:
        x = np.asarray(x, float)
        origin = x[: self.dim]
        key = x[self.dim:self._rot_end].tobytes()
        if key != self._rot_key:
            if self.dim == 2:
                c, s = math.cos(x[2]), math.sin(x[2])
                rot = np.array([[c, -s], [s, c]])
            else:
                rot = _rotvec_matrix(x[3:6])
            self._rotated = [rot @ self.units[i] for i in self.active]
            self._rot_key = key
        rest = x[self._rot_end:]
        axes = np.zeros((self.dim, self.dim))
        for j, i in enumerate(self.active):
            axes[i] = math.exp(float(rest[j])) * self._rotated[j]
        return Frame(origin, axes)


# The boolean relations are piecewise constant in the frames: zero gradient
# almost everywhere, so they cannot steer a descent step, only veto one.
_SMOOTH_RELATIONS = frozenset(SCALAR_RELATIONS) | {"pose"}


class _LocalStrain:
    """Strain terms touching one node's frame, as a function of that frame:
    its slots, its memberships, and the relations its memberships take part
    in. `local(frame, smooth_only)` scores the node as if it sat at `frame`.

    Only the node's own frame is an argument; everything else the terms read
    is gathered at construction and must not change while the object is in
    use: the node's slot members with their frames, and for each live parent
    group its predicted frame for the node's slot, the other members' frames
    and the relations on that slot. smooth_only drops the boolean relations,
    leaving the differentiable part a gradient can work with.
    """

    def __init__(self, ig, node, cfg):
        model = ig.model
        self.s_fail = cfg.s_fail
        self.projected = ig.projected
        mnode = model.nodes.get(node.model_type)
        self.own = _GroupSlots(ig, node) if mnode is not None and mnode.parts else None
        self.parents = []
        for gm in ig.links_from(node.key, "group-member"):
            group = ig.nodes[gm.target]
            if group.status == "pruned":
                continue
            slots = _GroupSlots(ig, group)
            gnode = slots.mnode
            (pred,) = slots.predictions(group.frame, [slots.slot_frame(gm.slot)])
            moving = [name for name, member in slots.members.items() if member is node]
            rels = [rel for rel in gnode.relations if gm.slot in rel.operands]
            smooth = [rel for rel in rels if rel.function in _SMOOTH_RELATIONS]
            self.parents.append((pred, gnode.part(gm.slot).elasticity,
                                 model.node(node.model_type).symmetry_class,
                                 gnode, group.frame, slots.frames, moving, rels, smooth))

    def __call__(self, frame: Frame, smooth_only: bool = False) -> float:
        total = 0.0
        if self.own is not None:
            total += sum(self.own.placement_strains(frame).values())
        for pred, elasticity, sym, gnode, group_frame, frames, moving, rels, smooth in self.parents:
            if pred is None:
                return math.inf
            total += placement_strain(pred, frame, elasticity, sym)
            if moving:
                frames = {**frames, **dict.fromkeys(moving, frame)}
            for _, s in relation_strains(gnode, smooth if smooth_only else rels, frames,
                                         self.s_fail, self.projected, group_frame):
                total += s
        return total


def total_strain(ig, cfg: Config | None = None) -> float:
    """Placement strain of every realized slot plus every evaluable relation."""
    cfg = cfg or Config()
    model = ig.model
    total = 0.0
    for group in sorted(ig.active_nodes(), key=lambda n: n.key):
        mnode = model.nodes.get(group.model_type)
        if mnode is None or not mnode.parts:
            continue
        slots = _GroupSlots(ig, group)
        total += sum(slots.placement_strains(group.frame).values())
        for _, s in relation_strains(mnode, mnode.relations, slots.frames, cfg.s_fail,
                                     ig.projected, group.frame):
            total += s
    return total


# Local strain below which a frame is already as settled as the conditionals
# can resolve; descending from here buys nothing measurable.
_RELAX_SKIP = 0.05
# A block step that lowers its local strain by less than _RELAX_EPS is no move;
# sweeps end at the first with no move, or after _RELAX_MAX_SWEEPS.
_RELAX_EPS = 1e-6
_RELAX_MAX_SWEEPS = 100


def relax_frames(ig, cfg: Config | None = None, trace=None, only=None):
    """Block coordinate descent over movable frames to reduce total strain.

    Primitive nodes anchor the data and never move; shadow nodes mirror
    their parents afterward. Any step that would degenerate a frame is
    rejected and the previous frame restored. A node whose local strain a
    sweep could not improve is skipped on later sweeps until some
    neighbor's move raises it again. `only` restricts the movable set to
    the given node keys (incremental passes over freshly built groups).
    `trace` gets the total strain before the first sweep and after each.

    Each block step moves one node, and its local strain is built once for
    the step (`_LocalStrain`): the members, predictions and relation lists
    it reads depend only on the other nodes' frames and on the links, and
    neither changes until the step ends. A step only sets the node's frame
    once it is done. Evaluations then run the same float operations in the
    same order as reading the whole graph each time would.
    """
    cfg = cfg or Config()
    ig.require_model()
    movable = [
        n
        for n in sorted(ig.active_nodes(), key=lambda n: n.key)
        if not n.is_primitive
        and not ig.links_from(n.key, "specializes")
        and (only is None or n.key in only)
    ]
    if trace is not None:
        trace.append(total_strain(ig, cfg))
    settled: dict[str, float] = {}
    for _ in range(_RELAX_MAX_SWEEPS):
        moved = False
        for node in movable:
            params = FrameParams(node.frame)
            local = _LocalStrain(ig, node, cfg)

            def objective(x, params=params, local=local, smooth=False):
                try:
                    frame = params.decode(x)
                except DegenerateFrameError:
                    return math.inf
                return local(frame, smooth)

            x0 = params.encode()
            f0 = objective(x0)
            if not math.isfinite(f0):
                continue
            floor = settled.get(node.key)
            if floor is not None and f0 <= floor + _RELAX_EPS:
                continue
            if f0 <= _RELAX_SKIP:
                settled[node.key] = f0
                continue
            # descend on the differentiable terms; accept on the full strain
            # so a step can never trade smooth gains for a broken boolean
            x, tr = descend(lambda v: objective(v, smooth=True), x0,
                            max_iters=15, eps=_RELAX_EPS)
            f1 = objective(x) if math.isfinite(tr[-1]) else math.inf
            if math.isfinite(f1) and f1 <= f0:
                node.frame = params.decode(x)
            else:
                f1 = f0
            settled[node.key] = f1
            moved |= f0 - f1 >= _RELAX_EPS
        if trace is not None:
            trace.append(total_strain(ig, cfg))
        if not moved:
            break
    for node in sorted(ig.active_nodes(), key=lambda n: n.key):
        shadows = ig.links_from(node.key, "specializes")
        if shadows:
            node.frame = ig.nodes[shadows[0].target].frame
    return ig
