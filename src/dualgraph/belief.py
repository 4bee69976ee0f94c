"""Elastic strain, conditional probabilities, propagation, pruning, relaxation.

Every geometric deviation becomes a strain s = ((observed - target)/tolerance)^2
and every strain becomes a conditional probability exp(-s/2), so a deviation of
one tolerance costs a factor exp(-1/2). Tolerances double as weights:
relaxation fits each group frame to its members by least squares on the same
normalized residuals, in closed form.

Probability flows along image-graph links. A node's probability is the sum of
its supporters' probabilities times the link conditionals, normalized by the
slot count of its model template plus its realized upward memberships, so a
missing optional part depresses the result instead of inflating it. Backward
flow (a group vouching for its members) is limited per wave by a visited set
and a hop budget.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .config import Config
from .errors import DegenerateFrameError
from .geometry import (
    Frame,
    angle_between,
    canonical_scale,
    check_frames,
    eval_relation,
    fit_similarities,
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


def _square(x: float) -> float:
    """x ** 2, or inf beyond the float range, as a degenerate frame's strain is."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def relation_strain(rel: RelationSpec, frames, s_fail: float) -> float:
    """Strain of one relation evaluated on observed frames."""
    if rel.function in SCALAR_RELATIONS:
        observed = eval_relation(rel.function, frames)
        return float(_square((observed - rel.target) / rel.tolerance))
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


# Relations a projected scene reads along resolved rows, through the group
# frame when there is one (contextual_relation_strain); the rest canonically.
ROW_RESOLVED = frozenset(("size-ratio", "distance-ratio", "angle", "parallel"))


def contextual_relation_strain(rel: RelationSpec, mnode, frames,
                               s_fail: float, projected: bool,
                               group_frame=None) -> float:
    """Relation strain: canonical (`relation_strain`) in a plain scene and
    for a relation outside `ROW_RESOLVED`, row-resolved otherwise.

    In a projected scene a frame's canonical primary (its longest axis) is
    not stable under an affine camera: shear can swap which direction comes
    out longest. What survives projection is the ratio of lengths along
    parallel directions, so scalar and direction relations are read along
    resolved rows instead. With a fitted group frame the operand's template
    direction is carried into the image through it; before any fit exists
    the most favorable row pairing stands in, which keeps screening
    permissive rather than wrongly fatal.
    """
    f = rel.function
    if not projected or f not in ROW_RESOLVED:
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
            best = min(best, _square((gap / la - rel.target) / rel.tolerance))
            continue
        for j in rows_b:
            lb = float(b.lengths[j])
            if f == "size-ratio":
                s = _square((la / lb - rel.target) / rel.tolerance)
            else:
                cosv = abs(float(a.axes[i] @ b.axes[j])) / (la * lb)
                ang = math.acos(min(1.0, cosv))
                if f == "parallel":
                    s = 0.0 if ang <= rel.tolerance else float(s_fail)
                else:
                    s = _square((ang - rel.target) / rel.tolerance)
            best = min(best, s)
    return float(best)


def relation_strains(ig, mnode, rels, frames, s_fail: float, group_frame=None):
    """Yield (rel, strain) for each relation of `rels` that can be scored in
    the scene of `ig`: the one path by which a relation is scored.

    A relation is scored when every operand has a frame in `frames` (a map
    from slot name to frame) and, in a projected scene (`ig.projected`),
    the model has it survive an affine view (`RelationSpec.affine_invariant`);
    the others are skipped. A strain is scored by
    `contextual_relation_strain`, infinite where the evaluation degenerates,
    and kept in the scene's memo (`ig.strains`), keyed by the relation's
    `spec`, s_fail and its two operand frames. A frame hashes by identity and is never changed in
    place (`Frame`), so a node that moves gets a new key. A row-resolved
    relation in a projected scene given a group frame also reads that
    frame, the group's type and the relation's operands
    (`_operand_image_dir`), so its key adds all three. Relations come out in
    the order of `rels`, so sums over them keep their float order, and
    lazily, so a caller may stop at the first failure without evaluating
    the rest.
    """
    projected = ig.projected
    memo = ig.strains
    for rel in rels:
        if projected and not rel.affine_invariant:
            continue
        try:
            a, b = operand_frames = [frames[op] for op in rel.operands]
        except KeyError:
            continue
        key = rel.spec + (s_fail, a, b)
        row_frame = None
        if projected and group_frame is not None and rel.function in ROW_RESOLVED:
            key += (mnode.type_name, rel.operands, group_frame)
            row_frame = group_frame
        s = memo.get(key)
        if s is None:
            try:
                s = contextual_relation_strain(rel, mnode, operand_frames, s_fail, projected,
                                               row_frame)
            except DegenerateFrameError:
                s = math.inf
            memo[key] = s
        yield rel, s


def placement_strain(pred: Frame, obs: Frame, elasticity, sym: str) -> float:
    """How badly an observed frame sits in a predicted slot.

    Origin deviation is measured relative to the predicted primary length,
    size deviation on a log scale, angle between primary directions in
    radians; each against its own tolerance. Circles skip the angle term.
    Degenerate predictions and overflowing terms cost infinite strain.
    Every term is >= 0, so the origin and size terms bound the strain from
    below: `recognize._slot_gate` reads them in columns.
    """
    sigma_o, sigma_s, sigma_a = elasticity
    try:
        scale = canonical_scale(pred, sym)
        obs_scale = canonical_scale(obs, sym)
    except DegenerateFrameError:
        return math.inf
    diff = pred.origin - obs.origin
    d = math.sqrt(float(diff @ diff))
    s = _square(d / (sigma_o * scale))
    s += _square(math.log(obs_scale / scale) / sigma_s)
    if sym != "circle":
        s += _square(angle_between(pred, obs) / sigma_a)
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


# First element of a placement strain's memo key; a relation's key starts
# with its function name (`RelationSpec.spec`), never this.
_PLACEMENT = "placement"


class _GroupSlots:
    """A group's realized slots, gathered so they can be placed under any
    frame of the group (`_placement_strains`) and fitted (`_fitted_frames`).

    `frame` is the group's own frame; `members` maps slot name to its member
    node (of the group-member links a graph built by hand may put in one
    slot, the first) and `frames` to that member's frame; `placed` holds
    per slot its name, its template frame, the member's frame, the slot
    elasticity and the member's symmetry class; `plan_key` names the
    group's fit plan (`_fit_plan`): `flat` and each placed slot's name and
    symmetry class. In projected mode the group instance lives in 2D while
    the template is 3D; planar templates flatten to the view plane, which
    is exact for the planar substructures whose ratios survive affine
    projection. A template or slot frame that degenerates when flattened is
    None and costs infinite strain.
    """

    def __init__(self, ig, group):
        model = ig.model
        self.mnode = mnode = model.node(group.model_type)
        self.members = {}
        for gm in ig.links_to(group.key, "group-member"):
            if gm.slot is not None and gm.slot not in self.members:
                self.members[gm.slot] = ig.nodes[gm.source]
        self.frames = {name: member.frame for name, member in self.members.items()}
        self.frame = group.frame
        self.flat = ig.projected and group.frame.dim < mnode.frame_template.dim
        try:
            self.template = _flatten_frame(mnode.frame_template) if self.flat else mnode.frame_template
            self.pinv = _template_pinv(mnode, self.flat)
        except DegenerateFrameError:
            self.template = None
        self.placed = []
        for name, member in self.members.items():
            src = mnode.part(name).frame
            if self.flat:
                try:
                    src = _flatten_frame(src)
                except DegenerateFrameError:
                    src = None
            self.placed.append((name, src, member.frame, mnode.part(name).elasticity,
                                model.node(member.model_type).symmetry_class))
        self.plan_key = (_FIT, self.flat, tuple((name, sym) for name, *_, sym in self.placed))


def _placement_strains(memo, pairs) -> list:
    """Per (slots, group frame) pair of `pairs`, the placement strain of
    every realized slot of the `_GroupSlots` by name, in `placed` order
    (callers sum it in that order): the one path by which group placements
    are scored.

    Each strain is kept in `memo`, the scene's strain memo (`ig.strains`),
    keyed by `_PLACEMENT`, the group's type and `flat` (which fix the
    slot's template frame and elasticity), the group frame, the slot name,
    the member's frame and the member's symmetry class. Frames hash by
    identity and are never changed in place (`Frame`), so an entry holds as
    long as the memo, and a key that several pairs share is scored once.

    Only the slots that miss are predicted, all of them in one stacked step
    per dimension: the map carrying each pair's template onto its frame
    (`frame_onto`), then each slot frame under it, in matmuls of
    `AffineMap.apply_frame`'s per-item shapes, as `apply_similarities`
    does, so every prediction is bit for bit `apply_frame`'s; the stack is
    checked once (`check_frames`). A slot whose template or slot frame
    degenerates, or whose prediction `Frame` would reject, costs infinite
    strain; the others are scored by `placement_strain`.
    """
    keys = []
    stacks = {}  # dimension -> memo key -> (slots, group frame, placed row)
    for slots, frame in pairs:
        head = (_PLACEMENT, slots.mnode.type_name, slots.flat, frame)
        own = [head + (name, obs, sym) for name, _, obs, _, sym in slots.placed]
        keys.append(own)
        for key, row in zip(own, slots.placed):
            if key in memo:
                continue
            if slots.template is None or row[1] is None:
                memo[key] = math.inf
            else:
                stacks.setdefault(frame.dim, {})[key] = (slots, frame, row)
    for jobs in stacks.values():
        maps = {}  # (slots, group frame) -> its map's row
        of = [maps.setdefault((slots, frame), len(maps)) for slots, frame, _ in jobs.values()]
        linear = (np.array([frame.axes for _, frame in maps]).transpose(0, 2, 1)
                  @ np.array([slots.pinv for slots, _ in maps]))
        offset = (np.array([frame.origin for _, frame in maps])
                  - (linear @ np.array([slots.template.origin for slots, _ in maps])[..., None])[..., 0])
        srcs = [src for _, _, (_, src, *_) in jobs.values()]
        lin = linear[of]
        origins = (lin @ np.array([src.origin for src in srcs])[..., None])[..., 0] + offset[of]
        axes = np.array([src.axes for src in srcs]) @ lin.transpose(0, 2, 1)
        ok, lengths = check_frames(origins, axes)
        for i, (key, (_, _, (_, _, obs, elasticity, sym))) in enumerate(jobs.items()):
            if ok[i]:
                pred = Frame.from_checked(origins[i], axes[i], tuple(lengths[i].tolist()))
                memo[key] = placement_strain(pred, obs, elasticity, sym)
            else:
                memo[key] = math.inf
    return [{key[4]: memo[key] for key in own} for own in keys]


def refresh_conditionals(ig, cfg: Config | None = None):
    """Re-derive every link conditional from the current frames: the one
    writer of the conditionals `verify` leaves at 1. A specialization
    instance's link takes its screens' summed strains, each a residual.

    Relation and placement strains go through the scene's memo
    (`ig.strains`, see `relation_strains` and `_placement_strains`), so a
    relation or a slot whose frames have not been replaced since it was
    last scored is not scored again. The placement strains of every group
    are scored in one `_placement_strains` call."""
    cfg = cfg or Config()
    groups = _groups(ig, ig.active_nodes())
    placements = _placement_strains(ig.strains, [(slots, slots.frame) for _, slots in groups])
    for (group, slots), s_slot in zip(groups, placements):
        mnode = slots.mnode
        frames = slots.frames
        share = {name: 0.0 for name in slots.members}
        if slots.template is not None:
            for rel, s in relation_strains(ig, mnode, mnode.relations, frames, cfg.s_fail,
                                           group.frame):
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
            for sl in ig.links_from(po.source, "specializes"):
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
            for rel, s in relation_strains(ig, mnode, screens, frames, cfg.s_fail, group.frame):
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
    back for the member. Every link `verify` makes starts at 1 until refreshed.

    Returns the shadow node, or None when the types matched directly.
    """
    group = ig.nodes[tuple(group_key)]
    member = ig.nodes[tuple(member_key)]
    mnode = ig.model.node(group.model_type)
    slot = mnode.part(slot_name)
    if slot.type_name == member.model_type:
        ig.add_link("group-member", member.key, group.key, slot=slot_name, carries_up=True)
        return None
    shadow = ig.add_node(slot.type_name, frame=member.frame, spec_slot=slot_name)
    ig.add_link("specializes", shadow.key, member.key)
    ig.add_link("part-of", shadow.key, group.key, slot=slot_name)
    ig.add_link("group-member", member.key, group.key, slot=slot_name, carries_up=False)
    return shadow


def group_weight(mnode, optional_weight: float) -> float:
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


def _update_node(ig, key, cfg):
    node = ig.nodes[key]
    num = 0.0
    den = node.template_weight
    supported = False
    if node.is_primitive and node.strength > 0:
        num += cfg.p0 * node.strength
        supported = True
    for l in ig.incident(key):  # a pruned node has no links
        if l.source == key:
            if l.kind == "group-member":
                num += ig.nodes[l.target].probability * l.conditional
                den += 1.0
                supported = True
            elif l.kind == "specializes":
                num += ig.nodes[l.target].probability * l.conditional
                supported = True
        elif l.kind == "part-of" or (l.kind == "group-member" and l.carries_up):
            num += ig.nodes[l.source].probability * l.conditional
            supported = True
    if not supported:
        return
    p = min(1.0, max(0.0, num / den)) if den > 0 else 0.0
    if node.is_primitive:
        p = max(p, min(1.0, cfg.p0 * node.strength))
    node.probability = p


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


def propagate(ig, nodes, cfg: Config | None = None):
    """One wave of probability updates.

    A breadth-first wave flows outward from `nodes`, the ones a wave's
    verification just created: upward through part-of and carrying
    group-member links immediately, downward (a group supporting its members)
    through at most cfg.backward_depth hops, with shadow-node refreshes free.
    Within each front nodes update supporters-first, and each node updates at
    most once per wave. A pruned node has no links, so none is offered.
    """
    cfg = cfg or Config()
    ranks = _upward_ranks(ig)
    order_key = lambda k: (ranks.get(k, 0), k)
    visited = set()
    depth = {node.key: 0 for node in nodes}
    frontier = sorted(depth, key=order_key)
    while frontier:
        offers = {}
        for key in frontier:
            visited.add(key)
            _update_node(ig, key, cfg)
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
    return ig


def _offer(offers, depth, key, d):
    if key not in depth or d < depth[key]:
        depth[key] = d
    offers[key] = True


# -- pruning ---------------------------------------------------------------------


def _bundle_links(ig, link):
    """Expand one doomed link to its whole slot bundle (and its shadow node).
    A link hashes by identity, so `doomed` is an insertion-ordered set of links."""
    doomed = {link: None}
    spec_nodes = []
    group_key = None
    slot = link.slot
    if link.kind in ("group-member", "part-of") and slot is not None:
        group_key = link.target
    elif link.kind == "specializes":
        src = ig.nodes[link.source]
        spec_nodes.append(src)
        if src.spec_slot is not None:
            for po in ig.links_from(src.key, "part-of"):
                group_key = po.target
                slot = po.slot
    if group_key is not None and slot is not None:
        for l in ig.links_to(group_key):
            if l.slot == slot and l.kind in ("group-member", "part-of"):
                doomed[l] = None
                if l.kind == "part-of" and ig.nodes[l.source].spec_slot is not None:
                    spec_nodes.append(ig.nodes[l.source])
                    for sl in ig.links_from(l.source, "specializes"):
                        doomed[sl] = None
    return list(doomed), spec_nodes


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


# First element of a fit plan's key in `ModelNode.pinv_cache`, whose pinv
# keys are the bools `flat` (`_template_pinv`)
_FIT = "fit"


class _FitPlan(NamedTuple):
    """What the closed-form fit of a group (`_fitted_frames`) reads from its
    model type alone, for one `_GroupSlots.plan_key`.

    `x` holds the slot origins, one row per placed slot, `offset` the
    template origin less their mean; `line` is the longest slot origin
    about the mean where the 3D slot origins lie on one line, else None,
    and `along_line` those origins' products with it. `sigma_o` and
    `sigma_s` are the slots' elasticities. Per nonzero template axis,
    `units` holds the unit axis u, and `axes` the axis index, its length,
    each slot origin's coordinate along u from the template origin, each
    slot's size term along u (0 where the slot adds no size row), and
    `rows`: where the design's rows sit among each slot's origin row
    followed by its size row.
    """

    x: np.ndarray
    offset: np.ndarray
    line: np.ndarray | None
    along_line: np.ndarray | None
    sigma_o: np.ndarray
    sigma_s: np.ndarray
    units: np.ndarray
    axes: list


def _fit_plan(slots: _GroupSlots) -> _FitPlan | None:
    """The fit plan of the group's type and `plan_key`, or None where the
    slots cannot pin a fit (a template or slot frame that degenerates, or
    fewer than two slots). Built on first use and cached on the model node
    (`pinv_cache`, keyed by `plan_key`), since templates never change."""
    cache = slots.mnode.pinv_cache
    if slots.plan_key in cache:
        return cache[slots.plan_key]
    template = slots.template
    srcs = [src for _, src, *_ in slots.placed]
    plan = None
    if template is not None and len(srcs) >= 2 and None not in srcs:
        x = np.array([src.origin for src in srcs])
        mean = x.mean(axis=0)
        xc = x - mean
        line = along_line = None
        if x.shape[1] == 3 and np.linalg.matrix_rank(xc) < 2:
            line = xc[np.argmax(np.einsum("ij,ij->i", xc, xc))]
            along_line = xc @ line
        units, axes = [], []
        for k, length in enumerate(template.lengths):
            if length <= 0.0:
                continue
            u = template.axes[k] / length
            coords = [float(u @ (src.origin - template.origin)) for src in srcs]
            sizes, rows = [], []
            for j, (src, (*_, sym)) in enumerate(zip(srcs, slots.placed)):
                along = abs(float(u @ src.primary_axis))
                sized = (sym != "circle" and along >= (1.0 - 1e-9) * src.primary_length
                         and np.count_nonzero(src.lengths == src.primary_length) == 1)
                sizes.append(along if sized else 0.0)
                rows += [2 * j, 2 * j + 1] if sized else [2 * j]
            units.append(u)
            axes.append((k, length, np.array(coords), np.array(sizes), np.array(rows)))
        sigma_o, sigma_s = np.array([elasticity[:2] for *_, elasticity, _ in slots.placed]).T
        plan = _FitPlan(x, template.origin - mean, line, along_line, sigma_o, sigma_s,
                        np.array(units), axes)
    cache[slots.plan_key] = plan
    return plan


def _fitted_frames(groups) -> list:
    """Per `_GroupSlots` of `groups`, the group frame that best places its
    realized slots on their members, in closed form; None where the
    members cannot pin one.

    It minimizes the origin and size terms of `placement_strain` linearized:
    origin offsets over each member's canonical scale, log size ratios as
    relative differences. A similarity fit of the slot origins onto the
    member origins (Umeyama 1991) gives the rotation, which carries each
    nonzero template axis onto a direction w. Along w, slot j's origin sits
    at o + l c_j (o the frame origin's coordinate, l the axis length, c_j the
    slot origin's template coordinate over the template axis length), and a
    slot whose only longest axis lies along the template axis adds a size
    row. One weighted least-squares solve per axis gives (o, l); an axis
    these rows leave unpinned keeps the frame's current length.

    The groups are fitted in stacks, one per fit plan (`_fit_plan`), which
    holds what depends on the model alone: one `fit_similarities` call per
    plan, whose rows do not depend on one another, so each is bit for bit
    `fit_similarity`'s, then `_solved_frames`.
    """
    out = [None] * len(groups)
    stacks = {}  # (type, plan key) -> (plan, [(group index, member origins, scales)])
    for i, slots in enumerate(groups):
        plan = _fit_plan(slots)
        if plan is None:
            continue
        try:
            scales = [canonical_scale(obs, sym) for _, _, obs, _, sym in slots.placed]
        except DegenerateFrameError:  # a member too flat for its symmetry class
            continue
        y = np.array([obs.origin for _, _, obs, *_ in slots.placed])
        if y.shape == plan.x.shape:
            stacks.setdefault((slots.mnode.type_name, slots.plan_key),
                              (plan, []))[1].append((i, y, scales))
    for plan, rows in stacks.values():
        ys = np.array([y for _, y, _ in rows])
        fit = fit_similarities(np.broadcast_to(plan.x, ys.shape), ys)
        solved = []  # (group index, member origins, scales, scaled rotation)
        for (i, y, scales), ok, scale, rotation in zip(rows, fit.ok.tolist(), fit.scales,
                                                       fit.rotations):
            if not ok:
                continue
            rot = float(scale) * rotation
            if plan.line is not None:
                rot = _line_rotation(groups[i], plan, y)
            if rot is not None:
                solved.append((i, y, scales, rot))
        frames = _solved_frames(plan, [groups[i] for i, *_ in solved], [row[1:] for row in solved])
        for (i, *_), frame in zip(solved, frames):
            out[i] = frame
    return out


def _line_rotation(slots: _GroupSlots, plan: _FitPlan, y):
    """The scaled rotation of a group whose slot origins lie on one line,
    which leaves the spin about it free: the frame's own, turned the least
    way that lays its line on the members'; None where that is not finite."""
    current = frame_onto(slots.template, slots.frame, slots.pinv).linear
    have, want = current @ plan.line, (y - y.mean(axis=0)).T @ plan.along_line
    have, want = have / np.linalg.norm(have), want / np.linalg.norm(want)
    skew = np.cross(np.eye(3), np.cross(have, want))
    rot = (np.eye(3) + skew + skew @ skew / (1.0 + have @ want)) @ current
    return rot if np.isfinite(rot).all() else None


def _solved_frames(plan: _FitPlan, groups, rows) -> list:
    """The fitted frames (`_fitted_frames`) of the groups of one plan, given
    per group its member origins, their canonical scales and its scaled
    rotation.

    Each axis's design rows and targets are built for the whole stack, in
    matmuls of the per-group shapes (`rot @ u`, `w @ origin` dot products)
    and elementwise steps in the per-group order, so each group's rows are
    bit for bit those it would build alone; the least-squares solves, which
    numpy does not stack, and the frames are made per group.
    """
    if not rows:
        return []
    ys, scales, rots = (np.array(column) for column in zip(*rows))
    turned = (rots[:, None] @ plan.units[None, :, :, None])[..., 0]
    ws = turned / np.sqrt(turned[..., None, :] @ turned[..., :, None])[..., 0]
    # (n, axes, k): each member origin's coordinate along each w
    along_w = (ys[:, None, :, None, :] @ ws[:, :, None, :, None])[..., 0, 0]
    weights = 1.0 / (plan.sigma_o * scales)
    n, k = weights.shape
    solves = []
    for a, (_, length, coords, sizes, rows) in enumerate(plan.axes):
        design = np.zeros((n, k, 2, 2))
        design[:, :, 0, 0] = weights
        design[:, :, 0, 1] = weights * coords / length
        design[:, :, 1, 1] = sizes / (length * scales * plan.sigma_s)
        target = np.empty((n, k, 2))
        target[:, :, 0] = weights * along_w[:, a]
        target[:, :, 1] = 1.0 / plan.sigma_s
        solves.append((design.reshape(n, 2 * k, 2)[:, rows], target.reshape(n, 2 * k)[:, rows]))
    out = []
    for i, (slots, y, rot) in enumerate(zip(groups, ys, rots)):
        origin = y.mean(axis=0) + rot @ plan.offset
        axes = np.zeros_like(slots.template.axes)
        for (k, *_), w, (design, target) in zip(plan.axes, ws[i], solves):
            design, target = design[i], target[i]
            (o, l), _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
            if rank < 2:
                l = slots.frame.lengths[k]
                (o,), *_ = np.linalg.lstsq(design[:, :1], target - design[:, 1] * l, rcond=None)
            origin = origin + (o - float(w @ origin)) * w
            axes[k] = l * w
        out.append(Frame(origin, axes))
    return out


def _groups(ig, nodes) -> list:
    """(node, its `_GroupSlots`) for each node of `nodes`, in key order,
    whose model type has parts."""
    model = ig.require_model()
    out = []
    for node in sorted(nodes, key=lambda n: n.key):
        mnode = model.nodes.get(node.model_type)
        if mnode is not None and mnode.parts:
            out.append((node, _GroupSlots(ig, node)))
    return out


def relax_frames(ig, nodes):
    """Move each group frame among `nodes` to its closed-form fit where that
    lowers the placement strain of the group's own slots.

    `nodes` are a wave's fresh nodes, which are members of no group: a wave
    binds only nodes of its snapshot, so a node's own slots hold every
    strain its frame takes part in, and no move changes another node's
    slots. It reads links and frames, never a conditional, and runs before
    the wave's only refresh. The movable nodes are those neither primitive
    (primitives anchor the data) nor the source of a `specializes` link
    (a shadow or a specialization instance). The wave is relaxed in
    stacks: every movable node's `_GroupSlots` is gathered first, all their
    fits are made in one `_fitted_frames` call, and the placement strains
    of every fitted and every kept frame are scored in one
    `_placement_strains` call. A node takes its fit only when that raises
    exp(-s/2) of s, the summed placement strains of its slots, so s never
    rises, and a move too small to change that factor is not made. Last,
    each specialization instance takes its group's frame, which may have
    moved, and each shadow its source's, a snapshot node that never moves.
    """
    nodes = sorted(nodes, key=lambda n: n.key)
    groups = _groups(ig, [node for node in nodes if not node.is_primitive
                          and not ig.links_from(node.key, "specializes")])
    fits = _fitted_frames([slots for _, slots in groups])
    moves = [(node, slots, fitted) for (node, slots), fitted in zip(groups, fits)
             if fitted is not None]
    placements = _placement_strains(ig.strains, [(slots, frame) for _, slots, fitted in moves
                                                 for frame in (fitted, slots.frame)])
    for i, (node, _, fitted) in enumerate(moves):
        s_fitted, s_kept = (sum(s_slot.values(), 0.0) for s_slot in placements[2 * i:2 * i + 2])
        if cond_probability(s_fitted) > cond_probability(s_kept):
            node.frame = fitted
    for node in nodes:
        up = ig.links_from(node.key, "specializes")
        if up:
            node.frame = ig.nodes[up[0].target].frame
    return ig
