"""Scene recognition: growing an image graph upward from primitives.

Recognition is graph construction, not graph matching. Every model access is
a lookup by type name or by the hypothesis index key, never a traversal that
compares structures. The driver alternates bottom-up grouping hypotheses
(two nearby instances suggest a group via the index) with top-down
verification (predict the group's slots, find the parts, bind them),
then lets belief propagation, relaxation, and pruning settle each wave.

A 3D model viewed in a 2D scene runs in projected mode: hypothesis
transforms are fitted affine cameras, predictions are projections, and only
affine-invariant relations are scored.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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
    fit_similarities,
    fit_similarity,
    project,
    similarity_of,
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


def _correspondences(m1, m2, i1, i2, projected):
    """Model points and every candidate image point set for taking the two
    model slot frames onto the clue frames.

    Image axis directions are sign-ambiguous (a segment has no arrow), so
    each sign assignment of the usable tips is one candidate set. Projected
    mode also varies the tip order of each clue, because shear can swap
    which image axis comes out longest, so rank no longer pins the
    correspondence. Returns (model points (k, dm), image points (r, k, di)),
    the r sets running over tip orders, then sign assignments.
    """
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
    replace it only by a strictly lower residual" ends on, or None."""
    rows = np.flatnonzero(usable)
    if not len(rows):
        return None
    res = residuals[rows]
    if np.isnan(res[0]):
        return int(rows[0])
    return int(rows[np.argmin(np.where(np.isnan(res), np.inf, res))])


def _fit_similarity_sets(sets) -> list:
    """Per (model points, image point sets), the best similarity or None.

    Rows of one shape are fitted in one stacked call."""
    by_shape: dict = {}
    for c, (_, image) in enumerate(sets):
        by_shape.setdefault(image.shape[1:], []).append(c)
    out = [None] * len(sets)
    for members in by_shape.values():
        counts = [len(sets[c][1]) for c in members]
        model = np.repeat(np.array([sets[c][0] for c in members]), counts, axis=0)
        fit = fit_similarities(model, np.concatenate([sets[c][1] for c in members]))
        start = 0
        for c, count in zip(members, counts):
            rows = slice(start, start + count)
            best = _first_lowest(fit.residuals[rows], fit.ok[rows])
            if best is not None:
                out[c] = similarity_of(fit, start + best)
            start += count
    return out


def _fit_camera(model_pts, image):
    """Best affine camera over the image point sets, or None: each set is
    fitted alone, a rank-deficient camera is skipped, and the first lowest
    residual wins."""
    best = None
    for ipts in image:
        try:
            (linear, trans), res = fit_affine(model_pts, ipts)
            cand = AffineCamera(linear, trans)
        except (UnderConstrainedError, DegenerateFrameError):
            continue
        if best is None or res < best[1]:
            best = (cand, res)
    return None if best is None else best[0]


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


class _Columns(NamedTuple):
    """Per-frame scalars the column prefilters read, one row per frame.

    `lengths` is the primary length, `axes` the primary axis row padded to
    three components (a zero row for a degenerate frame), `single` whether
    exactly one axis is nonzero, and `rss` the root-sum-square of the axis
    lengths.
    """

    origins: np.ndarray
    lengths: np.ndarray
    axes: np.ndarray
    single: np.ndarray
    rss: np.ndarray

    @staticmethod
    def of(frames) -> "_Columns":
        dim = frames[0].dim if frames else 3
        n = len(frames)
        lengths = np.array([f.lengths for f in frames]).reshape(n, dim)
        primary = lengths.max(axis=1, initial=0.0)
        rows = np.array([f.axes for f in frames]).reshape(n, dim, dim)[
            np.arange(n), lengths.argmax(axis=1)]
        axes = np.zeros((n, 3))
        axes[:, :dim] = np.where((primary > 0)[:, None], rows, 0.0)
        return _Columns(np.array([f.origin for f in frames]).reshape(n, dim), primary, axes,
                        np.count_nonzero(lengths > 0, axis=1) == 1,
                        _row_norms(lengths))

    def take(self, rows) -> "_Columns":
        return _Columns(*(col[rows] for col in self))


class CandidateIndex:
    """Per-wave snapshot of the candidate nodes, for cheap radius queries and
    column prefilters.

    Holds the non-spec, non-pruned nodes in key order and their frames'
    `_Columns`, taken once the graph has settled (after relax and prune).
    Frames and statuses only change between waves, and nodes are never
    removed from `ig.nodes`, so within a wave the snapshot stays valid and
    nodes inserted after it are exactly the tail of `ig.nodes`.

    Prefilter contract: whatever is computed from the columns only narrows
    the candidates to a superset of those that pass, with `_PREFILTER_SLACK`
    to spare; every survivor then faces the exact scalar gate, so a decision
    never depends on the columns' rounding.

    The same invariant lets the wave's pure steps be memoized here, for the
    hypotheses that suggest a group already tried (every pair of an
    object's parts suggests it):
    - `strains` maps (function, target, tolerance, operand node keys) to a
      relation strain (`_relation_strain`), shared by screening and the
      relation check. A strain that reads the group frame (a row-resolved
      relation of a projected scene) is never kept.
    - `refits` maps (group type, rough matching, fresh fitting nodes) to
      the refit transform and its gated matching (`_refit_matching`). The
      last term counts the fresh candidates of a type that fits one of the
      group's slots, so an entry retires once a node it could bind has been
      inserted.
    """

    def __init__(self, ig: ImageGraph):
        self.ig = ig
        self.nodes = [n for n in ig.sorted_nodes()
                      if n.spec_slot is None and n.status != "pruned"]
        self._seen = len(ig.nodes)
        self.cols = _Columns.of([n.frame for n in self.nodes])
        self._type_masks: dict = {}
        self.strains: dict = {}
        self.refits: dict = {}

    def fresh(self) -> list:
        """Nodes inserted since the snapshot, in insertion order."""
        return list(itertools.islice(self.ig.nodes.values(), self._seen, None))

    def of_types(self, types: frozenset) -> np.ndarray:
        """Mask of the snapshot nodes whose model type is in `types`."""
        mask = self._type_masks.get(types)
        if mask is None:
            mask = np.array([n.model_type in types for n in self.nodes], dtype=bool)
            self._type_masks[types] = mask
        return mask

    def near(self, points, radii) -> list:
        """Per query point, (rows, d2): the rows of the snapshot nodes within
        its radius (plus a small slack) and their squared origin distances,
        rounded as numpy rounds them.

        A superset of the exact answer among the snapshot nodes: callers
        re-check status, spec slot and the exact distance on what comes
        back, and treat every fresh() node as a candidate too.
        """
        if not self.nodes:
            return [(np.zeros(0, dtype=int), np.zeros(0)) for _ in radii]
        diff = self.cols.origins[None, :, :] - np.asarray(points)[:, None, :]
        d2 = np.einsum("knd,knd->kn", diff, diff)
        reach = np.asarray(radii) * (1.0 + _PREFILTER_SLACK)
        out = []
        for row, r in zip(d2, reach):
            rows = np.flatnonzero(row <= r * r)
            out.append((rows, row[rows]))
        return out


def _distance(p, q) -> float:
    """Euclidean distance, bit for bit what np.linalg.norm(p - q) returns
    (sqrt of the dot product) without its dispatch overhead."""
    diff = p - q
    return math.sqrt(float(diff.dot(diff)))


# -- lower bounds of the scalar strains ---------------------------------------------
#
# Each bound is at most the strain it stands in for, for every input, with
# the slack inside the bound: a candidate whose bound already fails the gate
# fails the exact gate too, so skipping it changes nothing.


def _origin_bound(d, sigma_o, scale):
    """Lower bound of placement_strain from the origin offset `d` alone.

    placement_strain's origin term is (d / (sigma_o * canonical scale))^2,
    and the canonical scale of every symmetry class is at most the
    prediction's primary length `scale`; the other terms are nonnegative.
    """
    return (d / (sigma_o * scale)) ** 2 * (1.0 - _PREFILTER_SLACK)


def _gap_bound(observed, target, tolerance, margin):
    """((observed - target) / tolerance)^2 with the gap shrunk by `margin`,
    which covers the rounding of `observed` computed in columns."""
    gap = np.maximum(np.abs(observed - target) - margin, 0.0)
    return (gap / tolerance) ** 2


def _row_norms(v):
    return np.sqrt(np.einsum("nd,nd->n", v, v))


def _pad3(v):
    return v if v.shape[1] == 3 else np.hstack([v, np.zeros((len(v), 3 - v.shape[1]))])


def _segment_angles(a: _Columns, b: _Columns):
    """angle_between on frames with a single nonzero axis each, in columns:
    the same float operations in the same order, with numpy's arctan2."""
    a0, a1, a2 = a.axes.T
    b0, b1, b2 = b.axes.T
    scale = a.lengths * b.lengths
    dot = (a0 * b0 + a1 * b1 + a2 * b2) / scale
    cx = a1 * b2 - a2 * b1
    cy = a2 * b0 - a0 * b2
    cz = a0 * b1 - a1 * b0
    cross = np.sqrt(cx * cx + cy * cy + cz * cz) / scale
    return np.arctan2(cross, np.abs(dot))


def _segment_distances(a: _Columns, b: _Columns):
    """geometry._segment_distance on the primary axes, in columns: the same
    float operations in the same order, so a row is bit for bit the scalar
    result for frames with a single nonzero axis each."""
    ca, cb = _pad3(a.origins), _pad3(b.origins)
    ax, ay, az = a.axes.T
    bx, by, bz = b.axes.T
    rx, ry, rz = (ca - cb).T
    a_ = ax * ax + ay * ay + az * az
    e = bx * bx + by * by + bz * bz
    b_ = ax * bx + ay * by + az * bz
    c = ax * rx + ay * ry + az * rz
    f = bx * rx + by * ry + bz * rz
    nx = ay * bz - az * by
    ny = az * bx - ax * bz
    nz = ax * by - ay * bx
    denom = nx * nx + ny * ny + nz * nz
    num = ((ny * bz - nz * by) * rx + (nz * bx - nx * bz) * ry
           + (nx * by - ny * bx) * rz)
    parallel = denom == 0.0
    s = np.where(parallel, 0.0,
                 np.minimum(1.0, np.maximum(-1.0, num / np.where(parallel, 1.0, denom))))
    t = (b_ * s + f) / e
    low, high = t < -1.0, t > 1.0
    s = np.where(low, np.minimum(1.0, np.maximum(-1.0, (-b_ - c) / a_)), s)
    s = np.where(high, np.minimum(1.0, np.maximum(-1.0, (b_ - c) / a_)), s)
    t = np.where(low, -1.0, np.where(high, 1.0, t))
    dx = rx + s * ax - t * bx
    dy = ry + s * ay - t * by
    dz = rz + s * az - t * bz
    return np.sqrt(dx * dx + dy * dy + dz * dz)


@np.errstate(all="ignore")  # rows that divide by zero are masked out
def _screening_bound(rel, a: _Columns, b: _Columns, s_fail: float,
                     projected: bool):
    """Per row, a lower bound of the strain relation_strains charges `rel` on
    the frames of `a` (operand 0) and `b` (operand 1).

    size-ratio and distance-ratio take their closed forms, angle and
    parallel only where both frames have a single nonzero axis (so no tied
    axes). touch charges s_fail where the origins lie further apart than
    both extents can reach, and for two segments where their distance
    exceeds the limit. Everything else, and every relation but touch in
    projected mode (whose strains are row-resolved), is bounded by 0. A
    degenerate frame, which the scalar path charges as infinite strain, is
    bounded by 0 or s_fail.
    """
    f = rel.function
    zero = np.zeros(len(a.lengths))
    if f == "touch":
        limit = rel.tolerance * np.maximum(a.lengths, b.lengths)
        gap = _row_norms(b.origins - a.origins)
        apart = gap > (a.rss + b.rss + limit) * (1.0 + _PREFILTER_SLACK)
        both = a.single & b.single
        if both.any():
            apart |= both & (_segment_distances(a, b) > limit * (1.0 + _PREFILTER_SLACK))
        return np.where(apart, s_fail, 0.0)
    if projected:
        return zero
    if f in ("size-ratio", "distance-ratio"):
        if f == "size-ratio":
            valid = (a.lengths > 0) & (b.lengths > 0)
            observed = a.lengths / np.where(valid, b.lengths, 1.0)
        else:
            valid = a.lengths > 0
            observed = _row_norms(a.origins - b.origins) / np.where(valid, a.lengths, 1.0)
        margin = _PREFILTER_SLACK * (observed + abs(rel.target))
        return np.where(valid, _gap_bound(observed, rel.target, rel.tolerance, margin), 0.0)
    if f in ("angle", "parallel"):
        both = a.single & b.single
        angles = _segment_angles(a, b)
        if f == "angle":
            bound = _gap_bound(angles, rel.target, rel.tolerance, _PREFILTER_SLACK)
        else:
            bound = np.where(angles > rel.tolerance + _PREFILTER_SLACK, s_fail, 0.0)
        return np.where(both, bound, 0.0)
    return zero


def _screen_limit(screen_min: float) -> float:
    """Largest strain sum a screening score can carry and still reach
    screen_min (score = exp(-sum / 2)), with slack for the rounding of the
    product of conditionals."""
    if screen_min <= 0.0:
        return math.inf
    return -2.0 * math.log(screen_min) * (1.0 + _PREFILTER_SLACK) + _PREFILTER_SLACK


# -- hypothesis generation ----------------------------------------------------------


# Frontier rows per block of the clue pair search: bounds the
# (rows x nodes x dim) difference array held at once.
_PAIR_BLOCK = 256


def _clue_pairs(index: CandidateIndex, frontier, gate_radius: float) -> list:
    """Row pairs (i, j) of index.nodes, both verified, at least one in the
    frontier, whose origins lie within gate_radius times the larger primary
    length; in the order of a combinations walk over index.nodes.

    The gate is decided in columns where the column distance clears it by
    more than `_PREFILTER_SLACK` either way, and by the scalar distance in
    between, so every decision is the scalar one.
    """
    nodes = index.nodes
    n = len(nodes)
    if not n:
        return []
    origins, lengths = index.cols.origins, index.cols.lengths
    frontier_keys = {node.key for node in frontier}
    verified = np.array([node.status == "verified" for node in nodes], dtype=bool)
    rows = np.flatnonzero(verified & np.array([node.key in frontier_keys for node in nodes],
                                              dtype=bool))
    codes = [np.zeros(0, dtype=int)]
    for start in range(0, len(rows), _PAIR_BLOCK):
        block = rows[start:start + _PAIR_BLOCK]
        diff = origins[None, :, :] - origins[block, None, :]
        d2 = np.einsum("knd,knd->kn", diff, diff)
        reach = gate_radius * (1.0 + _PREFILTER_SLACK) * np.maximum(lengths, lengths[block, None])
        near = (d2 <= reach * reach) & verified
        near[np.arange(len(block)), block] = False
        i, j = np.nonzero(near)
        i = block[i]
        codes.append(np.minimum(i, j) * n + np.maximum(i, j))
    first, second = np.divmod(np.unique(np.concatenate(codes)), n)
    diff = origins[first] - origins[second]
    d2 = np.einsum("nd,nd->n", diff, diff)
    reach = gate_radius * np.maximum(lengths[first], lengths[second])
    inside = d2 <= (reach * (1.0 - _PREFILTER_SLACK)) ** 2
    out = []
    for i, j, sure in zip(first.tolist(), second.tolist(), inside.tolist()):
        if sure:
            out.append((i, j))
            continue
        a, b = nodes[i].frame, nodes[j].frame
        if _distance(a.origin, b.origin) <= gate_radius * max(a.primary_length,
                                                              b.primary_length):
            out.append((i, j))
    return out


# Clue pairs screened per block of columns: bounds the arrays and the
# survivor list held at once.
_SCREEN_BLOCK = 256


def _screened(index: CandidateIndex, model: ModelGraph, pairs, cfg: Config,
              projected: bool):
    """Yield (midx entry, ordered clue nodes) for every screening the column
    bounds cannot rule out, in the scalar order: pair, then midx entry, then
    orientation. A superset of the screenings that reach cfg.screen_min."""
    nodes = index.nodes
    limit = _screen_limit(cfg.screen_min)
    fits = model.abstract
    for start in range(0, len(pairs), _SCREEN_BLOCK):
        block = np.array(pairs[start:start + _SCREEN_BLOCK], dtype=int)
        by_types: dict = {}
        for p, (i, j) in enumerate(block.tolist()):
            by_types.setdefault((nodes[i].model_type, nodes[j].model_type), []).append(p)
        survivors = []
        for (type_a, type_b), group in by_types.items():
            group = np.array(group)
            cols = (index.cols.take(block[group, 0]), index.cols.take(block[group, 1]))
            for e, entry in enumerate(midx_lookup(model.midx, type_a, type_b)):
                mnode = model.node(entry.hypothesis)
                s1, s2 = entry.slots
                fits1 = fits.get(mnode.part(s1).type_name, frozenset())
                fits2 = fits.get(mnode.part(s2).type_name, frozenset())
                for o, (ta, tb) in enumerate(((type_a, type_b), (type_b, type_a))):
                    if ta not in fits1 or tb not in fits2:
                        continue
                    slot_cols = {s1: cols[o], s2: cols[1 - o]}
                    total = np.zeros(len(group))
                    for rel in entry.screening:
                        op_a, op_b = rel.operands
                        total += np.minimum(_screening_bound(rel, slot_cols[op_a],
                                                             slot_cols[op_b],
                                                             cfg.s_fail, projected), 1e6)
                    survivors.extend((p, e, o) for p in group[total <= limit].tolist())
        survivors.sort()
        for p, e, o in survivors:
            a, b = nodes[block[p, 0]], nodes[block[p, 1]]
            entry = midx_lookup(model.midx, a.model_type, b.model_type)[e]
            yield entry, ((a, b) if o == 0 else (b, a))


# Relations that a projected scene reads along rows resolved through the
# group frame, when there is one (belief.relation_strain_projected).
_ROW_RESOLVED = frozenset(("size-ratio", "distance-ratio", "angle", "parallel"))


def _relation_strain(index, mnode, rel, a, b, s_fail, projected, group_frame=None) -> float:
    """The strain relation_strains charges a usable `rel` on its operand
    nodes `a` and `b`, computed once per wave and (function, target,
    tolerance, operand keys) in `index.strains`: midx entries of one group
    often repeat a spec (truck_flat's rectangle has three identical touch
    entries), and the relation check of every hypothesis of an object reads
    the same member pairs. The key names all the strain reads: a node's
    frame is fixed within a wave, and s_fail and the viewing mode within a
    run. Only a row-resolved relation in a projected scene given a group
    frame also reads that frame; its strain is never kept."""
    frames = {op: node.frame for op, node in zip(rel.operands, (a, b))}
    if projected and group_frame is not None and rel.function in _ROW_RESOLVED:
        ((_, s),) = relation_strains(mnode, [rel], frames, s_fail, projected, group_frame)
        return s
    target = rel.target.tobytes() if isinstance(rel.target, np.ndarray) else rel.target
    key = (rel.function, target, rel.tolerance, a.key, b.key)
    s = index.strains.get(key)
    if s is None:
        ((_, s),) = relation_strains(mnode, [rel], frames, s_fail, projected)
        index.strains[key] = s
    return s


def _screening_score(mnode, entry, ca, cb, cfg, projected, index) -> float:
    """Product of the conditionals of the entry's screening relations on the
    clue frames, each strain through the wave's cache (`_relation_strain`).
    A screening relation's operands are the entry's two slots (build_midx)."""
    s1, s2 = entry.slots
    nodes = {s1: ca, s2: cb}
    score = 1.0
    for rel in entry.screening:
        if not relation_usable(rel, mnode, projected):
            continue
        a, b = (nodes[op] for op in rel.operands)
        s = _relation_strain(index, mnode, rel, a, b, cfg.s_fail, projected)
        score *= cond_probability(min(s, 1e6))
    return score


def _fit_round(model, heads, projected) -> list:
    """The best transform of each (entry, clue a, clue b), or None where no
    sign assignment (nor tip order) gives a usable fit."""
    sets = []
    for entry, ca, cb in heads:
        mnode = model.node(entry.hypothesis)
        s1, s2 = entry.slots
        sets.append(_correspondences(mnode.part(s1).frame, mnode.part(s2).frame,
                                     ca.frame, cb.frame, projected))
    if projected:
        return [_fit_camera(*pts) for pts in sets]
    return _fit_similarity_sets(sets)


def generate_hypotheses(ig: ImageGraph, model: ModelGraph, frontier, cfg: Config,
                        index: CandidateIndex) -> list:
    """Pairs with a frontier member and close origins suggest groups.

    Keeps, per (group type, clue pair), the best-screening slot assignment
    with its fitted transform; a screening score is the product of the
    screening-relation conditionals and must reach cfg.screen_min. `index`
    must be a snapshot of the graph as it is now.

    Prefilter contract: column lower bounds of the screening strains
    (`_screening_bound`) pick a superset of the screenings that can pass;
    only those are scored exactly by relation_strains. Each key then takes
    its passing assignments in order of score (ties by first occurrence) and
    keeps the first with a usable fit: the assignment the scalar rule "fit
    every one, keep a strictly better score" would keep. Fits run in rounds:
    each round fits the next assignment of every key still without one (see
    `_fit_round`).

    An assignment's fit tries every sign assignment of the clues' axis tips,
    and in projected mode every tip order too (`_correspondences`); the
    lowest residual wins, the first on a tie. Plain mode fits similarities,
    all of a round's in stacked calls; projected mode fits affine cameras,
    one set at a time.
    """
    projected = ig.projected
    pairs = _clue_pairs(index, frontier, cfg.gate_radius)
    passed: dict = {}
    for order, (entry, (ca, cb)) in enumerate(_screened(index, model, pairs, cfg,
                                                        projected)):
        mnode = model.node(entry.hypothesis)
        score = _screening_score(mnode, entry, ca, cb, cfg, projected, index)
        if score < cfg.screen_min:
            continue
        key = (entry.hypothesis, frozenset((ca.key, cb.key)))
        passed.setdefault(key, []).append((-score, order, entry, ca, cb))
    queues = [sorted(c, key=lambda c: c[:2]) for c in passed.values()]
    out = []
    depth = 0
    while queues:
        heads = [q[depth][2:] for q in queues]
        waiting = []
        for queue, transform in zip(queues, _fit_round(model, heads, projected)):
            neg_score, _, entry, ca, cb = queue[depth]
            if transform is not None:
                out.append(Hypothesis(entry.hypothesis, ca.key, cb.key, entry.slots,
                                      transform, -neg_score))
            elif depth + 1 < len(queue):
                waiting.append(queue)
        queues = waiting
        depth += 1
    return sorted(out, key=lambda h: h.order_key())


# -- verification -------------------------------------------------------------------


def _essential(slot) -> bool:
    """Whether every match must fill this slot by itself: essential and in
    no variant tag (model validation gives such a slot a multiplicity lower
    bound of at least 1)."""
    return slot.essential and slot.variant_tag is None


def _match_slots(index, model, mnode, transform, cfg, projected, rough=False):
    """Predict the slots and greedily bind the closest unclaimed instances.

    The gated matching takes candidates within s_fail of their predicted
    placement, ranked by placement strain. With `rough` the same transform
    also gets a rough matching, where only the origin radius gate applies
    (it tolerates the rotational slack of a rough transform), ranked by
    origin offset over the predicted scale. Returns (gated, rough), each
    (matched, strains) where matched maps slot name to member keys, or
    (None, {}) when an essential slot cannot be filled; rough is None
    unless asked for.

    Fail fast: the slots a match cannot do without (`_essential`) come
    first. They alone are predicted and queried at first, and one with
    fewer instances of a fitting type within the query radius than its
    lower bound fails both sides before any other slot is predicted. The
    gated side then scores those slots first, and once one of them has
    fewer candidates passing the exact gate than its lower bound, it fails
    and scores no further strain; the rough side goes on alone. Both
    shortcuts are exact: a slot binds only its own candidates, gated
    candidates are rough ones, and a prediction that raises
    DegenerateFrameError fails both sides whichever slot it belongs to.

    Prefilter contract: `index.near` and `index.of_types` narrow the
    snapshot to a superset of the instances of a fitting type within the
    gate radius. A gated candidate must also lie within sigma_o *
    sqrt(s_fail) predicted primary lengths, since `_origin_bound` shows no
    farther one can pass, and is scored by placement_strain only when its
    origin bound is within s_fail; then it faces the exact gate. A rough
    candidate waits in a `_Nearest` stream behind a lower bound of its rank
    and gets its exact distance only when it could bind next (see
    `_bind`); its placement strain, read only by the variant-tag
    tie-break, is computed only once it is bound.
    """
    failed = (None, {}), ((None, {}) if rough else None)
    gate = cfg.gate_radius
    fresh = [n for n in index.fresh() if n.spec_slot is None and n.status != "pruned"]

    def candidates(slots):
        """(slot, prediction, tight radius, rows, d2, extra) per slot whose
        prediction has an extent: the snapshot rows of a fitting type
        within the query radius with their squared distances, and the
        fresh nodes of a fitting type within it (with slack). Raises
        DegenerateFrameError."""
        predicted = [(slot, _predict(transform, slot.frame, projected)) for slot in slots]
        live = [(slot, pred) for slot, pred in predicted if pred.primary_length > 0]
        if not live:
            return []
        tight = [min(gate, slot.elasticity[0] * math.sqrt(cfg.s_fail)) for slot, _ in live]
        radii = [pred.primary_length * (gate if rough else r) for (_, pred), r in zip(live, tight)]
        out = []
        for (slot, pred), r, radius, (rows, d2) in zip(
                live, tight, radii, index.near([pred.origin for _, pred in live], radii)):
            fits = model.abstract.get(slot.type_name, frozenset())
            keep = index.of_types(fits)[rows]
            reach = radius * (1.0 + _PREFILTER_SLACK)
            extra = [n for n in fresh if n.model_type in fits
                     and _distance(n.frame.origin, pred.origin) <= reach]
            out.append((slot, pred, r, rows[keep], d2[keep], extra))
        return out

    def exact_distance(node, slot, pred):
        """Origin distance of a candidate that passes the status, type and
        radius gates, else None."""
        if node.status == "pruned" or node.spec_slot is not None:
            return None
        if node.model_type not in model.abstract.get(slot.type_name, frozenset()):
            return None
        d = _distance(node.frame.origin, pred.origin)
        return None if d > gate * pred.primary_length else d

    def rough_entry(slot, pred, node):
        """The exact rough candidate, or None when it fails a gate."""
        d = exact_distance(node, slot, pred)
        if d is None:
            return None
        sym = model.node(node.model_type).symmetry_class
        return (d / pred.primary_length, slot.name, node.key,
                functools.partial(placement_strain, pred, node.frame, slot.elasticity, sym),
                None)

    def gated_entries(slot, pred, r, rows, d2, extra):
        """The slot's candidates that pass the exact gate, or None as soon
        as too few can for an essential slot."""
        scale = pred.primary_length
        inner = rows[d2 <= (r * scale * (1.0 + _PREFILTER_SLACK)) ** 2] if rough else rows
        close = []
        for node in [index.nodes[i] for i in inner.tolist()] + extra:
            d = exact_distance(node, slot, pred)
            if d is not None and _origin_bound(d, slot.elasticity[0], scale) <= cfg.s_fail:
                close.append(node)
        need = slot.multiplicity[0] if _essential(slot) else 0
        if len(close) < need:
            return None
        out = []
        for node in close:
            sym = model.node(node.model_type).symmetry_class
            s = placement_strain(pred, node.frame, slot.elasticity, sym)
            if s <= cfg.s_fail:
                out.append((s, slot.name, node.key, s, None))
        return None if len(out) < need else out

    essential = [slot for slot in mnode.parts if _essential(slot)]
    try:
        slots = candidates(essential)
        found = {slot.name: len(rows) + len(extra) for slot, _, _, rows, _, extra in slots}
        if any(found.get(slot.name, 0) < slot.multiplicity[0] for slot in essential):
            return failed
        slots += candidates([slot for slot in mnode.parts if not _essential(slot)])
    except DegenerateFrameError:
        return failed

    gated = []
    for entry in slots:
        passed = gated_entries(*entry)
        if passed is None:
            gated = failed[0]
            break
        gated.extend(passed)
    else:
        gated = _bind(mnode, gated)
    if not rough:
        return gated, None
    loose = []
    for slot, pred, _, rows, d2, extra in slots:
        resolve = functools.partial(rough_entry, slot, pred)
        loose.extend(e for e in map(resolve, extra) if e is not None)
        # rows ascend in key order, so (lower bound, row) is (lower bound, key)
        lower = np.sqrt(d2) / pred.primary_length * (1.0 - _PREFILTER_SLACK)
        order = np.lexsort((rows, lower))
        stream = _Nearest(slot.name, lower[order].tolist(),
                          [index.nodes[i] for i in rows[order].tolist()], resolve)
        head = stream.entry(0)
        if head is not None:
            loose.append(head)
    return gated, _bind(mnode, loose)


class _Nearest:
    """One slot's candidates in ascending order of (lower bound of rank, key);
    `resolve(node)` gives a candidate's exact `_bind` entry, or None when it
    fails its exact gate."""

    __slots__ = ("name", "lower", "nodes", "resolve")

    def __init__(self, name, lower, nodes, resolve):
        self.name, self.lower, self.nodes, self.resolve = name, lower, nodes, resolve

    def entry(self, pos):
        """The pending candidate at `pos` as a `_bind` entry, None past the end."""
        if pos == len(self.nodes):
            return None
        return (self.lower[pos], self.name, self.nodes[pos].key, None, (self, pos))


def _bind(mnode, candidates):
    """Greedy binding of (rank, slot name, key, strain, pending) candidates in
    rank order (ties by slot name, then key), one winner per variant tag,
    then the essential-slot check, which returns (None, {}) on failure. A
    strain may be a callable, evaluated only when its candidate is bound.

    A pending candidate is the head (stream, pos) of a `_Nearest` stream and
    carries a lower bound of its rank. When it comes first while its slot
    has room, the stream's next candidate joins the line and, unless its
    key is bound already, it is resolved to its exact candidate, which
    rejoins the line (or is dropped when it fails its exact gate). Every
    candidate still in a stream ranks at or after its head, so candidates
    bind in the order of their exact ranks, and only those that could bind
    next are resolved.
    """
    heapq.heapify(candidates)
    matched: dict = {}
    strains: dict = {}
    used = set()
    limits = {slot.name: slot.multiplicity for slot in mnode.parts}
    while candidates:
        _, name, key, s, pending = heapq.heappop(candidates)
        hi = limits[name][1]
        if hi is not None and len(matched.get(name, [])) >= hi:
            continue
        if pending is not None:
            stream, pos = pending
            follow = stream.entry(pos + 1)
            if follow is not None:
                heapq.heappush(candidates, follow)
            exact = None if key in used else stream.resolve(stream.nodes[pos])
            if exact is not None:
                heapq.heappush(candidates, exact)
            continue
        if key in used:
            continue
        matched.setdefault(name, []).append(key)
        strains.setdefault(name, []).append(s() if callable(s) else s)
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
                return None, {}
            continue
        if slot.essential and have < slot.multiplicity[0]:
            return None, {}
    return matched, strains


def _match_score(matched, strains):
    """Fuller matchings beat sparse ones; total strain breaks ties."""
    if matched is None:
        return (1, 0, math.inf)
    total = sum(sum(v) for v in strains.values())
    return (0, -sum(len(v) for v in matched.values()), total)


def _refit_matching(index, model, mnode, rough, transform, cfg, projected):
    """(refit, gated side): the transform `_refit` estimates from the rough
    matching and the gated matching it predicts.

    Both depend on the hypothesis only through its rough matching, so they
    are kept in `index.refits` per (group type, rough matching, fresh nodes
    of a type that fits a slot): a node inserted since the snapshot can
    change the gated matching only if it fits a slot, and frames and
    statuses are fixed within a wave. A refit that fell back to
    `transform` is not kept. The matched map is handed out as a copy,
    since `_drop_relation_offenders` unbinds from it.
    """
    fits = frozenset().union(*(model.abstract.get(slot.type_name, frozenset())
                               for slot in mnode.parts))
    fresh = sum(n.model_type in fits and n.spec_slot is None and n.status != "pruned"
                for n in index.fresh())
    key = (mnode.type_name, tuple((name, tuple(rough[name])) for name in sorted(rough)), fresh)
    hit = index.refits.get(key)
    if hit is None:
        refit = _refit(mnode, rough, index.ig, transform, projected)
        hit = refit, _match_slots(index, model, mnode, refit, cfg, projected)[0]
        if refit is transform:
            return hit
        index.refits[key] = hit
    refit, (matched, strains) = hit
    return refit, (None if matched is None else dict(matched), strains)


def _drop_relation_offenders(index, mnode, matched, cfg, projected, group_frame=None):
    """Relations worse than s_fail fail the group outright when every
    operand is essential; otherwise the optional offender is unbound.
    Strains come through the wave's cache (`_relation_strain`)."""
    nodes = index.ig.nodes
    while True:
        worst = None
        for rel in mnode.relations:
            if (not relation_usable(rel, mnode, projected)
                    or any(op not in matched for op in rel.operands)):
                continue
            a, b = (nodes[matched[op][0]] for op in rel.operands)
            s = _relation_strain(index, mnode, rel, a, b, cfg.s_fail, projected, group_frame)
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


def _has_group(ig, group_type, members: frozenset) -> bool:
    """Whether a live group of `group_type` has exactly `members`. Such a
    group has a group-member link from each member (`bind_member`), so
    one member's links find it; only an empty set walks every node."""
    if members:
        groups = (ig.nodes[l.target] for l in ig.links_from(min(members), "group-member"))
    else:
        groups = ig.nodes.values()
    for node in groups:
        if node.model_type != group_type or node.status == "pruned":
            continue
        if frozenset(l.source for l in ig.links_to(node.key, "group-member")) == members:
            return True
    return False


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

    (matched, strains), (rough, _) = _match_slots(index, model, mnode, h.transform,
                                                  cfg, projected, rough=True)
    transform = h.transform
    if rough:
        refit, (re_matched, re_strains) = _refit_matching(index, model, mnode, rough,
                                                          h.transform, cfg, projected)
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
    matched = _drop_relation_offenders(index, mnode, matched, cfg, projected, frame)
    if matched is None or _has_group(ig, h.group_type,
                                     frozenset(k for keys in matched.values() for k in keys)):
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
