"""Scene recognition: growing an image graph upward from primitives.

Recognition is graph construction, not graph matching. Every model access is
a lookup by type name or by the hypothesis index key, never a traversal that
compares structures. The driver alternates bottom-up grouping hypotheses
(two nearby instances suggest a group via the index) with top-down
verification (predict the group's slots, find the parts, bind them),
then settles each wave once: relax, refresh, propagate belief, prune.

A wave climbs one level of the parts hierarchy: it hypothesizes, predicts,
matches and binds from the snapshot of the graph taken when it begins
(`CandidateIndex`), never from the nodes it makes itself. A node made in a
wave joins the next frontier, so a group that can take it as a part is
hypothesized, and binds it, one wave later.

A 3D model viewed in a 2D scene runs in projected mode: hypothesis
transforms are fitted affine cameras, predictions are projections, and only
affine-invariant relations are scored.
"""

from __future__ import annotations

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
    relax_frames,
)
from .config import Config
from .errors import DegenerateFrameError, SceneFormatError, UnderConstrainedError
from .geometry import (
    _SAFE_RANGE,
    AffineCamera,
    Frame,
    apply_similarities,
    canonical_scale,
    canonicalize_frame,
    check_frames,
    fit_affine,
    fit_similarities,
    project,
    project_frames,
    similarity_of,
    unambiguous_axes,
)
from .image import ImageGraph
from .model import ModelGraph, midx_lookup
from .scene import Scene, check_scene_dim


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


def seed_image_graph(scene: Scene, model: ModelGraph,
                     cfg: Config | None = None) -> ImageGraph:
    """One verified node per scene primitive, frames canonicalized. A
    segment's frame is built canonical for "undirected-segment"
    (`frame_from_segment`), so under that class it is taken as it is."""
    cfg = cfg or Config()
    ig = ImageGraph(scene_id=scene.id, model=model,
                    projected=model.dim == 3 and scene.dim == 2)
    for i, prim in enumerate(scene.primitives):
        sym = "circle" if prim.kind == "circle" else "undirected-segment"
        if prim.kind in model.nodes:
            sym = model.node(prim.kind).symmetry_class
        frame = prim.frame()
        if not (prim.kind == "linseg" and sym == "undirected-segment"):
            frame = canonicalize_frame(frame, sym)
        ig.add_node(prim.kind, frame=frame, strength=prim.strength, prim_index=i,
                    probability=min(1.0, cfg.p0 * prim.strength))
    return ig


# -- transform fitting -------------------------------------------------------------


def _correspondence_sets(quads, projected) -> dict:
    """Model points and every candidate image point set for taking each
    quad's two model slot frames onto its two clue frames, built in columns
    and grouped by tip shape.

    The origins always correspond; axis tips correspond only at ranks where
    both the model slot and the clue have an unambiguous axis (tied lengths
    make the canonical direction an artifact), at most one rank per frame,
    two in projected mode. Image axis directions are sign-ambiguous (a
    segment has no arrow), so each sign assignment of the usable tips is one
    candidate set. Projected mode also varies the tip order of each clue,
    because shear can swap which image axis comes out longest, so rank no
    longer pins the correspondence. Each frame's unambiguous axes are worked
    out once: slot frames and clue frames repeat across quads.

    Returns {(n1, n2): (members, model points (g, k, dm), image points
    (g, r, k, di))}: the positions in `quads` whose clues have n1 and n2
    usable tips, and per member its model points and its r image point
    sets, running over tip orders, then sign assignments. A tip is
    `origin + sign * axis`, the same float operations for every member.
    """
    want = 2 if projected else 1
    ranks = {frame: unambiguous_axes(frame, want)
             for frame in dict.fromkeys(itertools.chain.from_iterable(quads))}
    by_shape: dict = {}
    for c, (m1, m2, i1, i2) in enumerate(quads):
        shape, model_tips, image_tips = [], [], []
        for m, i in ((m1, i1), (m2, i2)):
            m_idx, i_idx = ranks[m], ranks[i]
            k = min(len(m_idx), len(i_idx))
            shape.append(k)
            model_tips += [m.axes[r] for r in m_idx[:k]]
            image_tips += [i.axes[r] for r in i_idx[:k]]
        by_shape.setdefault(tuple(shape), []).append((c, model_tips, image_tips))
    out = {}
    for (n1, n2), members in by_shape.items():
        g, n = len(members), n1 + n2
        m1o, m2o, i1o, i2o = (np.array([quads[c][f].origin for c, _, _ in members])
                              for f in range(4))
        dm, di = m1o.shape[1], i1o.shape[1]
        model_tips = np.array([tips for _, tips, _ in members]).reshape(g, n, dm)
        image_tips = np.array([tips for _, _, tips in members]).reshape(g, n, di)
        model = np.empty((g, n + 2, dm))
        model[:, 0] = m1o
        model[:, 1:n1 + 1] = m1o[:, None] + model_tips[:, :n1]
        model[:, n1 + 1] = m2o
        model[:, n1 + 2:] = m2o[:, None] + model_tips[:, n1:]
        orders1 = list(itertools.permutations(range(n1))) if projected else [range(n1)]
        orders2 = list(itertools.permutations(range(n1, n))) if projected else [range(n1, n)]
        orders = np.array([[*o1, *o2] for o1 in orders1 for o2 in orders2],
                          dtype=int).reshape(len(orders1) * len(orders2), n)
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=n))).reshape(2 ** n, n, 1)
        rows = len(orders) * 2 ** n
        signed = (signs * image_tips[:, orders][:, :, None]).reshape(g, rows, n, di)
        image = np.empty((g, rows, n + 2, di))
        image[:, :, 0] = i1o[:, None]
        image[:, :, 1:n1 + 1] = i1o[:, None, None] + signed[:, :, :n1]
        image[:, :, n1 + 1] = i2o[:, None]
        image[:, :, n1 + 2:] = i2o[:, None, None] + signed[:, :, n1:]
        out[(n1, n2)] = [c for c, _, _ in members], model, image
    return out


def _best_rows(residuals, usable):
    """Per set (a row of the (sets, rows) arrays), the row that the
    sequential search "keep the first usable row, replace it only by a
    strictly lower residual" ends on, or -1 where no row is usable: the
    first usable row when its residual is NaN or no usable residual is
    below inf, else the first of the lowest, NaN counted as inf."""
    sets = np.arange(len(residuals))
    first = usable.argmax(axis=1)
    ranked = np.where(usable & ~np.isnan(residuals), residuals, np.inf)
    best = ranked.argmin(axis=1)
    keep_first = np.isnan(residuals[sets, first]) | (ranked[sets, best] == np.inf)
    return np.where(usable.any(axis=1), np.where(keep_first, first, best), -1)


def _best_fits(model_pts, image_pts, projected) -> list:
    """Per set i, the transform of its best row taking model_pts[i] (k, dm)
    onto image_pts[i, r] (k, di), or None when no row gives a usable fit.

    Plain mode fits every row of every set in one stacked
    `fit_similarities` call and picks each set's row with `_best_rows`;
    projected mode fits each set's affine cameras alone (`_fit_camera`)."""
    if projected:
        return [_fit_camera(x, y) for x, y in zip(model_pts, image_pts)]
    sets, rows = image_pts.shape[:2]
    fit = fit_similarities(np.repeat(model_pts, rows, axis=0),
                           image_pts.reshape(sets * rows, *image_pts.shape[2:]))
    best = _best_rows(fit.residuals.reshape(sets, rows), fit.ok.reshape(sets, rows))
    return [None if b < 0 else similarity_of(fit, i * rows + b)
            for i, b in enumerate(best.tolist())]


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
        used.add(pick)
        out[i] = f.axes[pick] if dot >= 0 else -f.axes[pick]
    return Frame(f.origin, out)


# -- candidate index ----------------------------------------------------------------

# Relative slack of the vectorized prefilters; survivors then face the exact
# scalar gate, so rounding differences never change a decision.
_PREFILTER_SLACK = 1e-6

# (query point, node) pairs per block of `CandidateIndex.near`: bounds the
# (points x nodes x dim) difference array held at once.
_QUERY_PAIRS = 8192


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
    column prefilters; the one place that decides what a candidate is: a
    node that is neither a shadow (`spec_slot`) nor pruned, of a type the
    model has (a scene primitive of a kind the model lacks, such as a
    circle before a model of segments, stays an unlinked seed node).

    Holds the candidates in key order and their frames' `_Columns`, taken
    once the graph has settled (after relax and prune). Frames and statuses
    only change between waves, so within a wave the snapshot stays valid
    and its nodes stay candidates. The nodes the wave inserts are not
    candidates until the next snapshot.

    The slot gate of `_predict_slots` reads two more columns, one row per
    node: `circles`, whether the node's model type has the circle symmetry
    class, and `scales`, the node frame's `canonical_scale` under that
    class, bit for bit, or NaN where the frame is too flat for its class
    (placement_strain then charges infinite strain).

    Prefilter contract: whatever is computed from the columns only narrows
    the candidates to a superset of those that pass, with `_PREFILTER_SLACK`
    to spare; every survivor then faces the exact scalar gate, so a decision
    never depends on the columns' rounding.

    Relation and placement strains live in the scene's memo (`ig.strains`,
    keyed by the frames they read), which outlives the wave: screening, the
    relation check, specialization, and the wave's relaxation and refresh
    share it. The relaxation and the refresh each score their placement
    strains in one stacked call (`belief._placement_strains`).
    """

    def __init__(self, ig: ImageGraph):
        self.ig = ig
        model = ig.require_model()
        self.nodes = [n for n in ig.sorted_nodes() if n.spec_slot is None
                      and n.status != "pruned" and n.model_type in model.nodes]
        self.cols = _Columns.of([n.frame for n in self.nodes])
        syms = [model.node(n.model_type).symmetry_class for n in self.nodes]
        self.circles = np.array([sym == "circle" for sym in syms], dtype=bool)
        self.scales = np.array([_canonical_scale_or_nan(n.frame, sym)
                                for n, sym in zip(self.nodes, syms)], dtype=float)
        self._typed: dict = {}

    def of_types(self, types: frozenset):
        """(rows, origins) of the snapshot nodes whose model type is in
        `types`, rows ascending."""
        hit = self._typed.get(types)
        if hit is None:
            rows = np.flatnonzero([n.model_type in types for n in self.nodes])
            hit = rows, self.cols.origins[rows]
            self._typed[types] = hit
        return hit

    def near(self, points, radii, types) -> "_Hits":
        """The snapshot nodes near each query point k: those of a model type
        in `types[k]` within its radius (plus a small slack), as `_Hits`:
        their rows in ascending order and their squared origin distances,
        rounded as numpy rounds them. The points of one type set are
        measured against that set's nodes only (`of_types`), in blocks of
        at most `_QUERY_PAIRS` (point, node) pairs, or one point.

        A superset of the exact answer: callers re-check only the exact
        distance on what comes back.
        """
        starts = np.zeros(len(radii), dtype=int)
        stops = np.zeros(len(radii), dtype=int)
        rows, d2s = [np.zeros(0, dtype=int)], [np.zeros(0)]
        by_types: dict = {}
        for k, fits in enumerate(types):
            by_types.setdefault(fits, []).append(k)
        done = 0
        for fits, ks in by_types.items():
            cols, origins = self.of_types(fits)
            if not len(cols):
                continue
            step = max(1, _QUERY_PAIRS // len(cols))
            for start in range(0, len(ks), step):
                block = ks[start:start + step]
                diff = origins[None, :, :] - points[block, None, :]
                d2 = np.einsum("knd,knd->kn", diff, diff)
                reach = radii[block] * (1.0 + _PREFILTER_SLACK)
                within = d2 <= (reach * reach)[:, None]
                i, j = np.nonzero(within)
                rows.append(cols[j])
                d2s.append(d2[i, j])
                counts = within.sum(axis=1)
                stops[block] = done + counts.cumsum()
                starts[block] = stops[block] - counts
                done += len(j)
        return _Hits(np.concatenate(rows), np.concatenate(d2s), starts, stops)


class _Hits(NamedTuple):
    """What `CandidateIndex.near` found: query point k's rows and squared
    distances are `rows[starts[k]:stops[k]]` and `d2[starts[k]:stops[k]]`."""

    rows: np.ndarray
    d2: np.ndarray
    starts: np.ndarray
    stops: np.ndarray

    def of(self, k):
        """(rows, d2) of query point k."""
        part = slice(self.starts[k], self.stops[k])
        return self.rows[part], self.d2[part]


def _canonical_scale_or_nan(frame, sym) -> float:
    """canonical_scale, or NaN for a frame too flat for its class."""
    try:
        return canonical_scale(frame, sym)
    except DegenerateFrameError:
        return math.nan


def _distance(p, q) -> float:
    """Euclidean distance, bit for bit what np.linalg.norm(p - q) returns
    (sqrt of the dot product) without its dispatch overhead."""
    diff = p - q
    return math.sqrt(float(diff.dot(diff)))


# -- lower bounds of the scalar strains ---------------------------------------------
#
# Column bounds of the screening strains (`_screening_bound`); the slot gate
# bounds the placement strain likewise. Each bound is at most the strain it
# stands in for, for every input, with the slack inside the bound: a
# candidate whose bound already fails the gate fails the exact gate too, so
# skipping it changes nothing.


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
    the same float operations in the same order, and the same power-of-two
    rescale of the rows outside `_SAFE_RANGE`, with numpy's arctan2."""
    a0, a1, a2 = a.axes.T
    b0, b1, b2 = b.axes.T
    na, nb = a.lengths, b.lengths
    scale = na * nb
    outside = ~((_SAFE_RANGE[0] <= scale) & (scale <= _SAFE_RANGE[1]))
    if outside.any():
        ka = np.ldexp(1.0, np.where(outside, -np.frexp(na)[1], 0))
        kb = np.ldexp(1.0, np.where(outside, -np.frexp(nb)[1], 0))
        a0, a1, a2 = a0 * ka, a1 * ka, a2 * ka
        b0, b1, b2 = b0 * kb, b1 * kb, b2 * kb
        scale = (na * ka) * (nb * kb)
    dot = (a0 * b0 + a1 * b1 + a2 * b2) / scale
    cx = a1 * b2 - a2 * b1
    cy = a2 * b0 - a0 * b2
    cz = a0 * b1 - a1 * b0
    cross = np.sqrt(cx * cx + cy * cy + cz * cz) / scale
    return np.arctan2(cross, np.abs(dot))


def _segment_distances(a: _Columns, b: _Columns):
    """geometry._segment_distance on the primary axes, in columns: the same
    float operations in the same order, and the same power-of-two rescale
    of the rows outside `_SAFE_RANGE`, so a row is bit for bit the scalar
    result for frames with a single nonzero axis each."""
    ca, cb = _pad3(a.origins), _pad3(b.origins)
    ax, ay, az = a.axes.T
    bx, by, bz = b.axes.T
    rx, ry, rz = (ca - cb).T
    back = 1.0
    longest = np.abs(np.stack([ax, ay, az, bx, by, bz, rx, ry, rz])).max(axis=0)
    outside = ~((_SAFE_RANGE[0] <= longest) & (longest <= _SAFE_RANGE[1]))
    if outside.any():
        exp = np.where(outside, np.frexp(longest)[1], 0)
        k = np.ldexp(1.0, -exp)
        ax, ay, az, bx, by, bz = ax * k, ay * k, az * k, bx * k, by * k, bz * k
        rx, ry, rz = rx * k, ry * k, rz * k
        back = np.ldexp(1.0, exp)
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
    a_point, b_point = a_ == 0.0, e == 0.0
    point = a_point | b_point
    a_ = np.where(a_point, 1.0, a_)
    e = np.where(b_point, 1.0, e)
    s = np.where(parallel, 0.0,
                 np.minimum(1.0, np.maximum(-1.0, num / np.where(parallel, 1.0, denom))))
    t = (b_ * s + f) / e
    low, high = ~point & (t < -1.0), ~point & (t > 1.0)
    s = np.where(low, np.minimum(1.0, np.maximum(-1.0, (-b_ - c) / a_)), s)
    s = np.where(high, np.minimum(1.0, np.maximum(-1.0, (b_ - c) / a_)), s)
    t = np.where(low, -1.0, np.where(high, 1.0, t))
    # a half axis whose square underflows is a point at this scale
    s = np.where(point, np.where(a_point, 0.0, np.minimum(1.0, np.maximum(-1.0, -c / a_))), s)
    t = np.where(point, np.where(b_point, 0.0, np.minimum(1.0, np.maximum(-1.0, f / e))), t)
    dx = rx + s * ax - t * bx
    dy = ry + s * ay - t * by
    dz = rz + s * az - t * bz
    return np.sqrt(dx * dx + dy * dy + dz * dz) * back


@np.errstate(all="ignore")  # rows that divide by zero are masked out
def _screening_bound(rel, a: _Columns, b: _Columns, s_fail: float,
                     projected: bool):
    """Per row, a lower bound of the strain relation_strains charges `rel` on
    the frames of `a` (operand 0) and `b` (operand 1).

    size-ratio and distance-ratio take their closed forms, angle and
    parallel only where both frames have a single nonzero axis (so no tied
    axes). touch charges s_fail where the origins lie further apart than
    both extents can reach, and for two segments where their distance
    exceeds the limit; inside charges s_fail where b's origin lies further
    from a's than a's extent plus slack reaches. Everything else, and every
    relation but touch and inside in projected mode (whose strains are
    row-resolved), is bounded by 0. A
    degenerate frame, which the scalar path charges as infinite strain, is
    bounded by 0 or s_fail.
    """
    f = rel.function
    zero = np.zeros(len(a.lengths))
    if f == "inside":
        # a point of b inside a's extent plus slack lies within a's rss plus
        # sqrt(dim) slack of a's origin, whatever a's rank
        slack = rel.tolerance * a.lengths
        reach = a.rss + math.sqrt(a.origins.shape[1]) * slack
        apart = _row_norms(b.origins - a.origins) > reach * (1.0 + _PREFILTER_SLACK)
        return np.where(apart, s_fail, 0.0)
    if f == "touch":
        limit = rel.tolerance * np.maximum(a.lengths, b.lengths)
        gap = _row_norms(b.origins - a.origins)
        apart = gap > (a.rss + b.rss + limit) * (1.0 + _PREFILTER_SLACK)
        both = np.flatnonzero(a.single & b.single & ~apart)
        if len(both):
            apart[both] = (_segment_distances(a.take(both), b.take(both))
                           > limit[both] * (1.0 + _PREFILTER_SLACK))
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
    """Row pairs (i, j) of index.nodes, at least one in the frontier, whose
    origins lie within gate_radius times the larger primary length; in the
    order of a combinations walk over index.nodes. Every node recognize
    makes is verified, so every candidate can be a clue.

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
    rows = np.flatnonzero([node.key in frontier_keys for node in nodes])
    codes = [np.zeros(0, dtype=int)]
    for start in range(0, len(rows), _PAIR_BLOCK):
        block = rows[start:start + _PAIR_BLOCK]
        diff = origins[None, :, :] - origins[block, None, :]
        d2 = np.einsum("knd,knd->kn", diff, diff)
        reach = gate_radius * (1.0 + _PREFILTER_SLACK) * np.maximum(lengths, lengths[block, None])
        near = d2 <= reach * reach
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


def _screened(index: CandidateIndex, model: ModelGraph, pairs, cfg: Config,
              projected: bool):
    """Yield (midx entry, ordered clue nodes, signature) for every screening
    the column bounds cannot rule out, in the scalar order: pair, then midx
    entry, then orientation. A superset of the screenings that reach
    cfg.screen_min. The wave's pairs are screened in one block, a type pair
    at a time (`_screen_type_pair`). The signature is the entry's
    `_screening_signature`."""
    nodes = index.nodes
    pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    by_types: dict = {}
    for p, (i, j) in enumerate(pairs.tolist()):
        by_types.setdefault((nodes[i].model_type, nodes[j].model_type), []).append(p)
    survivors = []
    screens: dict = {}  # by type pair: its midx entries and their signatures
    for types, group in by_types.items():
        entries = midx_lookup(model.midx, *types)
        screens[types] = entries, [_screening_signature(e, projected) for e in entries]
        survivors += _screen_type_pair(index, model, cfg, projected, types, entries,
                                       pairs, np.array(group))
    survivors.sort()
    for p, e, o in survivors:
        a, b = nodes[pairs[p, 0]], nodes[pairs[p, 1]]
        entries, signatures = screens[a.model_type, b.model_type]
        yield entries[e], ((a, b) if o == 0 else (b, a)), signatures[e]


def _screen_type_pair(index, model, cfg, projected, types, entries, pairs, group) -> list:
    """(pair, entry, orientation) of every screening of the pairs `group`,
    all of model types `types`, that the column bounds cannot rule out.
    Each column bound is computed once per (spec, operand sides)."""
    limit = _screen_limit(cfg.screen_min)
    type_a, type_b = types
    cols = (index.cols.take(pairs[group, 0]), index.cols.take(pairs[group, 1]))
    bounds: dict = {}  # by spec and operand sides: entries often repeat a spec
    survivors = []
    for e, entry in enumerate(entries):
        mnode = model.node(entry.hypothesis)
        s1, s2 = entry.slots
        fits1 = model.abstract.get(mnode.part(s1).type_name, frozenset())
        fits2 = model.abstract.get(mnode.part(s2).type_name, frozenset())
        for o, (ta, tb) in enumerate(((type_a, type_b), (type_b, type_a))):
            if ta not in fits1 or tb not in fits2:
                continue
            sides = {s1: o, s2: 1 - o}
            total = np.zeros(len(group))
            for rel in entry.screening:
                side_a, side_b = (sides[op] for op in rel.operands)
                key = rel.spec + (side_a, side_b)
                if key not in bounds:
                    bounds[key] = np.minimum(_screening_bound(
                        rel, cols[side_a], cols[side_b], cfg.s_fail, projected), 1e6)
                total += bounds[key]
            survivors.extend((p, e, o) for p in group[total <= limit].tolist())
    return survivors


def _screening_signature(entry, projected: bool) -> tuple:
    """What a screening score reads besides its two ordered clue frames: per
    screening relation the view can score, in order, its spec and the clue
    each operand takes (0 for the entry's first slot, 1 for its second).
    Entries of equal signature score equal on equal clues
    (`_screening_score`), whatever their group types."""
    first = entry.slots[0]
    return tuple(rel.spec + tuple(int(op != first) for op in rel.operands)
                 for rel in entry.screening if not projected or rel.affine_invariant)


def _screening_score(mnode, entry, ca, cb, cfg, index) -> float:
    """Product of the conditionals of the entry's screening relations on the
    clue frames, each strain through the scene's memo: midx entries of one
    group often repeat a spec (truck_flat's rectangle has several identical
    touch entries). A screening relation's operands are the entry's two
    slots (build_midx)."""
    s1, s2 = entry.slots
    score = 1.0
    for _, s in relation_strains(index.ig, mnode, entry.screening,
                                 {s1: ca.frame, s2: cb.frame}, cfg.s_fail):
        score *= cond_probability(min(s, 1e6))
    return score


def _fit_round(model, heads, projected) -> list:
    """The best transform of each (entry, clue a, clue b), or None where no
    sign assignment (nor tip order) gives a usable fit: the heads' sets are
    built in columns by tip shape (`_correspondence_sets`) and fitted a
    shape at a time (`_best_fits`)."""
    quads = []
    for entry, ca, cb in heads:
        mnode = model.node(entry.hypothesis)
        s1, s2 = entry.slots
        quads.append((mnode.part(s1).frame, mnode.part(s2).frame, ca.frame, cb.frame))
    out = [None] * len(heads)
    for members, model_pts, image_pts in _correspondence_sets(quads, projected).values():
        for c, fit in zip(members, _best_fits(model_pts, image_pts, projected)):
            out[c] = fit
    return out


def generate_hypotheses(model: ModelGraph, frontier, cfg: Config,
                        index: CandidateIndex) -> list:
    """Pairs with a frontier member and close origins suggest groups.

    Keeps, per (group type, clue pair), the best-screening slot assignment
    with its fitted transform; a screening score is the product of the
    screening-relation conditionals and must reach cfg.screen_min. `index`
    must be a snapshot of its graph as it is now.

    Prefilter contract: column lower bounds of the screening strains
    (`_screening_bound`) pick a superset of the screenings that can pass;
    only those are scored exactly by relation_strains, each distinct one
    once: screenings of equal `_screening_signature` on the same ordered
    clues share one `_screening_score`. Each key then takes
    its passing assignments in order of score (ties by first occurrence) and
    keeps the first with a usable fit: the assignment the scalar rule "fit
    every one, keep a strictly better score" would keep. Fits run in rounds:
    each round fits the next assignment of every key still without one (see
    `_fit_round`).

    An assignment's fit tries every sign assignment of the clues' axis tips,
    and in projected mode every tip order too; the lowest residual wins, the
    first on a tie. A round builds all of its point sets in columns, one
    stack per tip shape (`_correspondence_sets`). Plain mode fits a stack's
    similarities in one call and picks every set's best row at once
    (`_best_rows`); projected mode fits affine cameras, one set at a time.
    """
    projected = index.ig.projected
    pairs = _clue_pairs(index, frontier, cfg.gate_radius)
    passed: dict = {}
    scores: dict = {}  # by signature and ordered clue keys; only looked up
    for order, (entry, (ca, cb), signature) in enumerate(_screened(index, model, pairs, cfg,
                                                                   projected)):
        score = scores.get((signature, ca.key, cb.key))
        if score is None:
            score = _screening_score(model.node(entry.hypothesis), entry, ca, cb, cfg, index)
            scores[signature, ca.key, cb.key] = score
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


def _need(slot) -> int:
    """How many members every match must bind to this slot by itself: 1
    when it is essential and in no variant tag, else 0."""
    return 1 if slot.essential and slot.variant_tag is None else 0


class _Query(NamedTuple):
    """One slot whose prediction has an extent, with the snapshot rows of a
    fitting type within gate_radius predicted primary lengths of the
    predicted origin and their squared distances (`CandidateIndex.near`),
    which the rough matching ranks, and `gated`: those of the rows that the
    slot gate (`_slot_gate`) keeps, the only ones the gated matching looks
    at; each still faces the exact radius and strain there. Rows ascend."""

    slot: object
    pred: Frame
    rows: np.ndarray
    d2: np.ndarray
    gated: np.ndarray


def _predict_slots(index, model, mnode, transforms, cfg, projected) -> list:
    """Per transform, a `_Query` per slot whose prediction has an extent,
    in part order, or None when a prediction of the transform is degenerate
    (a frame `Frame` rejects) or an essential slot is short: the one path
    by which slots are predicted.

    Every slot under every transform is predicted in one stacked step
    (`apply_similarities`, or `project_frames` in projected mode), bit for
    bit `apply_frame` or `project`, and checked once per stack
    (`check_frames`). The predictions with an extent of the transforms
    whose predictions all pass are then queried against the snapshot
    together (`CandidateIndex.near`), for the nodes of a type that fits
    their slot, within gate_radius predicted primary lengths: the radius of
    the rough matching, which holds the tight radius of the gated one.

    A slot that every match must fill by itself (`_need`) is short
    when the query finds fewer instances of a fitting type within the gate
    radius (with `_PREFILTER_SLACK`) than it needs. Neither matching
    could then fill it, since a slot binds only its own candidates within
    that radius, so no `_Query` is built for such a transform.

    Every row the queries found then faces the slot gate in one column pass
    over the stack (`_slot_gate`), which keeps a superset of the rows that
    can pass the gated matching's exact gate: those within the slot's tight
    radius whose placement strain can stay within s_fail.
    """
    slots = mnode.parts
    n = len(slots)
    origins = np.array([slot.frame.origin for slot in slots])
    axes = np.array([slot.frame.axes for slot in slots])
    if projected:
        pred_origins, pred_axes = project_frames(
            np.array([t.linear for t in transforms]),
            np.array([t.translation for t in transforms]), origins, axes)
    else:
        pred_origins, pred_axes = apply_similarities(
            np.array([t.rotation for t in transforms]), np.array([t.scale for t in transforms]),
            np.array([t.translation for t in transforms]), origins, axes)
    dim = pred_origins.shape[-1]
    pred_origins = pred_origins.reshape(-1, dim)
    pred_axes = pred_axes.reshape(-1, dim, dim)
    ok, lengths = check_frames(pred_origins, pred_axes)
    whole = ok.reshape(-1, n).all(axis=1)
    gate = cfg.gate_radius
    primary = lengths.max(axis=1).reshape(-1, n)
    radii = (primary * gate).reshape(-1)
    queried = np.flatnonzero(whole[:, None] & (primary > 0))
    fits = [model.abstract.get(slot.type_name, frozenset()) for slot in slots]
    hits = index.near(pred_origins[queried], radii[queried],
                      [fits[k % n] for k in queried.tolist()])
    found = np.zeros(len(radii), dtype=int)
    found[queried] = hits.stops - hits.starts
    found = found.reshape(-1, n)
    need = np.array([_need(slot) for slot in slots])
    filled = whole & (found >= need).all(axis=1)
    out = [[] if fine else None for fine in filled.tolist()]
    points = np.flatnonzero(filled[queried // n])
    gated, ends = _slot_gate(index, slots, cfg, hits, points, queried[points] % n,
                             lengths[queried[points]])
    start = 0
    for point, end in zip(points.tolist(), ends.tolist()):
        k = int(queried[point])
        pred = Frame.from_checked(pred_origins[k], pred_axes[k], tuple(lengths[k].tolist()))
        out[k // n].append(_Query(slots[k % n], pred, *hits.of(point), gated[start:end]))
        start = end
    return out


@np.errstate(all="ignore")  # an overflowing term is inf and fails, as in placement_strain
def _slot_gate(index, slots, cfg, hits, points, slot_of, lengths):
    """(gated, ends): the rows of `hits` that can pass the gated matching's
    exact gate, decided in one column pass over all the rows of the query
    points `points` (whose slots are `slot_of` and whose predictions have
    axis lengths `lengths`), point after point, and the end in `gated` of
    each point's rows.

    A row is kept when its squared distance lies within the slot's tight
    radius, min(gate_radius, sigma_o * sqrt(s_fail)) predicted primary
    lengths, and a lower bound of placement_strain's origin and size terms
    stays within s_fail. Both terms read the canonical scale of the
    prediction for the candidate's symmetry class (the mean nonzero length
    for a circle, else the primary length), and the size term the
    candidate's (`CandidateIndex.scales`); a candidate too flat for its
    class is dropped, since its strain is infinite. The bound gives up
    `_PREFILTER_SLACK` of each term, which covers every rounding difference
    between the columns and the scalar kernel. It is the gated matching's
    only prefilter: each row it keeps goes straight to the exact radius and
    strain (`_gated_matching`).
    """
    counts = hits.stops[points] - hits.starts[points]
    owner = np.repeat(np.arange(len(points)), counts)
    # the rows of each point in turn, whatever order `near` found them in
    at = np.arange(len(owner)) + np.repeat(hits.starts[points] - (counts.cumsum() - counts),
                                           counts)
    sigma = np.array([slot.elasticity[:2] for slot in slots])[slot_of]
    tight = np.minimum(cfg.gate_radius, sigma[:, 0] * math.sqrt(cfg.s_fail))
    primary = lengths.max(axis=1)
    reach = tight * primary * (1.0 + _PREFILTER_SLACK)
    close = np.flatnonzero(hits.d2[at] <= (reach * reach)[owner])
    at, owner = at[close], owner[close]
    rows, d2 = hits.rows[at], hits.d2[at]
    spread = lengths > 0
    mean = np.where(spread, lengths, 0.0).sum(axis=1) / spread.sum(axis=1)
    scale = np.where(index.circles[rows], mean[owner], primary[owner])
    origin = (np.sqrt(d2) / (sigma[owner, 0] * scale)) ** 2
    log_ratio = np.abs(np.log(index.scales[rows] / scale))
    size = (np.maximum(log_ratio * (1.0 - _PREFILTER_SLACK) - _PREFILTER_SLACK, 0.0)
            / sigma[owner, 1]) ** 2
    keep = (origin + size) * (1.0 - _PREFILTER_SLACK) <= cfg.s_fail
    return rows[keep], np.cumsum(np.bincount(owner[keep], minlength=len(points)))


def _gated_matching(index, model, mnode, queries, cfg):
    """The gated matching of one transform, `queries` as `_predict_slots`
    gives them: `_bind`'s (matched, strains), matched mapping slot name to
    its member key and strains to that member's placement strain, or
    (None, {}) when an essential slot cannot be filled. A candidate lies
    within the tight radius of its slot and within s_fail of its predicted
    placement, and ranks by placement strain.

    Fail fast: `queries` None (a degenerate prediction, or an essential
    slot short within the gate radius) fails before any strain is scored,
    and so does an essential slot (`_need`) with no gated rows
    (`_Query.gated`). The essential slots are then scored first, and once
    one of them has no candidate passing the exact gate, the matching
    fails and scores no further strain. The shortcut is exact: a slot
    binds only its own candidates.

    Prefilter contract: the slot gate (`_slot_gate`) is the only prefilter;
    only a query's gated rows, a superset of those that can pass the exact
    gate, are looked at. A gated row's candidate is skipped when its exact
    distance exceeds gate_radius predicted primary lengths, and is
    otherwise scored by placement_strain and kept when within s_fail.
    """
    if queries is None or any(len(q.gated) < _need(q.slot) for q in queries):
        return None, {}
    gate, s_fail = cfg.gate_radius, cfg.s_fail
    entries = []
    for q in sorted(queries, key=lambda q: not _need(q.slot)):
        slot, pred = q.slot, q.pred
        reach = gate * pred.primary_length
        passed = 0
        for row in q.gated.tolist():
            node = index.nodes[row]
            if _distance(node.frame.origin, pred.origin) <= reach:
                sym = model.node(node.model_type).symmetry_class
                s = placement_strain(pred, node.frame, slot.elasticity, sym)
                if s <= s_fail:
                    entries.append((s, slot.name, node.key, None))
                    passed += 1
        if passed < _need(slot):
            return None, {}
    return _bind(mnode, entries)


def _rough_matching(index, mnode, queries, cfg):
    """The rough matching of one transform, `queries` as `_predict_slots`
    gives them: matched, mapping slot name to its member key, or None when
    an essential slot cannot be filled. It only picks the members a refit
    is fitted from, so it ranks and never scores: only the origin radius
    gate applies (it tolerates the rotational slack of a rough transform),
    and a candidate ranks by its origin offset over the predicted scale.

    A candidate waits in a `_Nearest` stream behind a lower bound of its
    rank and gets its exact rank only when it could bind next (see
    `_bind`).
    """
    if queries is None:
        return None
    streams = []
    for q in queries:
        scale = q.pred.primary_length
        # rows ascend in key order, so (lower bound, row) is (lower bound, key)
        lower = np.sqrt(q.d2) / scale * (1.0 - _PREFILTER_SLACK)
        order = np.lexsort((q.rows, lower))
        head = _Nearest(q.slot.name, q.pred, cfg.gate_radius * scale, lower[order].tolist(),
                        [index.nodes[i] for i in q.rows[order].tolist()]).entry(0)
        if head is not None:
            streams.append(head)
    return _bind(mnode, streams)[0]


class _Nearest:
    """One slot's rough candidates for the prediction `pred`, in ascending
    order of (lower bound of rank, key); a candidate beyond `reach` of the
    predicted origin fails the gate."""

    __slots__ = ("name", "pred", "reach", "lower", "nodes")

    def __init__(self, name, pred, reach, lower, nodes):
        self.name, self.pred, self.reach, self.lower, self.nodes = name, pred, reach, lower, nodes

    def entry(self, pos):
        """The pending candidate at `pos` as a `_bind` entry, None past the end."""
        if pos == len(self.nodes):
            return None
        return (self.lower[pos], self.name, self.nodes[pos].key, (self, pos))

    def resolve(self, pos):
        """The candidate at `pos` as an exact `_bind` entry, ranked by origin
        offset over the predicted scale, or None when it fails the gate."""
        node = self.nodes[pos]
        d = _distance(node.frame.origin, self.pred.origin)
        if d > self.reach:
            return None
        return (d / self.pred.primary_length, self.name, node.key, None)


def _bind(mnode, candidates):
    """Greedy binding of (rank, slot name, key, pending) candidates in rank
    order (ties by slot name, then key), one member per slot and one winner
    per variant tag: the tagged slot with the better rank. Then the
    essential-slot check, which returns (None, {}) on failure. Returns
    (matched, ranks), mapping slot name to its member key and to its rank.

    A pending candidate is the head (stream, pos) of a `_Nearest` stream and
    carries a lower bound of its rank. When it comes first while its slot
    is unbound, the stream's next candidate joins the line and, unless its
    key is bound already, it is resolved to its exact candidate, which
    rejoins the line (or is dropped when it fails its exact gate). Every
    candidate still in a stream ranks at or after its head, so candidates
    bind in the order of their exact ranks, and only those that could bind
    next are resolved.
    """
    heapq.heapify(candidates)
    matched: dict = {}
    ranks: dict = {}
    used = set()
    while candidates:
        rank, name, key, pending = heapq.heappop(candidates)
        if name in matched:
            continue
        if pending is not None:
            stream, pos = pending
            follow = stream.entry(pos + 1)
            if follow is not None:
                heapq.heappush(candidates, follow)
            exact = None if key in used else stream.resolve(pos)
            if exact is not None:
                heapq.heappush(candidates, exact)
            continue
        if key in used:
            continue
        matched[name] = key
        ranks[name] = rank
        used.add(key)

    # one winner per variant tag: keep the best-ranked tagged slot
    tags: dict = {}
    for slot in mnode.parts:
        if slot.variant_tag is not None and slot.name in matched:
            tags.setdefault(slot.variant_tag, []).append(slot.name)
    for tag, names in sorted(tags.items()):
        if len(names) < 2:
            continue
        keep = min(names, key=lambda n: (ranks[n], n))
        for name in names:
            if name != keep:
                matched.pop(name)
                ranks.pop(name)

    covered = {slot.variant_tag for slot in mnode.parts if slot.name in matched}
    for slot in mnode.parts:
        filled = slot.name in matched if slot.variant_tag is None else slot.variant_tag in covered
        if slot.essential and not filled:
            return None, {}
    return matched, ranks


def _match_score(matched, strains):
    """Fuller matchings beat sparse ones; total strain breaks ties."""
    if matched is None:
        return (1, 0, math.inf)
    return (0, -len(matched), sum(strains.values()))


def _refits(ig, model, keys, projected) -> list:
    """Per (group type, rough matching) key, the transform re-estimated from
    the origin of every matched slot's member, the matching given as sorted
    (slot name, member key) pairs, or None when fewer than two slots are
    matched or the fit is degenerate.

    A two-clue fit can leave rotational slack (tied axes carry no
    direction); the matched set usually pins it down. The keys are fitted
    a point count at a time (`_best_fits`), each as a set of one row."""
    by_count: dict = {}
    for c, (_, rough) in enumerate(keys):
        if len(rough) >= 2:
            by_count.setdefault(len(rough), []).append(c)
    out = [None] * len(keys)
    for members in by_count.values():
        model_pts = np.array([[model.node(keys[c][0]).part(name).frame.origin
                               for name, _ in keys[c][1]] for c in members])
        image_pts = np.array([[[ig.nodes[key].frame.origin for _, key in keys[c][1]]]
                              for c in members])
        for c, fit in zip(members, _best_fits(model_pts, image_pts, projected)):
            out[c] = fit
    return out


def _match_wave(index, model: ModelGraph, hypotheses, cfg: Config) -> list:
    """Per hypothesis, the matching `verify` binds: (matched, strains,
    transform), matched mapping slot name to its member key, or None when
    no matching fills the essential slots.

    Each hypothesis's slots are predicted from the snapshot, one
    `_predict_slots` call per group type since one hypothesis predicts only
    a few slots, and its queries get a gated and a rough matching
    (`_gated_matching`, `_rough_matching`). Each distinct (group type,
    rough matching) is then refitted once (`_refits`), since every pair of
    an object's parts suggests the same group and so often the same rough
    matching; the refits are predicted the same way and get a gated
    matching. A hypothesis takes its refit's gated matching when
    `_match_score` ranks it strictly better than its own.

    A degenerate refit is dropped. That is exact: the transform would fall
    back to the hypothesis's, whose gated matching it has already, and an
    equal score never wins.
    """
    projected = index.ig.projected

    def predicted(pairs):
        """The queries of each (group type, transform) pair, in order."""
        by_type: dict = {}
        for i, (group_type, _) in enumerate(pairs):
            by_type.setdefault(group_type, []).append(i)
        out = [None] * len(pairs)
        for group_type, members in by_type.items():
            queries = _predict_slots(index, model, model.node(group_type),
                                     [pairs[i][1] for i in members], cfg, projected)
            for i, q in zip(members, queries):
                out[i] = q
        return out

    firsts, refits = [], {}
    for h, q in zip(hypotheses, predicted([(h.group_type, h.transform) for h in hypotheses])):
        mnode = model.node(h.group_type)
        rough = _rough_matching(index, mnode, q, cfg)
        key = None
        if rough:
            key = (h.group_type, tuple(sorted(rough.items())))
            refits[key] = None
        firsts.append((_gated_matching(index, model, mnode, q, cfg), key))
    keys = list(refits)
    fitted = [(key, refit) for key, refit in zip(keys, _refits(index.ig, model, keys, projected))
              if refit is not None]
    for (key, refit), q in zip(fitted, predicted([(key[0], refit) for key, refit in fitted])):
        refits[key] = refit, _gated_matching(index, model, model.node(key[0]), q, cfg)
    out = []
    for h, ((matched, strains), key) in zip(hypotheses, firsts):
        transform = h.transform
        hit = refits.get(key)
        if hit is not None:
            refit, (re_matched, re_strains) = hit
            if _match_score(re_matched, re_strains) < _match_score(matched, strains):
                matched, strains, transform = re_matched, re_strains, refit
        out.append(None if matched is None else (matched, strains, transform))
    return out


def _drop_relation_offenders(index, mnode, matched, cfg, group_frame):
    """Relations worse than s_fail fail the group outright when every
    operand is essential; otherwise the optional offender is unbound.
    Strains come through the scene's memo: the relation check of every
    hypothesis of an object reads the same member pairs."""
    ig = index.ig
    while True:
        frames = {name: ig.nodes[key].frame for name, key in matched.items()}
        worst = None
        for rel, s in relation_strains(ig, mnode, mnode.relations, frames, cfg.s_fail,
                                       group_frame):
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


def verify(h: Hypothesis, matching, model: ModelGraph, cfg: Config, index: CandidateIndex):
    """Top-down confirmation of one hypothesis in the graph of `index`, a
    snapshot taken earlier in the same wave: `matching` is what
    `_match_wave` chose from the snapshot, and binds only its nodes.

    Success creates the group node, its member bundles, and any passing
    specialization instances, and returns the list of created nodes.
    Failure creates nothing and returns None.
    """
    ig = index.ig
    mnode = model.node(h.group_type)
    if matching is None:
        return None
    matched, _, transform = matching
    try:
        if ig.projected:
            frame = _aligned_projection(transform, mnode.frame_template)
        else:
            frame = transform.apply_frame(mnode.frame_template)
    except DegenerateFrameError:
        return None
    # the matched map may be shared with other hypotheses; unbind from a copy
    matched = _drop_relation_offenders(index, mnode, dict(matched), cfg, frame)
    if matched is None or _has_group(ig, h.group_type, frozenset(matched.values())):
        return None
    group = ig.add_node(h.group_type, frame=frame,
                        template_weight=group_weight(mnode, cfg.optional_weight))
    created = [group]
    for name in sorted(matched):
        shadow = bind_member(ig, group.key, name, matched[name])
        if shadow is not None:
            created.append(shadow)
    created.extend(_specialize(ig, model, group, matched, cfg))
    return created


def _specialize(ig, model, group, matched, cfg):
    """Add a specialization instance of the group, at its frame, for each
    child type in its own `specialize_relations` with usable screens, all
    on matched parts and each straining at most `s_fail`. Its `specializes`
    link starts at 1 for `refresh_conditionals` to score. A child type's own
    screens name its own parts: they apply when it is verified from them."""
    frames = {name: ig.nodes[key].frame for name, key in matched.items()}
    mnode = model.node(group.model_type)
    created = []
    for child_name, screens in sorted(mnode.specialize_relations.items()):
        usable = [r for r in screens if not ig.projected or r.affine_invariant]
        if not usable or not all(op in frames for r in usable for op in r.operands):
            continue
        if any(s > cfg.s_fail for _, s in relation_strains(ig, mnode, usable, frames,
                                                            cfg.s_fail, group.frame)):
            continue
        child = ig.add_node(child_name, frame=group.frame)
        ig.add_link("specializes", child.key, group.key)
        created.append(child)
    return created


# -- driver -------------------------------------------------------------------------


def recognize(scene: Scene, model: ModelGraph, cfg: Config | None = None) -> ImageGraph:
    """Build the image graph for a scene: seed, then hypothesize/verify waves
    until a wave adds nothing, each settled once (relax, refresh, propagate,
    prune). A hypothesis needs no re-check: its clue pair holds a node of
    the wave before, no other hypothesis has that pair and type, nothing is
    pruned within a wave, and a wave binds only the nodes of its snapshot,
    never one it made itself."""
    cfg = cfg or Config()
    check_scene_dim(scene)
    if scene.dim == 3 and model.dim == 2:
        raise SceneFormatError("cannot explain a 3D scene with a flat model")
    ig = seed_image_graph(scene, model, cfg)
    frontier = list(ig.sorted_nodes())
    for _ in range(cfg.max_waves):
        if not frontier:
            break
        index = CandidateIndex(ig)
        hypotheses = generate_hypotheses(model, frontier, cfg, index)
        matchings = _match_wave(index, model, hypotheses, cfg)
        fresh = []
        for h, matching in zip(hypotheses, matchings):
            fresh.extend(verify(h, matching, model, cfg, index) or ())
        if not fresh:
            break
        relax_frames(ig, fresh)
        refresh_conditionals(ig, cfg)
        propagate(ig, fresh, cfg)
        prune(ig, cfg)
        frontier = [n for n in fresh if n.status != "pruned"]
    return ig
