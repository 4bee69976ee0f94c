"""Frames, symmetry-canonical representatives, relation functions, transforms.

A frame is an origin plus a list of mutually orthogonal axis vectors whose
lengths encode half-extents. Symmetric shapes admit several equivalent frames
(a segment can point either way, a box has 48 axis labelings); canonicalize
collapses each orbit to a single representative so that relation values and
serialized output are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ArityError, DegenerateFrameError, UnderConstrainedError

SYMMETRY_CLASSES = ("none", "undirected-segment", "rectangle", "box", "circle")

RELATION_FUNCTIONS = (
    "size-ratio",
    "distance-ratio",
    "angle",
    "parallel",
    "touch",
    "inside",
)

# Relations whose truth survives an affine view of the scene. The ratio
# relations only do so along parallel directions; the recognizer checks that
# separately before trusting them in a projected scene.
AFFINE_SAFE = {"parallel", "touch", "inside"}

_ORTHO_TOL = 1e-9

# Largest axis entry a frame may hold: the Gram product `Frame` forms sums at
# most three squares, which stay below the float range.
_AXIS_RANGE = 2.0 ** 511


# The types of a JSON number as `json` loads it; a bool is not one
_JSON_NUMBERS = frozenset((int, float))


def _is_number(value) -> bool:
    return type(value) in _JSON_NUMBERS


@dataclass(eq=False)
class Frame:
    """Oriented placement: origin plus orthogonal axes (rows), lengths = half-extents.

    Construction owns the frame rules, which `check_frames` applies to
    stacks: a finite 2- or 3-vector origin; square `axes` of that size,
    each entry within `_AXIS_RANGE` (2**511), checked before the Gram
    product `axes @ axes.T` so that it cannot overflow; and every pair of
    axes orthogonal to within `_ORTHO_TOL` of the product of their lengths
    (or of 1, for short axes). The Gram entries, bit for bit the `row @ row`
    and `row_i @ row_j` products, give lengths and dot products. Affine
    maps' frames are checked too: uneven scaling need not keep orthogonality.

    `origin` and `axes` are never mutated in place after construction: the
    axis lengths are cached here, so code that moves a frame builds a new one,
    and nodes that sit at the same place share one frame. A frame compares
    and hashes by identity, so a strain memo can key on the frames it read.
    """

    origin: np.ndarray
    axes: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        self.axes = np.asarray(self.axes, dtype=float)
        if self.origin.ndim != 1 or self.origin.size not in (2, 3):
            raise DegenerateFrameError(f"origin must be a 2- or 3-vector, got shape {self.origin.shape}")
        dim = self.origin.size
        if self.axes.shape != (dim, dim):
            raise DegenerateFrameError(f"axes must be {dim}x{dim}, got {self.axes.shape}")
        if not (all(map(math.isfinite, self.origin.tolist()))
                and all(abs(v) <= _AXIS_RANGE for v in self.axes.ravel().tolist())):
            raise DegenerateFrameError("frame origin not finite, or an axis entry beyond 2**511")
        gram = (self.axes @ self.axes.T).tolist()
        lengths = tuple([math.sqrt(gram[i][i]) for i in range(dim)])
        for i in range(dim):
            for j in range(i + 1, dim):
                if abs(gram[i][j]) > _ORTHO_TOL * max(lengths[i] * lengths[j], 1.0):
                    raise DegenerateFrameError(f"axes {i} and {j} are not orthogonal")
        self._keep_lengths(lengths)

    def _keep_lengths(self, lengths: tuple):
        # plain-float copies for the scalar kernels; the array is built on first use
        self._length_tuple = lengths
        self._primary = max(lengths)
        self._lengths = None

    @classmethod
    def from_checked(cls, origin: np.ndarray, axes: np.ndarray, lengths: tuple) -> "Frame":
        """The frame of a stack row that `check_frames` passed, with the
        lengths it computed as plain floats, built without checking again."""
        frame = cls.__new__(cls)
        frame.origin, frame.axes = origin, axes
        frame._keep_lengths(lengths)
        return frame

    @property
    def dim(self) -> int:
        return int(self.origin.size)

    @property
    def lengths(self) -> np.ndarray:
        # cached; callers treat it as read-only
        if self._lengths is None:
            self._lengths = np.array(self._length_tuple)
        return self._lengths

    @property
    def primary_length(self) -> float:
        return self._primary

    @property
    def primary_axis(self) -> np.ndarray:
        return self.axes[int(np.argmax(self.lengths))]

    def copy(self) -> "Frame":
        return Frame(self.origin.copy(), self.axes.copy())

    def unit_dirs(self) -> np.ndarray:
        """Orthonormal basis aligned with the axes; zero axes get completed rows."""
        dim = self.dim
        lengths = self.lengths
        rows = []
        for i in np.argsort(-lengths):
            if lengths[i] > 0:
                rows.append(self.axes[i] / lengths[i])
        basis = list(rows)
        for cand in np.eye(dim):
            if len(basis) == dim:
                break
            v = cand.copy()
            for u in basis:
                v = v - u * (u @ v)
            n = np.linalg.norm(v)
            if n > 1e-9:
                basis.append(v / n)
        return np.array(basis)

    @staticmethod
    def from_json(obj) -> "Frame":
        """The frame of a JSON object with exactly the keys "origin", a list
        of numbers, and "axes", a list of such lists: TypeError for any
        other document. Every value rule is `Frame`'s; numpy raises
        ValueError for ragged rows, OverflowError for ints past the floats."""
        if not isinstance(obj, dict) or obj.keys() != {"origin", "axes"}:
            raise TypeError(f"a frame is an object of origin and axes, got {obj!r}")
        axes = obj["axes"]
        for row in [obj["origin"], *axes] if isinstance(axes, list) else [axes]:
            if not isinstance(row, list) or not set(map(type, row)) <= _JSON_NUMBERS:
                raise TypeError(f"frame rows must be lists of numbers, got {row!r}")
        return Frame(np.asarray(obj["origin"], float), np.asarray(axes, float))


def check_frames(origins: np.ndarray, axes: np.ndarray):
    """`Frame`'s checks on every row of an (n, d) origin stack and an
    (n, d, d) axis stack, run once per stack.

    Returns (ok, lengths): whether `Frame` would accept each row, and the
    (n, d) axis lengths it would compute. It owns no rule of its own: a row
    is ok when its origin is finite, its axis entries lie within
    `_AXIS_RANGE`, and every pair of its axes is orthogonal to within
    `_ORTHO_TOL` of the product of their lengths (or of 1). Lengths and dot
    products come from one stacked Gram product, whose entries are bit for
    bit the per-frame `axes @ axes.T`. `Frame.from_checked` builds the rows
    that pass.
    """
    n, dim = origins.shape
    ok = np.isfinite(origins).all(axis=1) & (np.abs(axes.reshape(n, -1)) <= _AXIS_RANGE).all(axis=1)
    # a row rejected above may overflow or meet inf - inf here; it stays rejected
    with np.errstate(all="ignore"):
        gram = axes @ axes.transpose(0, 2, 1)
        lengths = np.sqrt(np.diagonal(gram, axis1=1, axis2=2))
        for i in range(dim):
            for j in range(i + 1, dim):
                limit = _ORTHO_TOL * np.maximum(lengths[:, i] * lengths[:, j], 1.0)
                ok &= ~(np.abs(gram[:, i, j]) > limit)
    return ok, lengths


def frame_from_segment(p1, p2) -> Frame:
    """Midpoint origin, primary axis half the segment, zero cross axes.

    The frame is built canonical for "undirected-segment": the primary axis
    is negated when its first nonzero component is negative, which is all
    `canonicalize_frame` would change. Like it, this raises
    DegenerateFrameError when the half-extent's length is not positive (a
    half-extent with nonzero components can square to 0).
    """
    p1 = np.asarray(p1, float)
    p2 = np.asarray(p2, float)
    origin = (p1 + p2) / 2.0
    half = (p2 - p1) / 2.0
    for comp in half.tolist():
        if comp != 0.0:
            if comp < 0.0:
                half = -half
            break
    dim = origin.size
    axes = np.zeros((dim, dim))
    axes[0] = half
    frame = Frame(origin, axes)
    if not frame.primary_length > 0:
        raise DegenerateFrameError("symmetry undirected-segment needs 1 nonzero axes, frame has 0")
    return frame


def frame_from_circle(center, radius: float) -> Frame:
    center = np.asarray(center, float)
    if radius <= 0:
        raise DegenerateFrameError("circle radius must be positive")
    return Frame(center, np.eye(center.size) * float(radius))


# -- canonicalization ---------------------------------------------------------

_REQUIRED_NONZERO = {
    "none": 1,
    "undirected-segment": 1,
    "rectangle": 2,
    "box": 3,
    "circle": 1,
}


def canonicalize_frame(f: Frame, sym: str) -> Frame:
    """Pick the orbit representative for a frame under its symmetry class.

    Axes are sorted by descending length, each axis sign is fixed so its first
    nonzero component is positive, and exact length ties break lexicographically.
    Circles collapse to radius times the identity. Idempotent.
    """
    if sym not in SYMMETRY_CLASSES:
        raise ValueError(f"unknown symmetry class: {sym}")
    lengths = f.lengths
    nonzero = int(np.count_nonzero(lengths > 0))
    need = _REQUIRED_NONZERO[sym]
    if nonzero < need:
        raise DegenerateFrameError(f"symmetry {sym} needs {need} nonzero axes, frame has {nonzero}")
    if sym == "circle":
        radii = lengths[lengths > 0]
        r = float(radii.mean())
        return Frame(f.origin.copy(), np.eye(f.dim) * r)
    if sym == "none":
        return f.copy()
    fixed = []
    for axis in f.axes:
        a = axis.copy()
        for comp in a:
            if comp != 0.0:
                if comp < 0.0:
                    a = -a
                break
        fixed.append(a)
    fixed.sort(key=lambda a: (-float(np.linalg.norm(a)), tuple(a)))
    return Frame(f.origin.copy(), np.array(fixed))


def canonical_scale(f: Frame, sym: str) -> float:
    """Primary length of the canonical representative, without building it.

    Circles average their nonzero radii; every other class takes the longest
    axis. Raises when the frame is too degenerate for its symmetry class,
    mirroring canonicalize_frame.
    """
    if sym not in SYMMETRY_CLASSES:
        raise ValueError(f"unknown symmetry class: {sym}")
    count = 0
    total = 0.0
    longest = 0.0
    for lv in f._length_tuple:
        if lv > 0:
            count += 1
            total += lv
            if lv > longest:
                longest = lv
    need = _REQUIRED_NONZERO[sym]
    if count < need:
        raise DegenerateFrameError(f"symmetry {sym} needs {need} nonzero axes, frame has {count}")
    if sym == "circle":
        return total / count
    return longest


# -- relation functions -------------------------------------------------------


def _primary_or_raise(f: Frame, what: str) -> float:
    length = f.primary_length
    if length <= 0:
        raise DegenerateFrameError(f"{what}: zero primary axis")
    return length


def eval_relation(function: str, frames, slack: float = 0.1):
    """Evaluate one relation function on a pair of frames.

    Scalar relations return floats, boolean relations a bool.
    `slack` is only consulted by the boolean relations: radians for parallel;
    for touch and inside it is relative to the larger (resp. outer) primary
    length, which keeps the tests scale-invariant.

    `touch` asks whether `boundary_distance` is within the slack. Origins
    within it, or further apart than both extents can reach plus it,
    decide at once; so do two full-rank 2D extents that overlap by more
    than a margin along all four of their axes (`_extents_overlap`), given
    a slack above that margin, which bounds what `_extent_distance` gives
    intersecting extents (`_TOUCH_MARGIN`). Every other pair is measured.
    """
    if function not in RELATION_FUNCTIONS:
        raise ValueError(f"unknown relation function: {function}")
    frames = list(frames)
    if len(frames) != 2:
        raise ArityError(f"{function} takes two frames, got {len(frames)}")
    a, b = frames
    if a.dim != b.dim:
        raise ArityError("frames of mixed dimension")

    if function == "size-ratio":
        return _primary_or_raise(a, "size-ratio") / _primary_or_raise(b, "size-ratio")
    if function == "distance-ratio":
        return float(np.linalg.norm(a.origin - b.origin)) / _primary_or_raise(a, "distance-ratio")
    if function == "angle":
        return angle_between(a, b)
    if function == "parallel":
        return angle_between(a, b) <= slack
    if function == "touch":
        scale = max(_primary_or_raise(a, "touch"), _primary_or_raise(b, "touch"))
        limit = slack * scale
        diff = b.origin - a.origin
        gap0 = math.sqrt(float(diff @ diff))
        if gap0 <= limit:
            return True  # the origins alone are close enough
        la = a.lengths
        lb = b.lengths
        reach = math.sqrt(float(la @ la)) + math.sqrt(float(lb @ lb))
        if gap0 - reach > limit:
            return False  # even the closest corners cannot span the gap
        margin = _TOUCH_MARGIN * max(1.0, reach)
        if limit > margin and _extents_overlap(a, b, diff, margin):
            return True  # they intersect, and boundary_distance is below margin
        return boundary_distance(a, b) <= limit
    if function == "inside":
        return _contains(a, b, slack * _primary_or_raise(a, "inside"))
    raise ValueError(function)


_TIE_RATIO = 0.9

# Magnitudes that `angle_between` and `_segment_distance` take as they are.
# Both square products of coordinates, which overflow past about 1e77 and
# underflow below about 1e-77, so outside this range they work on a
# power-of-two rescale of their inputs, which is exact.
_SAFE_RANGE = (2.0 ** -200, 2.0 ** 200)

_EYE_CACHE: dict = {}


def _eye(n: int) -> np.ndarray:
    e = _EYE_CACHE.get(n)
    if e is None:
        e = np.eye(n)
        _EYE_CACHE[n] = e
    return e


def unambiguous_axes(f: Frame, top: int = 1) -> list[int]:
    """Indices of the longest axes that tie no other axis within 10%.

    Descending length order, at most `top` entries. Tied axes carry an
    arbitrary canonical labeling, so point-correspondence fits skip them.
    """
    lengths = f.lengths
    out = []
    for i in np.argsort(-lengths):
        li = float(lengths[i])
        if li <= 0 or len(out) == top:
            break
        tied = any(
            j != i and lengths[j] > 0
            and min(li, lengths[j]) >= _TIE_RATIO * max(li, lengths[j])
            for j in range(lengths.size)
        )
        if not tied:
            out.append(int(i))
    return out


def angle_between(a: Frame, b: Frame) -> float:
    """Unsigned angle in [0, pi/2] between primary directions.

    Axes tied within 10% of the primary are direction-ambiguous, so the
    best-aligned tied pair is scored; a symmetric shape never pays for an
    arbitrary axis labeling. Unrolled scalar arithmetic: this sits inside
    every placement test a recognition run makes. A pair whose length
    product lies outside `_SAFE_RANGE` has each axis scaled by the power of
    two that brings its length into [0.5, 1) first.
    """
    la = a._length_tuple
    lb = b._length_tuple
    pa = a._primary
    pb = b._primary
    if pa <= 0 or pb <= 0:
        raise DegenerateFrameError("frame has no nonzero axis")
    ta = _TIE_RATIO * pa
    tb = _TIE_RATIO * pb
    dim = len(la)
    best = None
    for i in range(dim):
        na = la[i]
        if na < ta:
            continue
        va = a.axes[i]
        a0 = float(va[0])
        a1 = float(va[1])
        a2 = float(va[2]) if dim == 3 else 0.0
        for j in range(dim):
            nb = lb[j]
            if nb < tb:
                continue
            vb = b.axes[j]
            b0 = float(vb[0])
            b1 = float(vb[1])
            b2 = float(vb[2]) if dim == 3 else 0.0
            scale = na * nb
            if not _SAFE_RANGE[0] <= scale <= _SAFE_RANGE[1]:
                ka = math.ldexp(1.0, -math.frexp(na)[1])
                kb = math.ldexp(1.0, -math.frexp(nb)[1])
                a0, a1, a2 = a0 * ka, a1 * ka, a2 * ka
                b0, b1, b2 = b0 * kb, b1 * kb, b2 * kb
                scale = (na * ka) * (nb * kb)
            dot = (a0 * b0 + a1 * b1 + a2 * b2) / scale
            cx = a1 * b2 - a2 * b1
            cy = a2 * b0 - a0 * b2
            cz = a0 * b1 - a1 * b0
            cross = math.sqrt(cx * cx + cy * cy + cz * cz) / scale
            ang = math.atan2(cross, abs(dot))
            if best is None or ang < best:
                best = ang
    return best


def boundary_distance(a: Frame, b: Frame) -> float:
    """Euclidean distance between the two solid extents (0 when they overlap).

    Two segments (one nonzero axis each) take the closed form for the
    closest points of two segments; every other pair goes to the active-set
    sweep of `_extent_distance`.
    """
    ia = _single_axis(a)
    ib = _single_axis(b) if ia is not None else None
    if ib is None:
        return _extent_distance(a, b)
    return _segment_distance(a.origin.tolist(), a.axes[ia].tolist(),
                            b.origin.tolist(), b.axes[ib].tolist())


def _single_axis(f: Frame) -> int | None:
    """Index of the only nonzero axis, or None when there are more or none."""
    found = None
    for i, length in enumerate(f._length_tuple):
        if length > 0:
            if found is not None:
                return None
            found = i
    return found


def _segment_distance(ca, ha, cb, hb) -> float:
    """Distance between the segments ca +/- ha and cb +/- hb (2- or 3-vectors).

    Closed form for the closest points of two segments (Ericson, Real-Time
    Collision Detection, 2004, 5.1.9) on the parameters s, t in [-1, 1]:
    the closest points of the two lines, with s clamped, then t clamped and
    s recomputed when t left its range. The line solution's denominator is
    |ha x hb|^2 and its numerator ((ha x hb) x hb) . r, both formed from
    cross products so near-parallel segments lose no precision to
    cancellation; exactly parallel ones start from s = 0. Plain floats.

    When the longest component of ha, hb and r = ca - cb lies outside
    `_SAFE_RANGE`, all three are scaled by the power of two that brings it
    into [0.5, 1), and the distance is scaled back; inside the range
    nothing is scaled. A half axis whose squared length still underflows to
    zero, next to a longest component up to 2**200 times its size, is taken
    as its center point; the error is at most that half axis's length.
    """
    if len(ca) == 2:
        ca, ha, cb, hb = (*ca, 0.0), (*ha, 0.0), (*cb, 0.0), (*hb, 0.0)
    ax, ay, az = ha
    bx, by, bz = hb
    rx, ry, rz = ca[0] - cb[0], ca[1] - cb[1], ca[2] - cb[2]
    back = 1.0
    longest = max(abs(ax), abs(ay), abs(az), abs(bx), abs(by), abs(bz),
                  abs(rx), abs(ry), abs(rz))
    if not _SAFE_RANGE[0] <= longest <= _SAFE_RANGE[1]:
        exp = math.frexp(longest)[1]
        k = math.ldexp(1.0, -exp)
        ax, ay, az, bx, by, bz = ax * k, ay * k, az * k, bx * k, by * k, bz * k
        rx, ry, rz = rx * k, ry * k, rz * k
        back = math.ldexp(1.0, exp)
    a = ax * ax + ay * ay + az * az
    e = bx * bx + by * by + bz * bz
    b = ax * bx + ay * by + az * bz
    c = ax * rx + ay * ry + az * rz
    f = bx * rx + by * ry + bz * rz
    nx = ay * bz - az * by
    ny = az * bx - ax * bz
    nz = ax * by - ay * bx
    denom = nx * nx + ny * ny + nz * nz
    if a == 0.0 or e == 0.0:
        # a half axis whose square underflows is a point at this scale
        s = min(1.0, max(-1.0, -c / a)) if a > 0.0 else 0.0
        t = min(1.0, max(-1.0, f / e)) if e > 0.0 else 0.0
    else:
        s = 0.0
        if denom > 0.0:
            # (n x hb) . r
            num = ((ny * bz - nz * by) * rx + (nz * bx - nx * bz) * ry
                   + (nx * by - ny * bx) * rz)
            s = min(1.0, max(-1.0, num / denom))
        t = (b * s + f) / e
        if t < -1.0:
            t = -1.0
            s = min(1.0, max(-1.0, (-b - c) / a))
        elif t > 1.0:
            t = 1.0
            s = min(1.0, max(-1.0, (b - c) / a))
    dx = rx + s * ax - t * bx
    dy = ry + s * ay - t * by
    dz = rz + s * az - t * bz
    return math.sqrt(dx * dx + dy * dy + dz * dz) * back


def _extent_distance(a: Frame, b: Frame) -> float:
    """Distance between two solid extents by a primal active-set sweep.

    Each extent is the affine image of the unit cube, so the nearest pair of
    points solves a small bound-constrained least-squares problem. The sweep
    solves it exactly: walk toward the free-coordinate minimizer until a
    bound blocks, fix that coordinate, and release a bound only when its
    multiplier says the optimum lies inward. At most a handful of tiny
    linear solves, machine-precision result. Any rank, so it is also the
    reference for `_segment_distance`.
    """
    # point in a: origin_a + axes_a^T u, u in [-1,1]^dim; likewise for b
    mat = np.hstack([a.axes.T, -b.axes.T])
    rhs = b.origin - a.origin
    gram = mat.T @ mat
    mtr = mat.T @ rhs
    n = gram.shape[0]
    tr = float(np.trace(gram))
    if tr <= 0:
        return float(np.linalg.norm(rhs))
    reg = 1e-12 * tr
    kkt_tol = 1e-10 * max(1.0, tr)
    u = np.zeros(n)
    free = np.ones(n, dtype=bool)
    for _ in range(6 * n):
        idx = np.flatnonzero(free)
        if idx.size:
            if idx.size == n:
                rhs_f = mtr
                sub = gram + reg * _eye(n)
            else:
                fixed = u.copy()
                fixed[idx] = 0.0
                rhs_f = mtr[idx] - gram[idx] @ fixed
                sub = gram[np.ix_(idx, idx)] + reg * _eye(idx.size)
            try:
                v = np.linalg.solve(sub, rhs_f)
            except np.linalg.LinAlgError:
                break
            d = v - u[idx]
            if float(np.abs(d).max()) > 1e-14:
                alphas = np.full(idx.size, np.inf)
                over = v > 1.0
                under = v < -1.0
                alphas[over] = (1.0 - u[idx][over]) / d[over]
                alphas[under] = (-1.0 - u[idx][under]) / d[under]
                alpha = min(1.0, float(alphas.min()))
                u[idx] = u[idx] + alpha * d
                np.clip(u, -1.0, 1.0, out=u)
                if alpha < 1.0:
                    for k, i in enumerate(idx):
                        if alphas[k] <= alpha + 1e-15:
                            u[i] = 1.0 if d[k] > 0 else -1.0
                            free[i] = False
                    continue
        # free coordinates sit at their exact minimum; release the worst
        # bound whose multiplier pulls inward, or stop at the optimum
        g = gram @ u - mtr
        release = -1
        worst = kkt_tol
        for i in np.flatnonzero(~free):
            viol = float(g[i]) if u[i] > 0.0 else -float(g[i])
            if viol > worst:
                worst = viol
                release = i
        if release < 0:
            break
        free[release] = True
    gap = mat @ u - rhs
    return float(np.linalg.norm(gap))


# Where two extents intersect, `_extent_distance` gives them less than this
# times max(1, reach), reach being the sum of their axis-length norms. Its
# sweep minimizes f(u) = |gap|^2/2 + reg |u|^2/2 over the unit box, with
# reg = 1e-12 tr (tr, the sum of the squared axis lengths, is at most
# reach^2), and stops once no bound's multiplier pulls inward by more than
# kkt_tol = 1e-10 max(1, tr). By convexity its f is then within
# 2 n kkt_tol of the optimum (n = 4 coordinates, each ranging over 2), and
# an intersection point has gap 0 and |u|^2 <= 4, so
# |gap|^2 <= 4 reg + 16 kkt_tol, and |gap| <= 4.2e-5 max(1, reach). (The
# error measured where extents just touch is smaller: about 3e-7 of their
# lengths.) The same margin on the overlaps of `_extents_overlap` dwarfs
# the rounding of its plain-float sums.
_TOUCH_MARGIN = 1e-4


def _extents_overlap(a: Frame, b: Frame, diff, margin: float) -> bool:
    """Whether two 2D extents with no zero axis overlap by more than
    `margin` along each of their four axes; `diff` is b's origin minus a's.

    This is the separating-axis test for oriented boxes (Gottschalk, Lin &
    Manocha, "OBBTree", 1996), in plain floats: two rectangles are disjoint
    exactly when one of their edge normals, their axes, separates them. A
    segment's extent has a normal the axes miss, so a frame with a zero
    axis, or a 3D pair, gets False here and is measured instead.
    """
    if a.dim != 2 or 0.0 in a._length_tuple or 0.0 in b._length_tuple:
        return False
    (a0x, a0y), (a1x, a1y) = a.axes.tolist()
    (b0x, b0y), (b1x, b1y) = b.axes.tolist()
    dx, dy = diff.tolist()
    for (ux, uy), length in zip(((a0x, a0y), (a1x, a1y), (b0x, b0y), (b1x, b1y)),
                                a._length_tuple + b._length_tuple):
        ra = abs(ux * a0x + uy * a0y) + abs(ux * a1x + uy * a1y)
        rb = abs(ux * b0x + uy * b0y) + abs(ux * b1x + uy * b1y)
        if not (ra + rb - abs(ux * dx + uy * dy)) / length > margin:
            return False
    return True


# Relative band about each bound of `_contains` within which the plain-float
# test defers to the numpy one. Both form the same differences and unit
# axes; only their dot products may round differently, by a few ulps of the
# summed magnitudes, far inside the band.
_CONTAINS_BAND = 1e-9


def _contains(outer: Frame, inner: Frame, slack: float) -> bool:
    """Origin and axis extremes of `inner` all inside `outer`'s extent plus slack.

    For a full-rank `outer`, each point's coordinate along each of its unit
    axes is compared with that axis's length plus slack in plain floats. A
    point clearly outside gives False, and all clearly inside give True. A
    comparison within `_CONTAINS_BAND` of its bound plus the magnitudes it
    sums, or a rank-deficient `outer`, leaves the answer to
    `_contains_exact`.
    """
    lengths = outer._length_tuple
    if 0.0 in lengths:
        return _contains_exact(outer, inner, slack)
    units = [[c / length for c in axis] for axis, length in zip(outer.axes.tolist(), lengths)]
    bounds = [length + slack for length in lengths]
    ref = outer.origin.tolist()
    origin = inner.origin.tolist()
    pts = [origin]
    for axis in inner.axes.tolist():
        pts.append([o + c for o, c in zip(origin, axis)])
        pts.append([o - c for o, c in zip(origin, axis)])
    unsure = False
    for p in pts:
        v = [c - r for c, r in zip(p, ref)]
        for u, bound in zip(units, bounds):
            terms = [x * y for x, y in zip(u, v)]
            rel = abs(sum(terms))
            band = _CONTAINS_BAND * (bound + sum(map(abs, terms)))
            if rel > bound + band:
                return False
            if rel >= bound - band:
                unsure = True
    return _contains_exact(outer, inner, slack) if unsure else True


def _contains_exact(outer: Frame, inner: Frame, slack: float) -> bool:
    """`_contains` in numpy, for any rank of `outer`: the exact answer."""
    pts = [inner.origin]
    for axis in inner.axes:
        pts.append(inner.origin + axis)
        pts.append(inner.origin - axis)
    basis = outer.unit_dirs()
    lengths = np.array(sorted(outer.lengths, reverse=True))
    for p in pts:
        rel = basis @ (np.asarray(p) - outer.origin)
        if np.any(np.abs(rel) > lengths + slack):
            return False
    return True


# -- transforms ---------------------------------------------------------------


@dataclass
class AffineMap:
    """x -> linear @ x + offset; the workhorse for template-to-world maps."""

    linear: np.ndarray
    offset: np.ndarray

    def then(self, other: "AffineMap") -> "AffineMap":
        """The composition applying `other` first, then self."""
        return AffineMap(self.linear @ other.linear, self.linear @ other.offset + self.offset)

    def apply_frame(self, f: Frame) -> Frame:
        return Frame(self.linear @ f.origin + self.offset, f.axes @ self.linear.T)

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        return AffineMap(np.eye(dim), np.zeros(dim))


def frame_onto(src: Frame, dst: Frame, src_pinv: np.ndarray | None = None) -> AffineMap:
    """The affine map carrying `src`'s frame onto `dst`'s.

    Solves linear @ src.axes.T = dst.axes.T by pseudoinverse, so each source
    axis lands exactly on its destination axis even when the frames are rank
    deficient (segments) or the aspect ratios differ (anisotropic embedding).
    Callers mapping one template onto many destinations pass the template's
    precomputed pinv(src.axes.T) to skip the repeated decomposition.
    """
    if src_pinv is None:
        src_pinv = np.linalg.pinv(src.axes.T)
    linear = dst.axes.T @ src_pinv
    offset = dst.origin - linear @ src.origin
    return AffineMap(linear, offset)


@dataclass
class SimilarityTransform:
    """x -> scale * rotation @ x + translation."""

    rotation: np.ndarray
    scale: float
    translation: np.ndarray

    def apply_frame(self, f: Frame) -> Frame:
        origin = self.scale * (self.rotation @ f.origin) + self.translation
        axes = self.scale * (f.axes @ self.rotation.T)
        return Frame(origin, axes)


@dataclass
class AffineCamera:
    """3D -> 2D affine view: x -> linear @ x + translation (linear is 2x3, rank 2)."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        self.linear = np.asarray(self.linear, float)
        self.translation = np.asarray(self.translation, float)
        if self.linear.shape[0] != 2 or self.translation.shape != (2,):
            raise ValueError("camera must map to the plane")
        if np.linalg.matrix_rank(self.linear) < 2:
            raise DegenerateFrameError("camera linear part is rank deficient")

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, float))
        return (self.linear @ pts.T).T + self.translation


class SimilarityFits(NamedTuple):
    """Row-wise results of `fit_similarities`; `ok` is False where the fit
    is unusable, and the other fields of such a row are meaningless."""

    rotations: np.ndarray
    scales: np.ndarray
    translations: np.ndarray
    residuals: np.ndarray
    ok: np.ndarray


def fit_similarities(model_pts: np.ndarray, image_pts: np.ndarray) -> SimilarityFits:
    """Least-squares similarities (proper rotations), one per row of a stack.

    Fits image_pts[i] ≈ scale_i * rotation_i @ model_pts[i] + translation_i
    for (n, k, d) stacks with k >= 2, by Umeyama's SVD construction. Every
    step runs stacked, so a row's floats do not depend on the other rows.
    A row's residual is the root of its summed squared correspondence
    errors. A row is not `ok` where its model points are coincident
    (variance below 1e-24) or its scale is not positive; a NaN scale passes.
    The stacks are taken in C order: the float order of the sums follows
    the memory layout.
    """
    x = np.ascontiguousarray(model_pts, float)
    y = np.ascontiguousarray(image_pts, float)
    n, k, dim = x.shape
    mx = x.mean(axis=1)
    my = y.mean(axis=1)
    xc = x - mx[:, None, :]
    yc = y - my[:, None, :]
    var_x = (xc ** 2).sum(axis=(1, 2)) / k
    coincident = var_x < 1e-24
    cov = (yc.transpose(0, 2, 1) @ xc) / k
    u, s, vt = np.linalg.svd(cov)
    d = np.ones((n, dim))
    d[np.linalg.det(u) * np.linalg.det(vt) < 0, -1] = -1.0
    diag = np.zeros((n, dim, dim))
    diag[:, range(dim), range(dim)] = d
    rot = u @ diag @ vt
    scale = (s * d).sum(axis=1) / np.where(coincident, 1.0, var_x)
    trans = my - scale[:, None] * (rot @ mx[:, :, None])[:, :, 0]
    fitted = ((scale[:, None, None] * (rot @ x.transpose(0, 2, 1))).transpose(0, 2, 1)
              + trans[:, None, :])
    residual = np.sqrt(((fitted - y) ** 2).sum(axis=(1, 2)))
    ok = ~coincident & ~(scale <= 0)
    return SimilarityFits(rot, scale, trans, residual, ok)


def fit_similarity(model_pts: np.ndarray, image_pts: np.ndarray):
    """Least-squares similarity (proper rotation) over point correspondences.

    Returns (SimilarityTransform, residual) where residual is the root of the
    summed squared correspondence errors: `fit_similarities` on one row.
    """
    x = np.atleast_2d(np.asarray(model_pts, float))
    y = np.atleast_2d(np.asarray(image_pts, float))
    if x.shape != y.shape or x.shape[0] < 2:
        raise UnderConstrainedError("need at least two matching points of equal dimension")
    fit = fit_similarities(x[None], y[None])
    if not fit.ok[0]:
        raise UnderConstrainedError("coincident model points or non-positive scale")
    return similarity_of(fit, 0), float(fit.residuals[0])


def similarity_of(fit: SimilarityFits, row: int) -> SimilarityTransform:
    """Row `row` of a stacked fit as a transform that owns its arrays."""
    return SimilarityTransform(fit.rotations[row].copy(), float(fit.scales[row]),
                               fit.translations[row].copy())


def fit_affine(model_pts: np.ndarray, image_pts: np.ndarray):
    """Minimum-norm least-squares affine map model -> image (any dims).

    Returns ((linear, translation), residual). Used for projected scenes where
    a similarity cannot explain the view.
    """
    x = np.atleast_2d(np.asarray(model_pts, float))
    y = np.atleast_2d(np.asarray(image_pts, float))
    if x.shape[0] != y.shape[0] or x.shape[0] < 2:
        raise UnderConstrainedError("need matching point lists")
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    sol, *_ = np.linalg.lstsq(design, y, rcond=None)
    linear = sol[:-1].T
    trans = sol[-1]
    residual = float(np.sqrt(((design @ sol - y) ** 2).sum()))
    return (linear, trans), residual


def apply_similarities(rotations, scales, translations, origins, axes):
    """`SimilarityTransform.apply_frame` of n frames under each of h
    similarities, before the `Frame` check.

    Takes rotations (h, d, d), scales (h,) and translations (h, d), and
    frame origins (n, d) and axes (n, d, d); returns (h, n, d) origins and
    (h, n, d, d) axes. Each (transform, frame) pair goes through matmuls of
    the shapes `apply_frame` uses and the same elementwise steps, so its
    floats are bit for bit `apply_frame`'s; an einsum or an elementwise
    product sums in another order and is not.
    """
    moved = (rotations[:, None] @ origins[None, :, :, None])[..., 0]
    out_origins = scales[:, None, None] * moved + translations[:, None, :]
    out_axes = scales[:, None, None, None] * (axes[None] @ rotations.transpose(0, 2, 1)[:, None])
    return out_origins, out_axes


def project_frames(linears, translations, origins, axes):
    """`project` of n 3D frames under each of h cameras, before the `Frame`
    check.

    Takes camera linears (h, 2, 3) and translations (h, 2), and frame
    origins (n, 3) and axes (n, 3, 3); returns (h, n, 2) origins and
    (h, n, 2, 2) axes, bit for bit `project`'s: matmuls of its shapes, the
    three outer products summed in its order, one stacked `eigh` (LAPACK's
    per-matrix routine on each matrix), and its ordering and clamping of
    the eigenvalues.
    """
    out_origins = (linears[:, None] @ origins[None, :, :, None])[..., 0] + translations[:, None, :]
    proj = linears[:, None] @ axes.transpose(0, 2, 1)[None]  # projected axes as columns
    m = np.zeros(proj.shape[:2] + (2, 2))
    for k in range(proj.shape[-1]):
        m += proj[..., :, k, None] * proj[..., None, :, k]
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(-vals, axis=-1)
    vals = np.take_along_axis(vals, order, axis=-1)
    # max(val, 0.0) keeps -0.0 and NaN, as np.maximum does not
    root = np.sqrt(np.where(vals < 0.0, 0.0, vals))
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    return out_origins, (vecs * root[..., None, :]).swapaxes(-1, -2)


def project(camera: AffineCamera, f: Frame) -> Frame:
    """Project a 3D frame to the best-fit 2D frame of its projected extent.

    The projected axis vectors are generally not orthogonal; the result uses
    the principal directions of their outer-product sum, which reproduces the
    exact projected axes whenever they happen to stay orthogonal.
    """
    if f.dim != 3:
        raise DegenerateFrameError("project expects a 3D frame")
    origin = camera.apply_points(f.origin)[0]
    proj = (camera.linear @ f.axes.T).T
    m = np.zeros((2, 2))
    for v in proj:
        m += np.outer(v, v)
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(-vals)
    axes = np.zeros((2, 2))
    for row, idx in enumerate(order):
        val = max(float(vals[idx]), 0.0)
        axes[row] = np.sqrt(val) * vecs[:, idx]
    return Frame(origin, axes)
