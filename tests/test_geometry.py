import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dualgraph.errors import (
    ArityError,
    DegenerateFrameError,
)
from dualgraph import geometry
from dualgraph.geometry import (
    AffineCamera,
    Frame,
    _contains,
    _contains_exact,
    _extent_distance,
    _extents_overlap,
    angle_between,
    boundary_distance,
    canonicalize_frame,
    eval_relation,
    fit_affine,
    fit_similarity,
    frame_from_circle,
    frame_from_segment,
    project,
)
from conftest import random_frame, random_rotation


# -- Frame construction -------------------------------------------------------

def test_frame_rejects_non_orthogonal_axes():
    with pytest.raises(DegenerateFrameError):
        Frame([0.0, 0.0], [[1.0, 0.0], [0.5, 1.0]])


def test_frame_rejects_non_finite():
    with pytest.raises(DegenerateFrameError):
        Frame([0.0, np.nan], np.eye(2))


TOL = 1e-9  # geometry._ORTHO_TOL
BAD_FRAMES = [
    ("origin-scalar", 0.0, np.eye(2)),
    ("origin-1", [0.0], np.eye(1)),
    ("origin-4", np.zeros(4), np.eye(4)),
    ("origin-matrix", np.zeros((2, 2)), np.eye(2)),
    ("axes-3-for-2", np.zeros(2), np.eye(3)),
    ("axes-2x3", np.zeros(2), np.zeros((2, 3))),
    ("axes-vector", np.zeros(2), np.zeros(2)),
    ("origin-nan", [0.0, np.nan], np.eye(2)),
    ("origin-inf", [np.inf, 0.0, 0.0], np.eye(3)),
    ("axes-nan", np.zeros(2), [[1.0, np.nan], [0.0, 1.0]]),
    ("axes-inf", np.zeros(3), [[1.0, 0.0, 0.0], [0.0, -np.inf, 0.0], [0.0, 0.0, 1.0]]),
    ("axes-inf-zero-row", np.zeros(2), [[np.inf, 0.0], [0.0, 0.0]]),
    # dot just above the tolerance, in units of max(|a_i||a_j|, 1)
    ("ortho-unit", np.zeros(2), [[1.0, 0.0], [1.001 * TOL, 1.0]]),
    ("ortho-short", np.zeros(2), [[0.1, 0.0], [10.0 * 1.001 * TOL, 0.1]]),
    ("ortho-long", np.zeros(2), [[10.0, 0.0], [10.0 * 1.001 * TOL, 10.0]]),
    ("ortho-3d", np.zeros(3), [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 1.001 * TOL, 1.0]]),
]
GOOD_FRAMES = [
    ("ortho-unit", np.zeros(2), [[1.0, 0.0], [0.999 * TOL, 1.0]]),
    ("ortho-short", np.zeros(2), [[0.1, 0.0], [10.0 * 0.999 * TOL, 0.1]]),
    ("ortho-long", np.zeros(2), [[10.0, 0.0], [10.0 * 0.999 * TOL, 10.0]]),
    ("ortho-3d", np.zeros(3), [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.999 * TOL, 1.0]]),
    ("zero-axes", np.zeros(3), np.zeros((3, 3))),
]


@pytest.mark.parametrize("origin, axes", [c[1:] for c in BAD_FRAMES],
                         ids=[c[0] for c in BAD_FRAMES])
def test_frame_constructor_rejects(origin, axes):
    with pytest.raises(DegenerateFrameError):
        Frame(origin, axes)


@pytest.mark.parametrize("origin, axes", [c[1:] for c in GOOD_FRAMES],
                         ids=[c[0] for c in GOOD_FRAMES])
def test_frame_constructor_accepts_just_inside_the_tolerance(origin, axes):
    f = Frame(origin, axes)
    assert f.lengths.tolist() == [math.sqrt(float(row @ row)) for row in f.axes]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    dim=st.sampled_from([2, 3]),
    lengths=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=3, max_size=3),
    angles=st.lists(st.floats(-math.pi, math.pi), min_size=3, max_size=3),
)
def test_frame_lengths_are_the_row_norms_bit_for_bit(dim, lengths, angles):
    from scipy.spatial.transform import Rotation

    rot = (np.array([[math.cos(angles[0]), -math.sin(angles[0])],
                     [math.sin(angles[0]), math.cos(angles[0])]]) if dim == 2
           else Rotation.from_rotvec(angles).as_matrix())
    f = Frame(np.zeros(dim), np.diag(lengths[:dim]) @ rot)
    want = [math.sqrt(float(row @ row)) for row in f.axes]
    assert _bits(f._length_tuple) == _bits(want)
    assert _bits(f.lengths) == _bits(want)
    assert f.primary_length == max(want)
    assert f.primary_axis.tobytes() == f.axes[int(np.argmax(want))].tobytes()


def test_segment_frame_midpoint_and_half_axis():
    f = frame_from_segment([0.0, 0.0], [4.0, 0.0])
    assert np.allclose(f.origin, [2.0, 0.0])
    assert f.primary_length == pytest.approx(2.0)
    # cross axis carries no extent
    assert sorted(f.lengths) == pytest.approx([0.0, 2.0])


def test_circle_frame_is_radius_times_identity():
    f = frame_from_circle([1.0, -2.0], 0.5)
    assert np.allclose(f.axes, np.eye(2) * 0.5)
    with pytest.raises(DegenerateFrameError):
        frame_from_circle([0.0, 0.0], 0.0)


# -- canonicalization ---------------------------------------------------------


def symmetry_orbit(f: Frame, sym: str) -> list[Frame]:
    """Every equivalent representation of the frame (2 for a segment, 48 for a box)."""
    axes = f.axes
    dim = f.dim
    frames = []
    if sym == "undirected-segment":
        for s in (1.0, -1.0):
            alt = axes.copy()
            alt[0] = alt[0] * s
            frames.append(Frame(f.origin.copy(), alt))
        return frames
    if sym == "rectangle":
        for s1 in (1.0, -1.0):
            for s2 in (1.0, -1.0):
                alt = axes.copy()
                alt[0] *= s1
                alt[1] *= s2
                frames.append(Frame(f.origin.copy(), alt))
        return frames
    if sym == "box":
        for perm in itertools.permutations(range(dim)):
            for signs in itertools.product((1.0, -1.0), repeat=dim):
                alt = np.array([axes[p] * s for p, s in zip(perm, signs)])
                frames.append(Frame(f.origin.copy(), alt))
        return frames
    if sym == "circle":
        return [canonicalize_frame(f, "circle")]
    return [f.copy()]


def test_box_orbit_collapses_to_one_representative(rng):
    f = random_frame(rng, dim=3, lengths=[3.0, 2.0, 1.0])
    orbit = symmetry_orbit(f, "box")
    assert len(orbit) == 48
    reps = [canonicalize_frame(g, "box") for g in orbit]
    base = reps[0]
    for rep in reps[1:]:
        assert np.array_equal(rep.origin, base.origin)
        assert np.array_equal(rep.axes, base.axes)


def test_segment_and_rectangle_orbits(rng):
    seg = frame_from_segment(rng.uniform(-1, 1, 2), rng.uniform(2, 3, 2))
    orbit = symmetry_orbit(seg, "undirected-segment")
    assert len(orbit) == 2
    reps = [canonicalize_frame(g, "undirected-segment").axes for g in orbit]
    assert np.array_equal(reps[0], reps[1])

    rect = random_frame(rng, dim=2, lengths=[2.0, 1.0])
    orbit = symmetry_orbit(rect, "rectangle")
    assert len(orbit) == 4
    reps = [canonicalize_frame(g, "rectangle").axes for g in orbit]
    for axes in reps[1:]:
        assert np.array_equal(axes, reps[0])


def test_canonicalize_circle_reduces_to_radius():
    rot = random_rotation(np.random.default_rng(7), 2)
    f = Frame([0.0, 1.0], np.diag([0.8, 0.8]) @ rot)
    c = canonicalize_frame(f, "circle")
    assert np.allclose(c.axes, np.eye(2) * 0.8)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_canonicalize_idempotent(seed):
    rng = np.random.default_rng(seed)
    for sym, dim in (("undirected-segment", 2), ("rectangle", 2), ("box", 3), ("none", 3)):
        f = random_frame(rng, dim=dim)
        if sym == "undirected-segment":
            f = frame_from_segment(rng.uniform(-1, 1, 2), rng.uniform(1, 2, 2))
        once = canonicalize_frame(f, sym)
        twice = canonicalize_frame(once, sym)
        assert np.array_equal(once.axes, twice.axes)
        assert np.array_equal(once.origin, twice.origin)


def test_canonicalize_rejects_degenerate_frames():
    seg = frame_from_segment([0.0, 0.0], [2.0, 0.0])
    # a segment is fine as a segment but cannot act as a rectangle
    canonicalize_frame(seg, "undirected-segment")
    with pytest.raises(DegenerateFrameError):
        canonicalize_frame(seg, "rectangle")
    with pytest.raises(DegenerateFrameError):
        canonicalize_frame(Frame([0.0, 0.0], np.zeros((2, 2))), "undirected-segment")


# -- relation functions -------------------------------------------------------

def test_size_ratio_primary_lengths():
    cab = Frame([0.0, 0.0], np.diag([4.0, 1.0]))
    trunk = Frame([6.0, 0.0], np.diag([2.0, 1.0]))
    assert eval_relation("size-ratio", [cab, trunk]) == pytest.approx(2.0)


def test_distance_ratio_hand_value():
    # origins 3 apart, first primary length 2 -> 3/2
    a = Frame([0.0, 0.0], np.diag([2.0, 0.5]))
    b = Frame([3.0, 0.0], np.diag([1.0, 0.25]))
    assert eval_relation("distance-ratio", [a, b]) == pytest.approx(1.5)


def test_angle_perpendicular_segments():
    a = frame_from_segment([0, 0], [2, 0])
    b = frame_from_segment([0, 0], [0, 3])
    assert eval_relation("angle", [a, b]) == pytest.approx(np.pi / 2)
    # angle is direction-blind: anti-parallel reads as parallel
    c = frame_from_segment([5, 5], [3, 5])
    d = frame_from_segment([0, 0], [2, 0])
    assert eval_relation("angle", [c, d]) == pytest.approx(0.0)


def test_parallel_and_touch_booleans():
    a = frame_from_segment([0, 0], [2, 0])
    b = frame_from_segment([2.01, 0], [4, 0])
    assert eval_relation("touch", [a, b], slack=0.05) is True
    assert eval_relation("touch", [a, b], slack=0.001) is False
    assert eval_relation("parallel", [a, b], slack=0.01) is True


def test_inside_relation():
    outer = Frame([0.0, 0.0], np.diag([2.0, 2.0]))
    inner = frame_from_segment([-1.0, 0.5], [1.0, 0.5])
    assert eval_relation("inside", [outer, inner], slack=0.01) is True
    poking = frame_from_segment([-1.0, 0.5], [3.0, 0.5])
    assert eval_relation("inside", [outer, poking], slack=0.01) is False


def test_relation_errors():
    seg = frame_from_segment([0, 0], [1, 0])
    point_like = Frame([0.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(DegenerateFrameError):
        eval_relation("size-ratio", [seg, point_like])
    with pytest.raises(ArityError):
        eval_relation("angle", [seg])
    with pytest.raises(ValueError):
        eval_relation("no-such-relation", [seg, seg])


def test_scalar_relations_similarity_invariant(rng):
    # applying one similarity to both frames must not move the values
    for _ in range(50):
        a = random_frame(rng, 2)
        b = random_frame(rng, 2)
        rot = random_rotation(rng, 2)
        s = rng.uniform(0.3, 2.5)
        t = rng.uniform(-4, 4, 2)

        def move(f):
            return Frame(s * (rot @ f.origin) + t, s * (f.axes @ rot.T))

        for fn in ("size-ratio", "distance-ratio", "angle"):
            v1 = eval_relation(fn, [a, b])
            v2 = eval_relation(fn, [move(a), move(b)])
            assert abs(v1 - v2) < 1e-9


# -- boundary distance oracle -------------------------------------------------

def test_boundary_distance_axis_aligned_gap():
    a = Frame([0.0, 0.0], np.eye(2))          # square [-1,1]^2
    b = Frame([3.3, 0.0], np.eye(2))          # square [2.3,4.3] x [-1,1]
    assert boundary_distance(a, b) == pytest.approx(1.3, abs=1e-8)


def test_boundary_distance_overlap_is_zero():
    a = Frame([0.0, 0.0], np.eye(2))
    b = Frame([0.5, 0.5], np.eye(2))
    assert boundary_distance(a, b) == pytest.approx(0.0, abs=1e-9)


def test_boundary_distance_corner_to_corner():
    a = Frame([0.0, 0.0], np.eye(2))
    b = Frame([2.2, 2.2], np.eye(2))
    # nearest corners (1,1) and (1.2,1.2)
    assert boundary_distance(a, b) == pytest.approx(np.sqrt(2) * 0.2, abs=1e-7)


def test_boundary_distance_segment_to_segment():
    a = frame_from_segment([0, 0], [2, 0])
    b = frame_from_segment([1, 1], [1, 3])
    assert boundary_distance(a, b) == pytest.approx(1.0, abs=1e-8)


# -- closed-form segment distance against the active-set solver ---------------

# (p0, p1, q0, q1, distance): the four cases above, recast as segment pairs
SEGMENT_CASES = [
    ([-1.0, 0.0], [1.0, 0.0], [2.3, 0.0], [4.3, 0.0], 1.3),            # collinear gap
    ([-1.0, 0.0], [1.0, 0.0], [0.5, -0.5], [0.5, 1.5], 0.0),           # crossing
    ([-1.0, -1.0], [1.0, 1.0], [1.2, 1.2], [3.2, 3.2], np.sqrt(2) * 0.2),  # end to end
    ([0.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 3.0], 1.0),             # T gap
]


@pytest.mark.parametrize("p0, p1, q0, q1, expected", SEGMENT_CASES)
def test_segment_distance_known_cases(p0, p1, q0, q1, expected):
    for dim in (2, 3):
        pad = [0.0] * (dim - 2)
        a = frame_from_segment(p0 + pad, p1 + pad)
        b = frame_from_segment(q0 + pad, q1 + pad)
        assert boundary_distance(a, b) == pytest.approx(expected, abs=1e-12)
        assert _extent_distance(a, b) == pytest.approx(expected, abs=1e-8)


_coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
_unit = st.floats(0.0, 1.0)


@st.composite
def segment_pairs(draw):
    """(p0, p1, q0, q1): a random segment pair of one of five kinds."""
    dim = draw(st.sampled_from((2, 3)))
    vec = st.lists(_coord, min_size=dim, max_size=dim).map(np.array)
    kind = draw(st.sampled_from(("random", "parallel", "collinear", "crossing", "touching")))
    p0, p1, q0 = draw(vec), draw(vec), draw(vec)
    d = p1 - p0
    assume(np.linalg.norm(d) > 1e-3)
    if kind == "random":
        q1 = draw(vec)
    elif kind == "parallel":
        q1 = q0 + draw(st.floats(-2.0, 2.0)) * d
    elif kind == "collinear":
        # q0 lies on the first segment, so the two overlap
        q0 = p0 + draw(_unit) * d
        q1 = p0 + draw(st.floats(-1.0, 2.0)) * d
    elif kind == "crossing":
        x = p0 + draw(_unit) * d
        e = draw(vec)
        assume(abs(float(d @ e)) < 0.999 * np.linalg.norm(d) * np.linalg.norm(e))
        q0 = x - draw(st.floats(0.1, 1.0)) * e
        q1 = x + draw(st.floats(0.1, 1.0)) * e
    else:
        # an endpoint of the second segment is an endpoint of the first
        q0 = p1 if draw(st.booleans()) else p0
        q1 = draw(vec)
    assume(np.linalg.norm(q1 - q0) > 1e-3)
    return p0, p1, q0, q1


def _exact_segment_distance(a: Frame, b: Frame) -> float:
    """Distance between two segment frames in rational arithmetic.

    The squared distance |r + s*ha - t*hb|^2 is convex on [-1, 1]^2, so its
    minimum is the interior stationary point when feasible, else the best
    of the four edge minima; every candidate is evaluated exactly.
    """
    def row(f):
        return [Fraction(float(x)) for x in f.origin], [Fraction(float(x)) for x in f.primary_axis]

    (oa, ha), (ob, hb) = row(a), row(b)

    def dot(u, v):
        return sum(x * y for x, y in zip(u, v))

    r = [x - y for x, y in zip(oa, ob)]
    aa, ee, bb, cc, ff = dot(ha, ha), dot(hb, hb), dot(ha, hb), dot(ha, r), dot(hb, r)

    def clamp(v):
        return min(Fraction(1), max(Fraction(-1), v))

    def sq(s, t):
        g = [ri + s * x - t * y for ri, x, y in zip(r, ha, hb)]
        return dot(g, g)

    cands = [sq(s, clamp((bb * s + ff) / ee)) for s in (Fraction(-1), Fraction(1))]
    cands += [sq(clamp((bb * t - cc) / aa), t) for t in (Fraction(-1), Fraction(1))]
    den = aa * ee - bb * bb
    if den > 0:
        s, t = (bb * ff - cc * ee) / den, (aa * ff - bb * cc) / den
        if abs(s) <= 1 and abs(t) <= 1:
            cands.append(sq(s, t))
    return math.sqrt(min(cands))


@given(segment_pairs())
@settings(max_examples=400, deadline=None)
def test_segment_distance_matches_active_set(pair):
    p0, p1, q0, q1 = pair
    a = frame_from_segment(p0, p1)
    b = frame_from_segment(q0, q1)
    closed = boundary_distance(a, b)
    solver = _extent_distance(a, b)
    exact = _exact_segment_distance(a, b)
    tol = 1e-9 * (a.primary_length + b.primary_length + exact)
    assert abs(closed - exact) <= tol
    if exact >= 0.01 * (a.primary_length + b.primary_length):
        assert abs(closed - solver) <= tol
    else:
        # Where the segments meet or nearly do, the solver's regularization
        # (1e-12 of the Gram trace, against the shorter segment's squared
        # length) leaves it a few 1e-7 of the lengths off; there the
        # closed form must be at least as close to the exact distance.
        assert abs(closed - exact) <= abs(solver - exact) + tol


# -- touch and inside: plain-float decisions against the exact paths ---------

_SCALES = (1.0, 1e80, 1e-90)


def _old_touch(a: Frame, b: Frame, slack: float) -> bool:
    """eval_relation's touch branch before it decided clear overlaps itself."""
    limit = slack * max(a.primary_length, b.primary_length)
    diff = b.origin - a.origin
    gap0 = math.sqrt(float(diff @ diff))
    if gap0 <= limit:
        return True
    reach = math.sqrt(float(a.lengths @ a.lengths)) + math.sqrt(float(b.lengths @ b.lengths))
    if gap0 - reach > limit:
        return False
    return boundary_distance(a, b) <= limit


def _old_contains(outer: Frame, inner: Frame, slack: float) -> bool:
    """_contains as it was: the numpy body, for every outer frame."""
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


def _turned(lengths, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[lengths[0] * c, lengths[0] * s], [-lengths[1] * s, lengths[1] * c]])


_length = st.floats(0.05, 2.0)
_angle = st.floats(0.0, 2.0 * math.pi)


@st.composite
def _frame_parts(draw):
    """(origin, axes) of a 2D frame at unit scale: full rank, or a segment."""
    second = draw(st.sampled_from((0.0, None)))
    lengths = (draw(_length), draw(_length) if second is None else 0.0)
    if draw(st.booleans()):  # axis-aligned frames meet edge to edge
        angle = draw(st.sampled_from((0.0, math.pi / 2)))
    else:
        angle = draw(_angle)
    return np.array([draw(_coord), draw(_coord)]), _turned(lengths, angle)


def _support(axes, u) -> float:
    """Half-width of an extent along the unit direction u."""
    return float(np.abs(axes @ u).sum())


@st.composite
def touch_pairs(draw):
    """(a, b, slack): two 2D frames placed apart at random, edge to edge
    along an axis of the first (tangent, or overlapping or apart by at most
    1e-9 of the scale), or overlapping, at a scale of 1, 1e80 or 1e-90."""
    (oa, axa), (ob, axb) = draw(_frame_parts()), draw(_frame_parts())
    kind = draw(st.sampled_from(("random", "edge", "overlap")))
    if kind != "random":
        k = draw(st.sampled_from([i for i in range(2) if axa[i] @ axa[i] > 0]))
        u = axa[k] / math.sqrt(float(axa[k] @ axa[k]))
        v = np.array([-u[1], u[0]])
        reach = _support(axa, u) + _support(axb, u)
        if kind == "edge":
            along = reach * (1.0 + draw(st.sampled_from((0.0, 1e-9, -1e-9, 1e-12, -1e-12))))
        else:
            along = reach * draw(_unit)
        ob = oa + draw(st.sampled_from((1.0, -1.0))) * along * u + draw(_coord) * 0.3 * v
    scale = draw(st.sampled_from(_SCALES))
    slack = draw(st.sampled_from((1e-6, 1e-4, 0.01, 0.1, 0.3)))
    return Frame(oa * scale, axa * scale), Frame(ob * scale, axb * scale), slack


@given(touch_pairs())
@settings(max_examples=600, deadline=None)
def test_touch_equals_the_measured_branch(pair):
    a, b, slack = pair
    assert eval_relation("touch", [a, b], slack) == _old_touch(a, b, slack)
    assert eval_relation("touch", [b, a], slack) == _old_touch(b, a, slack)


@st.composite
def inside_pairs(draw):
    """(outer, inner, slack): 2D frames of either rank, the inner one placed
    at random or with an axis end on the outer bound (within 1e-12 or 1e-6
    of it, or on it), at a scale of 1, 1e80 or 1e-90."""
    (oo, axo), (oi, axi) = draw(_frame_parts()), draw(_frame_parts())
    slack = draw(st.sampled_from((0.0, 1e-3, 0.1)))
    if draw(st.booleans()):
        k = draw(st.sampled_from([i for i in range(2) if axo[i] @ axo[i] > 0]))
        length = math.sqrt(float(axo[k] @ axo[k]))
        u = axo[k] / length
        v = np.array([-u[1], u[0]])
        bound = (length + slack) * (1.0 + draw(st.sampled_from((0.0, 1e-12, -1e-12, 1e-6,
                                                               -1e-6))))
        end = oo + bound * u + draw(_unit) * 0.5 * v
        oi = end - draw(st.sampled_from((1.0, -1.0))) * axi[draw(st.integers(0, 1))]
    scale = draw(st.sampled_from(_SCALES))
    return Frame(oo * scale, axo * scale), Frame(oi * scale, axi * scale), slack * scale


@given(inside_pairs())
@settings(max_examples=600, deadline=None)
def test_contains_equals_its_numpy_body(pair):
    outer, inner, slack = pair
    assert _contains(outer, inner, slack) == _old_contains(outer, inner, slack)
    assert _contains_exact(outer, inner, slack) == _old_contains(outer, inner, slack)


def test_touch_decides_clear_overlaps_without_measuring(monkeypatch):
    def unmeasured(a, b):
        raise AssertionError("boundary_distance called")

    a = frame_from_circle([0.0, 0.0], 1.0)
    b = Frame([1.5, 0.2], _turned((0.6, 0.3), 0.4))
    assert _old_touch(a, b, 0.01) is True
    monkeypatch.setattr(geometry, "boundary_distance", unmeasured)
    assert eval_relation("touch", [a, b], 0.01) is True
    # a slack under the margin, or a segment, is measured
    with pytest.raises(AssertionError):
        eval_relation("touch", [a, b], 1e-6)
    with pytest.raises(AssertionError):
        eval_relation("touch", [a, frame_from_segment([0.5, -2.0], [1.5, 2.0])], 0.01)


def test_separating_axes_alone_do_not_decide_segments():
    # Each segment's extent covers the other's along both segment axes, yet
    # they lie about 0.8 apart: a segment's edge normal is not among its axes.
    a = frame_from_segment([-1.0, 0.0], [1.0, 0.0])
    h = 1.0 / math.sqrt(2.0)
    b = frame_from_segment([-h, 1.5 - h], [h, 1.5 + h])
    assert boundary_distance(a, b) == pytest.approx(1.5 - h)
    diff = b.origin - a.origin
    assert not _extents_overlap(a, b, diff, 0.0)
    assert eval_relation("touch", [a, b], 0.1) is False
    for u in (a.axes[0], b.axes[0]):  # both axes show overlap
        u = u / np.linalg.norm(u)
        assert _support(a.axes, u) + _support(b.axes, u) > abs(float(diff @ u))


def test_contains_defers_rank_deficient_and_borderline_cases(monkeypatch):
    calls = []

    def exact(outer, inner, slack):
        calls.append(outer)
        return _old_contains(outer, inner, slack)

    monkeypatch.setattr(geometry, "_contains_exact", exact)
    outer = Frame([0.0, 0.0], np.diag([2.0, 1.0]))
    assert _contains(outer, Frame([0.5, 0.0], np.diag([0.5, 0.5])), 0.0) is True
    assert _contains(outer, Frame([2.0, 0.0], np.diag([0.5, 0.5])), 0.0) is False
    assert not calls
    assert _contains(outer, Frame([1.5, 0.0], np.diag([0.5, 0.5])), 0.0) is True
    assert len(calls) == 1  # an axis end on the bound
    segment = frame_from_segment([-2.0, 0.0], [2.0, 0.0])
    assert _contains(segment, frame_from_segment([-1.0, 0.0], [1.0, 0.0]), 0.1) is True
    assert calls[-1] is segment


# -- transforms ---------------------------------------------------------------

def test_fit_similarity_three_dimensional(rng):
    rot = random_rotation(rng, 3)
    s = 1.3
    t = rng.uniform(-2, 2, 3)
    pts = rng.uniform(-2, 2, size=(5, 3))
    moved = s * (rot @ pts.T).T + t
    xform, residual = fit_similarity(pts, moved)
    assert residual == pytest.approx(0.0, abs=1e-8)
    assert np.allclose(xform.rotation, rot, atol=1e-8)



def test_fit_affine_exact(rng):
    lin = rng.normal(size=(2, 3))
    lin[0, 0] += 1.0
    lin[1, 1] += 1.0
    t = rng.uniform(-2, 2, 2)
    pts = rng.uniform(-3, 3, size=(6, 3))
    image = (lin @ pts.T).T + t
    (got_lin, got_t), residual = fit_affine(pts, image)
    assert residual == pytest.approx(0.0, abs=1e-8)
    assert np.allclose(got_lin, lin, atol=1e-8)
    assert np.allclose(got_t, t, atol=1e-8)


# -- projection ---------------------------------------------------------------

def _random_camera(rng):
    rot = random_rotation(rng, 3)
    lin = rot[:2] * rng.uniform(0.6, 1.4)
    shear = np.array([[1.0, rng.uniform(-0.3, 0.3)], [0.0, 1.0]])
    return AffineCamera(shear @ lin, rng.uniform(-1, 1, 2))


def test_project_keeps_parallel_segments_parallel(rng):
    for _ in range(200):
        cam = _random_camera(rng)
        d = rng.uniform(-1, 1, 3)
        d /= np.linalg.norm(d)
        a = frame_from_segment([0, 0, 0], 2.0 * d)
        off = rng.uniform(-3, 3, 3)
        b = frame_from_segment(off, off + 0.7 * d)
        pa = project(cam, a)
        pb = project(cam, b)
        if pa.primary_length < 1e-3 or pb.primary_length < 1e-3:
            continue
        assert angle_between(pa, pb) < 1e-9


def test_project_segment_matches_projected_endpoints(rng):
    cam = _random_camera(rng)
    seg = frame_from_segment([1.0, 2.0, 3.0], [4.0, 0.0, -1.0])
    proj = project(cam, seg)
    p1 = cam.apply_points(seg.origin - seg.primary_axis)[0]
    p2 = cam.apply_points(seg.origin + seg.primary_axis)[0]
    assert np.allclose(proj.origin, (p1 + p2) / 2, atol=1e-9)
    assert proj.primary_length == pytest.approx(np.linalg.norm(p2 - p1) / 2, abs=1e-9)


def test_project_orthogonal_case_exact():
    # camera that keeps x and y: a flat rectangle projects to itself
    cam = AffineCamera(np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.zeros(2))
    rect = Frame([0.5, -0.5, 2.0], np.array([[2.0, 0, 0], [0, 1.0, 0], [0, 0, 0.0]]))
    proj = project(cam, rect)
    assert np.allclose(proj.origin, [0.5, -0.5])
    assert sorted(proj.lengths) == pytest.approx([1.0, 2.0])
