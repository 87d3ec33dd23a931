"""Torus geometry: wrapping, minimal offsets, distance, replicas.

The array functions are the ones stepping, the strategies and the analysis
run; `scalar_reference` keeps the one-point-at-a-time oracle they match bit
for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import scalar_reference as ref
from torus_pursuit.environment import make_state
from torus_pursuit.geometry import bearings, normalize_angle, offsets, polar, wrap_coords
from torus_pursuit.pursuit import _replica_offsets


def wrapped(*xy):
    """wrap_coords of a fresh array."""
    return wrap_coords(np.array(xy, dtype=np.float64))


def distances(a, b) -> np.ndarray:
    """Torus distances as stepping computes them: the norms of the minimal
    offsets, per element with math.hypot."""
    d = offsets(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))
    return np.array(polar(d)[0]).reshape(d.shape[:-1])


def dist(p, q) -> float:
    return float(distances(p, q))


class TestWrap:
    def test_examples(self):
        assert wrapped(1.2, -0.3).tolist() == [pytest.approx(0.2), pytest.approx(0.7)]
        assert wrapped(0.0, 0.999).tolist() == [0.0, 0.999]
        assert wrapped(-2.25, 3.5).tolist() == [0.75, 0.5]

    def test_rejects_non_finite(self):
        # wrap_coords trusts its input: positions enter through make_state,
        # and step refuses non-finite headings before it moves anyone
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                make_state([(bad, 0.0)], (0.5, 0.5))
            with pytest.raises(ValueError, match="finite"):
                make_state([(0.5, 0.5)], (0.0, bad))

    def test_idempotent_on_random_points(self):
        rng = np.random.default_rng(7)
        p = wrap_coords(rng.uniform(-10, 10, size=(2000, 2)))
        assert (wrap_coords(p.copy()) == p).all()
        assert ((0.0 <= p) & (p < 1.0)).all()

    def test_tiny_negative_does_not_escape_range(self):
        p = wrapped(-1e-18, -1e-18)
        assert ((0.0 <= p) & (p < 1.0)).all()
        assert p.tolist() == [0.0, 0.0]

    def test_works_in_place(self):
        v = np.array([1.25, -0.5])
        assert wrap_coords(v) is v
        assert v.tolist() == [0.25, 0.5]


class TestPoint2:
    def test_constructor_enforces_range(self):
        # a state's positions must already lie on the torus
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            make_state([(1.0, 0.5)], (0.2, 0.2))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            make_state([(0.2, 0.2)], (0.5, -0.1))


class TestDisplacement:
    def test_shorter_path_crosses_boundary(self):
        dx, dy = offsets(np.array([0.9, 0.5]), np.array([0.1, 0.5]))
        assert dx == pytest.approx(0.2)
        assert dy == 0.0

    def test_identity(self):
        p = np.array([0.3, 0.3])
        assert offsets(p, p).tolist() == [0.0, 0.0]

    def test_half_interval_tie_maps_to_negative(self):
        assert offsets(np.array([0.0, 0.0]), np.array([0.5, 0.0]))[0] == -0.5

    def test_wrap_consistency_on_random_pairs(self):
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0, 1, size=(2, 2000, 2))
        back = wrap_coords(a + offsets(a, b))
        assert back == pytest.approx(b, abs=1e-12)

    def test_component_range(self):
        rng = np.random.default_rng(13)
        a, b = rng.uniform(0, 1, size=(2, 2000, 2))
        d = offsets(a, b)
        assert ((-0.5 <= d) & (d < 0.5)).all()
        assert distances(a, b).max() <= math.sqrt(2) / 2 + 1e-15


class TestDistance:
    def test_examples(self):
        assert dist((0.1, 0.5), (0.9, 0.5)) == pytest.approx(0.2)
        assert dist((0.2, 0.2), (0.2, 0.2)) == 0.0
        assert dist((0.0, 0.0), (0.5, 0.5)) == pytest.approx(math.sqrt(0.5))

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(17)
        a, b, c = rng.uniform(0, 1, size=(3, 10_000, 2))
        ab, ba = distances(a, b), distances(b, a)
        assert (ab == ba).all()
        assert (distances(a, c) <= ab + distances(b, c) + 1e-12).all()
        assert (ab >= 0.0).all()

    def test_zero_iff_equal(self):
        assert dist((0.4, 0.6), (0.4, 0.6)) == 0.0
        assert dist((0.4, 0.6), (0.4000001, 0.6)) > 0.0

    def test_lower_bounds_every_replica_distance(self):
        rng = np.random.default_rng(19)
        a, b = rng.uniform(0, 1, size=(2, 500, 2))
        d = distances(a, b)
        shifts = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)], float)
        planar = np.hypot(*np.moveaxis(a[:, None] + shifts - b[:, None], -1, 0))
        assert (d[:, None] <= planar + 1e-12).all()


class TestReplicate:
    """The oracle's replicas, which pincer's reference enumerations use."""

    def test_counts(self):
        p = ref.Point2(0.5, 0.5)
        assert len(ref.replicate(p, 1)) == 9
        assert ref.replicate(p, 0) == [(0.5, 0.5)]
        assert len(ref.replicate(p, 2)) == 25

    def test_unit_translations_present(self):
        reps = ref.replicate(ref.Point2(0.5, 0.5), 1)
        for expected in [(-0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (0.5, -0.5)]:
            assert expected in reps

    def test_row_major_order_and_center(self):
        p = ref.Point2(0.25, 0.75)
        reps = ref.replicate(p, 1)
        shifts = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        assert reps == [(p.x + i, p.y + j) for i, j in shifts]
        assert reps[4] == (p.x, p.y)
        # pincer lays its grid out in the same order
        for k in (0, 1, 2):
            ox, oy = _replica_offsets(k)
            assert list(zip(p.x + ox, p.y + oy)) == ref.replicate(p, k)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            ref.replicate(ref.Point2(0.1, 0.1), -1)


class TestNormalizeAngle:
    def test_range_and_pi_convention(self):
        assert normalize_angle(math.pi) == -math.pi
        assert normalize_angle(-math.pi) == -math.pi
        assert normalize_angle(0.0) == 0.0
        rng = np.random.default_rng(23)
        for theta in rng.uniform(-50, 50, size=2000):
            t = normalize_angle(theta)
            assert -math.pi <= t < math.pi
            assert math.cos(t) == pytest.approx(math.cos(theta), abs=1e-9)
            assert math.sin(t) == pytest.approx(math.sin(theta), abs=1e-9)


# -- properties ---------------------------------------------------------------

unit = st.floats(0.0, 1.0, exclude_max=True)
points = st.tuples(unit, unit)
shift = st.floats(-0.49, 0.49)
# raw coordinates where rounding decides: exactly 1.0, tiny negatives, whole
# periods and values that make offsets of exactly +-0.5
raw = st.one_of(
    st.sampled_from([1.0, -0.0, -1e-18, -5e-324, 0.5, -0.5, 1.5, 2.0, -3.0]),
    st.floats(-4.0, 4.0),
)


def bits(values) -> list[int]:
    """IEEE bit patterns, so that -0.0 != 0.0 and rounding shows."""
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


class TestTorusMetricProperties:
    @given(points, points)
    def test_symmetry(self, p, q):
        assert dist(p, q) == pytest.approx(dist(q, p), abs=1e-15)

    @given(points, points)
    def test_identity(self, p, q):
        assert dist(p, p) == 0.0
        d = dist(p, q)
        assert d >= 0.0
        if d == 0.0:  # only points that agree to float resolution on the torus
            for u, v in zip(p, q):
                assert min(abs(u - v), 1.0 - abs(u - v)) < 1e-15

    @given(points, points, points)
    def test_triangle_inequality(self, p, q, r):
        assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-15

    @given(points, points)
    def test_bounded_by_half_diagonal(self, p, q):
        assert dist(p, q) <= 1.0 / math.sqrt(2.0) + 1e-15

    @given(points, points)
    def test_wrap_of_displacement_returns_target(self, p, q):
        target = wrap_coords(np.add(p, offsets(np.array(p), np.array(q))))
        assert dist(target, q) < 1e-15

    @given(points, shift, shift)
    def test_displacement_of_wrap_returns_offset(self, p, dx, dy):
        d = offsets(np.array(p), wrapped(p[0] + dx, p[1] + dy))
        assert d.tolist() == [pytest.approx(dx, abs=1e-15), pytest.approx(dy, abs=1e-15)]

    @given(unit, unit, st.integers(-5, 5), st.integers(-5, 5))
    def test_wrap_ignores_whole_periods(self, x, y, i, j):
        assert dist(wrapped(x + i, y + j), wrapped(x, y)) < 1e-14

    @given(raw, raw, raw, raw)
    def test_matches_scalar_reference(self, ax, ay, bx, by):
        a, b = wrapped(ax, ay), wrapped(bx, by)
        pa, pb = ref.wrap(ax, ay), ref.wrap(bx, by)
        assert bits(a) == bits([pa.x, pa.y]) and bits(b) == bits([pb.x, pb.y])
        d = offsets(a, b)
        want = ref.displacement(pa, pb)
        assert bits(d) == bits([want.dx, want.dy])
        (r,), (theta,) = polar(d)
        assert bits([r, theta, bearings(d)]) == bits([want.norm(), want.bearing(), want.bearing()])
