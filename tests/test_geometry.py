"""Torus geometry: wrapping, minimal displacement, distance, replicas."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from torus_pursuit.geometry import (
    Displacement2,
    Point2,
    displacement,
    distance,
    normalize_angle,
    replicate,
    wrap,
)


class TestWrap:
    def test_examples(self):
        p = wrap(1.2, -0.3)
        assert (p.x, p.y) == (pytest.approx(0.2), pytest.approx(0.7))
        assert wrap(0.0, 0.999) == Point2(0.0, 0.999)
        assert wrap(-2.25, 3.5) == Point2(0.75, 0.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            wrap(float("nan"), 0.0)
        with pytest.raises(ValueError):
            wrap(0.0, float("inf"))

    def test_idempotent_on_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            x, y = rng.uniform(-10, 10, size=2)
            p = wrap(x, y)
            assert wrap(p.x, p.y) == p
            assert 0.0 <= p.x < 1.0 and 0.0 <= p.y < 1.0

    def test_tiny_negative_does_not_escape_range(self):
        p = wrap(-1e-18, -1e-18)
        assert 0.0 <= p.x < 1.0 and 0.0 <= p.y < 1.0


class TestPoint2:
    def test_constructor_enforces_range(self):
        with pytest.raises(ValueError):
            Point2(1.0, 0.5)
        with pytest.raises(ValueError):
            Point2(0.5, -0.1)


class TestDisplacement:
    def test_shorter_path_crosses_boundary(self):
        d = displacement(Point2(0.9, 0.5), Point2(0.1, 0.5))
        assert d.dx == pytest.approx(0.2)
        assert d.dy == 0.0

    def test_identity(self):
        assert displacement(Point2(0.3, 0.3), Point2(0.3, 0.3)) == Displacement2(0.0, 0.0)

    def test_half_interval_tie_maps_to_negative(self):
        d = displacement(Point2(0.0, 0.0), Point2(0.5, 0.0))
        assert d.dx == -0.5

    def test_wrap_consistency_on_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            ax, ay, bx, by = rng.uniform(0, 1, size=4)
            a, b = Point2(ax, ay), Point2(bx, by)
            d = displacement(a, b)
            back = wrap(a.x + d.dx, a.y + d.dy)
            assert back.x == pytest.approx(b.x, abs=1e-12)
            assert back.y == pytest.approx(b.y, abs=1e-12)

    def test_component_range(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            ax, ay, bx, by = rng.uniform(0, 1, size=4)
            d = displacement(Point2(ax, ay), Point2(bx, by))
            assert -0.5 <= d.dx < 0.5 and -0.5 <= d.dy < 0.5
            assert d.norm() <= math.sqrt(2) / 2 + 1e-15


class TestDistance:
    def test_examples(self):
        assert distance(Point2(0.1, 0.5), Point2(0.9, 0.5)) == pytest.approx(0.2)
        assert distance(Point2(0.2, 0.2), Point2(0.2, 0.2)) == 0.0
        assert distance(Point2(0.0, 0.0), Point2(0.5, 0.5)) == pytest.approx(math.sqrt(0.5))

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            pts = [Point2(*rng.uniform(0, 1, size=2)) for _ in range(3)]
            a, b, c = pts
            assert distance(a, b) == distance(b, a)
            assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-12
            assert distance(a, b) >= 0.0

    def test_zero_iff_equal(self):
        assert distance(Point2(0.4, 0.6), Point2(0.4, 0.6)) == 0.0
        assert distance(Point2(0.4, 0.6), Point2(0.4000001, 0.6)) > 0.0

    def test_lower_bounds_every_replica_distance(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            a = Point2(*rng.uniform(0, 1, size=2))
            b = Point2(*rng.uniform(0, 1, size=2))
            d = distance(a, b)
            for rx, ry in replicate(a, 2):
                planar = math.hypot(rx - b.x, ry - b.y)
                assert d <= planar + 1e-12


class TestReplicate:
    def test_counts(self):
        p = Point2(0.5, 0.5)
        assert len(replicate(p, 1)) == 9
        assert replicate(p, 0) == [(0.5, 0.5)]
        assert len(replicate(p, 2)) == 25

    def test_unit_translations_present(self):
        reps = replicate(Point2(0.5, 0.5), 1)
        for expected in [(-0.5, 0.5), (1.5, 0.5), (0.5, 1.5), (0.5, -0.5)]:
            assert expected in reps

    def test_row_major_order_and_center(self):
        p = Point2(0.25, 0.75)
        reps = replicate(p, 1)
        offsets = [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
        assert reps == [(p.x + i, p.y + j) for i, j in offsets]
        assert reps[4] == (p.x, p.y)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            replicate(Point2(0.1, 0.1), -1)


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
points = st.builds(Point2, unit, unit)
offsets = st.floats(-0.49, 0.49)


class TestTorusMetricProperties:
    @given(points, points)
    def test_symmetry(self, p, q):
        assert distance(p, q) == pytest.approx(distance(q, p), abs=1e-15)

    @given(points, points)
    def test_identity(self, p, q):
        assert distance(p, p) == 0.0
        d = distance(p, q)
        assert d >= 0.0
        if d == 0.0:  # only points that agree to float resolution on the torus
            assert min(abs(p.x - q.x), 1.0 - abs(p.x - q.x)) < 1e-15
            assert min(abs(p.y - q.y), 1.0 - abs(p.y - q.y)) < 1e-15

    @given(points, points, points)
    def test_triangle_inequality(self, p, q, r):
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-15

    @given(points, points)
    def test_bounded_by_half_diagonal(self, p, q):
        assert distance(p, q) <= 1.0 / math.sqrt(2.0) + 1e-15

    @given(points, points)
    def test_wrap_of_displacement_returns_target(self, p, q):
        d = displacement(p, q)
        assert distance(wrap(p.x + d.dx, p.y + d.dy), q) < 1e-15

    @given(points, offsets, offsets)
    def test_displacement_of_wrap_returns_offset(self, p, dx, dy):
        d = displacement(p, wrap(p.x + dx, p.y + dy))
        assert d.dx == pytest.approx(dx, abs=1e-15)
        assert d.dy == pytest.approx(dy, abs=1e-15)

    @given(unit, unit, st.integers(-5, 5), st.integers(-5, 5))
    def test_wrap_ignores_whole_periods(self, x, y, i, j):
        assert distance(wrap(x + i, y + j), wrap(x, y)) < 1e-14
