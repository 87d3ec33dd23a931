"""Greedy and encirclement pursuit: closed forms, enumeration, tie-breaking."""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from scalar_reference import Point2, distance, replicate, sqrt_preimage_max, wrap
from torus_pursuit.environment import make_state
from torus_pursuit.errors import SingularityError
from torus_pursuit.geometry import normalize_angle
from torus_pursuit.pursuit import (
    MAX_PINCER_CELLS,
    _sqrt_preimage_max,
    greedy_heading,
    pincer_headings,
    pincer_objective,
    pincer_selection,
)


def world(pursuer_xy, evader_xy):
    return make_state(pursuer_xy, evader_xy)


def greedy_one(pursuer_xy, evader_xy):
    return float(greedy_heading(world([pursuer_xy], evader_xy))[0, 0])


def angular_close(a, b, tol=1e-9):
    return abs(normalize_angle(a - b)) < tol


class TestGreedy:
    def test_due_east(self):
        assert angular_close(greedy_one((0.0, 0.0), (0.2, 0.0)), 0.0)

    def test_due_north(self):
        assert greedy_one((0.5, 0.2), (0.5, 0.5)) == pytest.approx(math.pi / 2)

    def test_wraps_left(self):
        assert angular_close(greedy_one((0.05, 0.5), (0.95, 0.5)), math.pi)

    def test_co_located_singular(self):
        with pytest.raises(SingularityError):
            greedy_one((0.3, 0.3), (0.3, 0.3))

    def test_translation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            px, py, ex, ey = rng.uniform(0, 1, 4)
            tx, ty = rng.uniform(0, 1, 2)
            h0 = greedy_one((px, py), (ex, ey))
            p2 = wrap(px + tx, py + ty)
            e2 = wrap(ex + tx, ey + ty)
            # skip displacement-boundary ties where the wrapped offset flips
            d0x = (ex - px) % 1.0
            d0y = (ey - py) % 1.0
            if min(abs(d0x - 0.5), abs(d0y - 0.5)) < 1e-6:
                continue
            d1x = (e2.x - p2.x) % 1.0
            d1y = (e2.y - p2.y) % 1.0
            if min(abs(d1x - 0.5), abs(d1y - 0.5)) < 1e-6:
                continue
            h1 = greedy_one((p2.x, p2.y), (e2.x, e2.y))
            assert angular_close(h1, h0, tol=1e-9)


class TestPincerObjective:
    def test_balanced_triangle_is_zero(self):
        replicas = [
            (math.cos(a), math.sin(a))
            for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
        ]
        assert pincer_objective(replicas, (0.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_single_replica_unit_distance(self):
        assert pincer_objective([(1.0, 0.0)], (0.0, 0.0)) == pytest.approx(-1.0)

    def test_matches_grid_search_inner_minimum(self):
        # oracle: dense grid over escape headings of the weighted cosine sum
        rng = np.random.default_rng(37)
        thetas = np.linspace(-math.pi, math.pi, 10_000, endpoint=False)
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            rs = rng.uniform(0.2, 1.4, size=k)
            bs = rng.uniform(-math.pi, math.pi, size=k)
            replicas = [(r * math.cos(b), r * math.sin(b)) for r, b in zip(rs, bs)]
            closed = pincer_objective(replicas, (0.0, 0.0))
            u = ((1.0 / rs)[:, None] * np.cos(thetas[None, :] - bs[:, None])).sum(axis=0)
            assert closed == pytest.approx(float(u.min()), abs=1e-6)

    def test_zero_distance_singular(self):
        with pytest.raises(SingularityError):
            pincer_objective([(0.25, 0.5)], (0.25, 0.5))


def naive_selection(state, k, band=0.5):
    """Independent re-implementation: itertools over all joint selections."""
    evader = Point2(*state.evader[0])
    positions = [Point2(*p) for p in state.pursuers[0]]
    replica_sets = [replicate(p, k) for p in positions]
    weights = [1.0 / distance(p, evader) for p in positions]
    m = len(replica_sets[0])
    entries = []
    for combo in itertools.product(range(m), repeat=len(replica_sets)):
        a = b = dist = 0.0
        for i, c in enumerate(combo):
            x, y = replica_sets[i][c]
            img_r = math.hypot(x - evader.x, y - evader.y)
            a += weights[i] * (x - evader.x) / img_r
            b += weights[i] * (y - evader.y) / img_r
            dist += img_r
        entries.append((combo, -math.hypot(a, b), dist))
    best_obj = max(e[1] for e in entries)
    near = [e for e in entries if e[1] >= best_obj - band * sum(weights)]
    min_dist = min(e[2] for e in near)
    tied = [e for e in near if e[2] == min_dist]
    combo, obj, dist = min(tied, key=lambda e: e[0])  # lexicographic index order
    return combo, obj, dist


class TestPincerSelection:
    def test_enumeration_size_three_pursuers(self):
        state = world([(0.1, 0.1), (0.5, 0.9), (0.9, 0.3)], (0.45, 0.45))
        sel = pincer_selection(state, k=1)
        assert sel.replica_index_per_pursuer.shape == (1, 3)
        assert all(0 <= i < 9 for i in sel.replica_index_per_pursuer[0])
        # (2k+1)^2 per pursuer -> 9^3 = 729 joint selections
        assert 9 ** state.n == 729

    def test_matches_naive_enumeration(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = int(rng.integers(1, 4))
            state = world(
                [tuple(rng.uniform(0.05, 0.95, 2)) for _ in range(n)],
                tuple(rng.uniform(0.05, 0.95, 2)),
            )
            sel = pincer_selection(state, k=1)
            combo, obj, dist = naive_selection(state, 1)
            assert tuple(sel.replica_index_per_pursuer[0]) == combo
            assert sel.objective_value[0] == pytest.approx(obj, abs=1e-12)
            assert sel.total_distance[0] == pytest.approx(dist, abs=1e-12)

    def test_single_pursuer_reduces_to_greedy(self):
        # one pursuer: every assignment scores -1/r_true, so all selections
        # tie and the distance tie-break picks the nearest image
        rng = np.random.default_rng(43)
        for _ in range(50):
            px, py, ex, ey = rng.uniform(0.02, 0.98, 4)
            state = world([(px, py)], (ex, ey))
            if distance(Point2(px, py), Point2(ex, ey)) < 1e-3:
                continue
            sel = pincer_selection(state, k=1)
            reps = replicate(Point2(px, py), 1)
            dists = [math.hypot(x - ex, y - ey) for x, y in reps]
            assert sel.replica_index_per_pursuer[0, 0] == int(np.argmin(dists))
            heading = pincer_headings(state, k=1)[0, 0]
            assert angular_close(heading, greedy_heading(state)[0, 0])

    def test_symmetric_triangle_keeps_center_replicas(self):
        r = 0.2
        pursuer_xy = [
            (0.5 + r * math.cos(a), 0.5 + r * math.sin(a))
            for a in (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
        ]
        state = world(pursuer_xy, (0.5, 0.5))
        sel = pincer_selection(state, k=1)
        assert sel.replica_index_per_pursuer.tolist() == [[4, 4, 4]]  # center replica index
        headings = pincer_headings(state, k=1)[0]
        for (px, py), h in zip(pursuer_xy, headings):
            inward = math.atan2(0.5 - py, 0.5 - px)
            assert angular_close(h, inward)

    def test_headings_deterministic(self):
        state = world([(0.15, 0.35), (0.8, 0.25), (0.55, 0.95)], (0.4, 0.6))
        h1 = pincer_headings(state, k=1)
        h2 = pincer_headings(state, k=1)
        assert np.array_equal(h1, h2)

    def test_negative_or_nan_band_rejected(self):
        state = world([(0.1, 0.1), (0.7, 0.3)], (0.5, 0.5))
        for band in (-0.5, math.nan):
            with pytest.raises(ValueError, match="tie band"):
                pincer_selection(state, balance_tie_band=band)

    def test_invalid_k(self):
        state = world([(0.1, 0.1)], (0.5, 0.5))
        with pytest.raises(ValueError):
            pincer_selection(state, k=0)

    def test_grid_above_bound_rejected(self):
        assert MAX_PINCER_CELLS == 9**7
        xy = [(0.1 * i + 0.05, 0.2) for i in range(8)]
        with pytest.raises(ValueError, match=r"n=8 pursuers at k=1 has 43046721 cells"):
            pincer_selection(world(xy, (0.5, 0.7)), k=1)
        with pytest.raises(ValueError, match=r"n=5 pursuers at k=2 has 9765625 cells"):
            pincer_selection(world(xy[:5], (0.5, 0.7)), k=2)


# w = an odd 27-bit integer times a power of two: the exact square has 54
# significant bits ending in 1, so w * w rounds a tie (or underflows)
TIES = st.builds(math.ldexp, st.integers(2**25, 2**26 - 1).map(lambda k: 2 * k + 1),
                 st.integers(-1130, 990))
SQUARE_BOUNDARIES = [
    0.0, 5e-324, 1.5e-323, 2.2250738585072014e-308,  # subnormal squares and w
    1.4916681462400413e-154, 1.4916681462400415e-154,  # w * w near the smallest normal
    1.3407807929942596e154, 1.3407807929942597e154,  # w * w near overflow
    sys.float_info.max, math.inf,
]


@given(st.lists(st.floats(min_value=0.0, allow_nan=False) | TIES, min_size=1, max_size=16))
@example(SQUARE_BOUNDARIES)
def test_band_limit_matches_scalar_loop(ws):
    with np.errstate(over="ignore", invalid="ignore"):  # squares past the largest double
        got = _sqrt_preimage_max(np.array(ws))
    want = np.array([sqrt_preimage_max(w) for w in ws])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
