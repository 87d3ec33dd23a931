"""Evader policy: escape potential, closed-form minimizer, canonical cases."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from scalar_reference import contact_heading, evade_cost
from torus_pursuit.environment import make_state
from torus_pursuit.errors import SingularityError
from torus_pursuit.evader import contact_headings, evade_heading
from torus_pursuit.geometry import normalize_angle
from torus_pursuit.selfcheck import surround


def angular_close(a, b, tol=1e-9):
    return abs(normalize_angle(a - b)) < tol


def heading(r, bearings, rng):
    """The evader's heading for one episode's contacts."""
    return float(contact_headings(list(r), list(bearings), len(r), rng)[0])


def surround_heading(*bearings, rng=None):
    """`evade_heading` of one episode whose pursuers sit at these bearings."""
    rng = np.random.default_rng(0) if rng is None else rng
    return float(evade_heading(surround([bearings]), rng)[0])


def field(r, bearings):
    """The coefficients (A, B) of the potential written as A cos + B sin."""
    a = sum(math.cos(b) / ri for ri, b in zip(r, bearings))
    return a, sum(math.sin(b) / ri for ri, b in zip(r, bearings))


class TestEvadeCost:
    def test_single_contact_values(self):
        assert evade_cost(0.0, [1.0], [0.0]) == pytest.approx(1.0)
        assert evade_cost(math.pi, [1.0], [0.0]) == pytest.approx(-1.0)

    def test_three_contact_case(self):
        # direct summation: cos(-pi/2) + cos(-pi) + cos(-3pi/2) = 0 - 1 + 0
        assert evade_cost(-math.pi / 2, [1.0] * 3, [0.0, math.pi / 2, math.pi]) == (
            pytest.approx(-1.0)
        )

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        rs, bs = rng.uniform(0.2, 1, 4), rng.uniform(-3, 3, 4)
        for theta in rng.uniform(-math.pi, math.pi, 50):
            assert evade_cost(theta, rs, bs) == pytest.approx(
                evade_cost(theta + 2 * math.pi, rs, bs), abs=1e-12
            )

    def test_empty_contacts_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="n >= 1"):
            contact_headings([], [], 0, rng)
        with pytest.raises(ValueError, match="2 distances and 3 bearings"):
            contact_headings([0.5, 0.5], [0.0, 1.0, 2.0], 1, rng)
        with pytest.raises(ValueError, match="multiple of n"):
            contact_headings([0.5] * 4, [0.0] * 4, 3, rng)

    def test_zero_distance_is_singular(self):
        # a co-located pursuer in any episode of a batch is refused
        state = make_state([[(0.2, 0.2)], [(0.6, 0.6)]], [(0.5, 0.5), (0.6, 0.6)])
        with pytest.raises(SingularityError):
            evade_heading(state, np.random.default_rng(0))

    def test_matches_coefficient_expansion(self):
        # A cos(t) + B sin(t) is the Ptolemy expansion of the cosine sum
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            rs = rng.uniform(0.05, 1.0, k).tolist()
            bs = rng.uniform(-4, 4, k).tolist()
            a, b = field(rs, bs)
            for theta in rng.uniform(-math.pi, math.pi, 5):
                expanded = a * math.cos(theta) + b * math.sin(theta)
                assert evade_cost(theta, rs, bs) == pytest.approx(expanded, abs=1e-12)


class TestHeading:
    def test_case_upper_half_circle(self):
        assert angular_close(surround_heading(0.0, math.pi / 2, math.pi), -math.pi / 2)

    def test_case_right_half_circle(self):
        assert angular_close(surround_heading(0.0, math.pi / 2, -math.pi / 2), math.pi)

    def test_single_pursuer_due_east(self):
        assert angular_close(surround_heading(0.0), math.pi)

    def test_closed_form_beats_grid(self):
        # oracle: dense uniform grid over headings; contact radii bounded away
        # from zero so grid discretization error stays below the tolerance
        rng = np.random.default_rng(101)
        grid = np.linspace(-math.pi, math.pi, 10_000, endpoint=False)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            contacts = [
                (float(rng.uniform(0.2, 0.7)), float(rng.uniform(-math.pi, math.pi)))
                for _ in range(k)
            ]
            rs, bs = (np.array(v) for v in zip(*contacts))
            got = evade_cost(heading(rs, bs, rng), rs, bs)
            grid_min = ((1.0 / rs)[:, None] * np.cos(grid[None, :] - bs[:, None])).sum(axis=0).min()
            assert got <= grid_min + 1e-9

    def test_radius_modulation_scales_contribution(self):
        # contacts east and north: the nearer one bends the escape harder,
        # in proportion to 1/r
        rng = np.random.default_rng(0)
        for r_east, r_north in ((0.1, 1.0), (1.0, 0.1), (0.3, 0.3)):
            got = heading([r_east, r_north], [0.0, math.pi / 2], rng)
            assert angular_close(got, math.atan2(-1.0 / r_north, -1.0 / r_east), tol=1e-12)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            rs = rng.uniform(0.1, 0.7, k)
            bs = rng.uniform(-math.pi, math.pi, k)
            delta = float(rng.uniform(-math.pi, math.pi))
            if math.hypot(*field(rs, bs)) < 1e-6:
                continue  # too close to the degenerate branch to compare
            h0 = heading(rs, bs, rng)
            h1 = heading(rs, [normalize_angle(b + delta) for b in bs], rng)
            assert angular_close(h1, h0 + delta, tol=1e-9)

    def test_degenerate_surround_uses_rng(self):
        # two opposite equal contacts cancel exactly
        h1 = surround_heading(0.0, math.pi, rng=np.random.default_rng(1))
        h2 = surround_heading(0.0, math.pi, rng=np.random.default_rng(2))
        h1b = surround_heading(0.0, math.pi, rng=np.random.default_rng(1))
        assert h1 == h1b
        assert h1 != h2
        assert -math.pi <= h1 < math.pi


class TestEvadeHeadingOnTorus:
    def test_wrapped_bearings_used(self):
        # pursuer across the boundary is effectively to the west
        rng = np.random.default_rng(0)
        h = evade_heading(make_state([(0.95, 0.5)], (0.05, 0.5)), rng)
        assert h.shape == (1,)
        assert angular_close(h[0], 0.0)  # run east, away from the wrapped contact

    def test_co_located_pursuer_is_singular(self):
        with pytest.raises(SingularityError):
            evade_heading(make_state([(0.2, 0.2)], (0.2, 0.2)), np.random.default_rng(0))

    def test_requires_pursuers(self):
        # a state without pursuers is refused where it is built
        with pytest.raises(ValueError):
            make_state(np.empty((0, 2)), (0.2, 0.2))

    def test_contacts_from_positions(self):
        state = make_state([(0.7, 0.5)], (0.5, 0.5))
        # evader to pursuer
        assert state.contact_distances[0] == pytest.approx(0.2)
        assert angular_close(state.contact_bearings[0], 0.0)
        # the chase runs the other way round
        assert angular_close(state.chase_bearings[0, 0], math.pi)


contacts = st.lists(
    st.tuples(st.floats(1e-3, 1.0), st.floats(-math.pi, math.pi)), min_size=1, max_size=8
)


@given(contacts, st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=32))
def test_closed_form_heading_beats_every_sampled_heading(cs, headings):
    rs, bs = zip(*cs)
    a, b = field(rs, bs)
    assume(math.hypot(a, b) > 1e-6)  # below the degeneracy threshold the pick is random
    best = evade_cost(heading(rs, bs, np.random.default_rng(0)), rs, bs)
    # the minimum is -hypot(A, B); the slack covers rounding in the sums
    slack = 1e-12 * sum(1.0 / r for r in rs)
    assert best == pytest.approx(-math.hypot(a, b), abs=slack)
    for theta in headings:
        assert best <= evade_cost(theta, rs, bs) + slack


# equal distances at right angles make exactly cancelling (degenerate) fields likely
exact_contacts = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.25, 0.5]), st.floats(1e-3, 1.0)),
        st.one_of(st.sampled_from([0.0, math.pi / 2, -math.pi / 2, -math.pi, math.pi]),
                  st.floats(-math.pi, math.pi)),
    ),
    min_size=1, max_size=6,
)


@settings(max_examples=300)
@given(st.lists(exact_contacts, min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_contact_headings_match_scalar_reference(episodes, seed):
    # every episode gets the first one's pursuer count
    n = len(episodes[0])
    episodes = [(e * n)[:n] for e in episodes]
    r = [c[0] for e in episodes for c in e]
    theta = [c[1] for e in episodes for c in e]
    got = contact_headings(r, theta, n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    want = [contact_heading([c[0] for c in e], [c[1] for c in e], rng) for e in episodes]
    assert got.view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
