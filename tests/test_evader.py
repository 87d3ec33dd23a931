"""Evader policy: escape potential, closed-form minimizer, canonical cases."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from torus_pursuit.environment import make_state
from torus_pursuit.errors import SingularityError
from torus_pursuit.evader import (
    PolarContact,
    evade_cost,
    evade_heading,
    field_coefficients,
    heading_from_contacts,
)
from torus_pursuit.geometry import normalize_angle


def angular_close(a, b, tol=1e-9):
    return abs(normalize_angle(a - b)) < tol


def unit_contacts(*bearings):
    return [PolarContact(1.0, b) for b in bearings]


class TestEvadeCost:
    def test_single_contact_values(self):
        c = unit_contacts(0.0)
        assert evade_cost(0.0, c) == pytest.approx(1.0)
        assert evade_cost(math.pi, c) == pytest.approx(-1.0)

    def test_three_contact_case(self):
        c = unit_contacts(0.0, math.pi / 2, math.pi)
        # direct summation: cos(-pi/2) + cos(-pi) + cos(-3pi/2) = 0 - 1 + 0
        assert evade_cost(-math.pi / 2, c) == pytest.approx(-1.0)

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        c = [PolarContact(r, b) for r, b in zip(rng.uniform(0.2, 1, 4), rng.uniform(-3, 3, 4))]
        for theta in rng.uniform(-math.pi, math.pi, 50):
            assert evade_cost(theta, c) == pytest.approx(
                evade_cost(theta + 2 * math.pi, c), abs=1e-12
            )

    def test_empty_contacts_rejected(self):
        with pytest.raises(ValueError):
            evade_cost(0.0, [])

    def test_zero_distance_is_singular(self):
        with pytest.raises(SingularityError):
            PolarContact(0.0, 0.0)

    def test_matches_coefficient_expansion(self):
        # A cos(t) + B sin(t) is the Ptolemy expansion of the cosine sum
        rng = np.random.default_rng(5)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            c = [
                PolarContact(float(rng.uniform(0.05, 1.0)), float(rng.uniform(-4, 4)))
                for _ in range(k)
            ]
            a, b = field_coefficients(c)
            for theta in rng.uniform(-math.pi, math.pi, 5):
                expanded = a * math.cos(theta) + b * math.sin(theta)
                assert evade_cost(theta, c) == pytest.approx(expanded, abs=1e-12)


class TestHeading:
    def test_case_upper_half_circle(self):
        rng = np.random.default_rng(0)
        got = heading_from_contacts(unit_contacts(0.0, math.pi / 2, math.pi), rng)
        assert angular_close(got, -math.pi / 2)

    def test_case_right_half_circle(self):
        rng = np.random.default_rng(0)
        got = heading_from_contacts(unit_contacts(0.0, math.pi / 2, -math.pi / 2), rng)
        assert angular_close(got, math.pi)

    def test_single_pursuer_due_east(self):
        rng = np.random.default_rng(0)
        got = heading_from_contacts(unit_contacts(0.0), rng)
        assert angular_close(got, math.pi)

    def test_closed_form_beats_grid(self):
        # oracle: dense uniform grid over headings; contact radii bounded away
        # from zero so grid discretization error stays below the tolerance
        rng = np.random.default_rng(101)
        grid = np.linspace(-math.pi, math.pi, 10_000, endpoint=False)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            contacts = [
                PolarContact(float(rng.uniform(0.2, 0.7)), float(rng.uniform(-math.pi, math.pi)))
                for _ in range(k)
            ]
            h = heading_from_contacts(contacts, rng)
            got = evade_cost(h, contacts)
            rs = np.array([c.r for c in contacts])
            bs = np.array([c.theta_rel for c in contacts])
            grid_min = ((1.0 / rs)[:, None] * np.cos(grid[None, :] - bs[:, None])).sum(axis=0).min()
            assert got <= grid_min + 1e-9

    def test_radius_modulation_scales_contribution(self):
        near = PolarContact(0.1, 0.7)
        far = PolarContact(1.0, 0.7)
        a_near, b_near = field_coefficients([near])
        a_far, b_far = field_coefficients([far])
        assert a_near == pytest.approx(10 * a_far)
        assert b_near == pytest.approx(10 * b_far)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            k = int(rng.integers(1, 6))
            rs = rng.uniform(0.1, 0.7, k)
            bs = rng.uniform(-math.pi, math.pi, k)
            delta = float(rng.uniform(-math.pi, math.pi))
            base = [PolarContact(float(r), float(b)) for r, b in zip(rs, bs)]
            rotated = [PolarContact(float(r), float(b + delta)) for r, b in zip(rs, bs)]
            a, bcoef = field_coefficients(base)
            if math.hypot(a, bcoef) < 1e-6:
                continue  # too close to the degenerate branch to compare
            h0 = heading_from_contacts(base, rng)
            h1 = heading_from_contacts(rotated, rng)
            assert angular_close(h1, h0 + delta, tol=1e-9)

    def test_degenerate_surround_uses_rng(self):
        # two opposite equal contacts cancel exactly
        contacts = unit_contacts(0.0, math.pi)
        h1 = heading_from_contacts(contacts, np.random.default_rng(1))
        h2 = heading_from_contacts(contacts, np.random.default_rng(2))
        h1b = heading_from_contacts(contacts, np.random.default_rng(1))
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
        assert state.contact_distances[0, 0] == pytest.approx(0.2)
        assert angular_close(state.contact_bearings[0, 0], 0.0)
        # the chase runs the other way round
        assert angular_close(state.chase_bearings[0, 0], math.pi)


contacts = st.lists(
    st.builds(PolarContact, st.floats(1e-3, 1.0), st.floats(-math.pi, math.pi)),
    min_size=1, max_size=8,
)


@given(contacts, st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=32))
def test_closed_form_heading_beats_every_sampled_heading(cs, headings):
    a, b = field_coefficients(cs)
    assume(math.hypot(a, b) > 1e-6)  # below the degeneracy threshold the pick is random
    best = evade_cost(heading_from_contacts(cs, np.random.default_rng(0)), cs)
    # the minimum is -hypot(A, B); the slack covers rounding in the sums
    slack = 1e-12 * sum(1.0 / c.r for c in cs)
    assert best == pytest.approx(-math.hypot(a, b), abs=slack)
    for theta in headings:
        assert best <= evade_cost(theta, cs) + slack
