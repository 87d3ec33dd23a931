"""Analytic evader: bisector-escape potential and its closed-form minimizer.

The evader scores a candidate heading theta by sum_i (1/r_i) * cos(theta -
bearing_i) over all pursuer contacts (r_i = torus distance, bearing_i =
evader-to-pursuer angle) and runs along the heading that minimizes it. The
cosine sum collapses to A*cos(theta) + B*sin(theta) with A = sum (1/r) cos(b)
and B = sum (1/r) sin(b), so the global minimizer is atan2(-B, -A). The 1/r
weighting lets nearby pursuers bend the escape bisector harder than far ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, truediv
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import SingularityError
from .geometry import atan2_bearings, normalize_angle

if TYPE_CHECKING:
    from .environment import WorldState

# Below this resultant magnitude the surround is treated as perfectly
# symmetric and the escape heading is drawn uniformly at random.
DEGENERACY_THRESHOLD = 1e-9


@dataclass(frozen=True)
class PolarContact:
    """One pursuer seen from the evader: distance r and bearing theta_rel."""

    r: float
    theta_rel: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"contact distance must be finite and >= 0, got {self.r!r}")
        if self.r == 0.0:
            raise SingularityError("contact at zero distance (capture must be checked first)")
        object.__setattr__(self, "theta_rel", normalize_angle(self.theta_rel))


def evade_cost(theta_e: float, contacts: Sequence[PolarContact]) -> float:
    """Escape potential at heading theta_e; lower is better for the evader."""
    if not contacts:
        raise ValueError("at least one contact is required")
    return sum((1.0 / c.r) * math.cos(theta_e - c.theta_rel) for c in contacts)


def field_coefficients(contacts: Sequence[PolarContact]) -> tuple[float, float]:
    """Coefficients (A, B) of the potential written as A*cos + B*sin."""
    if not contacts:
        raise ValueError("at least one contact is required")
    a = sum(math.cos(c.theta_rel) / c.r for c in contacts)
    b = sum(math.sin(c.theta_rel) / c.r for c in contacts)
    return a, b


def field_heading(a: list[float], b: list[float], rng: np.random.Generator) -> list[float]:
    """Global minimizers atan2(-B, -A) for paired lists of A and B.

    Fields whose resultant is below DEGENERACY_THRESHOLD draw a uniform
    heading from `rng`, one draw per such field in list order.
    """
    theta = atan2_bearings([-v for v in b], [-v for v in a])
    for e, magnitude in enumerate(map(math.hypot, a, b)):
        if magnitude < DEGENERACY_THRESHOLD:
            # Perfectly balanced surround: any deterministic pick would be
            # exploitable, so break the symmetry randomly.
            theta[e] = normalize_angle(rng.uniform(-math.pi, math.pi))
    return theta


def heading_from_contacts(contacts: Sequence[PolarContact], rng: np.random.Generator) -> float:
    """Global minimizer of the escape potential for the given contacts."""
    a, b = field_coefficients(contacts)
    return field_heading([a], [b], rng)[0]


def evade_heading(state: WorldState, rng: np.random.Generator) -> np.ndarray:
    """Escape headings (E,) in [-pi, pi), one per episode of `state`.

    Contacts use the minimal wrapped offsets from the evader to its
    pursuers; A and B sum them in pursuer order, as `field_coefficients` does.
    The few values per episode are worked on as Python floats.
    """
    contacts = state.contacts
    if contacts.contact_singular:
        raise SingularityError("pursuer co-located with evader")
    half = len(contacts.distances) // 2
    r = contacts.distances[half:]
    theta = contacts.bearings[half:]
    # cos of each bearing over its distance, then sin, in (episode, pursuer) order
    w = list(map(truediv, [*map(math.cos, theta), *map(math.sin, theta)], r * 2))
    # running sums over each episode's pursuers, taken left to right: A of
    # every episode, then B
    n = state.n
    sums = w[::n]
    for i in range(1, n):
        sums = list(map(add, sums, w[i::n]))
    episodes = len(sums) // 2
    return np.array(field_heading(sums[:episodes], sums[episodes:], rng))
