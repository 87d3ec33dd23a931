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
from operator import add, truediv
from typing import TYPE_CHECKING

import numpy as np

from .errors import SingularityError
from .geometry import atan2_bearings, normalize_angle

if TYPE_CHECKING:
    from .environment import WorldState

# Below this resultant magnitude the surround is treated as perfectly
# symmetric and the escape heading is drawn uniformly at random.
DEGENERACY_THRESHOLD = 1e-9


def evade_heading(state: WorldState, rng: np.random.Generator) -> np.ndarray:
    """Escape headings (E,) in [-pi, pi), one per episode of `state`.

    The state's contact distances and bearings run along the minimal
    wrapped offsets from the evader to its pursuers.
    """
    if 0.0 in state.contact_distances:
        raise SingularityError("pursuer co-located with evader")
    return contact_headings(state.contact_distances, state.contact_bearings, state.n, rng)


def contact_headings(
    r: list[float], theta: list[float], n: int, rng: np.random.Generator
) -> np.ndarray:
    """Global minimizers atan2(-B, -A) of the escape potential, one per
    episode, from the evader-to-pursuer distances `r` (all > 0) and bearings
    `theta`, flat lists in (episode, pursuer) order with n pursuers each.

    A and B sum each episode's contacts in pursuer order. Fields whose
    resultant is below DEGENERACY_THRESHOLD draw a uniform heading from
    `rng`, one draw per such episode in episode order. The few values per
    episode are worked on as Python floats.
    """
    if n < 1 or len(r) != len(theta) or len(r) % n:
        raise ValueError(
            f"need n >= 1 and as many distances as bearings, a multiple of n; got n={n}, "
            f"{len(r)} distances and {len(theta)} bearings"
        )
    # cos of each bearing over its distance, then sin, in (episode, pursuer) order
    w = list(map(truediv, [*map(math.cos, theta), *map(math.sin, theta)], [*r, *r]))
    # running sums over each episode's pursuers, taken left to right: A of
    # every episode, then B
    sums = w[::n]
    for i in range(1, n):
        sums = list(map(add, sums, w[i::n]))
    episodes = len(sums) // 2
    a, b = sums[:episodes], sums[episodes:]
    heading = atan2_bearings([-v for v in b], [-v for v in a])
    for e, magnitude in enumerate(map(math.hypot, a, b)):
        if magnitude < DEGENERACY_THRESHOLD:
            # Perfectly balanced surround: any deterministic pick would be
            # exploitable, so break the symmetry randomly.
            heading[e] = normalize_angle(rng.uniform(-math.pi, math.pi))
    return np.array(heading)
