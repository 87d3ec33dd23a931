"""Scripted pursuer strategies: greedy chase and replica max-min encirclement.

Greedy follows the attractive-potential force toward the evader; on the torus
that is simply the bearing of the minimal wrapped displacement (the attraction
coefficient scales the force magnitude, never its direction, and only the
direction drives a heading-controlled agent, so it is not a parameter).

The encirclement ("pincer") strategy unrolls the torus k periods in each
direction and assigns each pursuer one of its (2k+1)^2 planar replicas; the
pursuer then runs toward the evader from that replica, i.e. commits to the
approach route the replica represents. The joint assignment maximizes the
evader's best-case escape potential min_theta sum_i w_i cos(theta - b_i)
= -sqrt(A^2 + B^2), where b_i is the evader-to-replica bearing of the chosen
approach and w_i = 1/r_i the threat weight at pursuer i's true wrapped
distance (the distance the evader actually feels; replica distances would let
arbitrarily remote images fake a balanced surround). Assignments whose
objective is within BALANCE_TIE_BAND of the best achievable, measured in
units of the total threat weight, count as equally balanced; among them the
smallest total replica distance wins, so the team closes the tightest ring
that still cuts off the evader's bisector escapes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import WorldState
from .errors import SingularityError
from .geometry import Point2, displacement, distance, normalize_angle, replicate

# Fraction of the total threat weight within which assignments count as ties;
# the distance tie-break then prefers tight encirclement. 0 would make the
# argmax dominate (pursuers hold the ring open forever); large values collapse
# into a pure nearest-image chase.
BALANCE_TIE_BAND = 0.5

# Largest joint replica grid pincer_selection enumerates: (2k+1)^(2n) cells,
# each held in three float64 grids that are kept for the next call. 9^7 (n=7,
# k=1) takes about 0.25 s a call and keeps 115 MB; n=8 would need 1 GB.
MAX_PINCER_CELLS = 9**7


@dataclass(frozen=True)
class ReplicaSelection:
    """One replica index per pursuer plus the balance objective it attains.

    objective_value is the maximized inner minimum (threat weights at true
    wrapped distances, bearings of the selected replicas); total_distance sums
    the planar replica-to-evader distances of the selection.
    """

    replica_index_per_pursuer: tuple[int, ...]
    objective_value: float
    total_distance: float


def greedy_heading(pursuer_pose, evader_position: Point2) -> float:
    """Bearing of the minimal wrapped offset from the pursuer to the evader."""
    d = displacement(pursuer_pose.position, evader_position)
    if d.dx == 0.0 and d.dy == 0.0:
        raise SingularityError("pursuer co-located with evader")
    return d.bearing()


def pincer_objective(
    replica_positions: Sequence[tuple[float, float]],
    evader_position: tuple[float, float],
) -> float:
    """Evader's minimal escape potential for one set of planar threat points.

    Closed form -sqrt(A^2 + B^2) with A = sum (1/r) cos(b), B = sum (1/r)
    sin(b) over the planar (unrolled) displacements; 0 means the weighted
    threat vectors balance perfectly.
    """
    ex, ey = evader_position
    a = 0.0
    b = 0.0
    for x, y in replica_positions:
        rx = x - ex
        ry = y - ey
        r2 = rx * rx + ry * ry
        if r2 == 0.0:
            raise SingularityError("replica co-located with evader")
        # (1/r) cos(bearing) = rx / r^2, likewise for sin
        a += rx / r2
        b += ry / r2
    return -math.hypot(a, b)


def check_pincer_grid(n: int, k: int) -> None:
    """Raise ValueError unless the (2k+1)^(2n) joint grid fits MAX_PINCER_CELLS."""
    if k < 1:
        raise ValueError(f"replication radius must be >= 1, got {k}")
    cells = (2 * k + 1) ** (2 * n)
    if cells > MAX_PINCER_CELLS:
        raise ValueError(
            f"pincer grid for n={n} pursuers at k={k} has {cells} cells, "
            f"more than the {MAX_PINCER_CELLS} (n=7, k=1) that can be enumerated"
        )


def pincer_selection(
    state: WorldState, k: int = 1, balance_tie_band: float = BALANCE_TIE_BAND
) -> ReplicaSelection:
    """Exhaustive max-min over all (2k+1)^(2n) joint replica selections.

    Selections within balance_tie_band * (total threat weight) of the maximal
    objective tie; ties prefer the smallest total replica-evader distance and
    then the lexicographically smallest replica index tuple. Grids larger
    than MAX_PINCER_CELLS raise ValueError before anything is allocated.
    """
    n = len(state.pursuers)
    check_pincer_grid(n, k)
    m = (2 * k + 1) ** 2
    evader = state.evader.position
    ev = np.array([evader.x, evader.y])

    wa, wb, rr = [], [], []
    total_weight = 0.0
    for p in state.pursuers:
        true_r = distance(p.position, evader)
        if true_r == 0.0:
            raise SingularityError("pursuer co-located with evader")
        weight = 1.0 / true_r
        total_weight += weight
        rel = np.asarray(replicate(p.position, k)) - ev
        img_r = np.hypot(rel[:, 0], rel[:, 1])
        if np.any(img_r == 0.0):
            raise SingularityError("replica co-located with evader")
        # weight * (cos, sin) of the evader-to-replica bearing
        wa.append(weight * rel[:, 0] / img_r)
        wb.append(weight * rel[:, 1] / img_r)
        rr.append(img_r)

    # Broadcast each pursuer's m-vector along its own axis of the joint grid.
    a_tot, b_tot, d_tot, near = _pincer_grids((m,) * n)
    for grid, parts in ((a_tot, wa), (b_tot, wb), (d_tot, rr)):
        grid.fill(0.0)
        for i, part in enumerate(parts):
            shape = [1] * n
            shape[i] = m
            grid += part.reshape(shape)

    # objective = -sqrt(a_tot**2 + b_tot**2), computed in a_tot
    np.multiply(a_tot, a_tot, out=a_tot)
    np.multiply(b_tot, b_tot, out=b_tot)
    a_tot += b_tot
    np.sqrt(a_tot, out=a_tot)
    np.negative(a_tot, out=a_tot)
    objective = a_tot.ravel()
    band = balance_tie_band * total_weight
    np.greater_equal(objective, objective.max() - band, out=near.ravel())
    candidates = np.flatnonzero(near)
    dists = d_tot.ravel()[candidates]
    pick = candidates[int(np.argmin(dists))]  # argmin keeps the first (lexicographic) minimum
    indices = np.unravel_index(pick, (m,) * n)
    return ReplicaSelection(
        replica_index_per_pursuer=tuple(int(ix) for ix in indices),
        objective_value=float(objective[pick]),
        total_distance=float(d_tot.ravel()[pick]),
    )


@functools.lru_cache(maxsize=2)
def _pincer_grids(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Three float grids and one mask, reused by every call at one grid shape.

    Fresh full-grid temporaries on every call made glibc trim and refault
    the heap; reusing the grids keeps each call's pages resident.
    """
    return np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)


def pincer_headings(
    state: WorldState, k: int = 1, balance_tie_band: float = BALANCE_TIE_BAND
) -> list[float]:
    """One heading per pursuer: from its selected replica toward the evader."""
    selection = pincer_selection(state, k, balance_tie_band)
    evader = state.evader.position
    headings = []
    for pose, idx in zip(state.pursuers, selection.replica_index_per_pursuer):
        rx, ry = replicate(pose.position, k)[idx]
        headings.append(normalize_angle(math.atan2(evader.y - ry, evader.x - rx)))
    return headings
