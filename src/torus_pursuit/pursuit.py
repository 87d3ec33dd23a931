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

Both strategies act on a `WorldState` of E episodes and return headings
(E, n). Pincer enumerates its joint grids in blocks of episodes holding at
most PINCER_BLOCK_CELLS cells (one n=5 grid, or 81 episodes at n=3), so its
memory never grows with E; the grids of a block are allocated once and
reused, and a block with fewer episodes uses their leading rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .environment import WorldState
from .errors import SingularityError
from .geometry import bearings

# Fraction of the total threat weight within which assignments count as ties;
# the distance tie-break then prefers tight encirclement. 0 would make the
# argmax dominate (pursuers hold the ring open forever); large values collapse
# into a pure nearest-image chase.
BALANCE_TIE_BAND = 0.5

# Largest joint replica grid pincer_selection enumerates: (2k+1)^(2n) cells,
# each held in three float64 grids that are kept for the next call. 9^7 (n=7,
# k=1) takes about 0.25 s a call and keeps 115 MB; n=8 would need 1 GB.
MAX_PINCER_CELLS = 9**7

# Most joint-grid cells one block of episodes enumerates at once: one n=5,
# k=1 grid, or 81 episodes of n=3.
PINCER_BLOCK_CELLS = 9**5


@dataclass(frozen=True)
class ReplicaSelection:
    """One replica index per pursuer plus the balance objective it attains,
    for each of E episodes.

    replica_index_per_pursuer is (E, n); objective_value (E,) is the
    maximized inner minimum (threat weights at true wrapped distances,
    bearings of the selected replicas); total_distance (E,) sums the planar
    replica-to-evader distances of the selection.
    """

    replica_index_per_pursuer: np.ndarray
    objective_value: np.ndarray
    total_distance: np.ndarray


def greedy_heading(state: WorldState) -> np.ndarray:
    """Bearings (E, n) of the minimal wrapped offsets from each pursuer to its evader."""
    if state.contacts.chase_singular:
        raise SingularityError("pursuer co-located with evader")
    return state.chase_bearings


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


@functools.lru_cache(maxsize=4)
def _replica_offsets(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer offsets in `replicate` order, as float x and y columns."""
    grid = np.array([(di, dj) for di in range(-k, k + 1) for dj in range(-k, k + 1)], float)
    return grid[:, 0].copy(), grid[:, 1].copy()


def pincer_selection(
    state: WorldState, k: int = 1, balance_tie_band: float = BALANCE_TIE_BAND
) -> ReplicaSelection:
    """Exhaustive max-min over all (2k+1)^(2n) joint replica selections, per
    episode of `state`.

    Selections within balance_tie_band * (total threat weight) of the maximal
    objective tie; ties prefer the smallest total replica-evader distance and
    then the lexicographically smallest replica index tuple. Grids larger
    than MAX_PINCER_CELLS raise ValueError before anything is allocated.

    Episodes are enumerated in blocks whose joint grids hold at most
    PINCER_BLOCK_CELLS cells (one episode per block when a single grid is
    larger), so memory does not grow with E.
    """
    e_count, n = state.episodes, state.n
    check_pincer_grid(n, k)
    m = (2 * k + 1) ** 2
    block = max(1, PINCER_BLOCK_CELLS // m**n)

    # threat weights at the true wrapped pursuer-to-evader distances
    if state.contacts.chase_singular:
        raise SingularityError("pursuer co-located with evader")
    weight = 1.0 / state.chase_distances
    total_weight = np.zeros(e_count)
    for i in range(n):
        total_weight += weight[:, i]

    pursuers, evader = state.pursuers, state.evader
    ox, oy = _replica_offsets(k)
    rel_x = (pursuers[..., 0, None] + ox) - evader[:, None, 0, None]
    rel_y = (pursuers[..., 1, None] + oy) - evader[:, None, 1, None]
    img_r = np.hypot(rel_x, rel_y)
    if not img_r.all():
        raise SingularityError("replica co-located with evader")
    # weight * (cos, sin) of the evader-to-replica bearing, (E, n, m)
    wa = weight[..., None] * rel_x / img_r
    wb = weight[..., None] * rel_y / img_r

    picks = np.empty(e_count, dtype=np.intp)
    objective_value = np.empty(e_count)
    total_distance = np.empty(e_count)
    full = _pincer_grids((block,) + (m,) * n)
    for start in range(0, e_count, block):
        rows = slice(start, min(start + block, e_count))
        size = rows.stop - rows.start
        a_tot, b_tot, d_tot, far = (g[:size] for g in full)
        # Broadcast each pursuer's m-vector along its own axis of the joint grid.
        for grid, parts in ((a_tot, wa), (b_tot, wb), (d_tot, img_r)):
            grid.fill(0.0)
            for i in range(n):
                shape = [size] + [1] * n
                shape[1 + i] = m
                grid += parts[rows, i].reshape(shape)

        # objective = -sqrt(a_tot**2 + b_tot**2), computed in a_tot
        np.multiply(a_tot, a_tot, out=a_tot)
        np.multiply(b_tot, b_tot, out=b_tot)
        a_tot += b_tot
        np.sqrt(a_tot, out=a_tot)
        np.negative(a_tot, out=a_tot)
        objective = a_tot.reshape(size, -1)
        dists = d_tot.reshape(size, -1)
        floor = objective.max(axis=1) - balance_tie_band * total_weight[rows]
        # outside the band the distance tie-break never looks
        np.less(objective, floor[:, None], out=far.reshape(size, -1))
        np.copyto(dists, np.inf, where=far.reshape(size, -1))
        pick = np.argmin(dists, axis=1)  # argmin keeps the first (lexicographic) minimum
        cells = np.arange(size)
        picks[rows] = pick
        objective_value[rows] = objective[cells, pick]
        total_distance[rows] = dists[cells, pick]
    indices = np.stack(np.unravel_index(picks, (m,) * n), axis=-1)
    return ReplicaSelection(indices, objective_value, total_distance)


@functools.lru_cache(maxsize=2)
def _pincer_grids(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Three float grids and one mask, reused by every call at one grid shape.

    Fresh full-grid temporaries on every call made glibc trim and refault
    the heap; reusing the grids keeps each call's pages resident. Calls on
    fewer episodes than a block use the leading rows of the grids.
    """
    return np.empty(shape), np.empty(shape), np.empty(shape), np.empty(shape, dtype=bool)


def pincer_headings(
    state: WorldState, k: int = 1, balance_tie_band: float = BALANCE_TIE_BAND
) -> np.ndarray:
    """Headings (E, n): each pursuer runs from its selected replica toward the evader."""
    idx = pincer_selection(state, k, balance_tie_band).replica_index_per_pursuer
    ox, oy = _replica_offsets(k)
    d = np.empty(idx.shape + (2,))
    d[..., 0] = state.evader[:, None, 0] - (state.pursuers[..., 0] + ox[idx])
    d[..., 1] = state.evader[:, None, 1] - (state.pursuers[..., 1] + oy[idx])
    return bearings(d)
