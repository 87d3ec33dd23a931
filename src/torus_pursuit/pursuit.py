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
reused, and a block with fewer episodes uses their leading rows. A grid is
laid out as (replica of the last pursuer, joint index of the others) and
built in two stages: the others' sums on their own small grid, then one
broadcast add of the last pursuer, in the summation order of a plain
enumeration, so every cell rounds alike. The tie band is tested on
q = A^2 + B^2 against the largest q whose square root lies in it, and cells
outside the band get a huge distance key, so the grid needs no square root
and no mask; equal distances go to the lexicographically smallest index
tuple, as in a plain enumeration.
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
# k=1) takes about 0.09 s a call and keeps 115 MB; n=8 would need 1 GB.
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
    """Raise ValueError unless the (2k+1)^(2n) joint grid fits MAX_PINCER_CELLS.

    Since 3^16 > 9^7, no grid fits from n = 8 on, so the count is built only
    below that; the message names it in digits only while it fits in 64 bits.
    """
    if k < 1:
        raise ValueError(f"replication radius must be >= 1, got {k}")
    side = 2 * k + 1
    if n < 8 and side ** (2 * n) <= MAX_PINCER_CELLS:
        return
    count = side ** (2 * n) if 2 * n * side.bit_length() <= 64 else f"{side}^{2 * n}"
    raise ValueError(
        f"pincer grid for n={n} pursuers at k={k} has {count} cells, "
        f"more than the 9^7 = {MAX_PINCER_CELLS} (n=7, k=1) that can be enumerated"
    )


@functools.lru_cache(maxsize=4)
def _replica_offsets(k: int) -> np.ndarray:
    """Integer offsets (di, dj) over [-k, k]^2 in row-major order, as float rows
    x and y, (2, m); the center (0, 0) sits at index (2k+1)*k + k."""
    grid = np.array([(di, dj) for di in range(-k, k + 1) for dj in range(-k, k + 1)], float)
    return np.ascontiguousarray(grid.T)


def pincer_selection(state: WorldState, k: int = 1) -> ReplicaSelection:
    """Exhaustive max-min over all (2k+1)^(2n) joint replica selections, per
    episode of `state`.

    Selections within BALANCE_TIE_BAND * (total threat weight) of the maximal
    objective tie; ties prefer the smallest total replica-evader distance and
    then the lexicographically smallest replica index tuple. Grids larger
    than MAX_PINCER_CELLS raise ValueError before anything is allocated. A
    pursuer on the evader, or so close that its threat weight overflows,
    raises SingularityError.

    Episodes are enumerated in blocks whose joint grids hold at most
    PINCER_BLOCK_CELLS cells (one episode per block when a single grid is
    larger), so memory does not grow with E.
    """
    e_count, n = state.episodes, state.n
    check_pincer_grid(n, k)
    m = (2 * k + 1) ** 2
    rest = m ** (n - 1)  # joint selections of the first n-1 pursuers
    block = max(1, PINCER_BLOCK_CELLS // (m * rest))

    if state.contacts.chase_singular:
        raise SingularityError("pursuer co-located with evader")
    # per pursuer and replica, (3, E, n, m): weight * (cos, sin) of the
    # evader-to-replica bearing, and the replica distance
    parts = np.empty((3, e_count, n, m))
    replicas = state.pursuers.transpose(2, 0, 1)[..., None] + _replica_offsets(k)[:, None, None]
    np.subtract(replicas, state.evader.T[:, :, None, None], out=parts[:2])
    np.hypot(parts[0], parts[1], out=parts[2])
    if not parts[2].all():
        raise SingularityError("replica co-located with evader")
    # threat weights at the true wrapped pursuer-to-evader distances, checked
    # before use: a subnormal distance overflows its weight 1/r, and a weight
    # near the float maximum can still overflow its products
    with np.errstate(over="ignore"):
        weight = 1.0 / state.chase_distances
        if np.isinf(weight).any():
            raise SingularityError("pursuer too close to evader: threat weight overflows")
        parts[:2] *= weight[..., None]
        parts[:2] /= parts[2]
    if not np.isfinite(parts[:2]).all():
        raise SingularityError("pursuer too close to evader: threat weight overflows")
    total_weight = weight[:, 0]  # the sum's leading 0 + w0 is w0: weights are positive
    for i in range(1, n):
        total_weight = total_weight + weight[:, i]

    indices = np.empty((e_count, n), dtype=np.intp)
    head_digits = _place_values(m, n - 1)
    objective_value = np.empty(e_count)
    total_distance = np.empty(e_count)
    # width of each episode's tie band, in objective units
    band = BALANCE_TIE_BAND * total_weight
    full = _pincer_grids((block, m, rest))
    head_store = full[2].reshape(-1)
    for start in range(0, e_count, block):
        rows = slice(start, min(start + block, e_count))
        size = rows.stop - rows.start
        part = parts[:, rows]
        grid = full[:, :size]
        # a_tot holds A and then q, b_tot B and then the distances, d_tot
        # the first pursuers' sums and then the distance key
        a_tot, b_tot, d_tot = grid
        ab = grid[:2]
        # Cell (l, j) adds pursuer n-1's replica l to selection j of the
        # others, in pursuer order (p0 + p1) + ..., so every cell rounds as in
        # a plain enumeration. (That one starts from 0 + p0, which can only
        # turn a -0.0 sum into +0.0; squaring and the positive distances never
        # show it.) The sums over the first n-1 pursuers are built on their
        # own small grid at the front of the third grid, one pursuer per
        # broadcast.
        if n == 1:
            head = head_store[: 3 * size].reshape(3, size, 1)
            head.fill(0.0)
        else:
            head = part[:, :, 0]
            for i in range(1, n - 1):
                out = head_store[: 3 * size * rest].reshape(3, size, -1, m) if i == n - 2 else None
                head = np.add(head[..., :, None], part[:, :, i, None, :], out=out).reshape(3, size, -1)
        head = head[:, :, None]
        last = part[:, :, n - 1, :, None]
        np.add(head[:2], last[:2], out=ab)

        # q = a_tot**2 + b_tot**2 in a_tot; the objective is -sqrt(q). A
        # square that overflows is inf, outside any finite band limit.
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(ab, ab, out=ab)
            a_tot += b_tot
            np.add(head[2], last[2], out=b_tot)
            # A cell is in the band when -sqrt(q) >= max objective - band, that
            # is sqrt(q) <= sqrt(min q) + band (negation rounds alike), which
            # holds exactly when q <= limit.
            q_min = np.minimum.reduce(a_tot, axis=(1, 2))
            limit = _sqrt_preimage_max(np.sqrt(q_min) + band[rows])
        if not np.isfinite(limit).all():
            raise SingularityError("pursuer too close to evader: threat weight overflows")
        # distance key: in-band cells keep exactly their distance
        np.greater(a_tot, limit[:, None, None], out=d_tot)
        d_tot *= _FAR
        d_tot += b_tot
        # argmin's first hit in each row l has the smallest j; among the rows
        # that reach the minimum, the smallest (j, l) is the lexicographic one
        first = d_tot.argmin(axis=2)
        row_min = np.minimum.reduce(d_tot, axis=2)
        best = np.minimum.reduce(row_min, axis=1, keepdims=True)
        first = np.where(row_min == best, first, rest)
        l = first.argmin(axis=1)
        j = np.minimum.reduce(first, axis=1)
        indices[rows, :-1] = j[:, None] // head_digits % m
        indices[rows, -1] = l
        objective_value[rows] = -np.sqrt(a_tot[np.arange(size), l, j])
        total_distance[rows] = best[:, 0]
    return ReplicaSelection(indices, objective_value, total_distance)


# Added to the distance of every cell outside the tie band: larger than any
# sum of replica distances, so argmin never picks such a cell.
_FAR = 1e300


def _sqrt_preimage_max(w: np.ndarray) -> np.ndarray:
    """Elementwise the largest double q with sqrt(q) <= w; q <= it exactly
    when sqrt(q) <= w.

    sqrt is correctly rounded, hence monotone, and the answer is fl(w * w)
    or a neighbour of it: one double down where the square rounded up past
    the preimage (subnormal squares) or overflowed, one up where the
    preimage reaches past it. ``w`` must be non-negative.
    """
    # Non-negative doubles are ordered as their bit patterns, so a step is +-1
    # on the int64 view. A w above sqrt(max double) squares to inf, whose step
    # up is a NaN pattern that compares false.
    q = w * w
    bits = q.view(np.int64)
    bits -= np.sqrt(q) > w
    bits += np.sqrt((bits + 1).view(np.float64)) <= w
    return q


@functools.lru_cache(maxsize=4)
def _place_values(m: int, n: int) -> np.ndarray:
    """m^(n-1), ..., m, 1: the weights of the digits of a joint grid index."""
    return m ** np.arange(n - 1, -1, -1)


@functools.lru_cache(maxsize=2)
def _pincer_grids(shape: tuple[int, ...]) -> np.ndarray:
    """Three float grids of `shape`, stacked, reused by every call at one shape.

    Fresh full-grid temporaries on every call made glibc trim and refault
    the heap; reusing the grids keeps each call's pages resident. Calls on
    fewer episodes than a block use the leading rows of the grids.
    """
    return np.empty((3,) + shape)


def pincer_headings(state: WorldState, k: int = 1) -> np.ndarray:
    """Headings (E, n): each pursuer runs from its selected replica toward the evader."""
    idx = pincer_selection(state, k).replica_index_per_pursuer
    ox, oy = _replica_offsets(k)
    d = np.empty(idx.shape + (2,))
    d[..., 0] = state.evader[:, None, 0] - (state.pursuers[..., 0] + ox[idx])
    d[..., 1] = state.evader[:, None, 1] - (state.pursuers[..., 1] + oy[idx])
    return bearings(d)
