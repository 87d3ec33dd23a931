"""Exact geometry of the unit torus [0,1) x [0,1).

Positions live on the unit square with periodic boundary conditions. All
distances and offsets use the minimal wrapped displacement, whose components
lie in [-0.5, 0.5) (ties at exactly 0.5 map to -0.5). Replica generation
unrolls the torus k periods in each direction for planar optimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point2:
    """A point on the unit torus; both coordinates in [0, 1)."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x!r}, {self.y!r})")
        if not (0.0 <= self.x < 1.0 and 0.0 <= self.y < 1.0):
            raise ValueError(
                f"point ({self.x!r}, {self.y!r}) outside [0,1)^2; use wrap()"
            )


@dataclass(frozen=True)
class Displacement2:
    """Minimal wrapped offset between torus points; components in [-0.5, 0.5)."""

    dx: float
    dy: float

    def __post_init__(self) -> None:
        if not (-0.5 <= self.dx < 0.5 and -0.5 <= self.dy < 0.5):
            raise ValueError(f"displacement ({self.dx!r}, {self.dy!r}) outside [-0.5, 0.5)^2")

    def norm(self) -> float:
        return math.hypot(self.dx, self.dy)

    def bearing(self) -> float:
        """Angle of the offset, normalized to [-pi, pi)."""
        return normalize_angle(math.atan2(self.dy, self.dx))


def normalize_angle(theta: float) -> float:
    """Map an angle to [-pi, pi); +pi normalizes to -pi."""
    t = math.remainder(theta, math.tau)
    return -math.pi if t >= math.pi else t


def _wrap1(v: float) -> float:
    w = v % 1.0
    # v % 1.0 can round up to exactly 1.0 for tiny negative v
    return 0.0 if w >= 1.0 else w


def wrap(x: float, y: float) -> Point2:
    """Map raw planar coordinates onto the torus by modular reduction."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"cannot wrap non-finite coordinates ({x!r}, {y!r})")
    return Point2(_wrap1(x), _wrap1(y))


def _delta1(a: float, b: float) -> float:
    d = (b - a) % 1.0
    return d - 1.0 if d >= 0.5 else d


def displacement(a: Point2, b: Point2) -> Displacement2:
    """Minimal wrapped offset from a to b; wrap(a + offset) == b."""
    return Displacement2(_delta1(a.x, b.x), _delta1(a.y, b.y))


def distance(a: Point2, b: Point2) -> float:
    """Torus L2 distance: the Euclidean norm of the minimal displacement."""
    return displacement(a, b).norm()


def replicate(p: Point2, k: int) -> list[tuple[float, float]]:
    """Translate p by every integer offset in [-k, k]^2 (planar points).

    Offsets are enumerated row-major ((-k,-k), (-k,-k+1), ..., (k,k)), so the
    center replica sits at index (2k+1)*k + k and equals p exactly.
    """
    if k < 0:
        raise ValueError(f"replication radius must be >= 0, got {k}")
    return [(p.x + di, p.y + dj) for di in range(-k, k + 1) for dj in range(-k, k + 1)]


# -- arrays ----------------------------------------------------------------
# The environment and the scripted strategies work on coordinate arrays whose
# last axis is (x, y). These helpers are the elementwise counterparts of the
# scalar functions above and round exactly like them: numpy's own arctan2 and
# hypot differ from libm in the last bit for a few percent of inputs, so
# `polar` calls math.hypot and math.atan2 per element.


def offsets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`displacement(a, b)` elementwise: minimal wrapped offsets from a to b."""
    d = b - a
    d %= 1.0
    d -= d >= 0.5  # 1.0 where the offset is 0.5 or more
    return d


def polar(d: np.ndarray) -> tuple[list[float], list[float]]:
    """`Displacement2.norm` and `.bearing` of offsets d[..., (dx, dy)], as
    flat lists in C order."""
    xs, ys = d.reshape(-1, 2).T.tolist()
    return list(map(math.hypot, xs, ys)), atan2_bearings(ys, xs)


def bearings(d: np.ndarray) -> np.ndarray:
    """`Displacement2.bearing` of offsets d[..., (dx, dy)], in [-pi, pi)."""
    xs, ys = d.reshape(-1, 2).T.tolist()
    return np.array(atan2_bearings(ys, xs)).reshape(d.shape[:-1])


def atan2_bearings(ys: list[float], xs: list[float]) -> list[float]:
    """normalize_angle(math.atan2(y, x)) over paired lists."""
    t = list(map(math.atan2, ys, xs))
    if math.pi in t:  # atan2 lies in [-pi, pi]; only +pi moves
        t = [-math.pi if v == math.pi else v for v in t]
    return t


def normalize_angles(theta: np.ndarray) -> np.ndarray:
    """`normalize_angle` elementwise, in place; returns theta."""
    outside = ~(np.abs(theta) < math.pi)  # the identity holds inside
    theta[outside] = [normalize_angle(v) for v in theta[outside].tolist()]
    return theta


def wrap_coords(v: np.ndarray) -> np.ndarray:
    """`wrap` elementwise on raw planar coordinates, in place; returns v."""
    v %= 1.0
    if v.max(initial=0.0) >= 1.0:  # tiny negative v rounds up to exactly 1.0
        v[v >= 1.0] = 0.0
    return v
