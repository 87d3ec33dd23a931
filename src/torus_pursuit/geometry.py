"""Exact geometry of the unit torus [0,1) x [0,1).

Positions live on the unit square with periodic boundary conditions. All
distances and offsets use the minimal wrapped displacement, whose components
lie in [-0.5, 0.5) (ties at exactly 0.5 map to -0.5); a distance is the
Euclidean norm of that offset and a bearing its angle in [-pi, pi).
"""

from __future__ import annotations

import math

import numpy as np


def normalize_angle(theta: float) -> float:
    """Map an angle to [-pi, pi); +pi normalizes to -pi."""
    t = math.remainder(theta, math.tau)
    return -math.pi if t >= math.pi else t


# -- arrays ----------------------------------------------------------------
# The environment, the scripted strategies and the analysis work on coordinate
# arrays whose last axis is (x, y). Every value is rounded as the per-element
# `math` function would round it: numpy's own arctan2 and hypot differ from
# libm in the last bit for a few percent of inputs, so `polar` and `bearings`
# call math.hypot and math.atan2 per element.


def offsets(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimal wrapped offsets from a to b, elementwise; wrapping a + offset
    gives b."""
    d = b - a
    d %= 1.0
    d -= d >= 0.5  # 1.0 where the offset is 0.5 or more
    return d


def polar(d: np.ndarray) -> tuple[list[float], list[float]]:
    """Norms and bearings of offsets d[..., (dx, dy)], as flat lists in C
    order."""
    xs, ys = d.reshape(-1, 2).T.tolist()
    return list(map(math.hypot, xs, ys)), atan2_bearings(ys, xs)


def bearings(d: np.ndarray) -> np.ndarray:
    """Bearings of offsets d[..., (dx, dy)], in [-pi, pi)."""
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
    """Raw planar coordinates reduced onto the torus, in place; returns v."""
    v %= 1.0
    if v.max(initial=0.0) >= 1.0:  # tiny negative v rounds up to exactly 1.0
        v[v >= 1.0] = 0.0
    return v
