"""Post-hoc coordination analysis over logged trajectories.

Instantaneous coordination between agents i and j is the mutual information
(in bits) between i's action heading at step t and j's at step t+1, estimated
by binning headings into B uniform bins, counting the step pairs into a plain
(B, B) int64 joint table, and plugging that table into the discrete MI
formula. The same table gives the share of "high-influence" step pairs: those
whose pointwise value log2 p(a, b) / (p(a) p(b)) is strictly above the mean
pointwise value over all step pairs (the mean equals the plug-in MI). A table
whose observed pairs all share one pointwise value has none above the mean,
so its share is exactly 0. `ic_report` gives, per ordered pair, the MI, the
share and `n_pairs`, the integer count of step pairs in the table.
Capture-angle histograms summarize where each pursuer sits relative to the
evader at the moment of capture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


def _step_pair_bins(
    action_logs: Sequence[np.ndarray], bins: int
) -> tuple[np.ndarray, np.ndarray]:
    """Heading bins of every agent at t and at t+1, one row per step pair.

    Each log is a (T, n_agents) array of finite action headings. The logs are
    binned together, once, into `bins` >= 2 uniform bins over [-pi, pi) (the
    right edge clamps into the last bin), and pairs are formed within a log
    only.
    """
    if bins < 2:
        raise ValueError(f"need at least 2 bins, got {bins}")
    arrays = []
    for log in action_logs:
        arr = np.asarray(log, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"action log must be 2-D (steps, agents), got shape {arr.shape}")
        if arr.shape[0] >= 2:
            arrays.append(arr)
    if not arrays:
        raise ValueError("no step pairs: need at least one trajectory of length >= 2")
    headings = np.concatenate(arrays)
    if not np.isfinite(headings).all():
        raise ValueError("non-finite heading in an action log")
    binned = np.clip(
        np.floor((headings + math.pi) / (2.0 * math.pi / bins)).astype(np.int64), 0, bins - 1
    )
    # a row pairs with the next unless it ends its log
    last = np.cumsum([a.shape[0] for a in arrays]) - 1
    now = np.delete(np.arange(len(binned) - 1), last[:-1])
    return binned[now], binned[now + 1]


def _joint_counts(now: np.ndarray, nxt: np.ndarray, i: int, j: int, bins: int) -> np.ndarray:
    """(bins, bins) int64 table of agent i's bin at t against agent j's at t+1."""
    if i == j:
        raise ValueError("agent indices must differ")
    return np.bincount(now[:, i] * bins + nxt[:, j], minlength=bins * bins).reshape(bins, bins)


def _observed_cells(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Count, probability p(a, b) and ratio p(a, b) / (p(a) p(b)) of every
    nonzero cell of a (B, B) joint-count table, in row-major order."""
    n = counts.sum()
    nz = counts > 0
    p_joint = counts[nz] / n
    outer = np.outer(counts.sum(axis=1) / n, counts.sum(axis=0) / n)
    return counts[nz], p_joint, p_joint / outer[nz]


def mutual_information_bits(counts: np.ndarray) -> float:
    """Plug-in MI of a (B, B) joint-count table, in bits; 0*log 0 terms
    contribute 0."""
    _, p_joint, ratio = _observed_cells(counts)
    return float(np.sum(p_joint * np.log2(ratio)))


def high_influence_share(counts: np.ndarray) -> float:
    """Share of the table's step pairs whose pointwise value is strictly above
    the mean pointwise value; exactly 0 when every observed cell has the same
    value, where the rounded mean could otherwise land below them all."""
    weights, _, ratio = _observed_cells(counts)
    # math.log2 per cell: np.log2 can differ in the last bit, which can move a
    # cell across the mean, and the committed reports pin these shares
    cells = np.array([math.log2(r) for r in ratio.tolist()], dtype=np.float64)
    if cells.min() == cells.max():
        return 0.0
    above = cells > np.mean(np.repeat(cells, weights))
    return float(weights[above].sum() / weights.sum())


def instantaneous_coordination(
    action_logs: Sequence[np.ndarray], i: int, j: int, bins: int = 16
) -> float:
    """MI in bits between agent i's action at t and agent j's at t+1."""
    return mutual_information_bits(_joint_counts(*_step_pair_bins(action_logs, bins), i, j, bins))


def high_influence_fraction(
    action_logs: Sequence[np.ndarray], i: int, j: int, bins: int = 16
) -> float:
    """Share of step pairs (i at t, j at t+1) whose pointwise value is strictly
    above the mean; see `high_influence_share`."""
    return high_influence_share(_joint_counts(*_step_pair_bins(action_logs, bins), i, j, bins))


def ic_report(
    action_logs: Sequence[np.ndarray], n_agents: int, bins: int = 16
) -> dict[tuple[int, int], dict[str, float | int]]:
    """MI, high-influence share and integer step-pair count for every ordered
    agent pair (i, j), in (i, j) order."""
    if n_agents < 2:
        return {}
    now, nxt = _step_pair_bins(action_logs, bins)
    report = {}
    for i in range(n_agents):
        for j in range(n_agents):
            if i == j:
                continue
            counts = _joint_counts(now, nxt, i, j, bins)
            report[(i, j)] = {
                "mi_bits": mutual_information_bits(counts),
                "high_influence_fraction": high_influence_share(counts),
                "n_pairs": int(counts.sum()),
            }
    return report


@dataclass
class CaptureAngleHistogram:
    """Binned evader-to-pursuer bearings at capture, one row per pursuer."""

    angle_bins: int
    counts: np.ndarray            # (n_pursuers, angle_bins) integer
    circular_mean: np.ndarray     # (n_pursuers,) radians in [0, 2*pi)
    circular_variance: np.ndarray  # (n_pursuers,) in [0, 1]
    n_captures: int

    @property
    def empty(self) -> bool:
        return self.n_captures == 0


def capture_angle_histogram(
    capture_angles: Sequence[Sequence[float]], angle_bins: int
) -> CaptureAngleHistogram:
    """Bin capture bearings over [0, 2*pi).

    `capture_angles` holds, per captured trajectory, one bearing per pursuer
    (evader-to-pursuer, any real angle). An empty input yields the empty
    marker rather than an error.
    """
    if angle_bins < 1:
        raise ValueError(f"need at least 1 angle bin, got {angle_bins}")
    if len(capture_angles) == 0:
        return CaptureAngleHistogram(
            angle_bins, np.zeros((0, angle_bins), dtype=np.int64), np.zeros(0), np.zeros(0), 0
        )
    arr = np.asarray(capture_angles, dtype=np.float64) % (2.0 * math.pi)
    n_caps, n_pursuers = arr.shape
    width = 2.0 * math.pi / angle_bins
    idx = np.clip(np.floor(arr / width).astype(np.int64), 0, angle_bins - 1)
    counts = np.zeros((n_pursuers, angle_bins), dtype=np.int64)
    for p in range(n_pursuers):
        np.add.at(counts[p], idx[:, p], 1)
    z = np.exp(1j * arr)
    mean_vec = z.mean(axis=0)
    circ_mean = np.angle(mean_vec) % (2.0 * math.pi)
    circ_var = 1.0 - np.abs(mean_vec)
    return CaptureAngleHistogram(angle_bins, counts, circ_mean, circ_var, n_caps)


def capture_success_rate(captured_flags: Sequence[bool]) -> float:
    """Fraction of episodes that ended in capture."""
    if len(captured_flags) == 0:
        raise ValueError("no episodes supplied")
    return float(np.mean([1.0 if c else 0.0 for c in captured_flags]))
