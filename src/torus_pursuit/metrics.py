"""Post-hoc coordination analysis over logged trajectories.

Instantaneous coordination between agents i and j is the mutual information
(in bits) between i's action heading at step t and j's at step t+1, estimated
by binning headings into B uniform bins and plugging the pooled joint counts
into the discrete MI formula. Per-pair pointwise terms give the fraction of
"high-influence" step pairs (pointwise value strictly above the mean, which
equals the plug-in MI). Capture-angle histograms summarize where each pursuer
sits relative to the evader at the moment of capture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


@dataclass
class ActionHistogram:
    """Joint counts of (bin of a_i at t, bin of a_j at t+1)."""

    bins: int
    joint_counts: np.ndarray  # (B, B) integer

    @property
    def n_pairs(self) -> int:
        return int(self.joint_counts.sum())

    @property
    def row_marginal(self) -> np.ndarray:
        return self.joint_counts.sum(axis=1)

    @property
    def col_marginal(self) -> np.ndarray:
        return self.joint_counts.sum(axis=0)


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


def _joint_counts(now: np.ndarray, nxt: np.ndarray, i: int, j: int, bins: int) -> ActionHistogram:
    """Joint table of agent i's bin at t against agent j's at t+1."""
    cells = np.bincount(now[:, i] * bins + nxt[:, j], minlength=bins * bins)
    return ActionHistogram(bins=bins, joint_counts=cells.reshape(bins, bins))


def build_action_histogram(
    action_logs: Sequence[np.ndarray], i: int, j: int, bins: int
) -> ActionHistogram:
    """Pool (t, t+1) heading pairs across trajectories into joint counts.

    Each log is a (T, n_agents) array of action headings; pairs are formed
    within a trajectory only.
    """
    if i == j:
        raise ValueError("agent indices must differ")
    return _joint_counts(*_step_pair_bins(action_logs, bins), i, j, bins)


def mutual_information_bits(hist: ActionHistogram) -> float:
    """Plug-in MI of the joint table, in bits; 0*log 0 terms contribute 0."""
    n = hist.n_pairs
    p_joint = hist.joint_counts / n
    p_row = hist.row_marginal / n
    p_col = hist.col_marginal / n
    nz = hist.joint_counts > 0
    ratio = p_joint[nz] / np.outer(p_row, p_col)[nz]
    return float(np.sum(p_joint[nz] * np.log2(ratio)))


def pointwise_information_bits(hist: ActionHistogram) -> np.ndarray:
    """Pointwise MI value of every observed pair (one entry per step pair)."""
    n = hist.n_pairs
    p_joint = hist.joint_counts / n
    outer = np.outer(hist.row_marginal / n, hist.col_marginal / n)
    rows, cols = np.nonzero(hist.joint_counts)
    cells = np.array(
        [math.log2(p_joint[r, c] / outer[r, c]) for r, c in zip(rows, cols)], dtype=np.float64
    )
    return np.repeat(cells, hist.joint_counts[rows, cols])


def _high_influence_share(hist: ActionHistogram) -> float:
    pmi = pointwise_information_bits(hist)
    return float(np.mean(pmi > np.mean(pmi)))


def instantaneous_coordination(
    action_logs: Sequence[np.ndarray], i: int, j: int, bins: int = 16
) -> float:
    """MI in bits between agent i's action at t and agent j's at t+1."""
    return mutual_information_bits(build_action_histogram(action_logs, i, j, bins))


def high_influence_fraction(
    action_logs: Sequence[np.ndarray], i: int, j: int, bins: int = 16
) -> float:
    """Fraction of step pairs whose pointwise value strictly exceeds the mean.

    The mean of the pointwise values over observed pairs equals the plug-in
    MI, so a degenerate table (every pair at the same pointwise value) gives
    exactly 0.
    """
    return _high_influence_share(build_action_histogram(action_logs, i, j, bins))


@dataclass
class IcReport:
    """Per ordered pair: MI, high-influence fraction, and sample count."""

    bins: int
    pairs: dict[tuple[int, int], dict[str, float]] = field(default_factory=dict)

    @property
    def mean_mi_bits(self) -> float:
        if not self.pairs:
            return 0.0
        return float(np.mean([v["mi_bits"] for v in self.pairs.values()]))


def ic_report(
    action_logs: Sequence[np.ndarray], n_agents: int, bins: int = 16
) -> IcReport:
    """MI and high-influence fraction for every ordered agent pair."""
    report = IcReport(bins=bins)
    if n_agents < 2:
        return report
    now, nxt = _step_pair_bins(action_logs, bins)
    for i in range(n_agents):
        for j in range(n_agents):
            if i == j:
                continue
            hist = _joint_counts(now, nxt, i, j, bins)
            report.pairs[(i, j)] = {
                "mi_bits": mutual_information_bits(hist),
                "high_influence_fraction": _high_influence_share(hist),
                "n_pairs": float(hist.n_pairs),
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
