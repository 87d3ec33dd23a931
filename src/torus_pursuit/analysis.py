"""Post-hoc analysis of trajectory logs: coordination reports and tables.

Groups episodes by velocity ratio and emits, per ratio: capture success,
mutual-information coordination for every ordered pursuer pair (pooled over
all episodes at that ratio), high-influence fractions, and capture-angle
histograms. Pointwise ("per time-step") influence is a declared reading of a
distribution-level quantity; the report flags it as such.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import AnalysisInputError
from .evaluation import SUCCESS_HEADER, SUCCESS_SCHEMA, write_table
from .geometry import bearings, offsets, wrap_coords
from .metrics import (
    CaptureAngleHistogram,
    capture_angle_histogram,
    capture_success_rate,
    ic_report,
)
from .trajectory import EpisodeTrace, read_many

IC_REPORT_SCHEMA_VERSION = 1
ANGLES_SCHEMA = "pursuit-capture-angles-v1"
ANGLES_HEADER = "ratio,agent,bin,bin_start_rad,count"
ANGLE_STATS_SCHEMA = "pursuit-capture-angle-stats-v1"
ANGLE_STATS_HEADER = "ratio,agent,captures,circular_mean,circular_variance"

POINTWISE_NOTE = (
    "high_influence_fraction uses pointwise mutual information per step pair; "
    "the mean pointwise value equals the plug-in MI"
)


def group_by_ratio(traces: Sequence[EpisodeTrace]) -> dict[float, list[EpisodeTrace]]:
    groups: dict[float, list[EpisodeTrace]] = {}
    for t in traces:
        groups.setdefault(t.ratio, []).append(t)
    return dict(sorted(groups.items()))


def capture_bearings(traces: Sequence[EpisodeTrace]) -> np.ndarray:
    """Evader-to-pursuer bearings at the last step of each trace, in
    [0, 2*pi): (len(traces), n) for traces of n pursuers each."""
    if not traces:
        return np.zeros((0, 0))
    evader = wrap_coords(np.array([t.evader_xy[-1] for t in traces]))
    pursuers = wrap_coords(np.array([t.pursuer_xy[-1] for t in traces]))
    return bearings(offsets(evader[:, None], pursuers)) % (2.0 * math.pi)


def analyze_logs(
    log_paths: Iterable[str | Path],
    out_dir: str | Path,
    heading_bins: int = 16,
    angle_bins: int = 36,
) -> dict:
    """Run the full metrics suite; writes the reports and returns the IC doc."""
    traces = read_many(log_paths)
    if not traces:
        raise AnalysisInputError("no episodes found in the supplied logs")
    groups = group_by_ratio(traces)
    for ratio, eps in groups.items():
        counts = sorted({e.n_pursuers for e in eps})
        if len(counts) > 1:
            raise AnalysisInputError(
                f"ratio {ratio:g}: episodes have different pursuer counts {counts}; "
                "analyze pools a ratio's episodes, so give each pursuer count its own ratio"
            )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    per_ratio = []
    success_rows = []
    angle_rows = []
    angle_stat_rows = []
    for ratio, eps in groups.items():
        n_agents = eps[0].n_pursuers
        success = capture_success_rate([e.captured for e in eps])
        success_rows.append((ratio, len(eps), sum(e.captured for e in eps), success))

        logs = [e.actions for e in eps if e.steps >= 2]
        pairs = ic_report(logs, n_agents, heading_bins) if logs else {}
        pair_docs = [{"i": i, "j": j, **vals} for (i, j), vals in pairs.items()]
        per_ratio.append(
            {
                "ratio": ratio,
                "episodes": len(eps),
                "success_rate": success,
                "pairs": pair_docs,
                "mean_mi_bits": _pair_mean(pair_docs, "mi_bits"),
                "mean_high_influence_fraction": _pair_mean(pair_docs, "high_influence_fraction"),
            }
        )

        hist = capture_angle_histogram(
            capture_bearings([e for e in eps if e.captured]), angle_bins
        )
        angle_rows.extend(_angle_rows(ratio, hist))
        angle_stat_rows.extend(_angle_stat_rows(ratio, hist))

    doc = {
        "schema_version": IC_REPORT_SCHEMA_VERSION,
        "heading_bins": heading_bins,
        "note": POINTWISE_NOTE,
        "per_ratio": per_ratio,
    }
    (out / "ic_report.json").write_text(json.dumps(doc, indent=2) + "\n")

    write_table(out / "success.csv", SUCCESS_SCHEMA, SUCCESS_HEADER, success_rows)
    write_table(out / "capture_angles.csv", ANGLES_SCHEMA, ANGLES_HEADER, angle_rows)
    write_table(out / "capture_angle_stats.csv", ANGLE_STATS_SCHEMA, ANGLE_STATS_HEADER,
                angle_stat_rows)
    return doc


def _pair_mean(pair_docs: list[dict], key: str) -> float:
    return float(np.mean([p[key] for p in pair_docs])) if pair_docs else 0.0


def _angle_rows(ratio: float, hist: CaptureAngleHistogram) -> list[tuple]:
    rows = []
    width = 2.0 * math.pi / hist.angle_bins
    for agent in range(hist.counts.shape[0]):
        for b in range(hist.angle_bins):
            rows.append((ratio, f"p{agent}", b, b * width, int(hist.counts[agent, b])))
    return rows


def _angle_stat_rows(ratio: float, hist: CaptureAngleHistogram) -> list[tuple]:
    rows = []
    for agent in range(hist.counts.shape[0]):
        rows.append((ratio, f"p{agent}", hist.n_captures, hist.circular_mean[agent],
                     hist.circular_variance[agent]))
    return rows
