"""Analysis pipeline: grouping, capture bearings, report files."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from torus_pursuit.analysis import analyze_logs, capture_bearings, group_by_ratio
from torus_pursuit.config import config_from_dict
from torus_pursuit.errors import AnalysisInputError
from torus_pursuit.evaluation import run_eval
from torus_pursuit.trajectory import EpisodeTrace, TrajectoryWriter, read_trajectories


def make_trace(captured=True, ratio=1.0, pursuer_end=None, evader_end=(0.5, 0.5)):
    steps, n = 3, 2
    pursuer_xy = np.zeros((steps, n, 2)) + 0.3
    if pursuer_end is not None:
        pursuer_xy[-1] = pursuer_end
    evader_xy = np.tile(np.asarray(evader_end), (steps, 1))
    return EpisodeTrace(
        episode=0,
        ratio=ratio,
        captured=captured,
        actions=np.zeros((steps, n)),
        pursuer_xy=pursuer_xy,
        evader_xy=evader_xy,
        evader_action=np.zeros(steps),
        rewards=np.full(steps, -0.1),
    )


class TestCaptureBearings:
    def test_known_geometry(self):
        trace = make_trace(pursuer_end=[(0.6, 0.5), (0.5, 0.4)])
        bearings = capture_bearings([trace])[0]
        assert bearings[0] == pytest.approx(0.0)               # due east
        assert bearings[1] == pytest.approx(3 * math.pi / 2)    # due south in [0, 2pi)

    def test_wrapped_geometry(self):
        trace = make_trace(pursuer_end=[(0.97, 0.5), (0.5, 0.6)], evader_end=(0.02, 0.5))
        bearings = capture_bearings([trace])[0]
        assert bearings[0] == pytest.approx(math.pi, abs=1e-9)  # west across the seam

    def test_no_traces(self):
        assert capture_bearings([]).size == 0


def bits(values) -> list[int]:
    """IEEE bit patterns, so that -0.0 != 0.0 and rounding shows."""
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


# Read-back coordinates where rounding decides: exactly 1.0 (a logged 0.9999999999
# rounds to it), tiny negatives, and dyadics that make offsets of exactly +-0.5.
coordinate = st.one_of(
    st.sampled_from([0.0, 1.0, -0.0, -1e-17, -5e-324, 0.25, 0.5, 0.75, 0.125, 0.875]),
    st.floats(-1e-9, 1.0),
)


@st.composite
def final_steps(draw):
    """Traces of one pursuer count whose last steps are drawn from `coordinate`."""
    n = draw(st.integers(1, 4))
    traces = []
    for episode in range(draw(st.integers(1, 4))):
        steps = draw(st.integers(1, 3))
        xy = draw(st.lists(coordinate, min_size=steps * (n + 1) * 2,
                           max_size=steps * (n + 1) * 2))
        xy = np.array(xy).reshape(steps, n + 1, 2)
        traces.append(EpisodeTrace(
            episode=episode, ratio=1.0, captured=True, actions=np.zeros((steps, n)),
            pursuer_xy=xy[:, :n], evader_xy=xy[:, n], evader_action=np.zeros(steps),
            rewards=np.zeros(steps),
        ))
    return traces


@settings(max_examples=300, deadline=None)
@given(final_steps())
def test_capture_bearings_match_scalar_reference(traces):
    before = [(bits(t.pursuer_xy), bits(t.evader_xy)) for t in traces]
    got = capture_bearings(traces)
    want = [ref.capture_bearings(t) for t in traces]
    assert got.shape == (len(traces), traces[0].n_pursuers)
    assert bits(got) == bits(want)
    # the analysis bins them after one more reduction, also on both sides
    assert bits(got % (2.0 * math.pi)) == bits(np.asarray(want) % (2.0 * math.pi))
    # wrap_coords works in place, so the traces must keep their coordinates
    assert [(bits(t.pursuer_xy), bits(t.evader_xy)) for t in traces] == before


class TestGrouping:
    def test_group_by_ratio_sorted(self):
        traces = [make_trace(ratio=r) for r in (1.1, 0.7, 1.1, 0.9)]
        groups = group_by_ratio(traces)
        assert list(groups) == [0.7, 0.9, 1.1]
        assert len(groups[1.1]) == 2


class TestAnalyzeLogs:
    @pytest.fixture()
    def logs(self, tmp_path):
        cfg = config_from_dict(
            {"env": {"n": 2, "episode_length": 60},
             "run": {"seed": 3, "strategy": "greedy"}}
        )
        run_eval(cfg, ratios=[1.2, 0.8], episodes=6, out_dir=tmp_path / "eval",
                 strategy="greedy")
        return sorted((tmp_path / "eval").glob("trajectories_ratio_*.csv"))

    def test_report_files_written(self, logs, tmp_path):
        out = tmp_path / "reports"
        doc = analyze_logs(logs, out_dir=out, heading_bins=8, angle_bins=12)
        assert (out / "ic_report.json").exists()
        assert (out / "success.csv").exists()
        assert (out / "capture_angles.csv").exists()
        assert (out / "capture_angle_stats.csv").exists()
        assert doc["schema_version"] == 1
        assert doc["heading_bins"] == 8
        assert "pointwise" in doc["note"]

    def test_per_ratio_structure(self, logs, tmp_path):
        doc = analyze_logs(logs, out_dir=tmp_path / "r", heading_bins=8, angle_bins=12)
        assert [e["ratio"] for e in doc["per_ratio"]] == [0.8, 1.2]
        for entry in doc["per_ratio"]:
            pair_keys = {(p["i"], p["j"]) for p in entry["pairs"]}
            assert pair_keys == {(0, 1), (1, 0)}  # ordered pairs, both directions
            assert 0.0 <= entry["success_rate"] <= 1.0

    def test_success_csv_matches_traces(self, logs, tmp_path):
        out = tmp_path / "r2"
        analyze_logs(logs, out_dir=out, heading_bins=8, angle_bins=12)
        rows = (out / "success.csv").read_text().splitlines()[2:]
        by_ratio = {float(r.split(",")[0]): r.split(",") for r in rows}
        for path in logs:
            traces = read_trajectories(path)
            ratio = traces[0].ratio
            caps = sum(t.captured for t in traces)
            assert int(by_ratio[ratio][2]) == caps
            assert float(by_ratio[ratio][3]) == pytest.approx(caps / len(traces))

    def test_angle_counts_match_captures(self, logs, tmp_path):
        out = tmp_path / "r3"
        analyze_logs(logs, out_dir=out, heading_bins=8, angle_bins=12)
        angle_rows = [r.split(",") for r in
                      (out / "capture_angles.csv").read_text().splitlines()[2:]]
        stat_rows = [r.split(",") for r in
                     (out / "capture_angle_stats.csv").read_text().splitlines()[2:]]
        for ratio_str, agent, captures, _, _ in stat_rows:
            binned = sum(
                int(r[4]) for r in angle_rows if r[0] == ratio_str and r[1] == agent
            )
            assert binned == int(captures)

    @pytest.mark.parametrize("counts", [(3, 5), (5, 3)])
    def test_mixed_pursuer_counts_at_one_ratio_rejected(self, tmp_path, counts):
        # either file order used to fail inside numpy with an unrelated message
        paths = []
        for k, n in enumerate(counts):
            path = tmp_path / f"log{k}.csv"
            poses = np.tile(np.linspace(0.1, 0.9, 3 * (n + 1)).reshape(n + 1, 3), (4, 1, 1))
            with TrajectoryWriter(path) as w:
                w.write_episode(0, 0.9, poses, np.full(4, -0.1), False)
            paths.append(path)
        with pytest.raises(AnalysisInputError, match=r"ratio 0\.9: .*pursuer counts \[3, 5\]"):
            analyze_logs(paths, out_dir=tmp_path / "x")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "name", ["ic_report.json", "success.csv", "capture_angles.csv", "capture_angle_stats.csv"]
    )
    def test_committed_reports_reproduced_byte_for_byte(self, tmp_path, name):
        # the committed reports are `torus-pursuit analyze` over the committed
        # v1 log at the default bins (heading 16, angle 36)
        analyze_logs([ref.V1_LOG], out_dir=tmp_path)
        want = ref.V1_LOG.parent / "analyze_v1_greedy_n3" / name
        assert (tmp_path / name).read_bytes() == want.read_bytes()

    def test_empty_logs_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        with TrajectoryWriter(empty):
            pass
        with pytest.raises(ValueError):
            analyze_logs([empty], out_dir=tmp_path / "x")
