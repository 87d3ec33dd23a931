"""The array trajectory reader and the pooled coordination estimator against
the row-by-row reader and the one-pair histogram in `scalar_reference`, bit
for bit.

Logs come from `TrajectoryWriter` (9 significant digits) and from rows
formatted with `repr` (17 significant digits, where the float parser's
rounding shows), with -0.0, rows in any order and blank lines, in trajectory
schemas v2 and v1 (whose rows repeat each heading in an `action` column).
The estimator is compared on ragged episode lengths, length-1 episodes
included.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from torus_pursuit.metrics import (
    _joint_counts,
    _step_pair_bins,
    high_influence_fraction,
    high_influence_share,
    ic_report,
    instantaneous_coordination,
    mutual_information_bits,
)
from torus_pursuit.config import config_from_dict
from torus_pursuit.evaluation import run_eval
from torus_pursuit.trajectory import TrajectoryWriter, read_trajectories


def bits(values) -> list[int]:
    """IEEE bit patterns, so that -0.0 != 0.0 and rounding shows."""
    return np.asarray(values, dtype=np.float64).view(np.int64).ravel().tolist()


def assert_same_traces(got, want) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.episode, a.captured) == (b.episode, b.captured)
        assert bits(a.ratio) == bits(b.ratio)
        for name in ("actions", "pursuer_xy", "evader_xy", "evader_action", "rewards"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.shape == y.shape, name
            assert bits(x) == bits(y), name


value = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi, 0.1, 5e-324, -1e300]),
    st.floats(-1.0, 1.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def episodes(draw):
    """(n, ratio, [(episode id, poses (T, n+1, 3), rewards (T,), captured)])."""
    n = draw(st.integers(1, 4))
    ratio = draw(value)
    ids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4, unique=True))
    eps = []
    for ep in ids:
        steps = draw(st.integers(1, 4))
        poses = draw(st.lists(value, min_size=steps * (n + 1) * 3, max_size=steps * (n + 1) * 3))
        rewards = draw(st.lists(value, min_size=steps, max_size=steps))
        poses = np.reshape(poses, (steps, n + 1, 3))
        eps.append((ep, poses, np.array(rewards), draw(st.booleans())))
    return n, ratio, eps


def repr_rows(ratio, eps, version) -> list[str]:
    """The writer's rows in trajectory schema `version`, with every float at
    full `repr` precision."""
    rows = []
    for ep, poses, rewards, captured in eps:
        for t, (agents, reward) in enumerate(zip(poses.tolist(), rewards.tolist())):
            cap = "1" if captured and t == len(rewards) - 1 else "0"
            for i, (x, y, h) in enumerate(agents[-1:] + agents[:-1]):
                agent, r = ("e", "0") if i == 0 else (f"p{i - 1}", repr(reward))
                h = f"{h!r},{h!r}" if version == 1 else repr(h)
                rows.append(f"{ep},{t + 1},{agent},{x!r},{y!r},{h},{r},{cap},{ratio!r}")
    return rows


def as_v1(row: str) -> str:
    """A v2 row as the v1 writer wrote it: the heading repeated as the action."""
    fields = row.split(",")
    return ",".join(fields[:6] + fields[5:])


def scrambled(rows: list[str], data) -> list[str]:
    """The rows in a drawn order, with blank lines drawn in between."""
    rows = data.draw(st.permutations(rows))
    blanks = data.draw(st.lists(st.integers(0, len(rows)), max_size=3))
    for at in sorted(blanks, reverse=True):
        rows.insert(at, "")
    return rows


def write_body(path, rows: list[str], version: int) -> None:
    path.write_text(ref.log_preamble(version) + "\n".join(rows) + "\n")


@settings(max_examples=60, deadline=None)
@given(log=episodes(), data=st.data())
def test_reader_matches_row_by_row_reader_on_writer_output(tmp_path_factory, log, data):
    n, ratio, eps = log
    path = tmp_path_factory.mktemp("log") / "log.csv"
    with TrajectoryWriter(path) as w:
        for ep, poses, rewards, captured in eps:
            w.write_episode(ep, ratio, poses, rewards, captured)
    want = ref.read_trajectories(path)
    assert_same_traces(read_trajectories(path), want)

    rows = path.read_text().splitlines()[2:]
    # the same episodes, in any order, and in the v1 writer's form too
    for version, body in ((2, rows), (1, [as_v1(row) for row in rows])):
        write_body(path, scrambled(body, data), version)
        assert_same_traces(read_trajectories(path), want)
        assert_same_traces(ref.read_trajectories(path), want)


@settings(max_examples=60, deadline=None)
@given(log=episodes(), data=st.data())
def test_reader_matches_row_by_row_reader_on_17_digit_floats(tmp_path_factory, log, data):
    n, ratio, eps = log
    path = tmp_path_factory.mktemp("log") / "log.csv"
    for version in (2, 1):
        write_body(path, scrambled(repr_rows(ratio, eps, version), data), version)
        got = read_trajectories(path)
        assert_same_traces(got, ref.read_trajectories(path))
        # repr round-trips, so the traces hold the written values exactly
        for trace, (ep, poses, rewards, captured) in zip(got, sorted(eps, key=lambda e: e[0])):
            assert trace.episode == ep
            assert bits(trace.actions) == bits(poses[:, :-1, 2])
            assert bits(trace.evader_xy) == bits(poses[:, -1, :2])


def test_committed_v1_log_reads_like_its_v2_rerun(tmp_path):
    cfg = config_from_dict(ref.V1_LOG_CONFIG)
    # the committed bytes are what the v1 writer wrote for this config
    ref.run_eval(cfg, [ref.V1_LOG_RATIO], ref.V1_LOG_EPISODES, tmp_path / "v1", version=1)
    assert (tmp_path / "v1" / "trajectories_ratio_1_1.csv").read_bytes() == ref.V1_LOG.read_bytes()
    run_eval(cfg, [ref.V1_LOG_RATIO], ref.V1_LOG_EPISODES, tmp_path / "v2")
    v2 = tmp_path / "v2" / "trajectories_ratio_1_1.csv"
    assert v2.read_text().startswith("# schema=pursuit-trajectory-v2\n")
    want = read_trajectories(v2)
    assert [t.captured for t in want] == [True, True, False, True]
    assert_same_traces(read_trajectories(ref.V1_LOG), want)
    assert_same_traces(ref.read_trajectories(ref.V1_LOG), want)


heading = st.one_of(
    st.sampled_from([-math.pi, math.pi, 0.0, -0.0, math.pi / 2, -math.pi / 8, 3.5, -3.5]),
    st.floats(-math.pi, math.pi),
)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 4),
    bins=st.integers(2, 16),
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=6),
    data=st.data(),
)
def test_ic_report_matches_per_pair_histograms(n, bins, lengths, data):
    logs = [
        np.reshape(data.draw(st.lists(heading, min_size=t * n, max_size=t * n)), (t, n))
        for t in lengths
    ]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if pairs and max(lengths) < 2:
        with pytest.raises(ValueError, match="no step pairs"):
            ic_report(logs, n, bins)
        return
    report = ic_report(logs, n, bins)
    assert list(report) == pairs
    for i, j in pairs:
        want = ref.build_action_histogram(logs, i, j, bins)
        got = _joint_counts(*_step_pair_bins(logs, bins), i, j, bins)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        vals = report[(i, j)]
        assert type(vals["n_pairs"]) is int and vals["n_pairs"] == want.sum()
        mi, share = mutual_information_bits(want), high_influence_share(want)
        assert bits(vals["mi_bits"]) == bits(mi)
        assert bits(vals["high_influence_fraction"]) == bits(share)
        # the one-pair functions give the report's values too
        assert bits(instantaneous_coordination(logs, i, j, bins)) == bits(mi)
        assert bits(high_influence_fraction(logs, i, j, bins)) == bits(share)
