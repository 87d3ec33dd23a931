"""Trajectory logs: the per-step CSV schema and its reader.

Layout (`pursuit-trajectory-v2`): one `# schema=...` comment line, then the
header `episode,step,agent,x,y,heading,reward,captured,ratio`, then one row
per agent per step ordered by (episode, step, agent); the reader accepts the
rows in any order. The evader logs as agent "e" (which sorts before
"p0".."p{n-1}"), reward 0. Rows record the post-move state of the step, so
the final row set of a captured episode carries the capturing geometry, and
`heading` is the heading the agent moved along, which `analyze` reads as its
action. Floats use 9 significant digits.

The reader also takes `pursuit-trajectory-v1` logs, whose header carries an
`action` column after `heading` that always holds the same value; a v1 log
reads to the traces it read to before v2 existed. The schema line, or
without one the header, picks the version of each file.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

from .errors import SchemaVersionError, TrajectoryParseError

TRAJECTORY_SCHEMA = "pursuit-trajectory-v2"
TRAJECTORY_HEADER = "episode,step,agent,x,y,heading,reward,captured,ratio"


# Format of every float field (x, y, heading, reward, ratio).
_FLOAT_FORMAT = ".9g"


@dataclass
class EpisodeTrace:
    """One episode reassembled from CSV rows (post-move records)."""

    episode: int
    ratio: float
    captured: bool
    actions: np.ndarray      # (T, n) pursuer action headings
    pursuer_xy: np.ndarray   # (T, n, 2)
    evader_xy: np.ndarray    # (T, 2)
    evader_action: np.ndarray  # (T,)
    rewards: np.ndarray      # (T,) shared per-pursuer reward

    @property
    def steps(self) -> int:
        return self.actions.shape[0]

    @property
    def n_pursuers(self) -> int:
        return self.actions.shape[1]


class TrajectoryWriter:
    """Streams the records of one or more episodes into a CSV file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "w", newline="")
        self._fh.write(f"# schema={TRAJECTORY_SCHEMA}\n")
        self._fh.write(TRAJECTORY_HEADER + "\n")

    def write_episode(
        self,
        episode: int,
        ratio: float,
        poses: np.ndarray,
        rewards: np.ndarray,
        captured: bool,
        first_step: int = 1,
    ) -> None:
        """The rows of T steps of one episode, numbered from `first_step`, in
        one write.

        poses (T, n+1, 3) holds x, y and heading of the pursuers and then the
        evader after each step, rewards (T,) the shared pursuer reward;
        `captured` marks the last of these steps as the capturing one.
        """
        # One %-template per step, holding the rows of the evader and each
        # pursuer with the fixed fields filled in; "%.9g" writes the same
        # bytes as f"{x:.9g}", and the shared reward is formatted once per
        # step. On 100-step episodes at n=3 a per-step template took 3-14%
        # less time than one f-string per row (a str.format template per row
        # took 40% more than those).
        g = "%" + _FLOAT_FORMAT
        step_rows = {}
        for cap in "01":
            tail = f",{cap},{g % ratio}\n"
            step_rows[cap] = f"{episode},%d,e,{g},{g},{g},0{tail}" + "".join(
                f"{episode},%d,p{i},{g},{g},{g},%s{tail}" for i in range(poses.shape[1] - 1)
            )
        last = len(rewards) - 1
        lines = []
        for t, (agents, reward) in enumerate(zip(poses.tolist(), rewards.tolist())):
            step = first_step + t
            reward = g % reward
            fields = [step, *agents.pop()]
            for pose in agents:
                fields += (step, *pose, reward)
            lines.append(step_rows["1" if captured and t == last else "0"] % tuple(fields))
        self._fh.write("".join(lines))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# Row layouts for np.loadtxt, one per schema version. Agent ids and capture
# flags stay bytes, so only the exact strings "e", "p<k>", "0" and "1" pass
# the checks. An agent id is one 8-byte word, compared and sorted as an
# integer; one that fills all 8 bytes may have been cut short and is
# rejected.
_AGENT_WIDTH = 8
_FIELD_TYPES = {
    "episode": np.int64,
    "step": np.int64,
    "agent": f"S{_AGENT_WIDTH}",
    "captured": "S2",
}


@dataclass(frozen=True)
class _Layout:
    schema: str
    header: str
    action: str  # the column the agents' action headings are read from

    @property
    def names(self) -> list[str]:
        return self.header.split(",")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype([(name, _FIELD_TYPES.get(name, np.float64)) for name in self.names])

    @property
    def floats(self) -> list[str]:
        return [name for name in self.names if name not in _FIELD_TYPES]


_LAYOUTS = (
    _Layout(TRAJECTORY_SCHEMA, TRAJECTORY_HEADER, action="heading"),
    _Layout(
        "pursuit-trajectory-v1",
        "episode,step,agent,x,y,heading,action,reward,captured,ratio",
        action="action",
    ),
)


def _agent_code(agent: str) -> int:
    """0 for the evader "e", k + 1 for pursuer "p<k>", -1 for anything else."""
    if agent == "e":
        return 0
    digits = agent[1:]
    if (
        agent[:1] == "p"
        and len(agent) < _AGENT_WIDTH
        and digits.isascii()
        and digits.isdigit()
        and digits == str(int(digits))
    ):
        return int(digits) + 1
    return -1


def _agent_name(code: int) -> str:
    return f"p{code - 1}" if code else "e"


def _check_row(line: str, where: str, layout: _Layout) -> None:
    """Raise TrajectoryParseError, prefixed by `where`, if a body line is malformed."""
    parts = line.split(",")
    names = layout.names
    if len(parts) != len(names):
        raise TrajectoryParseError(f"{where}: expected {len(names)} fields, got {len(parts)}")
    row = dict(zip(names, parts))
    try:
        int(row["episode"])
        int(row["step"])
        values = [float(row[name]) for name in layout.floats]
    except ValueError as exc:
        raise TrajectoryParseError(f"{where}: {exc}") from exc
    if _agent_code(row["agent"]) < 0:
        raise TrajectoryParseError(f"{where}: bad agent id {row['agent']!r}")
    if row["captured"] not in ("0", "1"):
        raise TrajectoryParseError(f"{where}: captured must be 0 or 1, got {row['captured']!r}")
    if not all(map(math.isfinite, values)):
        raise TrajectoryParseError(f"{where}: non-finite value")


def _raise_first_bad_line(path: Path, body_start: int, layout: _Layout, fallback: str) -> NoReturn:
    """Check the body row by row and raise the error of the first bad line."""
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines[body_start:], body_start + 1):
        if line:
            _check_row(line, f"{path}: line {lineno}", layout)
    raise TrajectoryParseError(f"{path}: {fallback}")


def _body_line_numbers(path: Path, body_start: int) -> np.ndarray:
    """The file line number of each row; np.loadtxt skips blank lines."""
    lines = path.read_text().splitlines()
    return np.array([k for k, line in enumerate(lines[body_start:], body_start + 1) if line])


def _read_header(fh, path: Path) -> tuple[int, _Layout]:
    """Check the optional schema line and the header; return the lines they
    take and the row layout they declare."""
    line = fh.readline()
    if not line:
        raise TrajectoryParseError(f"{path}: line 0: empty file")
    lines = 1
    candidates = _LAYOUTS
    if line.startswith("#"):
        declared = line.lstrip("#").strip()
        candidates = [lay for lay in _LAYOUTS if declared == f"schema={lay.schema}"]
        if not candidates:
            raise SchemaVersionError(f"{path}: unknown trajectory schema {declared!r}")
        line = fh.readline()
        lines = 2
    header = line.rstrip("\n")
    for layout in candidates:
        if header == layout.header:
            return lines, layout
    raise TrajectoryParseError(f"{path}: line {lines}: missing header {candidates[0].header!r}")


def _agent_codes(agents: np.ndarray) -> np.ndarray:
    """`_agent_code` of every row's id, decoding each distinct id once."""
    words, inverse = np.unique(agents.view(np.uint64), return_inverse=True)
    ids = words.view(agents.dtype).tolist()
    lut = np.array([_agent_code(a.decode("ascii", "replace")) for a in ids], dtype=np.int64)
    return lut[inverse]


def read_trajectories(path: str | Path) -> list[EpisodeTrace]:
    """Parse a trajectory CSV into per-episode traces, ordered by episode.

    Rows may come in any order and blank lines are skipped. Every step of
    every episode must hold one row for the evader and one for each of the
    file's n pursuers, and an episode's steps must run 1..T. All rows of a
    step carry one capture flag, all pursuer rows of a step one reward, and
    all rows of an episode one ratio; only an episode's last step may be
    flagged captured. Errors name the file and, where one line is at fault,
    its line number: TrajectoryParseError on malformed, duplicated, missing
    or disagreeing rows, SchemaVersionError on an unknown schema declaration.
    """
    path = Path(path)
    with open(path) as fh:
        body_start, layout = _read_header(fh, path)
        try:
            with warnings.catch_warnings():
                # a body of blank lines is an empty log, not a problem
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=layout.dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            _raise_first_bad_line(path, body_start, layout, str(exc))
    if rows.size == 0:
        return []

    codes = _agent_codes(rows["agent"])
    bad = (codes < 0) | ((rows["captured"] != b"0") & (rows["captured"] != b"1"))
    for name in layout.floats:
        bad |= ~np.isfinite(rows[name])
    if bad.any():
        _raise_first_bad_line(path, body_start, layout, "malformed row")
    n = int(codes.max())
    if n == 0:
        raise TrajectoryParseError(f"{path}: no pursuer rows")

    order = np.lexsort((codes, rows["step"], rows["episode"]))
    rows, codes = rows[order], codes[order]
    episode, step = rows["episode"], rows["step"]

    def fail(at: np.ndarray, message: str) -> NoReturn:
        # `at`: sorted-row indices of the rows at fault; name the first in the file
        line = _body_line_numbers(path, body_start)[order[at]].min()
        raise TrajectoryParseError(f"{path}: line {line}: {message}")

    same_step = (episode[1:] == episode[:-1]) & (step[1:] == step[:-1])
    duplicate = np.flatnonzero(same_step & (codes[1:] == codes[:-1])) + 1
    if duplicate.size:
        k = duplicate[np.argmin(order[duplicate])]
        fail(
            duplicate,
            f"episode {episode[k]} step {step[k]}: second row for agent {_agent_name(codes[k])}",
        )
    starts = np.flatnonzero(np.r_[True, ~same_step])
    sizes = np.diff(np.r_[starts, rows.size])
    if (sizes != n + 1).any():
        g = int(np.argmax(sizes != n + 1))
        k = starts[g]
        fail(
            np.arange(k, k + sizes[g]),
            f"episode {episode[k]} step {step[k]}: expected evader + {n} pursuer rows, "
            f"found {sizes[g]}",
        )

    m = n + 1
    groups = rows.size // m
    group_episode, group_step = episode[::m], step[::m]
    first = np.flatnonzero(np.r_[True, group_episode[1:] != group_episode[:-1]])
    lengths = np.diff(np.r_[first, groups])
    expected = np.arange(groups) - np.repeat(first, lengths) + 1
    if (group_step != expected).any():
        g = int(np.argmax(group_step != expected))
        fail(
            np.arange(g * m, g * m + m),
            f"episode {group_episode[g]}: expected step {expected[g]}, found step {group_step[g]}",
        )

    # One value per step or per episode; the first sorted row at fault is named.
    captured = rows["captured"] == b"1"
    reward, ratio = rows["reward"], rows["ratio"]
    for at, message in (
        (captured != np.repeat(captured[::m], m), "captured flag of {} differs from the evader's"),
        ((reward != np.repeat(reward[1::m], m)) & (codes > 0), "reward of {} differs from p0's"),
        (ratio != np.repeat(ratio[first * m], lengths * m),
         "ratio of {} differs from the episode's first row"),
    ):
        if at.any():
            k = int(np.argmax(at))
            fail(np.array([k]), f"episode {episode[k]} step {step[k]}: "
                 + message.format(_agent_name(codes[k])))
    early = captured[::m].copy()
    early[np.r_[first[1:], groups] - 1] = False  # each episode's last step may be captured
    if early.any():
        g = int(np.argmax(early)) + 1
        fail(
            np.arange(g * m, g * m + m),
            f"episode {group_episode[g]}: step {group_step[g]} follows the capture at step "
            f"{group_step[g] - 1}",
        )
    return _episode_traces(rows, n, first, layout.action)


def _episode_traces(
    rows: np.ndarray, n: int, first: np.ndarray, action_field: str
) -> list[EpisodeTrace]:
    """Traces from checked rows in (episode, step, agent) order; `first` holds
    the index of each episode's first step, and `action_field` names the
    column the action headings come from."""
    m = n + 1
    steps = rows.size // m
    action = rows[action_field].reshape(steps, m)
    xy = np.stack((rows["x"], rows["y"]), axis=-1).reshape(steps, m, 2)
    actions = np.ascontiguousarray(action[:, 1:])
    evader_action = np.ascontiguousarray(action[:, 0])
    pursuer_xy = np.ascontiguousarray(xy[:, 1:])
    evader_xy = np.ascontiguousarray(xy[:, 0])
    rewards = np.ascontiguousarray(rows["reward"][n::m])  # shared by all pursuers
    evader = rows[::m]
    bounds = np.r_[first, steps].tolist()
    captured = evader["captured"][np.r_[first[1:], steps] - 1] == b"1"  # only a last step can be
    return [
        EpisodeTrace(
            episode=ep,
            ratio=ratio,
            captured=caught,
            actions=actions[a:b],
            pursuer_xy=pursuer_xy[a:b],
            evader_xy=evader_xy[a:b],
            evader_action=evader_action[a:b],
            rewards=rewards[a:b],
        )
        for ep, ratio, caught, a, b in zip(
            evader["episode"][first].tolist(),
            evader["ratio"][first].tolist(),
            captured.tolist(),
            bounds[:-1],
            bounds[1:],
        )
    ]


def read_many(paths: Iterable[str | Path]) -> list[EpisodeTrace]:
    traces = []
    for path in paths:
        traces.extend(read_trajectories(path))
    return traces
