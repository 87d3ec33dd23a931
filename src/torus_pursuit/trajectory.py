"""Trajectory logs: the per-step CSV schema and its reader.

Layout: one `# schema=...` comment line, then the header
`episode,step,agent,x,y,heading,action,reward,captured,ratio`, then one row
per agent per step ordered by (episode, step, agent); the reader accepts the
rows in any order. The evader logs as agent "e" (which sorts before
"p0".."p{n-1}"), reward 0. Rows record the post-move state of the step, so
the final row set of a captured episode carries the capturing geometry.
Floats use 9 significant digits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NoReturn

import numpy as np

from .errors import SchemaVersionError, TrajectoryParseError

TRAJECTORY_SCHEMA = "pursuit-trajectory-v1"
TRAJECTORY_HEADER = "episode,step,agent,x,y,heading,action,reward,captured,ratio"


# Format of every float field (x, y, heading, action, reward, ratio).
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
        # bytes as f"{x:.9g}", and a heading is formatted once for both of
        # its columns. On 100-step episodes at n=3 this took 3-14% less time
        # than one f-string per row (a str.format template per row took 40%
        # more than those).
        g = "%" + _FLOAT_FORMAT
        step_rows = {}
        for cap in "01":
            tail = f",{cap},{g % ratio}\n"
            step_rows[cap] = f"{episode},%d,e,{g},{g},%s,%s,0{tail}" + "".join(
                f"{episode},%d,p{i},{g},{g},%s,%s,%s{tail}" for i in range(poses.shape[1] - 1)
            )
        last = len(rewards) - 1
        lines = []
        for t, (agents, reward) in enumerate(zip(poses.tolist(), rewards.tolist())):
            step = first_step + t
            reward = g % reward
            x, y, h = agents.pop()
            h = g % h
            fields = [step, x, y, h, h]
            for px, py, a in agents:
                a = g % a
                fields += (step, px, py, a, a, reward)
            lines.append(step_rows["1" if captured and t == last else "0"] % tuple(fields))
        self._fh.write("".join(lines))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# Row layout for np.loadtxt. Agent ids and capture flags stay bytes, so only
# the exact strings "e", "p<k>", "0" and "1" pass the checks. An agent id is
# one 8-byte word, compared and sorted as an integer; one that fills all 8
# bytes may have been cut short and is rejected.
_AGENT_WIDTH = 8
_ROW_DTYPE = np.dtype(
    [
        ("episode", np.int64),
        ("step", np.int64),
        ("agent", f"S{_AGENT_WIDTH}"),
        ("x", np.float64),
        ("y", np.float64),
        ("heading", np.float64),
        ("action", np.float64),
        ("reward", np.float64),
        ("captured", "S2"),
        ("ratio", np.float64),
    ]
)
_FLOAT_FIELDS = ("x", "y", "heading", "action", "reward", "ratio")


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


def _check_row(line: str, where: str) -> None:
    """Raise TrajectoryParseError, prefixed by `where`, if a body line is malformed."""
    parts = line.split(",")
    if len(parts) != 10:
        raise TrajectoryParseError(f"{where}: expected 10 fields, got {len(parts)}")
    try:
        int(parts[0])
        int(parts[1])
        values = [float(parts[k]) for k in (3, 4, 5, 6, 7, 9)]
    except ValueError as exc:
        raise TrajectoryParseError(f"{where}: {exc}") from exc
    if _agent_code(parts[2]) < 0:
        raise TrajectoryParseError(f"{where}: bad agent id {parts[2]!r}")
    if parts[8] not in ("0", "1"):
        raise TrajectoryParseError(f"{where}: captured must be 0 or 1, got {parts[8]!r}")
    if not all(map(math.isfinite, values)):
        raise TrajectoryParseError(f"{where}: non-finite value")


def _raise_first_bad_line(path: Path, body_start: int, fallback: str) -> NoReturn:
    """Check the body row by row and raise the error of the first bad line."""
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines[body_start:], body_start + 1):
        if line:
            _check_row(line, f"{path}: line {lineno}")
    raise TrajectoryParseError(f"{path}: {fallback}")


def _body_line_numbers(path: Path, body_start: int) -> np.ndarray:
    """The file line number of each row; np.loadtxt skips blank lines."""
    lines = path.read_text().splitlines()
    return np.array([k for k, line in enumerate(lines[body_start:], body_start + 1) if line])


def _read_header(fh, path: Path) -> int:
    """Check the optional schema line and the header; return the lines they take."""
    line = fh.readline()
    if not line:
        raise TrajectoryParseError(f"{path}: line 0: empty file")
    lines = 1
    if line.startswith("#"):
        declared = line.lstrip("#").strip()
        if declared != f"schema={TRAJECTORY_SCHEMA}":
            raise SchemaVersionError(f"{path}: unknown trajectory schema {declared!r}")
        line = fh.readline()
        lines = 2
    if line.rstrip("\n") != TRAJECTORY_HEADER:
        raise TrajectoryParseError(f"{path}: line {lines}: missing header {TRAJECTORY_HEADER!r}")
    return lines


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
    file's n pursuers, and an episode's steps must run 1..T. Errors name the
    file and, where one line is at fault, its line number:
    TrajectoryParseError on malformed, duplicated or missing rows,
    SchemaVersionError on an unknown schema declaration.
    """
    path = Path(path)
    with open(path) as fh:
        body_start = _read_header(fh, path)
        try:
            with warnings.catch_warnings():
                # a body of blank lines is an empty log, not a problem
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                rows = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",", comments=None, ndmin=1)
        except ValueError as exc:
            _raise_first_bad_line(path, body_start, str(exc))
    if rows.size == 0:
        return []

    codes = _agent_codes(rows["agent"])
    bad = (codes < 0) | ((rows["captured"] != b"0") & (rows["captured"] != b"1"))
    for name in _FLOAT_FIELDS:
        bad |= ~np.isfinite(rows[name])
    if bad.any():
        _raise_first_bad_line(path, body_start, "malformed row")
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
        agent = f"p{codes[k] - 1}" if codes[k] else "e"
        fail(duplicate, f"episode {episode[k]} step {step[k]}: second row for agent {agent}")
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
    return _episode_traces(rows, n, first)


def _episode_traces(rows: np.ndarray, n: int, first: np.ndarray) -> list[EpisodeTrace]:
    """Traces from checked rows in (episode, step, agent) order; `first` holds
    the index of each episode's first step."""
    m = n + 1
    steps = rows.size // m
    action = rows["action"].reshape(steps, m)
    xy = np.stack((rows["x"], rows["y"]), axis=-1).reshape(steps, m, 2)
    actions = np.ascontiguousarray(action[:, 1:])
    evader_action = np.ascontiguousarray(action[:, 0])
    pursuer_xy = np.ascontiguousarray(xy[:, 1:])
    evader_xy = np.ascontiguousarray(xy[:, 0])
    rewards = np.ascontiguousarray(rows["reward"][n::m])  # p{n-1}'s, shared by all
    evader = rows[::m]
    captured = np.logical_or.reduceat(evader["captured"] == b"1", first)
    bounds = np.r_[first, steps].tolist()
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
