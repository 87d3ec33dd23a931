"""Trajectory logs: the per-step CSV schema and its reader.

Layout: one `# schema=...` comment line, then the header
`episode,step,agent,x,y,heading,action,reward,captured,ratio`, then one row
per agent per step ordered by (episode, step, agent). The evader logs as
agent "e" (which sorts before "p0".."p{n-1}"), reward 0. Rows record the
post-move state of the step, so the final row set of a captured episode
carries the capturing geometry. Floats use 9 significant digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

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
        # f-strings with the shared spec: one str.format template per row took
        # 40% longer on 60 episodes of 100 steps at n=3
        f = _FLOAT_FORMAT
        r = f"{ratio:{f}}"
        names = [f"p{i}" for i in range(poses.shape[1] - 1)]
        last = len(rewards) - 1
        lines = []
        for t, (agents, reward) in enumerate(zip(poses.tolist(), rewards.tolist())):
            head = f"{episode},{first_step + t},"
            tail = f",{'1' if captured and t == last else '0'},{r}\n"
            x, y, h = agents.pop()
            h = f"{h:{f}}"
            lines.append(f"{head}e,{x:{f}},{y:{f}},{h},{h},0{tail}")
            reward = f"{reward:{f}}"
            for name, (px, py, a) in zip(names, agents):
                a = f"{a:{f}}"
                lines.append(f"{head}{name},{px:{f}},{py:{f}},{a},{a},{reward}{tail}")
        self._fh.write("".join(lines))

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TrajectoryWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _parse_row(line: str, lineno: int) -> tuple:
    parts = line.split(",")
    if len(parts) != 10:
        raise TrajectoryParseError(f"line {lineno}: expected 10 fields, got {len(parts)}")
    try:
        episode = int(parts[0])
        step = int(parts[1])
        agent = parts[2]
        x, y, heading, action, reward = (float(v) for v in parts[3:8])
        captured = {"0": False, "1": True}[parts[8]]
        ratio = float(parts[9])
    except (ValueError, KeyError) as exc:
        raise TrajectoryParseError(f"line {lineno}: {exc}") from exc
    if agent != "e" and not (agent.startswith("p") and agent[1:].isdigit()):
        raise TrajectoryParseError(f"line {lineno}: bad agent id {agent!r}")
    for v in (x, y, heading, action, reward, ratio):
        if not math.isfinite(v):
            raise TrajectoryParseError(f"line {lineno}: non-finite value")
    return episode, step, agent, x, y, heading, action, reward, captured, ratio


def read_trajectories(path: str | Path) -> list[EpisodeTrace]:
    """Parse a trajectory CSV into per-episode traces.

    Raises TrajectoryParseError with a line number on malformed rows and
    SchemaVersionError on an unknown schema declaration.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise TrajectoryParseError("line 0: empty file")
    body_start = 0
    if lines[0].startswith("#"):
        declared = lines[0].lstrip("#").strip()
        if declared != f"schema={TRAJECTORY_SCHEMA}":
            raise SchemaVersionError(f"unknown trajectory schema {declared!r}")
        body_start = 1
    if body_start >= len(lines) or lines[body_start] != TRAJECTORY_HEADER:
        raise TrajectoryParseError(f"line {body_start + 1}: missing header {TRAJECTORY_HEADER!r}")

    episodes: dict[int, dict[int, dict[str, tuple]]] = {}
    for offset, line in enumerate(lines[body_start + 1 :]):
        if not line:
            continue
        lineno = body_start + 2 + offset
        episode, step, agent, x, y, heading, action, reward, captured, ratio = _parse_row(
            line, lineno
        )
        episodes.setdefault(episode, {}).setdefault(step, {})[agent] = (
            x, y, heading, action, reward, captured, ratio, lineno,
        )

    traces = []
    for episode in sorted(episodes):
        steps = episodes[episode]
        ordered = sorted(steps)
        first = steps[ordered[0]]
        if "e" not in first:
            raise TrajectoryParseError(
                f"episode {episode} step {ordered[0]}: missing evader row"
            )
        n = len(first) - 1
        t_count = len(ordered)
        actions = np.zeros((t_count, n))
        pursuer_xy = np.zeros((t_count, n, 2))
        evader_xy = np.zeros((t_count, 2))
        evader_action = np.zeros(t_count)
        rewards = np.zeros(t_count)
        captured_flag = False
        ratio_value = first["e"][6]
        for t, step in enumerate(ordered):
            rows = steps[step]
            if "e" not in rows or len(rows) != n + 1:
                raise TrajectoryParseError(
                    f"episode {episode} step {step}: expected evader + {n} pursuer rows"
                )
            ex, ey, eh, ea, _, ecap, _, _ = rows["e"]
            evader_xy[t] = (ex, ey)
            evader_action[t] = ea
            captured_flag = captured_flag or ecap
            for i in range(n):
                key = f"p{i}"
                if key not in rows:
                    raise TrajectoryParseError(
                        f"episode {episode} step {step}: missing row for {key}"
                    )
                px, py, _, pa, pr, _, _, _ = rows[key]
                pursuer_xy[t, i] = (px, py)
                actions[t, i] = pa
                rewards[t] = pr
        traces.append(
            EpisodeTrace(
                episode=episode,
                ratio=ratio_value,
                captured=captured_flag,
                actions=actions,
                pursuer_xy=pursuer_xy,
                evader_xy=evader_xy,
                evader_action=evader_action,
                rewards=rewards,
            )
        )
    return traces


def read_many(paths: Iterable[str | Path]) -> list[EpisodeTrace]:
    traces = []
    for path in paths:
        traces.extend(read_trajectories(path))
    return traces
