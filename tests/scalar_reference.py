"""Scalar reference model of the torus geometry, the environment, the evader
and the scripted strategies: one episode at a time, per-pose dataclasses and
`math` calls. It also keeps the row-by-row trajectory reader, the
one-pair, one-log-at-a-time action histogram, and the scalar heading to
action vector map.

The package computes all of these on arrays with a leading episode axis.
This module keeps the one-episode-at-a-time formulation that the array code
must reproduce bit for bit, together with a sequential `run_eval`, so that
tests can compare the two on any input. Nothing in the package imports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from torus_pursuit import evader as evader_module
from torus_pursuit.environment import (
    CAPTURE_REWARD,
    STEP_PENALTY,
    EnvConfig,
    WorldState,
    make_state,
)
from torus_pursuit.errors import (
    EpisodeDoneError,
    SchemaVersionError,
    SingularityError,
    TrajectoryParseError,
)
from torus_pursuit.evaluation import ratio_label, write_success_table
from torus_pursuit.geometry import normalize_angle
from torus_pursuit.pursuit import BALANCE_TIE_BAND, check_pincer_grid
from torus_pursuit.trajectory import TRAJECTORY_HEADER, EpisodeTrace

# The trajectory header of each schema version.
HEADERS = {
    1: "episode,step,agent,x,y,heading,action,reward,captured,ratio",
    2: TRAJECTORY_HEADER,
}

# A log written by the v1 writer, committed so that reading v1 stays tested:
# `run_eval(config_from_dict(V1_LOG_CONFIG), [V1_LOG_RATIO], V1_LOG_EPISODES,
# out, version=1)` writes the same bytes.
V1_LOG = Path(__file__).parent / "data" / "trajectories_v1_greedy_n3.csv"
V1_LOG_CONFIG = {"env": {"n": 3, "episode_length": 30}, "run": {"seed": 7, "strategy": "greedy"}}
V1_LOG_RATIO = 1.1
V1_LOG_EPISODES = 4


# -- geometry --------------------------------------------------------------


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


def heading_to_vector(theta: float) -> np.ndarray:
    """The unit action vector (cos, sin) of a heading."""
    return np.array([math.cos(theta), math.sin(theta)], dtype=np.float64)


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


def capture_bearings(trace: EpisodeTrace) -> list[float]:
    """Evader-to-pursuer bearings at the last step of one trace, in [0, 2*pi)."""
    t = trace.steps - 1
    e = wrap(float(trace.evader_xy[t, 0]), float(trace.evader_xy[t, 1]))
    angles = []
    for i in range(trace.n_pursuers):
        p = wrap(float(trace.pursuer_xy[t, i, 0]), float(trace.pursuer_xy[t, i, 1]))
        angles.append(displacement(e, p).bearing() % (2.0 * math.pi))
    return angles


# -- environment -----------------------------------------------------------


@dataclass(frozen=True)
class Pose:
    position: Point2
    heading: float


@dataclass(frozen=True)
class ScalarState:
    pursuers: tuple[Pose, ...]
    evader: Pose
    step: int


@dataclass(frozen=True)
class ScalarOutcome:
    reward: float
    captured: bool
    done: bool


def to_scalar(state: WorldState, e: int = 0) -> ScalarState:
    """Episode e of an array state."""
    poses = [
        Pose(Point2(float(x), float(y)), float(h))
        for (x, y), h in zip(state.positions[e], state.headings[e])
    ]
    return ScalarState(tuple(poses[:-1]), poses[-1], state.step)


def to_array(states: Sequence[ScalarState]) -> WorldState:
    """Array state holding the given episodes, which share one step."""
    return make_state(
        [[(p.position.x, p.position.y) for p in s.pursuers] for s in states],
        [(s.evader.position.x, s.evader.position.y) for s in states],
        [[p.heading for p in s.pursuers] for s in states],
        [s.evader.heading for s in states],
        step=states[0].step,
    )


def _random_pose(rng: np.random.Generator) -> Pose:
    x = rng.uniform(0.0, 1.0)
    y = rng.uniform(0.0, 1.0)
    heading = rng.uniform(-math.pi, math.pi)
    return Pose(Point2(x, y), heading)


def reset(config: EnvConfig, rng: np.random.Generator) -> ScalarState:
    separation = config.spawn_separation
    while True:
        pursuers = tuple(_random_pose(rng) for _ in range(config.n))
        evader = _random_pose(rng)
        if all(distance(p.position, evader.position) > separation for p in pursuers):
            return ScalarState(pursuers, evader, 0)


def is_captured(state: ScalarState, config: EnvConfig) -> bool:
    e = state.evader.position
    return any(distance(p.position, e) <= config.capture_radius for p in state.pursuers)


def evade_cost(theta_e: float, r: Sequence[float], bearings: Sequence[float]) -> float:
    """Escape potential at heading theta_e of contacts at distances r and
    bearings `bearings`; lower is better for the evader."""
    if len(r) == 0:
        raise ValueError("at least one contact is required")
    return sum((1.0 / ri) * math.cos(theta_e - bi) for ri, bi in zip(r, bearings))


def contact_heading(
    r: Sequence[float], bearings: Sequence[float], rng: np.random.Generator
) -> float:
    """Minimizer of `evade_cost` over headings for one episode's contacts."""
    a = b = 0.0  # summed left to right, whatever `sum` does on this Python
    for ri, bi in zip(r, bearings):
        a += math.cos(bi) / ri
        b += math.sin(bi) / ri
    if math.hypot(a, b) < evader_module.DEGENERACY_THRESHOLD:
        return normalize_angle(rng.uniform(-math.pi, math.pi))
    return normalize_angle(math.atan2(-b, -a))


def evade_heading(
    evader_position: Point2, pursuer_positions: Sequence[Point2], rng: np.random.Generator
) -> float:
    r, bearings = [], []
    for q in pursuer_positions:
        d = displacement(evader_position, q)
        if d.norm() == 0.0:
            raise SingularityError("pursuer co-located with evader")
        r.append(d.norm())
        bearings.append(d.bearing())
    return contact_heading(r, bearings, rng)


def _advance(position: Point2, heading: float, speed: float) -> Point2:
    return wrap(position.x + speed * math.cos(heading), position.y + speed * math.sin(heading))


def step(
    state: ScalarState, headings: Sequence[float], config: EnvConfig, rng: np.random.Generator
) -> tuple[ScalarState, ScalarOutcome]:
    if state.step >= config.episode_length or is_captured(state, config):
        raise EpisodeDoneError("episode already over")
    theta = evade_heading(state.evader.position, [p.position for p in state.pursuers], rng)
    pursuers = tuple(
        Pose(_advance(p.position, normalize_angle(h), config.pursuer_speed), normalize_angle(h))
        for p, h in zip(state.pursuers, headings)
    )
    evader = Pose(_advance(state.evader.position, theta, config.evader_speed), theta)
    new_state = ScalarState(pursuers, evader, state.step + 1)
    captured = is_captured(new_state, config)
    done = captured or new_state.step >= config.episode_length
    return new_state, ScalarOutcome(CAPTURE_REWARD if captured else STEP_PENALTY, captured, done)


def observe_full(state: ScalarState, i: int) -> np.ndarray:
    me = state.pursuers[i]
    parts = [math.cos(me.heading), math.sin(me.heading)]
    de = displacement(me.position, state.evader.position)
    parts.extend((de.dx, de.dy))
    for j, other in enumerate(state.pursuers):
        if j != i:
            dt = displacement(me.position, other.position)
            parts.extend((dt.dx, dt.dy))
    return np.array(parts)


def observe_partial(state: ScalarState, i: int) -> np.ndarray:
    return observe_full(state, i)[:4]


def greedy_heading(pursuer: Pose, evader_position: Point2) -> float:
    d = displacement(pursuer.position, evader_position)
    if d.dx == 0.0 and d.dy == 0.0:
        raise SingularityError("pursuer co-located with evader")
    return d.bearing()


def pincer_grids(
    state: ScalarState, k: int = 1, balance_tie_band: float = BALANCE_TIE_BAND
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Objective, total distance and the tie-band mask of every joint replica
    selection of one episode, raveled in lexicographic order of the indices."""
    n = len(state.pursuers)
    check_pincer_grid(n, k)
    m = (2 * k + 1) ** 2
    evader = state.evader.position
    ev = np.array([evader.x, evader.y])
    wa, wb, rr = [], [], []
    total_weight = 0.0
    for p in state.pursuers:
        true_r = distance(p.position, evader)
        if true_r == 0.0:
            raise SingularityError("pursuer co-located with evader")
        weight = 1.0 / true_r  # a Python float: inf, not an error, for a subnormal r
        if math.isinf(weight):
            raise SingularityError("pursuer too close to evader: threat weight overflows")
        total_weight += weight
        rel = np.asarray(replicate(p.position, k)) - ev
        img_r = np.hypot(rel[:, 0], rel[:, 1])
        if not img_r.all():
            raise SingularityError("replica co-located with evader")
        # a weight near the float maximum can still overflow its products
        with np.errstate(over="ignore"):
            wa.append(weight * rel[:, 0] / img_r)
            wb.append(weight * rel[:, 1] / img_r)
        if not (np.isfinite(wa[-1]).all() and np.isfinite(wb[-1]).all()):
            raise SingularityError("pursuer too close to evader: threat weight overflows")
        rr.append(img_r)
    grids = []
    for parts in (wa, wb, rr):
        grid = np.zeros((m,) * n)
        for i, part in enumerate(parts):
            shape = [1] * n
            shape[i] = m
            grid += part.reshape(shape)
        grids.append(grid)
    a_tot, b_tot, d_tot = grids
    with np.errstate(over="ignore"):  # a square that overflows is inf, outside the band
        objective = (-np.sqrt(a_tot * a_tot + b_tot * b_tot)).ravel()
    low = objective.max() - balance_tie_band * total_weight
    if not math.isfinite(low):
        raise SingularityError("pursuer too close to evader: threat weight overflows")
    near = objective >= low
    return objective, d_tot.ravel(), near


def pincer_selection(
    state: ScalarState, k: int = 1, balance_tie_band: float = BALANCE_TIE_BAND
) -> tuple[tuple[int, ...], float, float]:
    """(replica indices, objective, total distance) of one episode."""
    objective, dist, near = pincer_grids(state, k, balance_tie_band)
    candidates = np.flatnonzero(near)
    pick = candidates[int(np.argmin(dist[candidates]))]
    m = (2 * k + 1) ** 2
    indices = tuple(int(ix) for ix in np.unravel_index(pick, (m,) * len(state.pursuers)))
    return indices, float(objective[pick]), float(dist[pick])


def sqrt_preimage_max(w: float) -> float:
    """Largest double q with sqrt(q) <= w, for w >= 0, found by stepping from
    w * w one double at a time; sqrt is correctly rounded, hence monotone."""
    q = w * w
    while math.sqrt(q) > w:
        q = math.nextafter(q, -math.inf)
    while q < math.inf and math.sqrt(up := math.nextafter(q, math.inf)) <= w:
        q = up
    return q


def pincer_headings(state: ScalarState, k: int = 1) -> list[float]:
    indices, _, _ = pincer_selection(state, k)
    evader = state.evader.position
    headings = []
    for pose, idx in zip(state.pursuers, indices):
        rx, ry = replicate(pose.position, k)[idx]
        headings.append(normalize_angle(math.atan2(evader.y - ry, evader.x - rx)))
    return headings


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def write_step(
    fh, episode, state: ScalarState, ratio: float, outcome: ScalarOutcome, version: int = 2
) -> None:
    """The post-move rows of one step: the evader, then each pursuer. Version
    1 rows repeat each heading in an `action` column."""
    cap = "1" if outcome.captured else "0"
    e = state.evader
    fh.write(f"{episode},{state.step},e,{_fmt(e.position.x)},{_fmt(e.position.y)},"
             f"{_heading(e.heading, version)},0,{cap},{_fmt(ratio)}\n")
    for i, p in enumerate(state.pursuers):
        fh.write(f"{episode},{state.step},p{i},{_fmt(p.position.x)},{_fmt(p.position.y)},"
                 f"{_heading(p.heading, version)},{_fmt(outcome.reward)},{cap},"
                 f"{_fmt(ratio)}\n")


def _heading(value: float, version: int) -> str:
    return _fmt(value) if version == 2 else f"{_fmt(value)},{_fmt(value)}"


def log_preamble(version: int = 2) -> str:
    """The schema line and the header of a trajectory log of `version`."""
    return f"# schema=pursuit-trajectory-v{version}\n{HEADERS[version]}\n"


def make_policy(strategy, team, policy_rng, pincer_k=1):
    if strategy == "greedy":
        return lambda s: [greedy_heading(p, s.evader.position) for p in s.pursuers]
    if strategy == "pincer":
        return lambda s: pincer_headings(s, pincer_k)
    if strategy == "random":
        return lambda s: list(policy_rng.uniform(-np.pi, np.pi, size=len(s.pursuers)))
    observe = observe_partial if strategy == "cd_ddpg_partial" else observe_full
    return lambda s: team.act(np.array([observe(s, i) for i in range(len(s.pursuers))]))


def run_eval(config, ratios, episodes, out_dir, team=None, strategy=None, write_logs=True,
             version=2):
    """Sequential sweep: every episode rolled to its end before the next spawns;
    the logs are written in trajectory schema `version`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    strategy = strategy if strategy is not None else config.run.strategy
    results, rows = {}, []
    for ridx, ratio in enumerate(ratios):
        env_cfg = replace(config.env, velocity_ratio=ratio)
        children = np.random.SeedSequence((config.run.seed, ridx)).spawn(2)
        env_rng = np.random.default_rng(children[0])
        policy = make_policy(strategy, team, np.random.default_rng(children[1]),
                             config.run.pincer_k)
        fh = (open(out / f"trajectories_ratio_{ratio_label(ratio)}.csv", "w", newline="")
              if write_logs else None)
        if fh is not None:
            fh.write(log_preamble(version))
        captures = 0
        for ep in range(episodes):
            state = reset(env_cfg, env_rng)
            while True:
                state, outcome = step(state, policy(state), env_cfg, env_rng)
                if fh is not None:
                    write_step(fh, ep, state, ratio, outcome, version)
                if outcome.done:
                    captures += int(outcome.captured)
                    break
        if fh is not None:
            fh.close()
        results[ratio] = captures / episodes
        rows.append((ratio, episodes, captures, captures / episodes))
    write_success_table(out / "success.csv", rows)
    return results


def _parse_row(line: str, lineno: int, names: list[str]) -> tuple:
    parts = line.split(",")
    if len(parts) != len(names):
        raise TrajectoryParseError(
            f"line {lineno}: expected {len(names)} fields, got {len(parts)}"
        )
    row = dict(zip(names, parts))
    try:
        episode = int(row["episode"])
        step = int(row["step"])
        agent = row["agent"]
        x, y, heading, reward = (float(row[k]) for k in ("x", "y", "heading", "reward"))
        action = float(row["action"]) if "action" in row else heading
        captured = {"0": False, "1": True}[row["captured"]]
        ratio = float(row["ratio"])
    except (ValueError, KeyError) as exc:
        raise TrajectoryParseError(f"line {lineno}: {exc}") from exc
    if agent != "e" and not (agent.startswith("p") and agent[1:].isdigit()):
        raise TrajectoryParseError(f"line {lineno}: bad agent id {agent!r}")
    for v in (x, y, heading, action, reward, ratio):
        if not math.isfinite(v):
            raise TrajectoryParseError(f"line {lineno}: non-finite value")
    return episode, step, agent, x, y, heading, action, reward, captured, ratio


def read_trajectories(path: str | Path) -> list[EpisodeTrace]:
    """Row-by-row trajectory reader: every row parsed in Python into nested
    dicts keyed by episode, step and agent. Reads schema versions 1 and 2; a
    version 2 row's action is its heading."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise TrajectoryParseError("line 0: empty file")
    body_start = 0
    headers = list(HEADERS.values())
    if lines[0].startswith("#"):
        declared = lines[0].lstrip("#").strip()
        versions = [v for v in HEADERS if declared == f"schema=pursuit-trajectory-v{v}"]
        if not versions:
            raise SchemaVersionError(f"unknown trajectory schema {declared!r}")
        headers = [HEADERS[versions[0]]]
        body_start = 1
    if body_start >= len(lines) or lines[body_start] not in headers:
        raise TrajectoryParseError(f"line {body_start + 1}: missing header {headers[0]!r}")
    names = lines[body_start].split(",")

    episodes: dict[int, dict[int, dict[str, tuple]]] = {}
    for offset, line in enumerate(lines[body_start + 1 :]):
        if not line:
            continue
        lineno = body_start + 2 + offset
        episode, step, agent, x, y, heading, action, reward, captured, ratio = _parse_row(
            line, lineno, names
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


def build_action_histogram(
    action_logs: Sequence[np.ndarray], i: int, j: int, bins: int
) -> np.ndarray:
    """(bins, bins) int64 joint counts of (bin of a_i at t, bin of a_j at
    t+1), binned and added one log at a time with `np.add.at`."""
    if i == j:
        raise ValueError("agent indices must differ")
    counts = np.zeros((bins, bins), dtype=np.int64)
    total = 0
    for log in action_logs:
        arr = np.asarray(log, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"action log must be 2-D (steps, agents), got shape {arr.shape}")
        if arr.shape[0] < 2:
            continue
        a = np.floor((arr[:-1, i] + math.pi) / (2.0 * math.pi / bins)).astype(np.int64)
        b = np.floor((arr[1:, j] + math.pi) / (2.0 * math.pi / bins)).astype(np.int64)
        a = np.clip(a, 0, bins - 1)
        b = np.clip(b, 0, bins - 1)
        np.add.at(counts, (a, b), 1)
        total += arr.shape[0] - 1
    if total == 0:
        raise ValueError("no step pairs: need at least one trajectory of length >= 2")
    return counts
