"""Output checks for the benchmark's CLI invocations.

Each check reads what one invocation wrote, raises CheckError on anything
wrong, and returns the environment steps the invocation ran together with
the files whose bytes make up the workload's output digest. Files the checks
do not know about (a future telemetry file, say) are neither checked nor
digested, since they may hold wall-clock values. The checks import nothing
from the package, so a defect there cannot hide itself: the reward rule and
the log naming are restated here.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path


class CheckError(Exception):
    """An output that a correct program would not have written."""


@dataclass
class CallResult:
    steps: int = 0
    digest_files: list[Path] = field(default_factory=list)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def read_csv(path: Path, schema: str) -> tuple[list[str], list[list[str]]]:
    """Schema line `# schema=<schema>-v<k>`, a header, and rows of equal width."""
    _require(path.is_file(), f"{path.name}: missing")
    lines = path.read_text().splitlines()
    _require(len(lines) >= 2, f"{path.name}: no header")
    _require(re.fullmatch(rf"# schema={re.escape(schema)}-v\d+", lines[0]) is not None,
             f"{path.name}: schema line {lines[0]!r}, want {schema}-v<k>")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    for i, row in enumerate(rows):
        _require(len(row) == len(header),
                 f"{path.name}:{i + 3}: {len(row)} fields, header has {len(header)}")
    return header, rows


def finite(value: str, where: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise CheckError(f"{where}: {value!r} is not a number") from None
    _require(math.isfinite(x), f"{where}: non-finite value {value!r}")
    return x


def _reject_constant(name: str):
    raise CheckError(f"non-finite JSON constant {name}")


def load_finite_json(path: Path):
    """Parse JSON, rejecting NaN and Infinity anywhere in the document."""
    _require(path.is_file(), f"{path.name}: missing")
    try:
        return json.loads(path.read_text(), parse_constant=_reject_constant)
    except ValueError as exc:
        raise CheckError(f"{path.name}: {exc}") from None


def check_checkpoint_files(files: list[Path]) -> None:
    """Every file of a checkpoint parses and holds only finite numbers.

    Arrays may sit in an .npz sidecar next to a JSON manifest, a layout the
    roadmap plans; the check accepts it so that change needs no new benchmark.
    """
    _require(bool(files), "checkpoint missing")
    for f in files:
        if f.suffix == ".json":
            load_finite_json(f)
        elif f.suffix == ".npz":
            import numpy as np

            with np.load(f) as z:
                for key in z.files:
                    if z[key].dtype.kind == "f":
                        _require(bool(np.isfinite(z[key]).all()), f"{f.name}:{key}: non-finite")


def checkpoint_files(out: Path, stem: str) -> list[Path]:
    return sorted(p for p in out.iterdir() if p.name.startswith(stem + ".") and p.is_file())


def digest(root: Path, files: list[Path]) -> str:
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(str(f.relative_to(root)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


# -- train ------------------------------------------------------------------

STEP_PENALTY = -0.1
CAPTURE_REWARD = 50.0


def check_curve_rows(rows: list[list[str]], header: list[str], plan: dict) -> int:
    """Validate training-curve rows against the config's single-session plan."""
    col = {name: header.index(name) for name in
           ("global_epoch", "epoch", "ratio", "phase", "return", "captured", "steps")}
    lo, hi = sorted((plan["v0"], plan["v_target"]))
    total = 0
    for row in rows:
        where = f"training_curve.csv epoch {row[col['global_epoch']]}"
        epoch = int(row[col["epoch"]])
        _require(int(row[col["global_epoch"]]) == epoch, f"{where}: epoch index mismatch")
        ratio = finite(row[col["ratio"]], where)
        _require(lo - 1e-9 <= ratio <= hi + 1e-9, f"{where}: ratio {ratio} outside [{lo}, {hi}]")
        want_phase = "scripted" if epoch < plan["warmup_epochs"] else "learned"
        _require(row[col["phase"]] == want_phase, f"{where}: phase {row[col['phase']]!r}")
        steps = int(row[col["steps"]])
        captured = row[col["captured"]]
        _require(captured in ("0", "1"), f"{where}: captured flag {captured!r}")
        _require(1 <= steps <= plan["episode_length"], f"{where}: {steps} steps")
        _require(captured == "1" or steps == plan["episode_length"],
                 f"{where}: episode ended early without capture")
        want = STEP_PENALTY * (steps - 1) + CAPTURE_REWARD if captured == "1" \
            else STEP_PENALTY * steps
        got = finite(row[col["return"]], where)
        _require(abs(got - want) <= 1e-6 * max(1.0, abs(want)), f"{where}: return {got} != {want}")
        total += steps
    return total


def check_train(out: Path, plan: dict) -> CallResult:
    header, rows = read_csv(out / "training_curve.csv", "pursuit-training-curve")
    _require(len(rows) == plan["epochs"], f"training_curve.csv: {len(rows)} rows, "
             f"want {plan['epochs']}")
    _require([int(r[0]) for r in rows] == list(range(plan["epochs"])),
             "training_curve.csv: epochs out of order")
    steps = check_curve_rows(rows, header, plan)
    final = checkpoint_files(out, "checkpoint")
    check_checkpoint_files(final)
    files = [out / "training_curve.csv", out / "config.json", *final]
    last_snapshot = plan["epochs"] // plan["checkpoint_every"] * plan["checkpoint_every"]
    if last_snapshot:
        snap = checkpoint_files(out, f"checkpoint_epoch{last_snapshot}")
        check_checkpoint_files(snap)
        files += snap
    load_finite_json(out / "config.json")
    return CallResult(steps, files)


def check_resume(out: Path, fixture: Path) -> CallResult:
    """The resumed run ends on the fixture's bytes: the --resume contract."""
    header, rows = read_csv(out / "training_curve.csv", "pursuit-training-curve")
    _, fixture_rows = read_csv(fixture / "training_curve.csv", "pursuit-training-curve")
    _require(bool(rows) and rows == fixture_rows[-len(rows):],
             "training_curve.csv: resumed rows differ from the uninterrupted run")
    final = checkpoint_files(out, "checkpoint")
    want = checkpoint_files(fixture, "checkpoint")
    _require([p.name for p in final] == [p.name for p in want],
             f"final checkpoint files {[p.name for p in final]} != {[p.name for p in want]}")
    for got, ref in zip(final, want):
        _require(got.read_bytes() == ref.read_bytes(),
                 f"{got.name}: resumed checkpoint differs from the uninterrupted run")
    steps = sum(int(r[header.index("steps")]) for r in rows)
    return CallResult(steps, [out / "training_curve.csv", *final])


# -- eval and analyze -------------------------------------------------------


def ratio_label(ratio: float) -> str:
    return f"{ratio:g}".replace(".", "_")


def check_success(path: Path, ratios: list[float], episodes: int) -> dict[float, int]:
    """Success table rows; returns captures per ratio."""
    header, rows = read_csv(path, "pursuit-success")
    _require(header == ["ratio", "episodes", "captures", "success_rate"],
             f"{path.name}: header {header}")
    _require(len(rows) == len(ratios), f"{path.name}: {len(rows)} rows, want {len(ratios)}")
    captures = {}
    for row, ratio in zip(rows, ratios):
        where = f"{path.name} ratio {row[0]}"
        _require(abs(finite(row[0], where) - ratio) < 1e-9, f"{where}: want ratio {ratio}")
        _require(int(row[1]) == episodes, f"{where}: {row[1]} episodes, want {episodes}")
        caps = int(row[2])
        _require(0 <= caps <= episodes, f"{where}: {caps} captures")
        _require(abs(finite(row[3], where) - caps / episodes) < 1e-8, f"{where}: success rate")
        captures[ratio] = caps
    return captures


def check_trajectories(path: Path, n: int, episodes: int, episode_length: int) -> tuple[int, int]:
    """Per-step CSV log; returns (environment steps, captured episodes)."""
    header, rows = read_csv(path, "pursuit-trajectory")
    for name in ("episode", "step", "agent", "x", "y", "captured"):
        _require(name in header, f"{path.name}: no {name!r} column")
    ep_c, st_c, ag_c, x_c, y_c, cap_c = (header.index(k) for k in
                                         ("episode", "step", "agent", "x", "y", "captured"))
    agents = ["e"] + [f"p{i}" for i in range(n)]
    _require(len(rows) % (n + 1) == 0, f"{path.name}: {len(rows)} rows is not a multiple of {n + 1}")
    steps = 0
    captured = 0
    expect_episode, expect_step, last_cap = 0, 1, "0"
    for base in range(0, len(rows), n + 1):
        block = rows[base:base + n + 1]
        where = f"{path.name}:{base + 3}"
        episode, step = int(block[0][ep_c]), int(block[0][st_c])
        if episode != expect_episode:
            _require(episode == expect_episode + 1 and step == 1, f"{where}: episode order")
            _require(last_cap == "1" or expect_step - 1 == episode_length,
                     f"{where}: episode {expect_episode} ended early without capture")
            captured += last_cap == "1"
            expect_episode, expect_step = episode, 1
        _require(step == expect_step, f"{where}: step {step}, want {expect_step}")
        _require(step <= episode_length, f"{where}: step {step} beyond episode length")
        _require(last_cap == "0" or step == 1, f"{where}: steps after capture")
        _require([r[ag_c] for r in block] == agents, f"{where}: agent rows")
        _require(all(int(r[ep_c]) == episode and int(r[st_c]) == step for r in block),
                 f"{where}: rows of one step disagree")
        caps = {r[cap_c] for r in block}
        _require(len(caps) == 1 and caps <= {"0", "1"}, f"{where}: captured flags {caps}")
        last_cap = caps.pop()
        for r in block:
            for c in range(len(header)):
                if c not in (ep_c, st_c, ag_c, cap_c):
                    finite(r[c], where)
            _require(0.0 <= float(r[x_c]) < 1.0 and 0.0 <= float(r[y_c]) < 1.0,
                     f"{where}: position off the torus")
        steps += 1
        expect_step += 1
    _require(expect_episode == episodes - 1, f"{path.name}: {expect_episode + 1} episodes, "
             f"want {episodes}")
    _require(last_cap == "1" or expect_step - 1 == episode_length,
             f"{path.name}: last episode ended early without capture")
    captured += last_cap == "1"
    return steps, captured


def check_eval(out: Path, ratios: list[float], episodes: int, n: int,
               episode_length: int) -> CallResult:
    captures = check_success(out / "success.csv", ratios, episodes)
    steps = 0
    files = [out / "success.csv"]
    for ratio in ratios:
        log = out / f"trajectories_ratio_{ratio_label(ratio)}.csv"
        log_steps, log_caps = check_trajectories(log, n, episodes, episode_length)
        _require(log_caps == captures[ratio],
                 f"{log.name}: {log_caps} captured episodes, success.csv says {captures[ratio]}")
        steps += log_steps
        files.append(log)
    return CallResult(steps, files)


def check_analyze(out: Path, legs: list[dict], heading_bins: int, angle_bins: int) -> CallResult:
    """Reports over every eval leg's logs; legs give n, episodes and ratios.

    Captures are read back from each leg's success.csv, which check_eval has
    already validated against its logs.
    """
    expect = {}  # ratio -> (n, episodes, captures)
    for leg in legs:
        caps = check_success(leg["out"] / "success.csv", leg["ratios"], leg["episodes"])
        for ratio in leg["ratios"]:
            expect[ratio] = (leg["n"], leg["episodes"], caps[ratio])
    ratios = sorted(expect)

    doc = load_finite_json(out / "ic_report.json")
    _require(doc.get("heading_bins") == heading_bins, "ic_report.json: heading_bins")
    per_ratio = doc.get("per_ratio", [])
    _require([e["ratio"] for e in per_ratio] == ratios,
             f"ic_report.json: ratios {[e['ratio'] for e in per_ratio]}, want {ratios}")
    mi_max = math.log2(heading_bins) + 1e-9
    for entry in per_ratio:
        n, episodes, caps = expect[entry["ratio"]]
        where = f"ic_report.json ratio {entry['ratio']}"
        _require(entry["episodes"] == episodes, f"{where}: episodes")
        _require(abs(entry["success_rate"] - caps / episodes) < 1e-12, f"{where}: success rate")
        pairs = {(p["i"], p["j"]) for p in entry["pairs"]}
        _require(pairs == {(i, j) for i in range(n) for j in range(n) if i != j},
                 f"{where}: ordered pairs {sorted(pairs)}")
        for p in entry["pairs"]:
            _require(-1e-9 <= p["mi_bits"] <= mi_max, f"{where}: mi_bits {p['mi_bits']}")
            _require(0.0 <= p["high_influence_fraction"] <= 1.0, f"{where}: high influence")
            _require(p["n_pairs"] > 0, f"{where}: no step pairs")
        mean_mi = sum(p["mi_bits"] for p in entry["pairs"]) / len(entry["pairs"])
        _require(abs(entry["mean_mi_bits"] - mean_mi) < 1e-9, f"{where}: mean_mi_bits")

    _, rows = read_csv(out / "success.csv", "pursuit-success")
    _require(len(rows) == len(ratios), "analysis success.csv: one row per ratio")
    for row, ratio in zip(rows, ratios):
        n, episodes, caps = expect[ratio]
        _require([float(row[0]), int(row[1]), int(row[2])] == [ratio, episodes, caps],
                 f"analysis success.csv ratio {ratio}: {row} disagrees with the eval table")

    captured = [r for r in ratios if expect[r][2] > 0]
    _, angle_rows = read_csv(out / "capture_angles.csv", "pursuit-capture-angles")
    _require(len(angle_rows) == sum(expect[r][0] * angle_bins for r in captured),
             f"capture_angles.csv: {len(angle_rows)} rows")
    totals: dict[tuple[float, str], int] = {}
    for row in angle_rows:
        key = (float(row[0]), row[1])
        totals[key] = totals.get(key, 0) + int(row[4])
        finite(row[3], "capture_angles.csv")
    for (ratio, agent), count in totals.items():
        _require(count == expect[ratio][2], f"capture_angles.csv ratio {ratio} {agent}: "
                 f"{count} captures binned, want {expect[ratio][2]}")
    _, stat_rows = read_csv(out / "capture_angle_stats.csv", "pursuit-capture-angle-stats")
    _require(len(stat_rows) == sum(expect[r][0] for r in captured),
             f"capture_angle_stats.csv: {len(stat_rows)} rows")
    for row in stat_rows:
        ratio = float(row[0])
        _require(int(row[2]) == expect[ratio][2], f"capture_angle_stats.csv ratio {ratio}")
        _require(-1e-12 <= finite(row[4], "capture_angle_stats.csv") <= 1.0 + 1e-12,
                 "capture_angle_stats.csv: circular variance outside [0, 1]")
    names = ("ic_report.json", "success.csv", "capture_angles.csv", "capture_angle_stats.csv")
    return CallResult(0, [out / f for f in names])
