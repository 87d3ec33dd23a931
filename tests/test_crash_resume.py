"""Determinism and crash-resume as properties over tiny training configs.

A run of a config writes the same bytes every time; a resume from any of its
snapshots ends on the uninterrupted run's final checkpoint and curve; and a
run that dies at any checkpoint write resumes, from the newest snapshot that
loads, to the uninterrupted bytes.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torus_pursuit.checkpoint import load_checkpoint
from torus_pursuit.config import TRAINABLE_STRATEGIES, config_from_dict
from torus_pursuit.errors import CheckpointIntegrityError
from torus_pursuit.evaluation import run_eval
from torus_pursuit.training import run_training

RATIOS = (1.2, 1.1, 1.0, 0.9)  # sessions chain down these, one step each
FINAL = ("checkpoint.json", "checkpoint.npz", "training_curve.csv")


def tiny_config(n, strategy, epochs, warmup, capacity, batch, length, every, seed):
    """A plan of sessions of `epochs` whose first runs `warmup` scripted epochs
    (none for None), with small networks."""
    return config_from_dict({
        "env": {"n": n, "episode_length": length, "evader_speed": 0.05, "capture_radius": 0.08},
        "curriculum": {"warmup_epochs": warmup or 0, "sessions": [
            {"v0": RATIOS[i], "v_target": RATIOS[i + 1], "v_decay": e, "epochs": e,
             "use_scripted_warmup": i == 0 and warmup is not None}
            for i, e in enumerate(epochs)]},
        "ddpg": {"buffer_capacity": capacity, "batch_size": batch,
                 "actor_hidden": [3], "critic_hidden": [3, 2]},
        "run": {"seed": seed, "strategy": strategy, "checkpoint_every": every},
    })


@st.composite
def tiny_configs(draw):
    capacity = draw(st.integers(1, 200), label="capacity")
    return tiny_config(
        n=draw(st.integers(1, 4), label="n"),
        strategy=draw(st.sampled_from(TRAINABLE_STRATEGIES), label="strategy"),
        epochs=draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="epochs"),
        warmup=draw(st.none() | st.integers(0, 3), label="warmup"),
        capacity=capacity,
        batch=draw(st.integers(1, capacity), label="batch"),
        length=draw(st.integers(1, 12), label="episode_length"),
        every=draw(st.integers(1, 4), label="checkpoint_every"),
        seed=draw(st.integers(0, 2**16), label="seed"),
    )


def contents(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def plan_length(config) -> int:
    return sum(s.epochs for s in config.curriculum.sessions)


def eval_files(config, checkpoint: Path, out: Path) -> dict[str, bytes]:
    team, *_ = load_checkpoint(checkpoint, config, replay=False)
    run_eval(config, [1.0, 0.9], 3, out, team=team)
    return contents(out)


# a ring of 7 that wraps inside 5-step episodes, updating from the second
# episode on, with a warm-up and a snapshot every epoch across 3 sessions
@example(tiny_config(2, "cd_ddpg", [2, 1, 2], 1, 7, 3, 5, 1, 11))
@example(tiny_config(4, "cd_ddpg_partial", [3, 2], None, 10, 10, 12, 2, 5))
@example(tiny_config(1, "cd_ddpg", [1], 0, 1, 1, 1, 1, 0))
@settings(max_examples=25, deadline=None)
@given(config=tiny_configs())
def test_runs_repeat_and_resume_from_every_snapshot_bit_for_bit(config):
    end, every = plan_length(config), config.run.checkpoint_every
    with tempfile.TemporaryDirectory() as tmp:
        full = run_training(config, Path(tmp, "full"))
        written = contents(full)
        assert contents(run_training(config, Path(tmp, "again"))) == written
        for g in range(every, end + 1, every):
            # into a directory whose curve ran past the snapshot, as after a crash
            out = Path(tmp, f"from{g}")
            out.mkdir()
            (out / "training_curve.csv").write_bytes(written["training_curve.csv"])
            run_training(config, out, resume=full / f"checkpoint_epoch{g}.json")
            resumed = contents(out)
            assert {name: resumed[name] for name in FINAL} == \
                {name: written[name] for name in FINAL}, g
        if end >= every:  # the resumed final checkpoint acts as the uninterrupted one
            assert eval_files(config, out / "checkpoint.json", Path(tmp, "eval_resumed")) == \
                eval_files(config, full / "checkpoint.json", Path(tmp, "eval_full"))


class Crash(Exception):
    """The fault a test injects into a checkpoint write."""


def crash_at_replace(monkeypatch, k: int, after: bool) -> list[int]:
    """Makes the k-th ``Path.replace`` (every checkpoint write ends in one:
    sidecar, then manifest) raise ``Crash``, before or after it moves the
    file; returns the running count of replaces."""
    real, count = Path.replace, [0]

    def replace(self, target):
        count[0] += 1
        if count[0] == k and not after:
            raise Crash(k)
        moved = real(self, target)
        if count[0] == k:
            raise Crash(k)
        return moved

    monkeypatch.setattr(Path, "replace", replace)
    return count


def newest_loadable(config, out: Path):
    """The manifest of the latest global epoch that loads, among the names a
    run writes (never a ``.tmp``), or None."""
    names = ["checkpoint.json", *(f"checkpoint_epoch{g}.json"
                                  for g in range(plan_length(config), 0, -1))]
    for name in names:
        if (out / name).exists():
            try:
                load_checkpoint(out / name, config)
            except CheckpointIntegrityError:
                continue
            return out / name
    return None


# snapshots at 2 and 4 of 6 epochs, and one at 6 that shares checkpoint.npz:
# 7 replaces, each a sidecar or manifest write
@pytest.mark.parametrize("after", [False, True], ids=["before_replace", "after_replace"])
def test_a_crash_at_any_checkpoint_write_resumes_to_the_uninterrupted_bytes(
        tmp_path, monkeypatch, after):
    config = tiny_config(2, "cd_ddpg", [4, 2], 2, 16, 8, 10, 2, 3)
    full = contents(run_training(config, tmp_path / "full"))
    count = crash_at_replace(monkeypatch, 0, after)
    run_training(config, tmp_path / "counted")
    writes = count[0]
    assert writes == 7
    for k in range(1, writes + 1):
        out = tmp_path / f"crash{k}"
        crash_at_replace(monkeypatch, k, after)
        with pytest.raises(Crash):
            run_training(config, out)
        monkeypatch.undo()
        # whatever loads is a whole checkpoint of the uninterrupted run
        for path in out.glob("*.json"):
            try:
                load_checkpoint(path, config)
            except CheckpointIntegrityError:
                continue
            assert path.read_bytes() == full[path.name], (k, path.name)
        # from the plan's end too, which writes the final snapshot again; the
        # resume redoes every write the crash cut short, so no .tmp is left
        run_training(config, out, resume=newest_loadable(config, out))
        assert contents(out) == full, k
