"""End-to-end CLI flows: train, resume, eval, analyze, selfcheck."""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scalar_reference as ref
from torus_pursuit import evaluation as evaluation_module
from torus_pursuit import evader as evader_module
from torus_pursuit import nn as nn_module
from torus_pursuit import selfcheck as selfcheck_module
from torus_pursuit.checkpoint import load_checkpoint
from torus_pursuit.cli import main
from torus_pursuit.config import config_from_dict, load_config, save_config
from torus_pursuit.ddpg import TeamLearner
from torus_pursuit.evaluation import run_eval
from torus_pursuit.trajectory import read_trajectories
from torus_pursuit.training import run_training

DATA = Path(__file__).parent / "data"


def tiny_config_dict(out_dir, seed=0, epochs=12, strategy="cd_ddpg"):
    return {
        "env": {"n": 2, "episode_length": 40, "evader_speed": 0.05,
                "capture_radius": 0.05},
        "curriculum": {
            "warmup_epochs": 4,
            "sessions": [
                {"v0": 1.2, "v_target": 1.0, "v_decay": epochs, "epochs": epochs,
                 "use_scripted_warmup": True}
            ],
        },
        "ddpg": {"batch_size": 16, "buffer_capacity": 2000,
                 "actor_hidden": [8, 8], "critic_hidden": [8, 8]},
        "metrics": {"heading_bins": 8, "angle_bins": 12, "eval_episodes": 3},
        "run": {"seed": seed, "out_dir": str(out_dir), "strategy": strategy,
                "checkpoint_every": 5},
    }


def write_config(tmp_path, name="config.json", **kw):
    out_dir = tmp_path / "run"
    doc = tiny_config_dict(out_dir, **kw)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path, out_dir


def trained_with_partial_config(tmp_path):
    """A cd_ddpg run's output directory, and a config that differs from the
    run's only by playing cd_ddpg_partial, which observes 4 inputs, not 6."""
    cfg_path, out_dir = write_config(tmp_path, epochs=6)
    assert main(["train", "--config", str(cfg_path)]) == 0
    partial, _ = write_config(tmp_path, name="partial.json", epochs=6,
                              strategy="cd_ddpg_partial")
    return out_dir, partial


def other_width(ckpt):
    """The refusal of checkpoint `ckpt`: it names the file, the agent, the
    strategy, its width and both state sizes."""
    return re.compile(f"^error: checkpoint {re.escape(str(ckpt))}: "
                      r"agent 0 state, as run\.strategy 'cd_ddpg_partial' observes "
                      r"4 values: refers to values 0\.\.\d+ of sidecar entry 'agents\.0', "
                      r"which holds \d+$", re.M)


class TestTrainCommand:
    def test_train_writes_outputs(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        curve = (out_dir / "training_curve.csv").read_text().splitlines()
        assert curve[0] == "# schema=pursuit-training-curve-v1"
        assert curve[1].startswith("global_epoch,session,epoch,ratio,phase")
        assert len(curve) == 2 + 12
        assert (out_dir / "checkpoint.json").exists()
        assert (out_dir / "checkpoint_epoch5.json").exists()
        # warm-up phase recorded for the first 4 epochs
        phases = [row.split(",")[4] for row in curve[2:]]
        assert phases[:4] == ["scripted"] * 4
        assert set(phases[4:]) == {"learned"}

    def test_train_determinism_byte_identical(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "training_curve.csv").read_bytes()
        b = (tmp_path / "b" / "training_curve.csv").read_bytes()
        assert a == b

    def test_seed_changes_outputs(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
              "--seed", "123"])
        a = (tmp_path / "a" / "training_curve.csv").read_bytes()
        b = (tmp_path / "b" / "training_curve.csv").read_bytes()
        assert a != b

    def test_resume_matches_uninterrupted(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "full")])
        full = (tmp_path / "full" / "training_curve.csv").read_text().splitlines()

        main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "part")])
        resumed_out = tmp_path / "resumed"
        main(["train", "--config", str(cfg_path), "--out", str(resumed_out),
              "--resume", str(tmp_path / "part" / "checkpoint_epoch5.json")])
        resumed = (resumed_out / "training_curve.csv").read_text().splitlines()
        # rows from the resume point on are identical to the uninterrupted run
        assert resumed[2:] == full[2 + 5:]

    def test_resume_into_same_out_keeps_curve(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        full, part = tmp_path / "full", tmp_path / "part"
        main(["train", "--config", str(cfg_path), "--out", str(full)])
        main(["train", "--config", str(cfg_path), "--out", str(part)])
        assert main(["train", "--config", str(cfg_path), "--out", str(part),
                     "--resume", str(part / "checkpoint_epoch5.json")]) == 0
        for name in ("training_curve.csv", "checkpoint.json", "checkpoint.npz"):
            assert (part / name).read_bytes() == (full / name).read_bytes()

    def test_resume_refuses_foreign_curve(self, tmp_path, capsys):
        cfg_path, out_dir = write_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        foreign = tmp_path / "elsewhere"
        foreign.mkdir()
        (foreign / "training_curve.csv").write_text("a,b\n1,2\n")
        assert main(["train", "--config", str(cfg_path), "--out", str(foreign),
                     "--resume", str(out_dir / "checkpoint_epoch5.json")]) == 2
        assert "cannot resume into it" in capsys.readouterr().err
        assert (foreign / "training_curve.csv").read_text() == "a,b\n1,2\n"

    CURVE_HEAD = (b"# schema=pursuit-training-curve-v1\n"
                  b"global_epoch,session,epoch,ratio,phase,return,captured,steps\n"
                  b"0,0,0,1.2,scripted,-1,0,10\n")

    def resume_into_curve(self, tmp_path, curve):
        fixture = DATA / "checkpoint_v2"
        out = tmp_path / "resumed"
        out.mkdir()
        (out / "training_curve.csv").write_bytes(curve)
        return main(["train", "--config", str(fixture / "tiny_config.json"), "--out", str(out),
                     "--resume", str(fixture / "checkpoint_epoch4.json")]), out

    @pytest.mark.parametrize("row, problem", [
        (b"x0,0,1,1.2,scripted,-1,0,10\n", "does not start with a global_epoch"),
        (b"1,0,1,1.2,scripted,-1\xff,0,10\n", "is not UTF-8"),
    ], ids=["no epoch", "not UTF-8"])
    def test_resume_refuses_malformed_curve(self, row, problem, tmp_path, capsys):
        # both used to end the resume in a traceback
        curve = self.CURVE_HEAD + row + b"2,0,2,1.2,scripted,-1,0,10\n"
        code, out = self.resume_into_curve(tmp_path, curve)
        assert code == 2
        path = out / "training_curve.csv"
        assert capsys.readouterr().err == (f"error: {path}: line 4 {problem}; "
                                           "cannot resume into it\n")
        assert path.read_bytes() == curve

    def test_resume_drops_torn_final_curve_row(self, tmp_path):
        code, out = self.resume_into_curve(tmp_path, self.CURVE_HEAD + b"1,0,1,1.2,scr")
        assert code == 0
        rows = (out / "training_curve.csv").read_bytes().splitlines(keepends=True)
        assert b"".join(rows[:3]) == self.CURVE_HEAD
        assert [row.split(b",", 1)[0] for row in rows[3:]] == [b"4", b"5"]

    def test_resume_with_strategy_of_another_width_refused(self, tmp_path, capsys):
        # it used to load and fail with a traceback at the first learned step
        out_dir, partial = trained_with_partial_config(tmp_path)
        capsys.readouterr()
        ckpt = out_dir / "checkpoint_epoch5.json"
        assert main(["train", "--config", str(partial), "--out", str(tmp_path / "resumed"),
                     "--resume", str(ckpt)]) == 2
        assert other_width(ckpt).search(capsys.readouterr().err)

    def test_cannot_train_analytic_strategy(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, strategy="greedy")
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_partial_observability_training(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path, strategy="cd_ddpg_partial", epochs=6)
        assert main(["train", "--config", str(cfg_path)]) == 0
        team, *_ = load_checkpoint(out_dir / "checkpoint.json", load_config(cfg_path))
        assert team.obs_dim == 4  # own heading + evader offset only
        eval_out = tmp_path / "eval_partial"
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(out_dir / "checkpoint.json"),
                     "--ratios", "1.2", "--episodes", "2",
                     "--out", str(eval_out)]) == 0
        # the full-observation strategy must refuse this checkpoint
        assert main(["eval", "--config", str(cfg_path), "--strategy", "cd_ddpg",
                     "--checkpoint", str(out_dir / "checkpoint.json"),
                     "--ratios", "1.2", "--episodes", "2",
                     "--out", str(tmp_path / "bad")]) == 2

    def test_invalid_config_reports_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"env": {"velocity_ratio": -2}}))
        assert main(["train", "--config", str(path)]) == 2
        assert "env" in capsys.readouterr().err

    def test_negative_seed_override_refused(self, tmp_path, capsys):
        # --seed goes through with_overrides; it used to fail in SeedSequence
        # with a bare ValueError
        assert main(["train", "--config", str(DATA / "final_snapshot_config.json"),
                     "--seed", "-1", "--out", str(tmp_path / "bad-seed")]) == 2
        assert "error: run.seed: must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("lr_actor", "Infinity", "ddpg.lr_actor: must be finite and > 0"),
        ("gamma", "1" + "0" * 400, "ddpg.gamma: integer beyond the float range"),
    ], ids=["lr_actor Infinity", "gamma 1e400 as an integer"])
    def test_value_refused_at_load_exits_cleanly(self, tmp_path, capsys, key, value, message):
        # an infinite learning rate would load and fail at the first update
        text = (DATA / "final_snapshot_config.json").read_text()
        path = tmp_path / "bad.json"
        path.write_text(text.replace('"ddpg": {', f'"ddpg": {{"{key}": {value}, ', 1))
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_resume_digest_mismatch(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        other = json.loads(cfg_path.read_text())
        other["ddpg"]["batch_size"] = 32  # digest-covered change
        with pytest.raises(Exception):
            run_training(
                config_from_dict(other),
                out_dir=tmp_path / "x",
                resume=out_dir / "checkpoint.json",
            )

    def test_refused_resume_creates_no_output_directory(self, tmp_path, capsys):
        cfg_path, out_dir = write_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        other = json.loads(cfg_path.read_text())
        other["ddpg"]["batch_size"] = 32  # digest-covered change
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        assert main(["train", "--config", str(other_path), "--out", str(tmp_path / "refused"),
                     "--resume", str(out_dir / "checkpoint.json")]) == 2
        assert "different config" in capsys.readouterr().err
        assert not (tmp_path / "refused").exists()

    def test_digest_ignores_operational_run_section(self, tmp_path):
        base = config_from_dict(tiny_config_dict(tmp_path / "a"))
        other = config_from_dict(tiny_config_dict(tmp_path / "b", seed=99))
        assert base.digest() == other.digest()


class TestCheckpointErrors:
    """A bad checkpoint ends the command with exit code 2 and an error line."""

    @pytest.fixture
    def trained(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path)]) == 0
        return cfg_path, out_dir / "checkpoint.json"

    @staticmethod
    def command(name, cfg_path, ckpt, tmp_path):
        if name == "train":
            return ["train", "--config", str(cfg_path), "--out", str(tmp_path / "again"),
                    "--resume", str(ckpt)]
        return ["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                "--ratios", "1.1", "--episodes", "2", "--out", str(tmp_path / "eval")]

    @pytest.mark.parametrize("name", ["train", "eval"])
    def test_missing_sidecar(self, name, trained, tmp_path, capsys):
        cfg_path, ckpt = trained
        ckpt.with_suffix(".npz").unlink()
        assert main(self.command(name, cfg_path, ckpt, tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "checkpoint.npz is missing" in err

    @pytest.mark.parametrize("name", ["train", "eval"])
    def test_digest_mismatch(self, name, trained, tmp_path, capsys):
        cfg_path, ckpt = trained
        other = json.loads(cfg_path.read_text())
        other["ddpg"]["batch_size"] = 32  # digest-covered change
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        assert main(self.command(name, other_path, ckpt, tmp_path)) == 2
        assert "different config" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["train", "eval"])
    def test_state_that_cannot_train_refused(self, name, tmp_path, capsys):
        # the committed schema 4 snapshot whose agent 1 actor second moments
        # point at its weights, partly negative: a resume used to fail at the
        # first learned step with a FloatingPointError traceback
        fixture = DATA / "checkpoint_v4"
        for file in ("checkpoint_epoch4.json", "checkpoint_epoch4.npz"):
            shutil.copy(fixture / file, tmp_path / file)
        ckpt = tmp_path / "checkpoint_epoch4.json"
        doc = json.loads(ckpt.read_text())
        doc["agents"][1]["adam_actor"]["v_weights"][1]["offset"] = 0
        ckpt.write_text(json.dumps(doc))
        config = DATA / "checkpoint_v2" / "tiny_config.json"
        assert main(self.command(name, config, ckpt, tmp_path)) == 2
        assert re.fullmatch(f"error: checkpoint {re.escape(str(ckpt))}: "
                            r"agent 1 adam_actor\.v: value \d+ is -[0-9.e-]+, "
                            r"want a finite number >= 0\n", capsys.readouterr().err)
        assert not (tmp_path / "again").exists() and not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("stream, edit, message", [
        ("explore", lambda states: states.pop(), r"explore: 1 stream states, want 2"),
        ("sample", lambda states: states.pop(), r"sample: 1 stream states, want 2"),
        ("explore", lambda states: states[1]["state"].pop("inc"),
         r"explore\[1\]: not a PCG64 state \(KeyError: 'inc'\)"),
    ], ids=["explore count", "sample count", "explore state"])
    def test_resume_refuses_stream_states_unlike_team(self, stream, edit, message, tmp_path,
                                                      capsys):
        # the committed schema 2 snapshot of a two-agent run, edited
        fixture = DATA / "checkpoint_v2"
        for name in ("checkpoint_epoch4.json", "checkpoint_epoch4.npz"):
            shutil.copy(fixture / name, tmp_path / name)
        ckpt = tmp_path / "checkpoint_epoch4.json"
        doc = json.loads(ckpt.read_text())
        edit(doc["rng_states"][stream])
        ckpt.write_text(json.dumps(doc))
        assert main(["train", "--config", str(fixture / "tiny_config.json"),
                     "--out", str(tmp_path / "resumed"), "--resume", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint {ckpt}: rng_states.") and re.search(message, err)


class TestEvalCommand:
    def test_eval_analytic_strategy(self, tmp_path, capsys):
        cfg_path, out_dir = write_config(tmp_path, strategy="greedy")
        code = main(["eval", "--config", str(cfg_path), "--ratios", "1.2,0.8",
                     "--episodes", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ratio 1.2" in out and "ratio 0.8" in out
        success = (out_dir / "success.csv").read_text().splitlines()
        assert success[0] == "# schema=pursuit-success-v1"
        assert success[1] == "ratio,episodes,captures,success_rate"
        assert len(success) == 4
        logs = sorted(out_dir.glob("trajectories_ratio_*.csv"))
        assert len(logs) == 2
        traces = read_trajectories(logs[0])
        assert len(traces) == 4

    def test_eval_learned_needs_checkpoint(self, tmp_path):
        cfg_path, _ = write_config(tmp_path)
        assert main(["eval", "--config", str(cfg_path), "--ratios", "1.0"]) == 2

    def test_eval_with_strategy_of_another_width_refused(self, tmp_path, capsys):
        out_dir, partial = trained_with_partial_config(tmp_path)
        capsys.readouterr()
        ckpt = out_dir / "checkpoint.json"
        assert main(["eval", "--config", str(partial), "--checkpoint", str(ckpt),
                     "--ratios", "1.1", "--episodes", "2", "--out", str(tmp_path / "eval")]) == 2
        assert other_width(ckpt).search(capsys.readouterr().err)
        assert not (tmp_path / "eval").exists()

    def test_eval_ratio_beyond_spawn_separation_rejected(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, strategy="greedy")
        assert main(["eval", "--config", str(cfg_path), "--ratios", "1.0,9.0",
                     "--out", str(tmp_path / "eval")]) == 2
        assert "--ratios" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_eval_ratio_beyond_spawn_draw_bound_rejected(self, tmp_path, capsys):
        doc = tiny_config_dict(tmp_path / "run", strategy="greedy")
        doc["env"].update(n=8, capture_radius=0.3)
        cfg_path = tmp_path / "n8.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["eval", "--config", str(cfg_path), "--ratios", "1.0,2.5",
                     "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "--ratios" in err and "expected draws" in err
        assert not (tmp_path / "eval").exists()

    def test_eval_pincer_grid_too_large_rejected(self, tmp_path, capsys):
        doc = tiny_config_dict(tmp_path / "run", strategy="greedy")
        doc["env"]["n"] = 8
        cfg_path = tmp_path / "n8.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["eval", "--config", str(cfg_path), "--strategy", "pincer",
                     "--ratios", "0.9", "--episodes", "1",
                     "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "run.pincer_k" in err and "n=8" in err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_eval_episode_count_below_one_rejected(self, tmp_path, capsys, episodes):
        cfg_path, _ = write_config(tmp_path, strategy="greedy")
        assert main(["eval", "--config", str(cfg_path), "--ratios", "1.0",
                     "--episodes", episodes, "--out", str(tmp_path / "eval")]) == 2
        assert f"--episodes: must be >= 1, got {episodes}" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_run_eval_episode_count_below_one_rejected(self, tmp_path):
        config = config_from_dict({"run": {"strategy": "greedy"}})
        for episodes in (0, -1):
            with pytest.raises(ValueError, match="episodes must be >= 1"):
                run_eval(config, [1.0], episodes, tmp_path / "eval")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("ratios, named", [
        ("1,1.0", "ratios 1.0 and 1.0"),
        ("1.0000001,1.0000002", "ratios 1.0000001 and 1.0000002"),
        ("0.9,1.1,0.9", "ratios 0.9 and 0.9"),
    ])
    def test_eval_ratios_sharing_a_log_rejected(self, tmp_path, capsys, ratios, named):
        cfg_path, _ = write_config(tmp_path, strategy="greedy")
        assert main(["eval", "--config", str(cfg_path), "--ratios", ratios,
                     "--episodes", "1", "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert "--ratios" in err and named in err
        assert not (tmp_path / "eval").exists()

    def test_run_eval_ratios_sharing_a_log_rejected(self, tmp_path):
        config = config_from_dict({"run": {"strategy": "greedy"}})
        with pytest.raises(ValueError, match=r"1\.0000001 and 1\.0000002 .*ratio_1\.csv"):
            run_eval(config, [1.0000001, 1.0000002], 1, tmp_path / "eval")
        assert not (tmp_path / "eval").exists()

    def test_eval_checkpoint_round_trip(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        eval_out = tmp_path / "eval"
        code = main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(out_dir / "checkpoint.json"),
                     "--ratios", "1.1", "--episodes", "3",
                     "--out", str(eval_out)])
        assert code == 0
        assert (eval_out / "success.csv").exists()

    def test_eval_reads_no_ring_entry(self, tmp_path, monkeypatch, capsys):
        # eval acts with the networks only: it leaves the rings empty and
        # unread, and writes what a team with full rings writes
        cfg_path, out_dir = write_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        ckpt = out_dir / "checkpoint.json"
        read, teams = [], []
        getitem, run = np.lib.npyio.NpzFile.__getitem__, evaluation_module.run_eval
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            lambda z, key: read.append(key) or getitem(z, key))
        monkeypatch.setattr(evaluation_module, "run_eval",
                            lambda *a, team, **kw: teams.append(team) or run(*a, team=team, **kw))
        lean = tmp_path / "lean"
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--ratios", "1.1,0.9", "--episodes", "3", "--out", str(lean)]) == 0
        assert len(teams[0].buffer) == 0
        assert read and not [key for key in read if ".buffer." in key]
        read.clear()
        config = load_config(cfg_path)
        team, *_ = load_checkpoint(ckpt, config)
        assert len(team.buffer) > 0 and [key for key in read if ".buffer." in key]
        full = tmp_path / "full"
        run(config, [1.1, 0.9], 3, full, team=team)
        names = sorted(p.name for p in lean.iterdir())
        assert names == sorted(p.name for p in full.iterdir())
        for name in names:
            assert (lean / name).read_bytes() == (full / name).read_bytes(), name
        # the sidecar is still checked whole
        sidecar = ckpt.with_suffix(".npz")
        data = bytearray(sidecar.read_bytes())
        data[len(data) // 2] ^= 0xFF
        sidecar.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                     "--ratios", "1.1", "--episodes", "1", "--out", str(tmp_path / "bad")]) == 2
        assert "SHA-256" in capsys.readouterr().err

    def test_eval_stacked_team_writes_what_lone_agents_write(self, tmp_path):
        # one stacked act per step gives the files n separate agents would
        cfg_path, out_dir = write_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        stacked = tmp_path / "stacked"
        assert main(["eval", "--config", str(cfg_path),
                     "--checkpoint", str(out_dir / "checkpoint.json"),
                     "--ratios", "1.1,0.9", "--episodes", "4", "--out", str(stacked)]) == 0
        config = load_config(cfg_path)
        team, *_ = load_checkpoint(out_dir / "checkpoint.json", config)

        class LoneAgents:
            def __init__(self):
                self.n, self.agents = team.n, []
                for i in range(team.n):
                    agent = TeamLearner(1, team.obs_dim, team.ddpg)
                    agent.state[0] = team.state[i]
                    self.agents.append(agent)

            def act(self, obs):
                return np.concatenate([agent.act(obs[:, i : i + 1])
                                       for i, agent in enumerate(self.agents)], axis=1)

        lone = tmp_path / "lone"
        run_eval(config, [1.1, 0.9], 4, lone, team=LoneAgents())
        names = sorted(p.name for p in stacked.iterdir())
        assert names == sorted(p.name for p in lone.iterdir())
        for name in names:
            assert (stacked / name).read_bytes() == (lone / name).read_bytes(), name

    def test_eval_random_team(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path, strategy="random")
        assert main(["eval", "--config", str(cfg_path), "--ratios", "0.9",
                     "--episodes", "3"]) == 0
        traces = read_trajectories(out_dir / "trajectories_ratio_0_9.csv")
        assert traces[0].ratio == pytest.approx(0.9)


class TestAnalyzeCommand:
    def test_analyze_produces_reports(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path, strategy="greedy")
        main(["eval", "--config", str(cfg_path), "--ratios", "1.2,0.9",
              "--episodes", "5"])
        logs = sorted(out_dir.glob("trajectories_ratio_*.csv"))
        analyze_out = tmp_path / "reports"
        code = main(["analyze", "--config", str(cfg_path),
                     "--out", str(analyze_out), *map(str, logs)])
        assert code == 0
        doc = json.loads((analyze_out / "ic_report.json").read_text())
        assert doc["schema_version"] == 1
        ratios = {entry["ratio"] for entry in doc["per_ratio"]}
        assert ratios == {1.2, 0.9}
        for entry in doc["per_ratio"]:
            for pair in entry["pairs"]:
                assert 0.0 <= pair["mi_bits"] <= math.log2(8) + 1e-9
                assert 0.0 <= pair["high_influence_fraction"] <= 1.0
        assert (analyze_out / "success.csv").exists()
        assert (analyze_out / "capture_angles.csv").exists()
        assert (analyze_out / "capture_angle_stats.csv").exists()

    def test_analyze_rejects_malformed_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("# schema=pursuit-trajectory-v1\nwrong,header\n")
        assert main(["analyze", "--out", str(tmp_path / "r"), str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: line 2: missing header")

    def test_analyze_names_the_bad_log_and_line(self, tmp_path, capsys):
        cfg_path, out_dir = write_config(tmp_path, strategy="greedy")
        assert main(["eval", "--config", str(cfg_path), "--ratios", "1.2,0.9",
                     "--episodes", "2"]) == 0
        good, bad = sorted(out_dir.glob("trajectories_ratio_*.csv"))
        lines = bad.read_text().splitlines()
        fields = lines[6].split(",")
        fields[7] = "2"  # the captured flag
        lines[6] = ",".join(fields)
        bad.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["analyze", "--config", str(cfg_path), "--out", str(tmp_path / "r"),
                     str(good), str(bad)])
        assert code == 2
        want = f"error: {bad}: line 7: captured must be 0 or 1, got '2'\n"
        assert capsys.readouterr().err == want

    def test_v1_log_analyzes_like_its_v2_rerun(self, tmp_path):
        cfg = config_from_dict(ref.V1_LOG_CONFIG)
        run_eval(cfg, [ref.V1_LOG_RATIO], ref.V1_LOG_EPISODES, tmp_path / "eval")
        v2 = tmp_path / "eval" / "trajectories_ratio_1_1.csv"
        # the v2 log drops the action column, a tenth of each row or more
        assert v2.stat().st_size < 0.9 * ref.V1_LOG.stat().st_size
        for name, log in (("v1", ref.V1_LOG), ("v2", v2)):
            assert main(["analyze", "--out", str(tmp_path / name), str(log)]) == 0
        for report in ("ic_report.json", "success.csv", "capture_angles.csv",
                       "capture_angle_stats.csv"):
            assert (tmp_path / "v1" / report).read_bytes() == (
                tmp_path / "v2" / report
            ).read_bytes(), report

    def test_analyze_rejects_mixed_pursuer_counts(self, tmp_path, capsys):
        logs = []
        for n in (2, 3):
            cfg = config_from_dict({"env": {"n": n, "episode_length": 20},
                                    "run": {"seed": 1, "strategy": "greedy"}})
            run_eval(cfg, ratios=[0.9], episodes=2, out_dir=tmp_path / f"n{n}")
            logs.append(str(tmp_path / f"n{n}" / "trajectories_ratio_0_9.csv"))
        code = main(["analyze", "--out", str(tmp_path / "r"), *logs])
        assert code == 2
        assert "error: ratio 0.9: episodes have different pursuer counts [2, 3]" in (
            capsys.readouterr().err
        )


class TestSelfcheckCommands:
    def test_selfcheck_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "PASS evader-unit-cases" in out
        assert "PASS gradient-check-negative-control" in out
        assert "FAIL" not in out

    def test_evader_check_reports_cases(self, capsys):
        assert main(["evader-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 2

    def test_broken_evader_fails_both_commands(self, monkeypatch, capsys):
        # negative control: flip the sign of B (mirror every bearing) in the
        # function that `evade_heading`, and so stepping, calls
        original = evader_module.contact_headings

        def mirrored(r, theta, n, rng):
            return original(r, [-t for t in theta], n, rng)

        monkeypatch.setattr(evader_module, "contact_headings", mirrored)
        assert main(["evader-check"]) == 1
        assert "FAIL bearings {0, pi/2, pi}" in capsys.readouterr().out
        assert main(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL evader-unit-cases" in out
        assert "selfcheck: FAILURES PRESENT" in out
        # the optimality check calls the same function by its own import
        monkeypatch.setattr(selfcheck_module, "contact_headings", mirrored)
        assert main(["selfcheck"]) == 1
        assert "FAIL evader-closed-form-optimality" in capsys.readouterr().out


    def test_broken_stacked_bias_gradient_fails_selfcheck(self, monkeypatch, capsys):
        # negative control: flip the sign of the batched bias-gradient
        # reduction in `backward`, the sum over a batch's rows that every
        # learner update runs
        flipped = []

        class FlippedAdd:
            @staticmethod
            def reduce(a, axis, out=None):
                out = np.add.reduce(a, axis=axis, out=out)
                if axis == -2:
                    flipped.append(out.shape)
                    np.negative(out, out=out)
                return out

        class FlippedNumpy:
            add = FlippedAdd

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(nn_module, "np", FlippedNumpy())
        assert main(["selfcheck"]) == 1
        out = capsys.readouterr().out
        assert "FAIL network-gradients" in out
        assert "PASS gradient-check-negative-control" in out
        assert "selfcheck: FAILURES PRESENT" in out
        assert flipped  # the stacked reduction ran


class TestConfigPersistence:
    def test_train_saves_effective_config(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path)
        main(["train", "--config", str(cfg_path)])
        saved = json.loads((out_dir / "config.json").read_text())
        assert saved["run"]["seed"] == 0
        assert saved["ddpg"]["batch_size"] == 16

    def test_save_config_round_trip(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict(tmp_path / "x"))
        save_config(cfg, tmp_path / "cfg.json")
        reparsed = config_from_dict(json.loads((tmp_path / "cfg.json").read_text()))
        assert reparsed == cfg


def test_cli_import_loads_no_subcommand_module(tmp_path):
    # a fresh interpreter: pytest's own sys.modules already holds them all
    code = f"""
import sys
import torus_pursuit, torus_pursuit.cli
heavy = ["nn", "ddpg", "checkpoint", "training", "analysis", "selfcheck", "evaluation"]
print([m for m in heavy if "torus_pursuit." + m in sys.modules])
torus_pursuit.cli.main(["eval", "--strategy", "greedy", "--episodes", "1", "--ratios", "1.2",
                        "--out", {str(tmp_path)!r}])
print([m for m in heavy[:5] if "torus_pursuit." + m in sys.modules])
print([name for name in torus_pursuit.__all__ if getattr(torus_pursuit, name, None) is None])
"""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)}).stdout
    # nothing heavy on import, no learner for a scripted eval, every name resolves
    assert [line for line in out.splitlines() if line.startswith("[")] == ["[]"] * 3
