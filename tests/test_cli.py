"""End-to-end CLI flows: train, resume, eval, analyze, selfcheck."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from torus_pursuit.checkpoint import load_checkpoint
from torus_pursuit.cli import main
from torus_pursuit.config import config_from_dict, load_config, save_config
from torus_pursuit.ddpg import TeamLearner
from torus_pursuit.evaluation import run_eval
from torus_pursuit.trajectory import read_trajectories
from torus_pursuit.training import run_training


def tiny_config_dict(out_dir, seed=0, epochs=12, strategy="cd_ddpg"):
    return {
        "env": {"n": 2, "episode_length": 40, "evader_speed": 0.05,
                "capture_radius": 0.05, "seed": 0},
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

    def test_cannot_train_analytic_strategy(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, strategy="greedy")
        assert main(["train", "--config", str(cfg_path)]) == 2

    def test_partial_observability_training(self, tmp_path):
        cfg_path, out_dir = write_config(tmp_path, strategy="cd_ddpg_partial", epochs=6)
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = json.loads((out_dir / "checkpoint.json").read_text())
        assert ckpt["agents"][0]["obs_dim"] == 4  # own heading + evader offset only
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
                self.agents = []
                for i in range(team.n):
                    agent = TeamLearner(1, team.obs_dim,
                                        actor_hidden=team.actor.layer_sizes[1:-1],
                                        critic_hidden=team.critic.layer_sizes[1:-1])
                    agent.state[0] = team.state[i]
                    self.agents.append(agent)

            def act(self, obs):
                return [agent.act(obs[i : i + 1])[0] for i, agent in enumerate(self.agents)]

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

    def test_analyze_rejects_malformed_log(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("# schema=pursuit-trajectory-v1\nwrong,header\n")
        with pytest.raises(Exception):
            main(["analyze", "--out", str(tmp_path / "r"), str(bad)])


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
