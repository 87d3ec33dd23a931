"""Acceptance gates: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The training-based gates use reduced desk-scale configs (smaller
networks and batches); the gated quantities do not depend on those sizes.
"""

import itertools
import json
import math
import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from scalar_reference import evade_cost
from torus_pursuit.config import DdpgConfig, config_from_dict
from torus_pursuit.curriculum import VelocitySchedule, velocity_at_epoch
from torus_pursuit.ddpg import TeamLearner
from torus_pursuit.environment import strategy_observation
from torus_pursuit.evader import contact_headings
from torus_pursuit.evaluation import run_eval
from torus_pursuit.geometry import normalize_angle
from torus_pursuit.metrics import (
    high_influence_fraction,
    instantaneous_coordination,
    mutual_information_bits,
)
from torus_pursuit.nn import backward, forward
from torus_pursuit.pursuit import pincer_objective, pincer_selection
from torus_pursuit.trajectory import read_trajectories
from torus_pursuit.training import run_training


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def angular_difference(a, b):
    return abs(normalize_angle(a - b))


def test_criterion_01_evader_unit_tests():
    start = time.time()
    rng = np.random.default_rng(0)
    case1 = [1.0] * 3, [0.0, math.pi / 2, math.pi]
    case2 = [1.0] * 3, [0.0, math.pi / 2, -math.pi / 2]
    h1 = contact_headings(*case1, 3, rng)[0]
    h2 = contact_headings(*case2, 3, rng)[0]
    assert angular_difference(h1, -math.pi / 2) < 1e-9
    assert angular_difference(h2, math.pi) < 1e-9
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(1, f"case1 -> -pi/2, case2 -> +-pi (both within 1e-9, {elapsed:.3f}s)")


def test_criterion_02_evader_closed_form_optimality():
    start = time.time()
    rng = np.random.default_rng(11)
    grid = np.linspace(-math.pi, math.pi, 10_000, endpoint=False)
    worst = -np.inf
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        rs = rng.uniform(0.05, 0.7, size=k)
        bs = rng.uniform(-math.pi, math.pi, size=k)
        heading = contact_headings(rs.tolist(), bs.tolist(), k, rng)[0]
        cost = evade_cost(heading, rs.tolist(), bs.tolist())
        # independent direct-summation oracle over the dense heading grid
        grid_min = float(
            ((1.0 / rs)[:, None] * np.cos(grid[None, :] - bs[:, None])).sum(axis=0).min()
        )
        worst = max(worst, cost - grid_min)
        assert cost <= grid_min + 1e-9
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(2, f"1000 contact sets, max excess over grid minimum {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_03_pincer_inner_minimum_identity():
    start = time.time()
    rng = np.random.default_rng(13)
    grid = np.linspace(-math.pi, math.pi, 32_768, endpoint=False)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        rs = rng.uniform(0.05, 1.4, size=k)
        bs = rng.uniform(-math.pi, math.pi, size=k)
        replicas = [(r * math.cos(b), r * math.sin(b)) for r, b in zip(rs, bs)]
        closed = pincer_objective(replicas, (0.0, 0.0))
        grid_min = float(
            ((1.0 / rs)[:, None] * np.cos(grid[None, :] - bs[:, None])).sum(axis=0).min()
        )
        worst = max(worst, abs(closed - grid_min))
        assert closed == pytest.approx(grid_min, abs=1e-6)
    # enumeration size for n=3, k=1
    enumerated = sum(
        1 for _ in itertools.product(range((2 * 1 + 1) ** 2), repeat=3)
    )
    assert enumerated == 729
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(3, f"max |closed - grid| = {worst:.2e}; 729 joint selections ({elapsed:.1f}s)")


def test_criterion_04_analytic_sweep_matches_reference_shape(tmp_path):
    start = time.time()
    cfg = config_from_dict({"run": {"seed": 2024, "strategy": "greedy"}})
    greedy = run_eval(
        cfg, ratios=[1.1, 1.0, 0.9], episodes=100, out_dir=tmp_path / "acc4_greedy",
        strategy="greedy", write_logs=False,
    )
    pincer = run_eval(
        cfg, ratios=[1.0, 0.7], episodes=100, out_dir=tmp_path / "acc4_pincer",
        strategy="pincer", write_logs=False,
    )
    assert greedy[1.1] >= 0.9
    assert greedy[0.9] <= 0.1
    assert pincer[1.0] >= greedy[1.0]
    assert pincer[0.7] <= 0.1
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(
        4,
        f"greedy {greedy}, pincer {pincer} ({elapsed:.0f}s)",
    )


def _directional_probe(arrays, flat_grad, objective, rng, probes=100, h=1e-5):
    worst = 0.0
    for _ in range(probes):
        direction = [rng.standard_normal(a.shape) for a in arrays]
        norm = math.sqrt(sum(float(np.sum(d**2)) for d in direction))
        direction = [d / norm for d in direction]
        analytic = float(np.dot(flat_grad, np.concatenate([d.ravel() for d in direction])))
        for a, d in zip(arrays, direction):
            a += h * d
        up = objective()
        for a, d in zip(arrays, direction):
            a -= 2 * h * d
        down = objective()
        for a, d in zip(arrays, direction):
            a += h * d
        numeric = (up - down) / (2 * h)
        scale = max(abs(analytic), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic - numeric) / scale)
    return worst


def test_criterion_05_gradient_checks_at_project_shapes():
    start = time.time()
    rng = np.random.default_rng(17)
    n = 3
    _, obs_dim = strategy_observation("cd_ddpg", n)
    team = TeamLearner(1, obs_dim, DdpgConfig(buffer_capacity=1, batch_size=1), rng)
    actor, critic = team.actor, team.critic  # one agent's stacks, as the learner runs them
    batch = rng.standard_normal((1, 4, obs_dim))
    results = {}

    # critic backward at the project shape (obs+2 -> 128^3 -> 1)
    actions = rng.standard_normal((1, 4, 2))
    actions /= np.linalg.norm(actions, axis=-1, keepdims=True)
    x = np.concatenate([batch, actions], axis=-1)

    def critic_loss():
        y, _ = forward(critic, x)
        return float(np.mean(y))

    _, cache = forward(critic, x)
    grads, _ = backward(critic, cache, np.full((1, 4, 1), 0.25))
    flat = grads[0]
    arrays = critic.weights + critic.biases
    results["critic"] = _directional_probe(arrays, flat, critic_loss, rng)

    # actor backward through the unit-normalization head and the full chain
    def chain_objective():
        raw, _ = forward(actor, batch)
        norms = np.linalg.norm(raw, axis=-1, keepdims=True)
        a = raw / norms
        q, _ = forward(critic, np.concatenate([batch, a], axis=-1))
        return float(np.mean(q))

    raw, actor_cache = forward(actor, batch)
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    a = raw / norms
    _, critic_cache = forward(critic, np.concatenate([batch, a], axis=-1))
    _, g_in = backward(critic, critic_cache, np.full((1, 4, 1), 0.25))
    g_a = g_in[..., obs_dim:]
    g_u = (g_a - np.sum(g_a * a, axis=-1, keepdims=True) * a) / norms
    grads, _ = backward(actor, actor_cache, g_u)
    flat = grads[0]
    arrays = actor.weights + actor.biases
    results["actor_chain"] = _directional_probe(arrays, flat, chain_objective, rng)

    for name, worst in results.items():
        assert worst < 1e-4, f"{name} gradient error {worst}"
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(5, f"max relative errors {results} over 100 probes/shape ({elapsed:.1f}s)")


def test_criterion_06_curriculum_schedule_exact():
    start = time.time()
    schedule = VelocitySchedule(1.2, 0.4, 15_000)
    for i in range(0, 2 * 15_000 + 1):
        expected = 0.4 + (1.2 - 0.4) * max((15_000 - i) / 15_000, 0.0)
        assert abs(velocity_at_epoch(schedule, i) - expected) <= 1e-12
    for i, v in ((0, 1.2), (7_500, 0.8), (15_000, 0.4), (22_500, 0.4)):
        assert abs(velocity_at_epoch(schedule, i) - v) <= 1e-12
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(6, f"exact on epochs 0..30000; pinned points 1.2/0.8/0.4/0.4 ({elapsed:.2f}s)")


def test_criterion_07_mi_estimator_oracles():
    start = time.time()
    rng = np.random.default_rng(23)
    # independent uniform synthetic actions: plug-in bias only
    a = rng.integers(0, 16, size=50_000)
    b = rng.integers(0, 16, size=50_000)
    counts = np.zeros((16, 16), dtype=np.int64)
    np.add.at(counts, (a, b), 1)
    mi_indep = mutual_information_bits(counts)
    assert mi_indep < 0.05

    # deterministic copy with uniform marginals over 16 bins
    width = 2 * math.pi / 16
    headings = np.array([-math.pi + ((t % 16) + 0.5) * width for t in range(16 * 100 + 1)])
    log = np.stack([headings, np.roll(headings, 1)], axis=1)
    mi_copy = instantaneous_coordination([log], 0, 1, bins=16)
    assert mi_copy == pytest.approx(4.0, abs=0.01)

    # hand table vs direct summation
    joint = np.array([[40, 10], [10, 40]], dtype=np.int64)
    direct = 0.0
    n = joint.sum()
    for i in range(2):
        for j in range(2):
            p = joint[i, j] / n
            direct += p * math.log2(p / ((joint[i].sum() / n) * (joint[:, j].sum() / n)))
    mi_hand = mutual_information_bits(joint)
    assert mi_hand == pytest.approx(direct, abs=1e-12)
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(
        7,
        f"independent {mi_indep:.4f} bits, copy {mi_copy:.3f} bits, "
        f"hand table exact ({elapsed:.1f}s)",
    )


def smoke_config(arm, seed, epochs=300, out_dir="/tmp/acc_smoke"):
    base = {
        "env": {"n": 2, "episode_length": 200, "evader_speed": 0.05,
                "capture_radius": 0.05},
        "ddpg": {"batch_size": 96, "buffer_capacity": 60_000,
                 "actor_hidden": [48, 48], "critic_hidden": [48, 48, 48]},
        "run": {"seed": seed, "strategy": "cd_ddpg", "checkpoint_every": 100_000,
                "out_dir": out_dir},
    }
    if arm == "no_curriculum":
        base["curriculum"] = {"warmup_epochs": 0, "sessions": [
            {"v0": 0.7, "v_target": 0.7, "v_decay": 1, "epochs": epochs,
             "use_scripted_warmup": False}]}
    else:
        # anneal shallowly: exploration noise perturbs headings ~20-30 degrees,
        # so a noisy chase only closes a speed race at ratios above ~1.1
        base["curriculum"] = {"warmup_epochs": epochs // 3, "sessions": [
            {"v0": 1.2, "v_target": 1.15, "v_decay": epochs, "epochs": epochs,
             "use_scripted_warmup": True}]}
    return config_from_dict(base)


def read_curve(out_dir):
    rows = [
        line.split(",")
        for line in (Path(out_dir) / "training_curve.csv").read_text().splitlines()[2:]
    ]
    return [
        {"phase": r[4], "ret": float(r[5]), "captured": int(r[6]), "steps": int(r[7])}
        for r in rows
    ]


def side_by_side(monkeypatch):
    """Two spawned worker processes with one BLAS thread each, so two runs
    share two cores without oversubscribing them; no byte depends on the
    BLAS thread count."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    return ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn"))


def test_criterion_08_smoke_training_arms(tmp_path, monkeypatch):
    start = time.time()
    with side_by_side(monkeypatch) as pool:
        arms = [pool.submit(run_training, smoke_config(arm, seed=0), out_dir=tmp_path / name)
                for arm, name in (("no_curriculum", "none"), ("cd", "cd"))]
        none_out, cd_out = (arm.result(timeout=1800) for arm in arms)
    # No-Curriculum arm: flat-line at exactly -20.0 per epoch, zero captures
    rows = read_curve(none_out)
    assert len(rows) == 300
    assert all(r["captured"] == 0 for r in rows)
    assert all(abs(r["ret"] + 20.0) < 1e-9 for r in rows)
    assert all(r["steps"] == 200 for r in rows)

    # CD arm: positive mean return during scripted warm-up, captures afterwards
    rows = read_curve(cd_out)
    warm = [r for r in rows if r["phase"] == "scripted"]
    post = [r for r in rows if r["phase"] == "learned"]
    assert warm and post
    warm_mean = sum(r["ret"] for r in warm) / len(warm)
    post_captures = sum(r["captured"] for r in post)
    assert warm_mean > 0.0
    assert post_captures >= 1
    elapsed = time.time() - start
    assert elapsed < 1800.0
    report(
        8,
        f"flat-line -20.0 x300 epochs, 0 captures; warm-up mean return "
        f"{warm_mean:.1f}, {post_captures} post-warm-up captures ({elapsed:.0f}s)",
    )


def test_criterion_09_training_determinism(tmp_path, monkeypatch):
    from torus_pursuit.cli import main

    start = time.time()
    cfg = smoke_config("cd", seed=7, epochs=30)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    with side_by_side(monkeypatch) as pool:
        runs = [pool.submit(main, ["train", "--config", str(cfg_path), "--out", str(tmp_path / d)])
                for d in "ab"]
        assert [run.result(timeout=600) for run in runs] == [0, 0]
    a = (tmp_path / "a" / "training_curve.csv").read_bytes()
    b = (tmp_path / "b" / "training_curve.csv").read_bytes()
    assert a == b
    elapsed = time.time() - start
    report(9, f"two identical cmd_train runs, byte-identical curves ({elapsed:.0f}s)")


def test_criterion_10_estimator_sanity_on_baselines(tmp_path):
    start = time.time()
    cfg = config_from_dict(
        {"env": {"n": 3}, "run": {"seed": 5, "strategy": "random"},
         "metrics": {"heading_bins": 16}}
    )
    ratios = [0.7, 1.0, 1.2]
    run_eval(cfg, ratios=ratios, episodes=16, out_dir=tmp_path, strategy="random")
    worst = 0.0
    for ratio in ratios:
        label = f"{ratio:g}".replace(".", "_")
        traces = read_trajectories(tmp_path / f"trajectories_ratio_{label}.csv")
        logs = [t.actions for t in traces if t.steps >= 2]
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                mi = instantaneous_coordination(logs, i, j, bins=16)
                worst = max(worst, mi)
                assert mi < 0.05, f"random team IC {mi} at ratio {ratio} pair ({i},{j})"

    # high-influence: degenerate copy pins to 0; independent sits mid-band
    width = 2 * math.pi / 16
    headings = np.array([-math.pi + ((t % 16) + 0.5) * width for t in range(16 * 100 + 1)])
    copy_log = np.stack([headings, np.roll(headings, 1)], axis=1)
    assert high_influence_fraction([copy_log], 0, 1, bins=16) == 0.0
    rng = np.random.default_rng(29)
    indep_logs = [rng.uniform(-math.pi, math.pi, size=(1000, 2)) for _ in range(25)]
    frac = high_influence_fraction(indep_logs, 0, 1, bins=16)
    assert 0.2 <= frac <= 0.8
    elapsed = time.time() - start
    report(
        10,
        f"random-team IC max {worst:.4f} bits across ratios; degenerate copy "
        f"fraction 0, independent fraction {frac:.2f} ({elapsed:.0f}s)",
    )
