"""Training-loop guards."""

import numpy as np
import pytest

from scalar_reference import heading_to_vector
from torus_pursuit import training
from torus_pursuit.config import config_from_dict
from torus_pursuit.curriculum import BehaviorPhase
from torus_pursuit.errors import CheckpointIntegrityError
from torus_pursuit.ddpg import make_team
from torus_pursuit.training import make_streams, run_episode


def primed():
    """A team of two whose rings hold a full batch, so the first step updates."""
    cfg = config_from_dict({
        "env": {"n": 2, "episode_length": 40},
        "ddpg": {"batch_size": 4, "buffer_capacity": 64,
                 "actor_hidden": [8], "critic_hidden": [8]},
    })
    streams = make_streams(0, 2)
    team = make_team(cfg, streams.init)
    rng = np.random.default_rng(1)
    for _ in range(4):
        next_obs = rng.standard_normal((2, team.obs_dim))
        next_obs[:, :2] = heading_to_vector(0.5)  # the heading just taken
        team.buffer.push(-0.1, next_obs, False, obs=rng.standard_normal((2, team.obs_dim)))
    return cfg, streams, team


@pytest.mark.parametrize("net", ["critic", "critic_target"])
def test_non_finite_critic_stops_training(net):
    cfg, streams, team = primed()
    getattr(team, net).weights[0][1, 0, 0] = np.nan
    want = r"global epoch 7, step 1, agent 1: critic loss nan, mean Q nan"
    with pytest.raises(FloatingPointError, match=want):
        run_episode(cfg, team, streams, 1.2, BehaviorPhase.SCRIPTED, 7)


def test_nan_actor_stops_scripted_training():
    # the actor update's mean Q must carry the NaN, not fall back to east
    cfg, streams, team = primed()
    team.actor.weights[0][1, 0, 0] = np.nan
    want = r"global epoch 3, step 1, agent 1: critic loss [0-9.e+-]+, mean Q nan"
    with pytest.raises(FloatingPointError, match=want):
        run_episode(cfg, team, streams, 1.2, BehaviorPhase.SCRIPTED, 3)


def test_nan_actor_stops_learned_episode_before_stepping(monkeypatch):
    cfg, streams, team = primed()
    team.actor.weights[0][1, 0, 0] = np.nan
    monkeypatch.setattr(training, "step", lambda *a: pytest.fail("stepped with a NaN heading"))
    with pytest.raises(FloatingPointError, match=r"heading at global epoch 4, step 1, agent 1"):
        run_episode(cfg, team, streams, 1.2, BehaviorPhase.LEARNED, 4)


def test_restore_refuses_malformed_stream_states():
    streams = make_streams(0, 2)
    with pytest.raises(CheckpointIntegrityError, match=r"rng_states: list, want an object"):
        streams.restore([])
    states = {**streams.states(), "env": None}
    with pytest.raises(CheckpointIntegrityError,
                       match=r"rng_states\.env: not a PCG64 state \(TypeError"):
        streams.restore(states)


def test_ring_end_table_is_the_episode_ends_and_head():
    # each episode hands the ring its first observations once, so exactly
    # the slots where episodes ended keep their own next observations
    cfg, streams, team = primed()  # four one-step episodes in slots 0-3
    _, _, steps = run_episode(cfg, team, streams, 1.2, BehaviorPhase.SCRIPTED, 0)
    assert 1 < steps <= team.buffer.capacity - 4  # no slot was written over
    assert team.buffer.end_table()[0].tolist() == [0, 1, 2, 3, 3 + steps]
