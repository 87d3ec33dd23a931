"""Training-loop guards."""

import numpy as np
import pytest

from torus_pursuit import training
from torus_pursuit.config import config_from_dict
from torus_pursuit.curriculum import BehaviorPhase
from torus_pursuit.ddpg import Transition, heading_to_vector
from torus_pursuit.training import make_learners, make_streams, run_episode


def primed():
    """Two learners whose buffers hold a full batch, so the first step updates."""
    cfg = config_from_dict({
        "env": {"n": 2, "episode_length": 40},
        "ddpg": {"batch_size": 4, "buffer_capacity": 64,
                 "actor_hidden": [8], "critic_hidden": [8]},
    })
    streams = make_streams(0, 2)
    learners = make_learners(cfg, streams.init)
    rng = np.random.default_rng(1)
    for learner in learners:
        for _ in range(4):
            learner.buffer.push(Transition(rng.standard_normal(learner.obs_dim),
                                           heading_to_vector(0.5), -0.1,
                                           rng.standard_normal(learner.obs_dim), False))
    return cfg, streams, learners


@pytest.mark.parametrize("net", ["critic", "critic_target"])
def test_non_finite_critic_stops_training(net):
    cfg, streams, learners = primed()
    getattr(learners[1], net).weights[0][0, 0] = np.nan
    want = r"global epoch 7, step 1, agent 1: critic loss nan, mean Q nan"
    with pytest.raises(FloatingPointError, match=want):
        run_episode(cfg, learners, streams, 1.2, BehaviorPhase.SCRIPTED, 7)


def test_nan_actor_stops_scripted_training():
    # the actor update's mean Q must carry the NaN, not fall back to east
    cfg, streams, learners = primed()
    learners[1].actor.weights[0][0, 0] = np.nan
    want = r"global epoch 3, step 1, agent 1: critic loss [0-9.e+-]+, mean Q nan"
    with pytest.raises(FloatingPointError, match=want):
        run_episode(cfg, learners, streams, 1.2, BehaviorPhase.SCRIPTED, 3)


def test_nan_actor_stops_learned_episode_before_stepping(monkeypatch):
    cfg, streams, learners = primed()
    learners[1].actor.weights[0][0, 0] = np.nan
    monkeypatch.setattr(training, "step", lambda *a: pytest.fail("stepped with a NaN heading"))
    with pytest.raises(FloatingPointError, match=r"heading at global epoch 4, step 1, agent 1"):
        run_episode(cfg, learners, streams, 1.2, BehaviorPhase.LEARNED, 4)
