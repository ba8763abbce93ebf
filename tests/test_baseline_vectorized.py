"""Tests for vectorized baseline training (repro.baselines.base).

The contract under test:

* ``train_marl_vectorized`` with ``num_envs == 1`` reproduces the scalar
  ``train_marl`` loop **bit-for-bit** for every baseline — same metric
  names, steps and values (the batched act/observe implementations consume
  the algorithm RNG exactly like their scalar counterparts at one env),
* ``num_envs > 1`` trains correctly (full episode budget, finite metrics,
  in-order logging) through the same interface,
* ``VectorBaselineEnv`` exposes the exact scalar baseline stack — flat
  observation layout and discrete action grid — over a ``VectorEnv``,
* the batched buffer/seed plumbing (``push_batch``,
  ``episode_reset_seeds``) is equivalent to its sequential counterparts.
"""

import numpy as np
import pytest

from repro.baselines import (
    evaluate_marl_vectorized,
    make_baseline,
    train_marl,
    train_marl_vectorized,
)
from repro.baselines.base import _learn_marl
from repro.config import ScenarioConfig
from repro.envs import (
    DiscreteActionWrapper,
    make_baseline_env,
    make_baseline_vector_env,
)
from repro.envs.wrappers import VectorBaselineEnv
from repro.training.replay import JointReplayBuffer, ReplayBuffer
from repro.utils.logging_utils import MetricLogger, eval_metrics
from repro.utils.seeding import episode_reset_seeds

ALL = ["idqn", "maddpg", "coma", "maac"]


def small_scenario():
    return ScenarioConfig(episode_length=6)


def make_pair(name, num_envs, seed=3):
    """A (scalar env, vector env, fresh algorithm per env) triple."""
    kwargs = {"batch_size": 16} if name != "coma" else {}
    scenario = small_scenario()
    env = make_baseline_env(scenario=scenario)
    vec = make_baseline_vector_env(num_envs, scenario=scenario)
    return env, vec, (
        make_baseline(name, env, seed=seed, **kwargs),
        make_baseline(name, vec, seed=seed, **kwargs),
    )


class TestSeedEquivalence:
    """num_envs=1 vectorized training == scalar training, bit for bit."""

    @pytest.mark.parametrize(
        "name, updates_per_episode",
        [pytest.param(name, 1, id=name) for name in ALL]
        + [pytest.param("idqn", 0, id="idqn-no-updates")],
    )
    def test_metrics_identical_to_scalar_loop(self, name, updates_per_episode):
        env, vec, (algo_scalar, algo_vec) = make_pair(name, num_envs=1)
        log_scalar = train_marl(
            env, algo_scalar, episodes=5, seed=7,
            updates_per_episode=updates_per_episode,
        )
        log_vec = train_marl_vectorized(
            vec, algo_vec, episodes=5, seed=7,
            updates_per_episode=updates_per_episode,
        )
        assert log_scalar.names() == log_vec.names()
        for metric in log_scalar.names():
            np.testing.assert_array_equal(
                log_scalar.steps(metric), log_vec.steps(metric), err_msg=metric
            )
            np.testing.assert_array_equal(
                log_scalar.values(metric), log_vec.values(metric), err_msg=metric
            )

    def test_epsilon_final_value_matches_scalar(self):
        env, vec, (algo_scalar, algo_vec) = make_pair("idqn", num_envs=1)
        train_marl(env, algo_scalar, episodes=4, seed=7)
        train_marl_vectorized(vec, algo_vec, episodes=4, seed=7)
        assert algo_vec.epsilon == algo_scalar.epsilon

    @pytest.mark.parametrize("name", ALL)
    def test_act_batch_matches_act_at_one_env(self, name):
        """One batched act == one scalar act from the same RNG state."""
        env, vec, (algo_scalar, algo_vec) = make_pair(name, num_envs=1)
        if hasattr(algo_scalar, "epsilon"):
            algo_scalar.epsilon = algo_vec.epsilon = 0.5
        obs = env.reset(seed=0)
        stacked = np.stack([obs[a] for a in env.agents])[None]
        for _ in range(10):  # several draws so both RNG branches are hit
            scalar_actions = algo_scalar.act(obs, explore=True)
            batch_actions = algo_vec.act_batch(stacked, explore=True)
            assert batch_actions.shape == (1, len(env.agents))
            for k, agent in enumerate(env.agents):
                assert batch_actions[0, k] == scalar_actions[agent]


class TestVectorizedTraining:
    @pytest.mark.parametrize("name", ALL)
    def test_multi_env_training_records_full_budget(self, name):
        _, vec, (_, algo) = make_pair(name, num_envs=3)
        logger = train_marl_vectorized(vec, algo, episodes=8, seed=1)
        for metric in ("episode_reward", "collision_rate", "mean_speed"):
            values = logger.values(f"{name}/{metric}")
            assert len(values) == 8
            assert np.all(np.isfinite(values))
        # Episodes are flushed in index order regardless of completion order.
        np.testing.assert_array_equal(
            logger.steps(f"{name}/episode_reward"), np.arange(8)
        )
        assert len(logger.values(f"{name}/eval_episode_reward")) >= 1

    def test_more_envs_than_episodes(self):
        _, vec, (_, algo) = make_pair("idqn", num_envs=4)
        logger = train_marl_vectorized(vec, algo, episodes=2, seed=1)
        assert len(logger.values("idqn/episode_reward")) == 2

    def test_fallback_config_warns_but_trains(self):
        scenario = ScenarioConfig(episode_length=6)
        vec = make_baseline_vector_env(2, scenario=scenario)
        # Forcing the fallback after construction exercises the guard path.
        vec.vec_env._fast = False
        vec.vec_env._fallback_reason = "forced by test"
        algo = make_baseline("idqn", vec, seed=0, batch_size=16)
        with pytest.warns(RuntimeWarning, match="forced by test"):
            logger = train_marl_vectorized(
                vec, algo, episodes=2, seed=0, eval_every=0
            )
        assert len(logger.values("idqn/episode_reward")) == 2


class TestVectorBaselineEnv:
    def test_observation_layout_matches_scalar_stack(self):
        scenario = small_scenario()
        env = make_baseline_env(scenario=scenario)
        vec = make_baseline_vector_env(2, scenario=scenario)
        assert vec.obs_dim == env.env.obs_dim
        assert vec.num_actions == env.num_actions
        scalar_obs = env.reset(seed=5)
        vec_obs = vec.reset([5, 6])
        assert vec_obs.shape == (2, len(env.agents), vec.obs_dim)
        for k, agent in enumerate(env.agents):
            np.testing.assert_array_equal(vec_obs[0, k], scalar_obs[agent])

    def test_step_matches_scalar_stack(self):
        scenario = small_scenario()
        env = make_baseline_env(scenario=scenario)
        vec = make_baseline_vector_env(2, scenario=scenario)
        env.reset(seed=5)
        vec.reset([5, 6])
        rng = np.random.default_rng(0)
        for _ in range(9):  # crosses the 6-step episode boundary
            actions = rng.integers(0, vec.num_actions, size=(2, vec.num_agents))
            vec_obs, vec_rewards, vec_dones, vec_infos = vec.step(actions)
            obs, rewards, dones, _ = env.step(
                {a: int(actions[0, k]) for k, a in enumerate(env.agents)}
            )
            assert rewards[env.agents[0]] == vec_rewards[0]
            assert dones["__all__"] == vec_dones[0]
            if dones["__all__"]:
                term = vec_infos[0]["terminal_observation"]
                for k, agent in enumerate(env.agents):
                    np.testing.assert_array_equal(term[k], obs[agent])
                obs = env.reset()
            for k, agent in enumerate(env.agents):
                np.testing.assert_array_equal(vec_obs[0, k], obs[agent])

    def test_action_grid_matches_discrete_wrapper(self):
        env = make_baseline_env(scenario=small_scenario())
        vec = make_baseline_vector_env(1, scenario=small_scenario())
        assert isinstance(env, DiscreteActionWrapper)
        np.testing.assert_array_equal(np.stack(env.actions), vec._action_table)

    def test_invalid_actions_rejected(self):
        vec = make_baseline_vector_env(2, scenario=small_scenario())
        vec.reset(0)
        with pytest.raises(ValueError):
            vec.step(np.zeros((1, vec.num_agents), dtype=np.int64))
        with pytest.raises(ValueError):
            vec.step(np.full((2, vec.num_agents), vec.num_actions))

    def test_image_mode_rejected(self):
        from repro.envs import VectorEnv

        scenario = ScenarioConfig(observation_mode="image")
        with pytest.raises(ValueError):
            VectorBaselineEnv(VectorEnv(1, scenario=scenario))


class TestBatchedPlumbing:
    def test_push_batch_equivalent_to_sequential(self):
        rng = np.random.default_rng(0)
        seq, batch = ReplayBuffer(7, 3, 1), ReplayBuffer(7, 3, 1)
        obs = rng.standard_normal((11, 3))
        actions = rng.integers(0, 4, size=(11, 1))
        rewards = rng.standard_normal(11)
        next_obs = rng.standard_normal((11, 3))
        dones = rng.uniform(size=11) < 0.3
        for i in range(11):  # wraps the 7-slot ring
            seq.push(obs[i], actions[i], rewards[i], next_obs[i], dones[i])
        batch.push_batch(obs[:6], actions[:6], rewards[:6], next_obs[:6], dones[:6])
        batch.push_batch(obs[6:], actions[6:], rewards[6:], next_obs[6:], dones[6:])
        assert len(seq) == len(batch) == 7
        for field in ("obs", "actions", "rewards", "next_obs", "dones"):
            np.testing.assert_array_equal(
                getattr(seq, field), getattr(batch, field), err_msg=field
            )
        assert seq._index == batch._index

    def test_joint_push_batch_equivalent_to_sequential(self):
        rng = np.random.default_rng(1)
        seq, batch = JointReplayBuffer(5, 2, 3), JointReplayBuffer(5, 2, 3)
        obs = rng.standard_normal((8, 2, 3))
        actions = rng.integers(0, 4, size=(8, 2))
        rewards = rng.standard_normal((8, 2))
        next_obs = rng.standard_normal((8, 2, 3))
        dones = rng.uniform(size=8) < 0.3
        for i in range(8):
            seq.push(obs[i], actions[i], rewards[i], next_obs[i], dones[i])
        batch.push_batch(obs, actions, rewards, next_obs, dones)
        assert len(seq) == len(batch) == 5
        for field in ("obs", "actions", "rewards", "next_obs", "dones"):
            np.testing.assert_array_equal(
                getattr(seq, field), getattr(batch, field), err_msg=field
            )

    def test_episode_reset_seeds_are_a_pure_function_of_index(self):
        seeds = episode_reset_seeds(9, 20)
        assert len(seeds) == 20
        assert len(set(seeds.tolist())) == 20  # spawn children never collide
        np.testing.assert_array_equal(seeds[:5], episode_reset_seeds(9, 5))
        assert not np.array_equal(seeds, episode_reset_seeds(10, 20))


class TestDeferredEval:
    """``_learn_marl`` defers an eval past its batch only when no update of
    that batch follows it, so every eval reads the weights of its episode."""

    EVAL_SEED = 4

    @staticmethod
    def _row(vec, episodes):
        n, a, d = vec.num_envs, vec.num_agents, vec.obs_dim
        summary = {
            "episode_reward": 1.0,
            "collision": 0.0,
            "merge_success_rate": 0.0,
            "mean_speed": 0.1,
            "length": 6.0,
        }
        return {
            "obs": np.zeros((n, a, d)),
            "actions": np.zeros((n, a), dtype=np.int64),
            "rewards": np.zeros(n),
            "next_obs": np.zeros((n, a, d)),
            "dones": np.ones(n, dtype=bool),
            "episodes": list(episodes),
            "summaries": [summary] * len(episodes),
        }

    @staticmethod
    def _perturber(algo, seed=0):
        """A stand-in update: random steps on every Q-network weight."""
        rng = np.random.default_rng(seed)

        def update():
            for net in algo.q_networks.values():
                for param in net.parameters():
                    param.data += rng.normal(0.0, 0.5, param.data.shape)
            return {"loss": 0.0}

        return update

    def _eval(self, algo, vec, episode):
        return evaluate_marl_vectorized(
            vec, algo, episodes=2, seed=self.EVAL_SEED + 500 + episode
        )

    def test_eval_due_mid_batch_sees_its_own_update(self):
        vec = make_baseline_vector_env(2, scenario=small_scenario())
        algo = make_baseline("idqn", vec, seed=3, batch_size=16)
        initial = algo.state_dict()

        # Reference: every eval right after its own episode's update.
        update = self._perturber(algo)
        update()
        expected = {0: self._eval(algo, vec, 0)}
        update()
        wrong_0 = self._eval(algo, vec, 0)  # episode 0's eval one update late
        update()
        expected[2] = self._eval(algo, vec, 2)
        update()
        expected[3] = self._eval(algo, vec, 3)
        assert wrong_0 != expected[0], "perturbation too weak to tell evals apart"

        algo.load_state_dict(initial)
        # Batch 1 finishes episodes 0 (eval due) and 1: episode 0's eval must
        # run inline, before episode 1's update.  Episodes 2 and 3 end their
        # batches, so their evals are deferred: 2's to the next collect,
        # 3's (the last) to the end of the budget.
        batches = [[self._row(vec, [0, 1])], [self._row(vec, [2])], [self._row(vec, [3])]]
        handed = []

        def collect(while_waiting=None):
            handed.append(while_waiting is not None)
            if while_waiting is not None:
                while_waiting()
            return batches.pop(0)

        logger = _learn_marl(
            collect,
            algorithm=algo,
            episodes=4,
            seed=self.EVAL_SEED,
            epsilon_schedule=lambda e: 0.1,
            updates_per_episode=1,
            logger=MetricLogger(),
            prefix="idqn",
            eval_every=2,
            eval_episodes=2,
            eval_vec_env=vec,
            update_fn=self._perturber(algo),
        )
        assert handed == [False, False, True]
        for name, _ in eval_metrics("idqn", expected[0]).items():
            np.testing.assert_array_equal(logger.steps(name), [0, 2, 3])
            np.testing.assert_array_equal(
                logger.values(name),
                [eval_metrics("idqn", expected[e])[name] for e in (0, 2, 3)],
            )
        np.testing.assert_array_equal(logger.steps("idqn/episode_reward"), [0, 1, 2, 3])
