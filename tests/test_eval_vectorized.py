"""Tests for vectorized greedy evaluation (ISSUE 3).

The contract under test:

* ``evaluate_hero_vectorized`` / ``evaluate_marl_vectorized`` with
  ``num_envs == 1`` are **bit-for-bit** equal to the scalar
  ``evaluate_hero`` / ``evaluate_marl`` for HERO and all four baselines
  (same reset-seed stream, shape-identical greedy network forwards, no
  hidden RNG consumption),
* at ``num_envs > 1`` the evaluators replay the *identical per-episode
  reset-seed stream* — episode ``e`` always gets
  ``episode_reset_seeds(seed, episodes)[e]`` no matter which env runs it
  or in which order episodes finish,
* evaluation has no training side effects: replay buffers, opponent-model
  histories and exploration state are untouched,
* exactly ``episodes`` completed episodes are scored even when the env
  batch is larger than the episode budget.
"""

import numpy as np
import pytest

from repro.baselines import (
    evaluate_marl,
    evaluate_marl_vectorized,
    make_baseline,
    train_marl,
)
from repro.config import ScenarioConfig, TrainingConfig
from repro.core import HeroTeam, train_hero
from repro.core.trainer import evaluate_hero, evaluate_hero_vectorized
from repro.envs import CooperativeLaneChangeEnv, VectorEnv
from repro.envs.wrappers import make_baseline_env, make_baseline_vector_env
from repro.utils.seeding import episode_reset_seeds

BASELINE_NAMES = ["idqn", "coma", "maddpg", "maac"]
METRIC_KEYS = {"episode_reward", "collision_rate", "success_rate", "mean_speed"}


def small_scenario() -> ScenarioConfig:
    return ScenarioConfig(episode_length=8)


def trained_hero(scenario, episodes=2, opponent_mode="model"):
    """A briefly-trained team, so eval runs on non-trivial weights/state."""
    config = TrainingConfig(seed=0)
    config.scenario = scenario
    env = CooperativeLaneChangeEnv(scenario=scenario)
    team = HeroTeam(
        env, np.random.default_rng(0), batch_size=8, opponent_mode=opponent_mode
    )
    train_hero(env, team, episodes=episodes, config=config, eval_every=0)
    return env, team


def trained_baseline(name, scenario, episodes=2):
    kwargs = {"batch_size": 16} if name != "coma" else {}
    env = make_baseline_env(scenario=scenario)
    algo = make_baseline(name, env, seed=3, **kwargs)
    train_marl(env, algo, episodes=episodes, seed=7, eval_every=0)
    return env, algo


class TestBitForBitAtOneEnv:
    """Vectorized eval at num_envs=1 == scalar eval, bit for bit."""

    def test_hero_matches_scalar(self):
        scenario = small_scenario()
        env, team = trained_hero(scenario)
        scalar = evaluate_hero(env, team, episodes=4, seed=11)
        vectorized = evaluate_hero_vectorized(
            VectorEnv(1, scenario=scenario), team, episodes=4, seed=11
        )
        assert set(scalar) == METRIC_KEYS
        assert scalar == vectorized

    @pytest.mark.parametrize("opponent_mode", ["observed", "zeros"])
    def test_hero_matches_scalar_other_opponent_modes(self, opponent_mode):
        """'observed' exercises sync_observed_options (the eval runner must
        see the opponent options training left on the team)."""
        scenario = small_scenario()
        env, team = trained_hero(scenario, opponent_mode=opponent_mode)
        scalar = evaluate_hero(env, team, episodes=3, seed=5)
        vectorized = evaluate_hero_vectorized(
            VectorEnv(1, scenario=scenario), team, episodes=3, seed=5
        )
        assert scalar == vectorized

    @pytest.mark.parametrize("name", BASELINE_NAMES)
    def test_baseline_matches_scalar(self, name):
        scenario = small_scenario()
        env, algo = trained_baseline(name, scenario)
        scalar = evaluate_marl(env, algo, episodes=4, seed=11)
        vectorized = evaluate_marl_vectorized(
            make_baseline_vector_env(1, scenario=scenario), algo, episodes=4, seed=11
        )
        assert set(scalar) == METRIC_KEYS
        assert scalar == vectorized

    def test_hero_runner_reuse_across_calls(self):
        """The interleaved-eval path reuses one runner; state from a
        previous sweep must not leak into the next."""
        from repro.core import BatchedHeroRunner

        scenario = small_scenario()
        env, team = trained_hero(scenario)
        vec = VectorEnv(1, scenario=scenario)
        runner = BatchedHeroRunner(team, vec)
        first = evaluate_hero_vectorized(vec, team, episodes=3, seed=5, runner=runner)
        again = evaluate_hero_vectorized(vec, team, episodes=3, seed=5, runner=runner)
        assert first == again
        assert again == evaluate_hero(env, team, episodes=3, seed=5)

    def test_hero_rejects_foreign_runner(self):
        from repro.core import BatchedHeroRunner

        scenario = small_scenario()
        _, team = trained_hero(scenario, episodes=1)
        vec = VectorEnv(1, scenario=scenario)
        other = VectorEnv(1, scenario=scenario)
        runner = BatchedHeroRunner(team, other)
        with pytest.raises(ValueError, match="different VectorEnv"):
            evaluate_hero_vectorized(vec, team, episodes=1, runner=runner)


class TestSeedStreams:
    """Episode e always evaluates under episode_reset_seeds(seed, n)[e]."""

    def _recorded_resets(self, monkeypatch, n_envs, episodes, seed, scenario):
        """Run a baseline eval at N>1 and record every batch of resets.

        ``VectorEnv._reset_rows`` is the one seam every reset takes: the
        initial ``reset`` and each step's seeded auto-resets.  Returns the
        ``(rows, seeds)`` of each call, in call order.
        """
        calls = []
        original = VectorEnv._reset_rows

        def recording_reset_rows(self, rows, seeds):
            calls.append(([int(i) for i in rows], list(seeds)))
            return original(self, rows, seeds)

        _, algo = trained_baseline("idqn", scenario, episodes=1)
        monkeypatch.setattr(VectorEnv, "_reset_rows", recording_reset_rows)
        evaluate_marl_vectorized(
            make_baseline_vector_env(n_envs, scenario=scenario),
            algo,
            episodes=episodes,
            seed=seed,
        )
        return calls

    def test_seed_stream_at_three_envs_matches_scalar_stream(self, monkeypatch):
        scenario = small_scenario()
        episodes, seed = 6, 13
        calls = self._recorded_resets(monkeypatch, 3, episodes, seed, scenario)
        expected = episode_reset_seeds(seed, episodes)
        # Envs 0..2 start episodes 0..2; every relaunch consumes the next
        # episode index in order, so the multiset of seeded resets is
        # exactly the scalar evaluator's stream.
        (initial_rows, initial_seeds), relaunches = calls[0], calls[1:]
        assert initial_rows == [0, 1, 2]
        np.testing.assert_array_equal(initial_seeds, expected[:3])
        relaunched = [s for _, seeds in relaunches for s in seeds if s is not None]
        assert sorted(relaunched) == sorted(int(s) for s in expected[3:])

    def test_scalar_evaluators_use_episode_reset_seeds(self, monkeypatch):
        """The scalar evaluators' seeds come from episode_reset_seeds, so
        the vectorized evaluators (which index the same spawn) can replay
        them; drawing from a sequential RNG stream would break this."""
        scenario = small_scenario()
        env, team = trained_hero(scenario, episodes=1)
        recorded = []
        original_reset = CooperativeLaneChangeEnv.reset

        def recording_reset(self, seed=None):
            recorded.append(seed)
            return original_reset(self, seed=seed)

        monkeypatch.setattr(CooperativeLaneChangeEnv, "reset", recording_reset)
        evaluate_hero(env, team, episodes=3, seed=9)
        np.testing.assert_array_equal(recorded, episode_reset_seeds(9, 3))

        recorded.clear()
        benv, algo = trained_baseline("idqn", scenario, episodes=1)
        recorded.clear()  # drop the training resets
        evaluate_marl(benv, algo, episodes=3, seed=9)
        np.testing.assert_array_equal(recorded, episode_reset_seeds(9, 3))


class TestNoTrainingSideEffects:
    def test_hero_eval_leaves_buffers_and_histories_untouched(self):
        scenario = small_scenario()
        env, team = trained_hero(scenario)
        sizes_before = {
            agent_id: (
                len(agent.high_level.buffer),
                len(agent.high_level.opponent_model.history),
            )
            for agent_id, agent in team.agents.items()
        }
        evaluate_hero_vectorized(
            VectorEnv(2, scenario=scenario), team, episodes=3, seed=1
        )
        for agent_id, agent in team.agents.items():
            assert sizes_before[agent_id] == (
                len(agent.high_level.buffer),
                len(agent.high_level.opponent_model.history),
            )

    def test_baseline_eval_leaves_buffers_and_epsilon_untouched(self):
        scenario = small_scenario()
        _, algo = trained_baseline("idqn", scenario)
        algo.epsilon = np.array([0.5, 0.25])  # per-env array from training
        sizes_before = {a: len(b) for a, b in algo.buffers.items()}
        evaluate_marl_vectorized(
            make_baseline_vector_env(3, scenario=scenario), algo, episodes=4, seed=1
        )
        assert {a: len(b) for a, b in algo.buffers.items()} == sizes_before
        np.testing.assert_array_equal(algo.epsilon, [0.5, 0.25])


class TestEpisodeAccounting:
    def test_more_envs_than_episodes_scores_exact_budget(self):
        scenario = small_scenario()
        _, algo = trained_baseline("idqn", scenario, episodes=1)
        vec = make_baseline_vector_env(4, scenario=scenario)
        metrics = evaluate_marl_vectorized(vec, algo, episodes=2, seed=3)
        scalar = evaluate_marl(
            make_baseline_env(scenario=scenario), algo, episodes=2, seed=3
        )
        # Excess envs roll out unscored episodes; the scored set is the
        # scalar evaluator's two episodes exactly.
        assert metrics == scalar

    def test_hero_more_envs_than_episodes(self):
        scenario = small_scenario()
        env, team = trained_hero(scenario, episodes=1)
        metrics = evaluate_hero_vectorized(
            VectorEnv(4, scenario=scenario), team, episodes=2, seed=3
        )
        for value in metrics.values():
            assert np.isfinite(value)
        assert set(metrics) == METRIC_KEYS
