"""Tests for the vectorized environment (repro.envs.vector_env).

The contract under test:

* reset/step return stacked arrays with the documented shapes,
* finished environments auto-reset and report their episode summary,
* the fast path agrees **bitwise** with N independent scalar
  ``CooperativeLaneChangeEnv`` instances stepped with the same seeds and
  actions (the vectorized kernels mirror the scalar arithmetic
  elementwise and share the lidar raycast kernel),
* configurations the fast path cannot express fall back to scalar
  stepping with identical results.
"""

import numpy as np
import pytest

from repro.config import ScenarioConfig
from repro.envs import (
    CooperativeLaneChangeEnv,
    LaneKeepingCruiser,
    ScriptedPolicy,
    StationaryObstacle,
    VectorEnv,
)


def random_actions(rng, num_envs, num_agents):
    return rng.uniform([0.0, -0.5], [0.3, 0.5], size=(num_envs, num_agents, 2))


def assert_obs_rows_equal(vec_obs, scalar_obs, env_index, agents):
    for k, agent in enumerate(agents):
        for key, value in scalar_obs[agent].items():
            np.testing.assert_array_equal(
                vec_obs[key][env_index, k],
                value,
                err_msg=f"env {env_index} agent {agent} key {key}",
            )


class TestShapes:
    def setup_method(self):
        self.vec = VectorEnv(3)

    def test_fast_path_active_for_default_config(self):
        assert self.vec.fast_path

    def test_reset_shapes(self):
        obs = self.vec.reset(0)
        cfg = self.vec.scenario
        n, a = 3, cfg.num_learning_vehicles
        assert obs["lidar"].shape == (n, a, cfg.lidar_beams)
        assert obs["speed"].shape == (n, a, 1)
        assert obs["lane_onehot"].shape == (n, a, cfg.num_lanes)
        assert obs["features"].shape[:2] == (n, a)

    def test_step_shapes_and_types(self):
        self.vec.reset(0)
        rng = np.random.default_rng(0)
        obs, rewards, dones, infos = self.vec.step(
            random_actions(rng, 3, self.vec.num_agents)
        )
        assert rewards.shape == (3,)
        assert dones.shape == (3,) and dones.dtype == bool
        assert len(infos) == 3 and all("t" in info for info in infos)
        high = VectorEnv.flatten_high(obs)
        assert high.shape == (3, self.vec.num_agents, self.vec.high_level_obs_dim)
        low = VectorEnv.flatten_low(obs)
        assert low.shape == (3, self.vec.num_agents, self.vec.low_level_obs_dim)

    def test_step_rejects_wrong_shape(self):
        self.vec.reset(0)
        with pytest.raises(ValueError):
            self.vec.step(np.zeros((3, self.vec.num_agents, 3)))
        with pytest.raises(ValueError):
            self.vec.step(np.zeros((2, self.vec.num_agents, 2)))

    def test_unseeded_reset_gives_distinct_envs(self):
        """reset(None) continues per-env RNG streams — they must differ,
        or N parallel envs would collect N copies of the same episode."""
        obs = self.vec.reset()
        assert not np.array_equal(obs["features"][0], obs["features"][1])
        assert not np.array_equal(obs["features"][1], obs["features"][2])

    def test_reset_seed_forms(self):
        obs_int = self.vec.reset(5)
        obs_list = self.vec.reset([5, 6, 7])
        for key in obs_int:
            np.testing.assert_array_equal(obs_int[key], obs_list[key])
        with pytest.raises(ValueError):
            self.vec.reset([1, 2])


class TestScalarAgreement:
    """Bitwise agreement with N independent scalar envs, same seeds."""

    @pytest.mark.parametrize("num_envs", [1, 4])
    def test_bitwise_agreement_with_autoreset(self, num_envs):
        vec = VectorEnv(num_envs)
        assert vec.fast_path
        seeds = [100 + i for i in range(num_envs)]
        scalars = [CooperativeLaneChangeEnv() for _ in range(num_envs)]
        scalar_obs = [env.reset(seed=s) for env, s in zip(scalars, seeds)]
        vec_obs = vec.reset(seeds)
        agents = vec.agents
        for i in range(num_envs):
            assert_obs_rows_equal(vec_obs, scalar_obs[i], i, agents)

        rng = np.random.default_rng(9)
        episodes_seen = 0
        for step in range(120):
            actions = random_actions(rng, num_envs, vec.num_agents)
            vec_obs, vec_rewards, vec_dones, vec_infos = vec.step(actions)
            for i, env in enumerate(scalars):
                action_dict = {
                    agent: actions[i, k] for k, agent in enumerate(agents)
                }
                obs, rewards, dones, info = env.step(action_dict)
                assert rewards[agents[0]] == vec_rewards[i]
                assert dones["__all__"] == vec_dones[i]
                if dones["__all__"]:
                    episodes_seen += 1
                    # Terminal observation and summary must match before the
                    # row is replaced by the autoreset observation.
                    summary = info.get("episode", env.episode_summary())
                    assert vec_infos[i]["episode"] == summary
                    term = vec_infos[i]["terminal_observation"]
                    for k, agent in enumerate(agents):
                        for key, value in obs[agent].items():
                            np.testing.assert_array_equal(term[key][k], value)
                    obs = env.reset()  # scalar mirror of the autoreset
                scalar_obs[i] = obs
                assert_obs_rows_equal(vec_obs, scalar_obs[i], i, agents)
        assert episodes_seen > 0, "rollout never hit an episode boundary"

    def test_post_step_lane_state_matches_scalar(self):
        vec = VectorEnv(2)
        scalar = CooperativeLaneChangeEnv()
        vec.reset([3, 4])
        scalar.reset(seed=3)
        rng = np.random.default_rng(1)
        actions = random_actions(rng, 2, vec.num_agents)
        vec.step(actions)
        scalar.step({a: actions[0, k] for k, a in enumerate(scalar.agents)})
        for k, agent in enumerate(scalar.agents):
            vehicle = scalar.vehicle(agent)
            assert vec.lane_ids[0, k] == vehicle.lane_id
            assert vec.lane_deviation[0, k] == vehicle.lane_deviation


    def test_kinematics_clamp_keeps_scalar_zero_sign(self):
        """A ``-0.0`` speed command clamps to the scalar ``clamp``'s ``+0.0``
        (stored speed, speed observation and heading bits all agree)."""
        vec = VectorEnv(1)
        scalar = CooperativeLaneChangeEnv()
        vec.reset([3])
        scalar.reset(seed=3)
        actions = np.zeros((1, vec.num_agents, 2))
        actions[..., 0] = -0.0
        actions[0, 0, 1] = -0.0
        vec_obs, _, _, _ = vec.step(actions)
        scalar_obs, _, _, _ = scalar.step(
            {a: actions[0, k] for k, a in enumerate(scalar.agents)}
        )
        for k, agent in enumerate(scalar.agents):
            state = scalar.vehicle(agent).state
            assert vec._lin[0, k].tobytes() == np.float64(state.linear_speed).tobytes()
            assert vec._ang[0, k].tobytes() == np.float64(state.angular_speed).tobytes()
            assert vec._heading[0, k].tobytes() == np.float64(state.heading).tobytes()
        assert_rows_bitwise(vec_obs, scalar_obs, 0, vec.agents)


class TestScriptedPolicyKernels:
    """Fast-path eligibility + bitwise parity for the vectorized scripted
    controllers (SlowLeader is covered by TestScalarAgreement)."""

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda: LaneKeepingCruiser(),
            lambda: LaneKeepingCruiser(target_speed=0.05, safe_gap=1.2),
            lambda: StationaryObstacle(),
        ],
        ids=["cruiser", "cruiser-tuned", "obstacle"],
    )
    @pytest.mark.parametrize("num_scripted", [1, 2])
    def test_bitwise_agreement(self, make_policy, num_scripted):
        scenario = ScenarioConfig(num_scripted_vehicles=num_scripted)
        vec = VectorEnv(
            2,
            env_fns=[
                lambda: CooperativeLaneChangeEnv(
                    scenario=scenario, scripted_policy=make_policy()
                )
                for _ in range(2)
            ],
        )
        assert vec.fast_path, vec.fallback_reason
        scalars = [
            CooperativeLaneChangeEnv(scenario=scenario, scripted_policy=make_policy())
            for _ in range(2)
        ]
        scalar_obs = [env.reset(seed=60 + i) for i, env in enumerate(scalars)]
        vec_obs = vec.reset([60, 61])
        for i in range(2):
            assert_obs_rows_equal(vec_obs, scalar_obs[i], i, vec.agents)
        rng = np.random.default_rng(6)
        for _ in range(70):  # crosses episode boundaries -> autoreset
            actions = random_actions(rng, 2, vec.num_agents)
            vec_obs, vec_rewards, vec_dones, vec_infos = vec.step(actions)
            for i, env in enumerate(scalars):
                obs, rewards, dones, info = env.step(
                    {a: actions[i, k] for k, a in enumerate(env.agents)}
                )
                assert rewards[env.agents[0]] == vec_rewards[i]
                assert dones["__all__"] == vec_dones[i]
                if dones["__all__"]:
                    summary = info.get("episode", env.episode_summary())
                    assert vec_infos[i]["episode"] == summary
                    obs = env.reset()
                assert_obs_rows_equal(vec_obs, obs, i, vec.agents)

    def test_mismatched_policy_params_fall_back(self):
        cruisers = iter([LaneKeepingCruiser(), LaneKeepingCruiser(safe_gap=2.0)])
        vec = VectorEnv(
            2,
            env_fns=[
                lambda: CooperativeLaneChangeEnv(scripted_policy=next(cruisers))
                for _ in range(2)
            ],
        )
        assert not vec.fast_path
        assert "scripted policy parameters" in vec.fallback_reason

    def test_fast_path_reports_no_reason(self):
        assert VectorEnv(2).fallback_reason is None


class _UnvectorizedPolicy(ScriptedPolicy):
    """A scripted controller the fast path has no kernel for."""

    def act(self, vehicle, others):
        return 0.01, 0.0


class TestFallback:
    def test_custom_scripted_policy_uses_fallback(self):
        env_fns = [
            lambda: CooperativeLaneChangeEnv(scripted_policy=_UnvectorizedPolicy())
            for _ in range(2)
        ]
        vec = VectorEnv(2, env_fns=env_fns)
        assert not vec.fast_path
        assert "no vectorized kernel" in vec.fallback_reason

    def test_image_mode_uses_fallback(self):
        scenario = ScenarioConfig(observation_mode="image")
        vec = VectorEnv(2, scenario=scenario)
        assert not vec.fast_path

    def test_fallback_matches_scalar(self):
        scenario = ScenarioConfig(observation_mode="image", episode_length=6)
        vec = VectorEnv(2, scenario=scenario)
        scalar = CooperativeLaneChangeEnv(scenario=scenario)
        vec_obs = vec.reset([11, 12])
        scalar_obs = scalar.reset(seed=11)
        assert_obs_rows_equal(vec_obs, scalar_obs, 0, vec.agents)
        rng = np.random.default_rng(2)
        for _ in range(8):  # crosses the episode boundary -> autoreset
            actions = random_actions(rng, 2, vec.num_agents)
            vec_obs, vec_rewards, vec_dones, _ = vec.step(actions)
            obs, rewards, dones, _ = scalar.step(
                {a: actions[0, k] for k, a in enumerate(scalar.agents)}
            )
            assert rewards[scalar.agents[0]] == vec_rewards[0]
            assert dones["__all__"] == vec_dones[0]
            if dones["__all__"]:
                obs = scalar.reset()
            assert_obs_rows_equal(vec_obs, obs, 0, vec.agents)


class TestResetEnv:
    def test_seeded_single_env_reset_matches_scalar(self):
        vec = VectorEnv(3)
        vec.reset([1, 2, 3])
        scalar = CooperativeLaneChangeEnv()
        expected = scalar.reset(seed=42)
        row = vec.reset_env(1, seed=42)
        for k, agent in enumerate(scalar.agents):
            for key, value in expected[agent].items():
                np.testing.assert_array_equal(row[key][k], value)

    def test_reset_env_updates_stacked_state(self):
        vec = VectorEnv(2)
        vec.reset([1, 2])
        rng = np.random.default_rng(0)
        vec.step(random_actions(rng, 2, vec.num_agents))
        vec.reset_env(0, seed=9)
        scalar = CooperativeLaneChangeEnv()
        scalar.reset(seed=9)
        actions = random_actions(rng, 2, vec.num_agents)
        vec_obs, _, _, _ = vec.step(actions)
        obs, _, _, _ = scalar.step(
            {a: actions[0, k] for k, a in enumerate(scalar.agents)}
        )
        assert_obs_rows_equal(vec_obs, obs, 0, vec.agents)

    def test_out_of_range_index_rejected(self):
        vec = VectorEnv(2)
        with pytest.raises(IndexError):
            vec.reset_env(2)


def assert_rows_bitwise(vec_obs, scalar_obs, env_index, agents):
    """Bit-pattern equality (signed zeros included) of one env's rows."""
    for k, agent in enumerate(agents):
        for key, value in scalar_obs[agent].items():
            got = np.asarray(vec_obs[key][env_index, k], dtype=np.float64)
            assert got.tobytes() == np.asarray(value, dtype=np.float64).tobytes(), (
                f"env {env_index} agent {agent} key {key}"
            )


class TestResetSeeds:
    """One seeded, batched reset per finished env (``step(reset_seeds=)``)."""

    def test_queue_rule_short_list_and_none(self):
        rows = np.array([1, 3, 4])
        assert VectorEnv._auto_reset_seeds(rows, [10, 11, 12, 13]) == [10, 11, 12]
        assert VectorEnv._auto_reset_seeds(rows, [10]) == [10, None, None]
        assert VectorEnv._auto_reset_seeds(rows, [None, 7]) == [None, 7, None]
        assert VectorEnv._auto_reset_seeds(rows, ()) == [None, None, None]
        seeds = VectorEnv._auto_reset_seeds(rows, np.array([5, 6], dtype=np.int64))
        assert seeds == [5, 6, None] and all(type(s) in (int, type(None)) for s in seeds)

    @pytest.mark.parametrize("seeds", [[0, 1, 2], [7, 123456, 2**31 - 2, 42]])
    def test_batched_reset_rows_bitwise_equal_scalar_reset(self, seeds):
        vec = VectorEnv(len(seeds))
        assert vec.fast_path
        obs = vec.reset(seeds)
        for i, seed in enumerate(seeds):
            expected = CooperativeLaneChangeEnv().reset(seed=seed)
            assert_rows_bitwise(obs, expected, i, vec.agents)
        row = vec.reset_env(1, seed=99)
        expected = CooperativeLaneChangeEnv().reset(seed=99)
        for k, agent in enumerate(vec.agents):
            for key, value in expected[agent].items():
                assert row[key][k].tobytes() == value.tobytes()

    @pytest.mark.parametrize("fast", [True, False])
    def test_finished_envs_take_seeds_in_env_order(self, fast):
        """All three envs finish at step 3: envs 0 and 1 take the two queued
        seeds, env 2 (past the end of the list) continues its own stream."""
        scenario = ScenarioConfig(episode_length=3)

        def make_env():
            policy = None if fast else _UnvectorizedPolicy()
            return CooperativeLaneChangeEnv(scenario=scenario, scripted_policy=policy)

        vec = VectorEnv(3, env_fns=[make_env] * 3)
        unseeded = VectorEnv(3, env_fns=[make_env] * 3)
        assert vec.fast_path is fast
        vec.reset([1, 2, 3])
        unseeded.reset([1, 2, 3])
        actions = np.zeros((3, vec.num_agents, 2))
        for _ in range(2):
            vec.step(actions, reset_seeds=[50, 51])  # nobody finishes yet
            unseeded.step(actions)
        obs, _, dones, infos = vec.step(actions, reset_seeds=[50, 51])
        ref_obs, _, ref_dones, ref_infos = unseeded.step(actions)
        assert dones.all() and ref_dones.all()
        for i, seed in enumerate([50, 51]):
            expected = make_env().reset(seed=seed)
            assert_rows_bitwise(obs, expected, i, vec.agents)
        for key in obs:
            assert obs[key][2].tobytes() == ref_obs[key][2].tobytes()
            np.testing.assert_array_equal(
                infos[0]["terminal_observation"][key],
                ref_infos[0]["terminal_observation"][key],
            )
        assert infos[1]["episode"] == ref_infos[1]["episode"]

    def test_seeded_step_equals_step_then_reset_env(self):
        """The old two-reset sequence and the one seeded reset agree."""
        scenario = ScenarioConfig(episode_length=4)
        a = VectorEnv(4, scenario=scenario)
        b = VectorEnv(4, scenario=scenario)
        a.reset(0)
        b.reset(0)
        rng = np.random.default_rng(5)
        queue = list(range(1000, 1100))
        for _ in range(14):
            actions = random_actions(rng, 4, a.num_agents)
            obs_a, _, dones_a, _ = a.step(actions, reset_seeds=queue[:4])
            obs_b, _, dones_b, _ = b.step(actions)
            np.testing.assert_array_equal(dones_a, dones_b)
            for i in np.flatnonzero(dones_b):
                row = b.reset_env(i, seed=queue.pop(0))
                for key in obs_b:
                    obs_b[key][i] = row[key]
            for key in obs_a:
                assert obs_a[key].tobytes() == obs_b[key].tobytes()
        assert len(queue) < 100, "rollout never hit an episode boundary"

    def test_fast_path_never_calls_scalar_observe(self, monkeypatch):
        def forbidden(self, agent):
            raise AssertionError("scalar _observe called on the fast path")

        monkeypatch.setattr(CooperativeLaneChangeEnv, "_observe", forbidden)
        vec = VectorEnv(3, scenario=ScenarioConfig(episode_length=3))
        assert vec.fast_path
        vec.reset([4, 5, 6])
        vec.reset()
        vec.reset_env(0, seed=8)
        rng = np.random.default_rng(0)
        finished = 0
        for _ in range(7):
            _, _, dones, _ = vec.step(
                random_actions(rng, 3, vec.num_agents), reset_seeds=[9]
            )
            finished += int(dones.sum())
        assert finished > 0


class TestSyncToEnvs:
    def test_sync_writes_vehicle_state_back(self):
        vec = VectorEnv(2)
        vec.reset([1, 2])
        rng = np.random.default_rng(0)
        for _ in range(3):
            vec.step(random_actions(rng, 2, vec.num_agents))
        vec.sync_to_envs()
        for i, env in enumerate(vec.envs):
            for k, agent in enumerate(env.agents):
                vehicle = env.vehicle(agent)
                assert vehicle.state.s == vec._s[i, k]
                assert vehicle.state.d == vec._d[i, k]
            assert env._t == 3
