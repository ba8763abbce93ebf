"""Sharded multi-process rollout engine: equivalence + lifecycle locks.

The contract under test (``repro.envs.sharded_env``):

* ``ShardedVectorEnv(N, num_workers=W)`` is **bit-for-bit** equal to the
  single-process ``VectorEnv(N)`` for any ``W`` — observations, rewards,
  dones, episode summaries, terminal observations, exact pose mirrors,
  seeded and unseeded (auto-)resets — across every scripted-traffic
  variant with a vectorized kernel;
* training and greedy evaluation through the engine are bit-for-bit
  equal to their single-process counterparts (HERO and one baseline here;
  ``benchmarks/smoke_table2_cell.py --num-workers`` covers the baselines
  in CI);
* a worker that raises surfaces a ``RuntimeError`` naming its global env
  range; a worker that *dies* is detected and surfaced the same way;
* ``close()`` (and the context manager) leaves no orphan processes and
  unlinks the shared-memory block, and the engine works under the
  ``spawn`` start method (module-level entrypoint, picklable factories).
"""

from __future__ import annotations

import multiprocessing as mp
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.baselines import make_baseline, train_marl_vectorized
from repro.config import Execution, ScenarioConfig, TrainingConfig
from repro.core import HeroTeam, train_hero
from repro.core.trainer import evaluate_hero_vectorized
from repro.envs import (
    CooperativeLaneChangeEnv,
    EnvReplicaFactory,
    LaneKeepingCruiser,
    ScriptedPolicy,
    ShardedVectorEnv,
    StationaryObstacle,
    VectorEnv,
    make_baseline_vector_env,
)

# Short episodes so every rollout below crosses auto-resets, which is
# where per-env RNG-stream alignment across worker counts would break.
SCENARIO = ScenarioConfig(episode_length=5)

FACTORIES = {
    "slow_leader": EnvReplicaFactory(scenario=SCENARIO),
    "cruiser": EnvReplicaFactory(
        scenario=SCENARIO, scripted_policy=LaneKeepingCruiser()
    ),
    "obstacle": EnvReplicaFactory(
        scenario=SCENARIO, scripted_policy=StationaryObstacle()
    ),
}


def _assert_step_equal(ref_out, sharded_out) -> None:
    obs_r, rew_r, done_r, infos_r = ref_out
    obs_s, rew_s, done_s, infos_s = sharded_out
    assert obs_r.keys() == obs_s.keys()
    for key in obs_r:
        np.testing.assert_array_equal(obs_r[key], obs_s[key])
    np.testing.assert_array_equal(rew_r, rew_s)
    np.testing.assert_array_equal(done_r, done_s)
    assert len(infos_r) == len(infos_s)
    for info_r, info_s in zip(infos_r, infos_s):
        assert info_r["t"] == info_s["t"]
        assert ("episode" in info_r) == ("episode" in info_s)
        if "episode" in info_r:
            assert info_r["episode"] == info_s["episode"]
            term_r = info_r["terminal_observation"]
            term_s = info_s["terminal_observation"]
            for key in term_r:
                np.testing.assert_array_equal(term_r[key], term_s[key])


def _roll_both(ref: VectorEnv, sharded: ShardedVectorEnv, steps: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        actions = rng.uniform(
            [0.0, -0.5], [0.3, 0.5], size=(ref.num_envs, ref.num_agents, 2)
        )
        _assert_step_equal(ref.step(actions), sharded.step(actions))
        np.testing.assert_array_equal(ref.agent_d, sharded.agent_d)
        np.testing.assert_array_equal(ref.agent_heading, sharded.agent_heading)
        np.testing.assert_array_equal(ref.lane_ids, sharded.lane_ids)
        np.testing.assert_array_equal(ref.lane_deviation, sharded.lane_deviation)


@pytest.mark.parametrize("traffic", sorted(FACTORIES))
@pytest.mark.parametrize("num_workers", [1, 2, 3])
def test_sharded_matches_single_process(traffic: str, num_workers: int):
    """Bit-for-bit obs/reward/done equality at W in {1, 2, 3} (uneven shards)."""
    factory = FACTORIES[traffic]
    n = 5
    ref = VectorEnv(n, env_fns=[factory] * n)
    assert ref.fast_path, ref.fallback_reason
    with ShardedVectorEnv(n, env_factory=factory, num_workers=num_workers) as sharded:
        assert sharded.fast_path
        assert sharded.num_workers == num_workers
        # Seeded reset: identical stacked observations.
        obs_ref = ref.reset(11)
        obs_sh = sharded.reset(11)
        for key in obs_ref:
            np.testing.assert_array_equal(obs_ref[key], obs_sh[key])
        # 12 steps over 5-step episodes: every env auto-resets (unseeded,
        # continuing the global-index-aligned RNG streams) at least twice.
        _roll_both(ref, sharded, steps=12, seed=3)
        # Seeded single-env reset mid-run, then keep rolling.
        row_ref = ref.reset_env(2, seed=99)
        row_sh = sharded.reset_env(2, seed=99)
        for key in row_ref:
            np.testing.assert_array_equal(row_ref[key], row_sh[key])
        _roll_both(ref, sharded, steps=6, seed=4)
        # Unseeded full reset continues every env's own stream identically.
        obs_ref = ref.reset()
        obs_sh = sharded.reset()
        for key in obs_ref:
            np.testing.assert_array_equal(obs_ref[key], obs_sh[key])


@pytest.mark.parametrize("num_workers", [1, 2])
def test_sharded_matches_single_process_under_reset_seeds(num_workers: int):
    """``step(reset_seeds=)``: finished envs take the queue in global env
    order on both engines (the sharded one re-resets the seeded rows)."""
    factory = FACTORIES["slow_leader"]
    n = 5
    ref = VectorEnv(n, env_fns=[factory] * n)
    queue = [int(seed) for seed in np.random.default_rng(7).integers(0, 2**31 - 1, 64)]
    with ShardedVectorEnv(n, env_factory=factory, num_workers=num_workers) as sharded:
        ref.reset(11)
        sharded.reset(11)
        rng = np.random.default_rng(3)
        finished = 0
        for step in range(14):
            actions = rng.uniform([0.0, -0.5], [0.3, 0.5], size=(n, ref.num_agents, 2))
            # Short lists too: some finished envs run past the queue.
            seeds = queue[finished : finished + (step % 4)]
            out_ref = ref.step(actions, reset_seeds=seeds)
            _assert_step_equal(out_ref, sharded.step(actions, reset_seeds=seeds))
            np.testing.assert_array_equal(ref.agent_d, sharded.agent_d)
            np.testing.assert_array_equal(ref.agent_heading, sharded.agent_heading)
            np.testing.assert_array_equal(ref.lane_ids, sharded.lane_ids)
            finished += int(out_ref[2].sum())
        assert finished > n, "rollout never crossed enough episode boundaries"
        # Unseeded auto-resets afterwards continue identical streams.
        _roll_both(ref, sharded, steps=6, seed=4)


def test_sharded_spawn_context_matches():
    """The worker entrypoint survives the spawn start method bitwise."""
    factory = FACTORIES["slow_leader"]
    ref = VectorEnv(4, env_fns=[factory] * 4)
    sharded = ShardedVectorEnv(4, env_factory=factory, num_workers=2, context="spawn")
    try:
        obs_ref = ref.reset(7)
        obs_sh = sharded.reset(7)
        for key in obs_ref:
            np.testing.assert_array_equal(obs_ref[key], obs_sh[key])
        _roll_both(ref, sharded, steps=7, seed=1)
    finally:
        sharded.close()
    assert all(not proc.is_alive() for proc in sharded.processes)


def test_interface_metadata_matches_template():
    """Static surface (spaces, dims, track, shards) mirrors VectorEnv's."""
    factory = FACTORIES["slow_leader"]
    ref = VectorEnv(5, env_fns=[factory] * 5)
    with ShardedVectorEnv(5, env_factory=factory, num_workers=3) as sharded:
        assert sharded.agents == ref.agents
        assert sharded.num_agents == ref.num_agents
        assert sharded.high_level_obs_dim == ref.high_level_obs_dim
        assert sharded.low_level_obs_dim == ref.low_level_obs_dim
        assert sharded.track.length == ref.track.length
        assert sharded.template_env.agents == ref.template_env.agents
        # Contiguous shards covering [0, N) in order.
        assert sharded.shards[0][0] == 0
        assert sharded.shards[-1][1] == 5
        for (lo_a, hi_a), (lo_b, hi_b) in zip(sharded.shards, sharded.shards[1:]):
            assert hi_a == lo_b


# ----------------------------------------------------------------------
# Training / evaluation equivalence through the engine
# ----------------------------------------------------------------------
def _train_hero_logger(num_workers: int):
    config = TrainingConfig(
        seed=0, execution=Execution(num_envs=2, num_workers=num_workers)
    )
    config.scenario = SCENARIO
    env = CooperativeLaneChangeEnv(scenario=SCENARIO)
    team = HeroTeam(env, np.random.default_rng(0), batch_size=32)
    logger = train_hero(
        env,
        team,
        episodes=3,
        config=config,
        eval_every=2,
        eval_episodes=2,
    )
    return logger, team


def test_train_hero_sharded_matches_single_process():
    """train_hero at num_envs=2 is bit-for-bit identical at W=2 and W=1."""
    log_single, _ = _train_hero_logger(num_workers=1)
    log_sharded, _ = _train_hero_logger(num_workers=2)
    assert log_single.names() == log_sharded.names()
    for name in log_single.names():
        np.testing.assert_array_equal(
            log_single.values(name), log_sharded.values(name), err_msg=name
        )


def test_evaluate_hero_sharded_matches_single_process():
    """Greedy evaluation over the sharded engine replays the same episodes."""
    _, team = _train_hero_logger(num_workers=1)
    factory = FACTORIES["slow_leader"]
    ref = VectorEnv(3, env_fns=[factory] * 3)
    metrics_single = evaluate_hero_vectorized(ref, team, episodes=4, seed=5)
    with ShardedVectorEnv(3, env_factory=factory, num_workers=2) as sharded:
        metrics_sharded = evaluate_hero_vectorized(sharded, team, episodes=4, seed=5)
    assert metrics_single == metrics_sharded


def test_train_marl_sharded_matches_single_process():
    """train_marl_vectorized over a sharded baseline env is bit-for-bit."""

    def run(num_workers: int):
        vec_env = make_baseline_vector_env(
            2, scenario=SCENARIO, num_workers=num_workers
        )
        algo = make_baseline("idqn", vec_env, seed=0, batch_size=16)
        try:
            return train_marl_vectorized(
                vec_env, algo, episodes=3, seed=0, eval_episodes=2
            )
        finally:
            vec_env.close()

    log_single = run(num_workers=1)
    log_sharded = run(num_workers=2)
    assert log_single.names() == log_sharded.names()
    for name in log_single.names():
        np.testing.assert_array_equal(
            log_single.values(name), log_sharded.values(name), err_msg=name
        )


# ----------------------------------------------------------------------
# Fallback surfacing
# ----------------------------------------------------------------------
class _CrawlPolicy(ScriptedPolicy):
    """A scripted policy without a vectorized kernel (forces the fallback)."""

    def act(self, vehicle, all_vehicles):
        return 0.02, 0.0


def test_fallback_reason_forwarded_from_workers():
    factory = EnvReplicaFactory(scenario=SCENARIO, scripted_policy=_CrawlPolicy())
    with ShardedVectorEnv(2, env_factory=factory, num_workers=2) as sharded:
        assert not sharded.fast_path
        assert "_CrawlPolicy" in sharded.fallback_reason
        # Fallback shards still step correctly (scalar path inside workers).
        obs = sharded.reset(0)
        assert obs["lidar"].shape[0] == 2


@pytest.mark.parametrize("async_actors", [False, True], ids=["sync", "async"])
def test_train_hero_warns_on_scalar_fallback(async_actors):
    """The vectorized HERO loop must say why --num-envs is not helping,
    with or without async actors, even when evals are off."""
    env = CooperativeLaneChangeEnv(scenario=SCENARIO, scripted_policy=_CrawlPolicy())
    team = HeroTeam(env, np.random.default_rng(0), batch_size=32)
    config = TrainingConfig(
        seed=0, execution=Execution(num_envs=2, async_actors=async_actors)
    )
    config.scenario = SCENARIO
    with pytest.warns(RuntimeWarning, match="scalar fallback"):
        train_hero(env, team, episodes=1, config=config, eval_every=0)


# ----------------------------------------------------------------------
# Failure propagation + lifecycle
# ----------------------------------------------------------------------
class _ExplodingEnv(CooperativeLaneChangeEnv):
    """Raises after two steps (also drops the shard to the scalar path)."""

    def step(self, actions):
        if self._t >= 2:
            raise RuntimeError("injected failure")
        return super().step(actions)


class _ExplodingFactory:
    def __init__(self, scenario):
        self.scenario = scenario

    def __call__(self):
        return _ExplodingEnv(scenario=self.scenario)


class _DyingEnv(CooperativeLaneChangeEnv):
    """Kills its worker process outright mid-step."""

    def step(self, actions):
        os._exit(43)


class _DyingFactory:
    def __init__(self, scenario):
        self.scenario = scenario

    def __call__(self):
        return _DyingEnv(scenario=self.scenario)


def _step_until_error(sharded: ShardedVectorEnv, steps: int = 10):
    actions = np.zeros((sharded.num_envs, sharded.num_agents, 2))
    sharded.reset(0)
    for _ in range(steps):
        sharded.step(actions)


def test_worker_exception_names_failing_envs():
    sharded = ShardedVectorEnv(
        4, env_factory=_ExplodingFactory(SCENARIO), num_workers=2
    )
    try:
        with pytest.raises(RuntimeError, match=r"envs \[0, 2\).*injected failure"):
            _step_until_error(sharded)
    finally:
        sharded.close()
    assert all(not proc.is_alive() for proc in sharded.processes)


def test_worker_death_names_failing_envs():
    sharded = ShardedVectorEnv(4, env_factory=_DyingFactory(SCENARIO), num_workers=2)
    try:
        with pytest.raises(RuntimeError, match=r"worker \d+ \(envs \[\d, \d\)\) died"):
            _step_until_error(sharded)
        # A death leaves replies undrained — the engine must refuse to run
        # further commands (a retry would consume stale replies) rather
        # than silently return a previous command's data.
        with pytest.raises(RuntimeError, match="broken"):
            sharded.step(np.zeros((4, sharded.num_agents, 2)))
    finally:
        sharded.close()
    assert all(not proc.is_alive() for proc in sharded.processes)


def test_close_is_idempotent_and_leaves_no_orphans():
    factory = FACTORIES["slow_leader"]
    before = {proc.pid for proc in mp.active_children()}
    sharded = ShardedVectorEnv(4, env_factory=factory, num_workers=2)
    shm_name = sharded._shm.name
    sharded.reset(0)
    sharded.step(np.zeros((4, sharded.num_agents, 2)))
    sharded.close()
    assert all(not proc.is_alive() for proc in sharded.processes)
    after = {proc.pid for proc in mp.active_children()}
    assert after <= before, "sharded workers leaked past close()"
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=shm_name)
    sharded.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        sharded.reset(0)


def test_constructor_validation():
    factory = FACTORIES["slow_leader"]
    with pytest.raises(ValueError, match="num_envs"):
        ShardedVectorEnv(0, env_factory=factory, num_workers=1)
    with pytest.raises(ValueError, match="num_workers"):
        ShardedVectorEnv(2, env_factory=factory, num_workers=0)
    with pytest.raises(ValueError, match="observation_mode"):
        ShardedVectorEnv(
            2,
            scenario=ScenarioConfig(observation_mode="image"),
            num_workers=1,
        )
    # More workers than envs clamps instead of idling empty shards.
    with ShardedVectorEnv(2, env_factory=factory, num_workers=5) as sharded:
        assert sharded.num_workers == 2
