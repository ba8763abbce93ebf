"""Distributed training over a lossy, delayed vehicle-to-vehicle bus.

The paper's observability model (Sec. III-A): each agent only sees the
*historical* states and options of the others. This example routes those
observations through :class:`repro.distributed.MessageBus` with latency
and packet loss, trains HERO in that fully-distributed regime, and prints
bus statistics alongside learning metrics.

It closes with the repo's *other* distribution axes side by side:

* the ``distributed/`` package distributes **observations** (the paper's
  DTDE semantics — what each agent may see);
* :class:`repro.envs.ShardedVectorEnv` distributes **env stepping**
  across worker processes (a pure throughput axis, bit-for-bit identical
  to single-process rollouts);
* the async actor–learner stack
  (:mod:`repro.distributed.actor_learner`) distributes **rollout
  collection vs. gradient updates** across processes: an actor pushes
  transition batches through a shared-memory ring while the learner
  trains on versioned parameter snapshots.  ``max_staleness=0`` is a
  lockstep barrier, bitwise equal to the synchronous loop;
  ``max_staleness > 0`` overlaps the two phases.

The three compose: the async actor can itself shard its env batch across
workers, and any regime that accepts the vectorized stepping interface
can ride on top.

Usage::

    python examples/distributed_dtde.py --latency 2 --drop 0.2 \
        --episodes 200 --num-workers 2 --async-episodes 20
"""

import argparse
import time
from dataclasses import replace

import numpy as np

from repro.config import Execution, TrainingConfig
from repro.core import HeroTeam, train_hero, train_low_level_skills
from repro.distributed import DistributedObservationService
from repro.envs import CooperativeLaneChangeEnv, EnvReplicaFactory, ShardedVectorEnv
from repro.experiments.common import bench_scenario


def sharded_rollout_demo(config: TrainingConfig, num_workers: int, num_envs: int = 8):
    """Short sharded-rollout usage: the VectorEnv surface, W processes.

    Steps a fixed cruise command batch through a worker pool; swap the
    actions for a ``BatchedHeroRunner`` (or pass ``num_workers`` to
    ``train_hero``) to drive real training from the same pool.
    """
    factory = EnvReplicaFactory(scenario=config.scenario, rewards=config.rewards)
    with ShardedVectorEnv(num_envs, env_factory=factory, num_workers=num_workers) as vec:
        obs = vec.reset(0)
        actions = np.tile(
            [config.scenario.initial_speed, 0.0], (vec.num_envs, vec.num_agents, 1)
        )
        steps = 50
        start = time.perf_counter()
        for _ in range(steps):
            obs, rewards, dones, infos = vec.step(actions)
        rate = steps * vec.num_envs / (time.perf_counter() - start)
        print(
            f"\nsharded rollouts: {vec.num_envs} envs over {vec.num_workers} "
            f"worker processes (shards {vec.shards}), {rate:.0f} env-steps/s, "
            f"fast_path={vec.fast_path}"
        )


def async_actor_learner_demo(
    config: TrainingConfig, episodes: int, num_envs: int = 4, max_staleness: int = 1
):
    """Short async actor–learner run: rollouts in a child process.

    The actor process steps ``num_envs`` env copies and ships transition
    batches over a shared-memory queue; the learner applies updates and
    publishes versioned parameter snapshots.  With ``max_staleness > 0``
    the actor may collect against a snapshot up to that many rounds old,
    overlapping collection with updates — the logged
    ``hero/snapshot_staleness`` series shows how far behind it actually
    ran.
    """
    env = CooperativeLaneChangeEnv(scenario=config.scenario, rewards=config.rewards)
    team = HeroTeam(env, np.random.default_rng(config.seed), batch_size=32)
    execution = Execution(
        num_envs=num_envs, async_actors=True, max_staleness=max_staleness
    )
    start = time.perf_counter()
    logger = train_hero(
        env, team, episodes=episodes, config=replace(config, execution=execution)
    )
    elapsed = time.perf_counter() - start
    staleness = logger.values("hero/snapshot_staleness")
    print(
        f"\nasync actor-learner: {episodes} episodes, {num_envs} envs in the "
        f"actor process, staleness budget {max_staleness} -> observed "
        f"mean {staleness.mean():.2f} / max {staleness.max():.0f} "
        f"({elapsed:.1f}s)"
    )
    print(
        "  max_staleness=0 would be a lockstep barrier: bitwise equal to "
        "the synchronous vectorized loop (locked by tests)."
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--latency", type=int, default=1, help="bus latency in env steps")
    parser.add_argument("--drop", type=float, default=0.1, help="message drop probability")
    parser.add_argument("--episodes", type=int, default=200)
    parser.add_argument("--skill-episodes", type=int, default=250)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--num-workers",
        type=int,
        default=2,
        help="worker processes for the closing sharded-rollout demo",
    )
    parser.add_argument(
        "--async-episodes",
        type=int,
        default=12,
        help="episodes for the closing async actor-learner demo (0 skips it)",
    )
    parser.add_argument(
        "--max-staleness",
        type=int,
        default=1,
        help="snapshot-staleness budget for the async demo (0 = lockstep)",
    )
    args = parser.parse_args()

    config = TrainingConfig(seed=args.seed)
    config.scenario = bench_scenario()
    config.epsilon_decay_episodes = max(args.episodes // 2, 1)

    skills, _ = train_low_level_skills(config, episodes=args.skill_episodes)
    env = CooperativeLaneChangeEnv(scenario=config.scenario, rewards=config.rewards)

    service = DistributedObservationService(
        env.agents,
        latency_steps=args.latency,
        drop_probability=args.drop,
        seed=args.seed,
    )
    team = HeroTeam(
        env, np.random.default_rng(args.seed), hyper=config.hyper,
        skills=skills, observation_service=service, batch_size=128, lr=2e-3,
    )
    logger = train_hero(
        env, team, episodes=args.episodes, config=config, updates_per_episode=4
    )

    print(f"\nbus: latency={args.latency} steps, drop={args.drop:.0%}")
    for name, value in service.bus.stats().items():
        print(f"  {name:10s} {value}")
    print(f"\nfinal eval reward:    {logger.latest('hero/eval_episode_reward'):.2f}")
    print(f"final eval collision: {logger.latest('hero/eval_collision_rate'):.2f}")
    print(
        "\nEach agent learned its opponents' options purely from delayed, "
        "lossy broadcasts — the paper's DTDE setting."
    )

    sharded_rollout_demo(config, num_workers=args.num_workers)
    if args.async_episodes > 0:
        async_actor_learner_demo(
            config, episodes=args.async_episodes, max_staleness=args.max_staleness
        )
    print(
        "distributed/ shards what agents may observe; ShardedVectorEnv "
        "shards where envs are stepped; actor_learner shards when "
        "collection and updates happen — orthogonal, composable axes."
    )


if __name__ == "__main__":
    main()
