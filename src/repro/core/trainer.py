"""Training loops for HERO (Algorithms 1 and 2 of the paper).

:func:`train_low_level_skills` runs Algorithm 2 for both skills;
:func:`train_hero` runs Algorithm 1 on the cooperative lane-change game,
recording the paper's four evaluation metrics per episode.  With
``num_envs > 1`` the rollout phase runs on a
:class:`~repro.envs.vector_env.VectorEnv` through
:class:`BatchedRolloutWorker`, which fills the same replay buffers from
vectorized rollouts with batched policy inference, and the interleaved
greedy evaluations run on their own ``VectorEnv`` through
:func:`evaluate_hero_vectorized`.

Evaluation seeding: both evaluators derive episode reset seeds from one
``SeedSequence`` spawn (:func:`repro.utils.seeding.episode_reset_seeds`),
so evaluation episode ``e`` is a pure function of ``(seed, e)`` — the
vectorized evaluator, which finishes episodes out of order, replays the
exact seed stream of the scalar one and is bit-for-bit equal to it at
``num_envs=1`` (``tests/test_eval_vectorized.py`` locks this in).
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from ..config import TrainingConfig
from ..envs.lane_change_env import CooperativeLaneChangeEnv
from ..envs.sharded_env import EnvReplicaFactory, ShardedVectorEnv
from ..envs.skill_envs import LaneChangeEnv, LaneKeepingEnv, low_level_obs_dim
from ..envs.stepping import VectorStepper
from ..envs.vector_env import VectorEnv, fast_path_blocker
from ..utils.logging_utils import (
    MetricLogger,
    episode_metrics,
    eval_metrics,
    summarise_eval_episodes,
)
from ..utils.schedule import LinearSchedule
from ..utils.seeding import episode_reset_seeds
from .batched import BatchedHeroRunner
from .hero import HeroTeam
from .low_level import SkillLibrary, train_skill
from .update_engine import UpdateEngine


def train_low_level_skills(
    config: TrainingConfig,
    episodes: int,
    skills: SkillLibrary | None = None,
    logger: MetricLogger | None = None,
) -> tuple[SkillLibrary, MetricLogger]:
    """Algorithm 2: train driving-in-lane and lane-change skills with SAC.

    The two skills are trained in separate environments with their own
    intrinsic reward functions ("we create parallel training environments
    with different intrinsic reward functions").
    """
    logger = logger or MetricLogger()
    rng = np.random.default_rng(config.seed)
    obs_dim = low_level_obs_dim(config.scenario)
    skills = skills or SkillLibrary(obs_dim, rng, hyper=config.hyper)
    fused = config.execution.fused_updates

    keeping_env = LaneKeepingEnv(config.scenario, config.rewards)
    train_skill(
        keeping_env,
        skills.driving_in_lane,
        episodes=episodes,
        seed=config.seed,
        logger=logger,
        log_prefix="lane_keeping",
        engine=UpdateEngine(skills.driving_in_lane) if fused else None,
    )

    change_env = LaneChangeEnv(config.scenario, config.rewards)
    train_skill(
        change_env,
        skills.lane_change,
        episodes=episodes,
        seed=config.seed + 1,
        logger=logger,
        log_prefix="lane_change",
        engine=UpdateEngine(skills.lane_change) if fused else None,
    )
    return skills, logger


class BatchedRolloutWorker:
    """Fills the team's replay buffers from vectorized rollouts.

    Wraps a :class:`~repro.envs.vector_env.VectorEnv` and a
    :class:`~repro.core.batched.BatchedHeroRunner`; every call to
    :meth:`collect` advances all environments synchronously with batched
    policy inference and returns the episodes that finished, tagged with
    the episode index each env was running (so per-episode schedules such
    as epsilon annealing stay well defined).
    """

    def __init__(
        self,
        vec_env: VectorStepper,
        team: HeroTeam,
        runner: BatchedHeroRunner | None = None,
    ):
        self.vec_env = vec_env
        self.team = team
        self.runner = runner or BatchedHeroRunner(team, vec_env)
        self._obs: dict[str, np.ndarray] | None = None
        self._episode_of_env = np.arange(vec_env.num_envs)
        self._episodes_started = vec_env.num_envs

    @property
    def episode_indices(self) -> np.ndarray:
        """Episode index each env is currently rolling out."""
        return self._episode_of_env

    def reset(self, seeds=None) -> None:
        self._obs = self.vec_env.reset(seeds)
        self.runner.start_all()
        self._episode_of_env = np.arange(self.vec_env.num_envs)
        self._episodes_started = self.vec_env.num_envs

    def collect(
        self,
        epsilon_schedule,
        explore: bool = True,
        max_steps: int | None = None,
        while_waiting=None,
    ) -> list[dict]:
        """Step the vector env until at least one episode finishes.

        ``epsilon_schedule`` maps an episode index to an exploration rate.
        Returns the finished episodes' stats (see
        :meth:`BatchedHeroRunner.after_step`) with an ``"episode_index"``
        entry added.  ``while_waiting`` (a learner's deferred eval) runs
        first: a local worker has nothing to overlap it with.
        """
        if while_waiting is not None:
            while_waiting()
        if self._obs is None:
            self.reset()
        steps = 0
        while True:
            epsilon = np.array(
                [epsilon_schedule(int(e)) for e in self._episode_of_env]
            )
            actions = self.runner.act(self._obs, epsilon=epsilon, explore=explore)
            self._obs, rewards, dones, infos = self.vec_env.step(actions)
            stats = self.runner.after_step(self._obs, rewards, dones, infos)
            for stat in stats:
                env_index = stat["env"]
                stat["episode_index"] = int(self._episode_of_env[env_index])
                stat["epsilon"] = float(epsilon[env_index])
                self._episode_of_env[env_index] = self._episodes_started
                self._episodes_started += 1
            steps += 1
            if stats or (max_steps is not None and steps >= max_steps):
                return stats


def train_hero(
    env: CooperativeLaneChangeEnv,
    team: HeroTeam,
    episodes: int,
    config: TrainingConfig | None = None,
    logger: MetricLogger | None = None,
    updates_per_episode: int | None = None,
    metric_prefix: str = "hero",
    eval_every: int | None = None,
    eval_episodes: int = 3,
    checkpoint_path: str | None = None,
) -> MetricLogger:
    """Algorithm 1: train the high-level cooperative strategy.

    Per episode: roll out with asynchronous option selection, store SMDP
    transitions and opponent observations, then run gradient updates for
    every agent (critic, actor, opponent models; target nets via the
    soft-update inside each agent update).

    ``eval_every`` (default: episodes // 40) interleaves short greedy
    evaluations and logs them as ``{prefix}/eval_*`` — these are the
    exploration-free learning curves Fig. 7 plots.

    ``config.execution`` (:class:`~repro.config.Execution`) decides how
    the loop runs.  ``num_envs > 1`` collects rollouts from that many
    vectorized environment copies with batched policy inference (sharded
    across ``num_workers`` processes when asked); updates, logging and
    evaluation cadence stay per-episode as in the scalar loop, and the
    interleaved evaluations stay single-process (their env batch is capped
    at ``eval_episodes``).  ``fused_updates`` updates all agents' critics,
    actors and opponent predictors as three stacked network families
    (:class:`~repro.core.update_engine.UpdateEngine`).  ``async_actors``
    moves the rollout phase into actor processes
    (:func:`~repro.distributed.actor_learner.train_hero_async`) that act on
    versioned policy snapshots, bounded by ``max_staleness`` and fanned out
    to ``num_actors``; lockstep (``max_staleness == 0``) is bitwise
    identical to the synchronous path.

    ``checkpoint_path`` (optional) writes the trained team as a versioned
    serving checkpoint (:func:`repro.serving.save_checkpoint`) once
    training finishes — on every loop variant (scalar, vectorized,
    async) — so ``repro serve`` / :func:`repro.load_policy` can pick it
    up without the training harness.
    """
    config = config or TrainingConfig()
    execution = config.execution.resolved()
    engine = UpdateEngine(team) if execution.fused_updates else None
    logger = logger or MetricLogger()
    rng = np.random.default_rng(config.seed + 12345)
    epsilon_schedule = LinearSchedule(
        config.epsilon_start, config.epsilon_end, config.epsilon_decay_episodes
    )
    if eval_every is None:
        eval_every = max(episodes // 40, 1)
    learn = functools.partial(
        _learn_hero,
        env=env,
        team=team,
        episodes=episodes,
        seed=config.seed,
        n_updates=(
            updates_per_episode
            if updates_per_episode is not None
            else config.updates_per_episode
        ),
        update_fn=engine.update if engine is not None else team.update,
        logger=logger,
        metric_prefix=metric_prefix,
        eval_every=eval_every,
        eval_episodes=eval_episodes,
    )
    if execution.num_envs == 1:
        learn(
            _scalar_hero_collect(env, team, rng, epsilon_schedule),
            evaluator=lambda n, seed: evaluate_hero(env, team, episodes=n, seed=seed),
        )
    else:
        factory = _replica_factory(env)
        eval_vec, evaluator = _hero_eval_engine(
            env, factory, team, execution.num_envs, eval_every, eval_episodes
        )
        learn = functools.partial(learn, evaluator=evaluator)
        try:
            if execution.async_actors:
                from ..distributed.actor_learner import train_hero_async

                train_hero_async(
                    env,
                    team,
                    execution=execution,
                    rng=rng,
                    epsilon_schedule=epsilon_schedule,
                    seed=config.seed,
                    logger=logger,
                    metric_prefix=metric_prefix,
                    learn=learn,
                    engine=engine,
                )
            else:
                _train_hero_vectorized(
                    factory, team, execution, rng, epsilon_schedule, learn
                )
        finally:
            if eval_vec is not None:
                eval_vec.close()
    if checkpoint_path is not None:
        from ..serving.checkpoint import save_checkpoint

        save_checkpoint(
            checkpoint_path,
            team,
            scenario=env.scenario,
            rewards=env.rewards,
            hyper=config.hyper,
            extra={"seed": config.seed},
        )
    return logger


def _scalar_hero_collect(env, team: HeroTeam, rng, epsilon_schedule):
    """``collect`` for the scalar loop: one full episode per call."""
    episode = 0

    def collect(while_waiting=None) -> list[dict]:
        nonlocal episode
        if while_waiting is not None:
            while_waiting()
        epsilon = epsilon_schedule(episode)
        episode += 1
        obs = env.reset(seed=int(rng.integers(0, 2**31 - 1)))
        team.start_episode()
        done = False
        info: dict = {}
        step = 0
        while not done:
            actions = team.act(obs, epsilon=epsilon, explore=True)
            next_obs, rewards, dones, info = env.step(actions)
            team.exchange_observations(next_obs, timestamp=step)
            team.after_step(next_obs, rewards, dones)
            obs = next_obs
            done = dones["__all__"]
            step += 1
        attempts, _ = team.lane_change_stats()
        return [
            {
                "episode": info.get("episode", env.episode_summary()),
                "epsilon": epsilon,
                "lane_change_attempts": attempts,
            }
        ]

    return collect


def _learn_hero(
    collect,
    *,
    env: CooperativeLaneChangeEnv,
    team: HeroTeam,
    episodes: int,
    seed: int,
    n_updates: int,
    update_fn,
    logger: MetricLogger,
    metric_prefix: str,
    eval_every: int | None,
    eval_episodes: int,
    evaluator,
) -> MetricLogger:
    """Algorithm 1's per-episode learn step, fed by any rollout source.

    ``collect(while_waiting=None)`` returns the stats of the episodes that
    finished since its last call (``episode`` summary, ``epsilon``,
    ``lane_change_attempts``) — one scalar episode, one
    :meth:`BatchedRolloutWorker.collect`, or one round replayed from async
    actors — and runs ``while_waiting`` before it blocks on them.  Each
    finished episode runs the gradient-update budget, logs its metrics
    and, on the eval cadence, a greedy evaluation through
    ``evaluator(episodes, seed)``, all under the completed-episode count.
    An eval after which its batch runs no further update is handed to the
    next ``collect`` as ``while_waiting``: the weights it reads cannot
    change before then, so async actors collect while it runs.
    """
    completed = 0
    losses: dict[str, float] = {}
    deferred: list = []  # evals after their batch's last update

    def evaluate(step: int) -> None:
        result = evaluator(eval_episodes, seed + 500 + step)
        logger.log_many(eval_metrics(metric_prefix, result), step)

    def run_deferred() -> None:
        for thunk in deferred:
            thunk()
        deferred.clear()

    while completed < episodes:
        stats = collect(while_waiting=run_deferred if deferred else None)
        stats = stats[: episodes - completed]
        for k, stat in enumerate(stats):
            for _ in range(n_updates):
                losses = update_fn()
            logger.log_many(
                {
                    **episode_metrics(metric_prefix, stat["episode"]),
                    f"{metric_prefix}/epsilon": stat["epsilon"],
                    f"{metric_prefix}/lane_change_attempts": float(
                        stat["lane_change_attempts"]
                    ),
                },
                completed,
            )
            if losses:
                # Log a stable subset: the first agent's core losses.
                first = env.agents[0]
                for name in ("critic_loss", "actor_loss"):
                    key = f"{first}/{name}"
                    if key in losses:
                        logger.log(f"{metric_prefix}/{name}", losses[key], completed)
                for key, value in losses.items():
                    if "_nll" in key:
                        logger.log(f"{metric_prefix}/{key}", value, completed)
            if eval_every and (
                completed % eval_every == 0 or completed == episodes - 1
            ):
                if n_updates and k < len(stats) - 1:
                    evaluate(completed)
                else:
                    deferred.append(functools.partial(evaluate, completed))
            completed += 1
    run_deferred()
    return logger


def _make_hero_vec_env(
    factory: EnvReplicaFactory, num_envs: int, num_workers: int
) -> VectorStepper:
    """Build the rollout engine: sharded across workers when asked to."""
    if num_workers > 1:
        return ShardedVectorEnv(num_envs, env_factory=factory, num_workers=num_workers)
    return VectorEnv(num_envs, env_fns=[factory] * num_envs)


def _hero_eval_engine(env, factory, team, num_envs, eval_every, eval_episodes):
    """The interleaved-eval engine of every vectorized HERO path.

    Warns when ``env``'s configuration steps on the scalar fallback — the
    replicas the rollout engines (local or in actor processes) build from
    it fall back the same way.  Returns ``(engine, evaluator)``, both
    ``None`` when ``eval_every`` disables evals.  More eval envs than eval
    episodes would just burn steps on rollouts that are never scored, so
    the batch is capped at ``eval_episodes``; at that size multi-process
    dispatch costs more than the shard work, so it stays single-process
    (results are bit-for-bit identical either way;
    :func:`evaluate_hero_vectorized` accepts a sharded engine when a
    caller builds one for large standalone evaluations).
    """
    reason = fast_path_blocker([env])
    if reason is not None:
        warnings.warn(
            f"vectorized HERO rollouts are stepping on the scalar fallback "
            f"({reason}); training is correct but --num-envs/--num-workers "
            "will not speed it up",
            RuntimeWarning,
            stacklevel=3,
        )
    if not eval_every:
        return None, None
    engine = _make_hero_vec_env(factory, max(min(num_envs, eval_episodes), 1), 1)
    runner = BatchedHeroRunner(team, engine)

    def evaluator(episodes, seed):
        return evaluate_hero_vectorized(
            engine, team, episodes=episodes, seed=seed, runner=runner
        )

    return engine, evaluator


def _replica_factory(env: CooperativeLaneChangeEnv) -> EnvReplicaFactory:
    """A picklable factory replicating ``env`` for vectorized rollouts.

    Shares the caller's (stateless) track and scripted policy, so custom
    traffic falls through to the scalar fallback instead of being swapped
    for the defaults; picklable (not a closure) so shard workers and actor
    processes can rebuild the replicas.
    """
    if type(env) is not CooperativeLaneChangeEnv:
        raise ValueError(
            f"num_envs > 1 cannot replicate a {type(env).__name__}; vectorized "
            "rollouts would silently train on different dynamics — use "
            "num_envs=1 or build the VectorEnv/BatchedRolloutWorker directly"
        )
    return EnvReplicaFactory(
        scenario=env.scenario,
        rewards=env.rewards,
        track=env.track,
        scripted_policy=env._scripted_policy,
    )


def _train_hero_vectorized(
    factory: EnvReplicaFactory,
    team: HeroTeam,
    execution,
    rng: np.random.Generator,
    epsilon_schedule,
    learn,
) -> None:
    """Algorithm 1 with the rollout phase on a local vectorized engine.

    ``learn`` pulls :meth:`BatchedRolloutWorker.collect`, so each finished
    episode triggers the same learn step as the scalar loop, in completion
    order.  With ``num_workers > 1`` the engine shards its env batch across
    worker processes (:class:`~repro.envs.sharded_env.ShardedVectorEnv`).
    """
    num_envs = execution.num_envs
    vec_env = _make_hero_vec_env(factory, num_envs, execution.num_workers)
    try:
        worker = BatchedRolloutWorker(vec_env, team)
        worker.reset([int(rng.integers(0, 2**31 - 1)) for _ in range(num_envs)])
        learn(functools.partial(worker.collect, epsilon_schedule))
    finally:
        vec_env.close()


def evaluate_hero(
    env: CooperativeLaneChangeEnv,
    team: HeroTeam,
    episodes: int,
    seed: int = 0,
) -> dict[str, float]:
    """Greedy evaluation returning the paper's Table II style metrics.

    Episode reset seeds come from one ``SeedSequence`` spawn
    (:func:`repro.utils.seeding.episode_reset_seeds`), so evaluation
    episode ``e`` is a pure function of ``(seed, e)`` and
    :func:`evaluate_hero_vectorized` — which finishes episodes out of
    order — can replay the identical seed stream.
    """
    reset_seeds = episode_reset_seeds(seed, episodes)
    rewards, collisions, successes, speeds = [], [], [], []
    for episode in range(episodes):
        obs = env.reset(seed=int(reset_seeds[episode]))
        team.start_episode()
        done = False
        info: dict = {}
        while not done:
            actions = team.act(obs, epsilon=0.0, explore=False)
            obs, _, dones, info = env.step(actions)
            done = dones["__all__"]
        summary = info.get("episode", env.episode_summary())
        rewards.append(summary["episode_reward"])
        collisions.append(summary["collision"])
        successes.append(summary["merge_success_rate"])
        speeds.append(summary["mean_speed"])
    return summarise_eval_episodes(rewards, collisions, successes, speeds)


def evaluate_hero_vectorized(
    vec_env: VectorStepper,
    team: HeroTeam,
    episodes: int,
    seed: int = 0,
    runner: BatchedHeroRunner | None = None,
) -> dict[str, float]:
    """Greedy evaluation of ``team`` over a vectorized stepping engine
    (:class:`VectorEnv` or :class:`~repro.envs.sharded_env.ShardedVectorEnv`).

    Drives the env batch with :meth:`BatchedHeroRunner.act` in greedy mode
    (``epsilon=0``, ``explore=False``) and never calls ``after_step`` —
    mirroring the scalar :func:`evaluate_hero`, which selects one option
    per agent at episode start, runs its skill to the episode's end, and
    leaves replay buffers and opponent-model histories untouched.

    Per-env episode accounting scores exactly ``episodes`` completed
    episodes: env ``i`` always runs a specific evaluation-episode index
    whose reset seed comes from the same ``SeedSequence`` spawn as the
    scalar evaluator's, and per-episode summaries are accumulated by
    episode index, so the returned means aggregate the identical episode
    set in the identical order.  At ``num_envs=1`` the result is
    **bit-for-bit** equal to :func:`evaluate_hero`; at larger batches the
    only difference is last-ulp float noise from batched network forwards
    (BLAS matmuls are not row-wise bit-stable across batch sizes), so
    results are statistically identical.

    ``runner`` may be a pre-built :class:`BatchedHeroRunner` over
    ``vec_env`` (the interleaved-evaluation path reuses one across calls);
    it must not be the training runner — evaluation clobbers its per-env
    option state.
    """
    runner = runner or BatchedHeroRunner(team, vec_env)
    if runner.vec_env is not vec_env:
        raise ValueError("runner was built over a different VectorEnv")
    reset_seeds = episode_reset_seeds(seed, episodes)
    n = vec_env.num_envs

    # opponent_mode='observed' actors condition on state the training
    # rollouts left on the team; a reused/fresh eval runner must see it.
    runner.sync_observed_options()
    runner.start_all()
    # Envs beyond the episode budget run unseeded and are never scored.
    obs = vec_env.reset(
        [int(reset_seeds[i]) if i < episodes else None for i in range(n)]
    )

    episode_of_env = np.arange(n)
    next_to_start = n
    rewards = np.zeros(episodes)
    collisions = np.zeros(episodes)
    successes = np.zeros(episodes)
    speeds = np.zeros(episodes)
    remaining = episodes
    while remaining:
        actions = runner.act(obs, epsilon=0.0, explore=False)
        # Finished envs start the next episodes, seeded, in env order.
        obs, _, dones, infos = vec_env.step(
            actions, reset_seeds=reset_seeds[next_to_start : next_to_start + n]
        )
        for i in np.flatnonzero(dones):
            episode = int(episode_of_env[i])
            if episode < episodes:
                summary = infos[i]["episode"]
                rewards[episode] = summary["episode_reward"]
                collisions[episode] = summary["collision"]
                successes[episode] = summary["merge_success_rate"]
                speeds[episode] = summary["mean_speed"]
                remaining -= 1
            runner.start_episode(i)
            episode_of_env[i] = next_to_start
            next_to_start += 1
    return summarise_eval_episodes(rewards, collisions, successes, speeds)
