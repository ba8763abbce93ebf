"""Common interface for the end-to-end MARL baselines (Sec. V-A).

All four baselines act on the *flattened, discretised* environment stack
(:func:`repro.envs.make_baseline_env`): per-agent flat observations and a
discrete grid of primitive (linear, angular) commands. HERO's advantage in
the paper comes precisely from not having to learn in that flat space.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from ..config import Execution
from ..utils.logging_utils import (
    MetricLogger,
    episode_metrics,
    eval_metrics,
    summarise_eval_episodes,
)
from ..utils.schedule import LinearSchedule
from ..utils.seeding import episode_partition, episode_reset_seeds


def _resolve_update_fn(algorithm: "MARLAlgorithm", fused_updates: bool):
    """The algorithm's update callable, optionally through the fused engine."""
    if not fused_updates:
        return algorithm.update
    from ..core.update_engine import UpdateEngine

    return UpdateEngine(algorithm).update


class MARLAlgorithm:
    """Interface every baseline implements.

    Besides the scalar ``act``/``observe`` pair, algorithms expose batched
    counterparts operating on stacked arrays from a
    :class:`~repro.envs.wrappers.VectorBaselineEnv`.  The defaults below
    loop over the batch and delegate to the scalar methods, so third-party
    subclasses keep working under :func:`train_marl_vectorized` without
    changes; the in-tree baselines override them with true batched
    implementations built on the gradient-free ``Sequential.infer`` paths.
    """

    name: str = "base"

    def __init__(self, agent_ids: list[str], obs_dim: int, num_actions: int):
        self.agent_ids = list(agent_ids)
        self.obs_dim = obs_dim
        self.num_actions = num_actions

    @property
    def num_agents(self) -> int:
        return len(self.agent_ids)

    def act(
        self, observations: dict[str, np.ndarray], explore: bool = True
    ) -> dict[str, int]:
        raise NotImplementedError

    def observe(
        self,
        observations: dict[str, np.ndarray],
        actions: dict[str, int],
        rewards: dict[str, float],
        next_observations: dict[str, np.ndarray],
        dones: dict[str, bool],
    ) -> None:
        raise NotImplementedError

    def update(self) -> dict[str, float] | None:
        raise NotImplementedError

    def end_episode(self) -> None:
        """Hook for on-policy methods (COMA) to consume the episode."""

    # ------------------------------------------------------------------
    # Batched interface (vectorized training)
    # ------------------------------------------------------------------
    def act_batch(self, observations: np.ndarray, explore: bool = True) -> np.ndarray:
        """Actions for a ``(num_envs, num_agents, obs_dim)`` observation stack.

        Returns integer actions of shape ``(num_envs, num_agents)``.  During
        vectorized training ``self.epsilon`` (when the algorithm has one) may
        be a ``(num_envs,)`` array — one exploration rate per env, since the
        envs run different episode indices of the schedule.  This default
        delegates row-by-row to :meth:`act`.
        """
        epsilon = getattr(self, "epsilon", None)
        per_env = epsilon is not None and np.ndim(epsilon) > 0
        actions = np.empty((len(observations), self.num_agents), dtype=np.int64)
        for i, row in enumerate(observations):
            if per_env:
                self.epsilon = float(np.asarray(epsilon)[i])
            obs = {agent: row[k] for k, agent in enumerate(self.agent_ids)}
            row_actions = self.act(obs, explore=explore)
            actions[i] = [row_actions[agent] for agent in self.agent_ids]
        if per_env:
            self.epsilon = epsilon
        return actions

    def observe_batch(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_observations: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Record a batch of transitions, one row per env.

        ``rewards`` and ``dones`` are ``(num_envs,)`` (the team reward is
        shared and every agent terminates with the env).  This default
        delegates row-by-row to :meth:`observe`; note that on-policy
        algorithms whose ``observe`` accumulates a single running episode
        must override this for ``num_envs > 1`` (rows from different envs
        interleave), as :class:`~repro.baselines.coma.COMA` does.
        """
        for i in range(len(observations)):
            obs = {a: observations[i, k] for k, a in enumerate(self.agent_ids)}
            next_obs = {
                a: next_observations[i, k] for k, a in enumerate(self.agent_ids)
            }
            acts = {a: int(actions[i, k]) for k, a in enumerate(self.agent_ids)}
            rews = {a: float(rewards[i]) for a in self.agent_ids}
            done_dict = {a: bool(dones[i]) for a in self.agent_ids}
            done_dict["__all__"] = bool(dones[i])
            self.observe(obs, acts, rews, next_obs, done_dict)

    # Convenience used by every subclass.
    def _stack(self, observations: dict[str, np.ndarray]) -> np.ndarray:
        return np.stack([observations[a] for a in self.agent_ids])

    # ------------------------------------------------------------------
    # Persistence (the shared checkpoint contract)
    # ------------------------------------------------------------------
    # Every method in the repository — HeroTeam and all four baselines —
    # exposes the same state_dict()/load_state_dict()/save(path)/load(path)
    # quartet (see docs/SERVING.md).  The default below discovers every
    # network automatically: any Module attribute, plus Modules held in
    # dict/list/tuple attributes (IDQN's per-agent dicts, MADDPG/COMA's
    # per-agent lists), target networks included, so a round trip restores
    # the learner exactly.  Optimiser moments and replay buffers are
    # deliberately excluded: checkpoints describe the *policy*, and the
    # serving stack (repro.serving) only ever loads parameters.
    def named_modules(self) -> dict[str, "object"]:
        """Discover this algorithm's networks as ``{dotted_name: Module}``.

        Traverses ``vars(self)`` in attribute-definition order (which is
        deterministic per construction), descending one level into dicts,
        lists and tuples — the container shapes the in-tree baselines use.
        """
        from ..nn.module import Module

        modules: dict[str, Module] = {}
        for name, value in vars(self).items():
            if isinstance(value, Module):
                modules[name] = value
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Module):
                        modules[f"{name}.{key}"] = item
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        modules[f"{name}.{i}"] = item
        return modules

    def state_dict(self) -> dict[str, np.ndarray]:
        """All network parameters as ``{dotted_name: array}`` (copies)."""
        state: dict[str, np.ndarray] = {}
        for prefix, module in self.named_modules().items():
            for key, value in module.state_dict().items():
                state[f"{prefix}.{key}"] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters written by :meth:`state_dict` (strict)."""
        modules = self.named_modules()
        own_keys = set()
        for prefix, module in modules.items():
            for key, _ in module.named_parameters():
                own_keys.add(f"{prefix}.{key}")
        missing = own_keys - set(state)
        unexpected = set(state) - own_keys
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)} "
                f"unexpected={sorted(unexpected)}"
            )
        for prefix, module in modules.items():
            sub = {
                key[len(prefix) + 1:]: value
                for key, value in state.items()
                if key.startswith(f"{prefix}.")
            }
            module.load_state_dict(sub)

    def save(self, path) -> None:
        """Write all network parameters as one ``.npz`` archive."""
        np.savez(path, **self.state_dict())

    def load(self, path) -> None:
        """Restore an archive written by :meth:`save`."""
        with np.load(path) as archive:
            self.load_state_dict({name: archive[name] for name in archive.files})


def train_marl(
    env,
    algorithm: MARLAlgorithm,
    episodes: int,
    seed: int = 0,
    epsilon_start: float = 1.0,
    epsilon_end: float = 0.05,
    epsilon_decay_episodes: int | None = None,
    updates_per_episode: int = 1,
    logger: MetricLogger | None = None,
    metric_prefix: str | None = None,
    eval_every: int | None = None,
    eval_episodes: int = 3,
    fused_updates: bool = False,
) -> MetricLogger:
    """Generic training loop recording the paper's four metrics.

    Works for both off-policy (per-episode batched updates) and on-policy
    (the ``end_episode`` hook) baselines. ``eval_every`` (default:
    episodes // 40) interleaves short greedy evaluations, logged under
    ``{prefix}/eval_*`` — the exploration-free curves Fig. 7 plots.

    ``fused_updates`` routes gradient steps through
    :class:`repro.core.update_engine.UpdateEngine` — IDQN's per-agent DQNs
    update as one stacked family, and MADDPG/MAAC run their actor steps
    through the cross-family VJP against frozen stacked critics.  Only
    COMA (whole variable-length episodes, no fixed family shape) delegates
    to its own ``update`` unchanged.
    """
    logger = logger or MetricLogger()
    prefix = metric_prefix or algorithm.name
    update_fn = _resolve_update_fn(algorithm, fused_updates)
    # Reset seeds are a pure function of (seed, episode) so the vectorized
    # loop — which finishes episodes out of order — replays the same stream.
    reset_seeds = episode_reset_seeds(seed, episodes)
    epsilon_schedule = LinearSchedule(
        epsilon_start, epsilon_end, epsilon_decay_episodes or max(episodes // 2, 1)
    )
    if eval_every is None:
        eval_every = max(episodes // 40, 1)
    losses = None
    for episode in range(episodes):
        epsilon = epsilon_schedule(episode)
        if hasattr(algorithm, "epsilon"):
            algorithm.epsilon = epsilon
        obs = env.reset(seed=int(reset_seeds[episode]))
        done = False
        info: dict = {}
        while not done:
            actions = algorithm.act(obs, explore=True)
            next_obs, rewards, dones, info = env.step(actions)
            algorithm.observe(obs, actions, rewards, next_obs, dones)
            obs = next_obs
            done = dones["__all__"]
        algorithm.end_episode()
        for _ in range(updates_per_episode):
            losses = update_fn()

        logger.log_many(episode_metrics(prefix, info["episode"]), episode)
        if losses:
            for name, value in losses.items():
                logger.log(f"{prefix}/{name}", value, episode)

        if eval_every and (episode % eval_every == 0 or episode == episodes - 1):
            result = evaluate_marl(
                env, algorithm, episodes=eval_episodes, seed=seed + 500 + episode
            )
            logger.log_many(eval_metrics(prefix, result), episode)
    return logger


def train_marl_vectorized(
    vec_env,
    algorithm: MARLAlgorithm,
    episodes: int,
    seed: int = 0,
    epsilon_start: float = 1.0,
    epsilon_end: float = 0.05,
    epsilon_decay_episodes: int | None = None,
    updates_per_episode: int = 1,
    logger: MetricLogger | None = None,
    metric_prefix: str | None = None,
    eval_every: int | None = None,
    eval_episodes: int = 3,
    eval_num_envs: int | None = None,
    execution: Execution = Execution(),
) -> MetricLogger:
    """:func:`train_marl` with the rollout phase on a ``VectorBaselineEnv``.

    Episode accounting is per env: env ``i`` always runs a specific episode
    index, whose reset seed and exploration epsilon come from the same
    per-episode streams as the scalar loop, and each finished episode
    triggers the scalar loop's ``end_episode`` / update budget / logging /
    greedy-eval sequence under its own episode index (metrics are flushed to
    the logger in episode order).  With ``num_envs == 1`` this reproduces
    :func:`train_marl` bit-for-bit; with more envs only experience
    collection changes — once the episode budget is exhausted, still-running
    envs keep feeding the replay buffers until their last counted episode
    finishes.

    The interleaved greedy evaluations run on a dedicated evaluation
    ``VectorBaselineEnv`` (the training one holds live mid-episode state)
    through :func:`evaluate_marl_vectorized`, over ``eval_num_envs`` env
    copies — default: the training batch size capped at ``eval_episodes``
    (extra envs would roll out episodes that are never scored).  The
    evaluation env stays single-process even when training steps through
    sharded worker processes: its batch is too small to amortise worker
    dispatch, and results are bit-for-bit identical either way.

    ``execution`` supplies ``fused_updates`` and the async collection
    settings; the env batch itself (its size and sharding) is ``vec_env``.
    Collection is a :class:`MarlRolloutWorker`; ``async_actors`` moves it
    into actor processes on the async actor–learner stack
    (:func:`~repro.distributed.actor_learner.train_marl_async`), feeding
    the same learner (:func:`_learn_marl`) shipped rows; only IDQN
    supports it (other baselines fall back to this synchronous loop with a
    warning — their recurrent update/rollout coupling has no capture-replay
    protocol yet).  ``max_staleness=0`` is a lockstep barrier, bitwise
    identical to the synchronous loop at any ``num_actors`` fan-out.
    """
    logger = logger or MetricLogger()
    prefix = metric_prefix or algorithm.name
    engine = None
    if execution.fused_updates:
        from ..core.update_engine import UpdateEngine

        engine = UpdateEngine(algorithm)
    update_fn = engine.update if engine is not None else algorithm.update
    async_actors = execution.async_actors
    if async_actors:
        from .idqn import IndependentDQN

        if not isinstance(algorithm, IndependentDQN):
            warnings.warn(
                f"async_actors supports IDQN only; {algorithm.name} falls "
                "back to the synchronous vectorized loop",
                RuntimeWarning,
                stacklevel=2,
            )
            async_actors = False
    epsilon_schedule = LinearSchedule(
        epsilon_start, epsilon_end, epsilon_decay_episodes or max(episodes // 2, 1)
    )
    if eval_every is None:
        eval_every = max(episodes // 40, 1)
    eval_vec_env = None
    if eval_every:
        from ..envs.wrappers import make_baseline_vector_env

        if eval_num_envs is None:
            eval_num_envs = max(min(vec_env.num_envs, eval_episodes), 1)
        # The eval batch is capped at eval_episodes (tiny), where
        # multi-process dispatch costs more than the shard work — keep
        # interleaved evals single-process even when training is sharded
        # (bit-for-bit identical either way; evaluate_marl_vectorized
        # accepts a sharded env when a caller builds one).
        eval_vec_env = make_baseline_vector_env(
            eval_num_envs, scenario=vec_env.scenario, rewards=vec_env.rewards
        )
    if not vec_env.fast_path:
        warnings.warn(
            "VectorBaselineEnv is stepping on the scalar fallback "
            f"({vec_env.fallback_reason}); training is correct but "
            "--num-envs/--num-workers will not speed it up",
            RuntimeWarning,
            stacklevel=2,
        )

    learn = functools.partial(
        _learn_marl,
        algorithm=algorithm,
        episodes=episodes,
        seed=seed,
        epsilon_schedule=epsilon_schedule,
        updates_per_episode=updates_per_episode,
        logger=logger,
        prefix=prefix,
        eval_every=eval_every,
        eval_episodes=eval_episodes,
        eval_vec_env=eval_vec_env,
        update_fn=update_fn,
    )
    try:
        if async_actors:
            from ..distributed.actor_learner import train_marl_async

            return train_marl_async(
                vec_env,
                algorithm,
                episodes,
                seed,
                epsilon_schedule,
                logger,
                prefix,
                learn,
                execution,
                engine=engine,
            )
        worker = MarlRolloutWorker(vec_env, algorithm, episodes, seed, epsilon_schedule)
        return learn(worker.collect)
    finally:
        if eval_vec_env is not None:
            eval_vec_env.close()


def _idqn_episode_plan(episodes: int, n: int, num_actors: int, actor: int):
    """The episode universe and one actor's walk through it.

    Returns ``(universe, my_episodes)``: the size of the
    :func:`episode_reset_seeds` universe and the (global) episode indices
    this actor walks, in start order.  The universe is padded so every
    actor can seed its initial batch of ``n`` envs; indices at or beyond
    ``episodes`` are warm-up/overflow episodes that are stepped but never
    counted.  At ``num_actors=1`` this is the ``max(episodes, n)``
    universe walked in order.
    """
    universe = max(episodes, n * num_actors)
    return universe, episode_partition(universe, num_actors, actor)


class MarlRolloutWorker:
    """Steps a ``VectorBaselineEnv`` under the per-env episode plan.

    The baselines' counterpart of
    :class:`~repro.core.trainer.BatchedRolloutWorker`.  Env ``i`` always
    runs one episode index of the plan (:func:`_idqn_episode_plan`), whose
    reset seed and exploration epsilon come from the same per-episode
    streams as the scalar loop; a finished env is handed the plan's next
    episode (seeded), or idles on the auto-reset rollout once the plan is
    exhausted.  ``num_actors``/``actor`` select one actor's stride of the
    episode universe (partitioned async collection); the default walks
    the whole universe, as the synchronous loop does.

    Each :meth:`step` advances every env once and returns one row:
    ``obs``, ``actions``, ``rewards``, ``next_obs`` (terminal observations
    substituted for finished envs), ``dones``, and per finished env, in
    env order, the episode index it was running (``episodes``) and its
    summary (``summaries``).
    """

    def __init__(
        self,
        vec_env,
        algorithm: MARLAlgorithm,
        episodes: int,
        seed: int,
        epsilon_schedule,
        num_actors: int = 1,
        actor: int = 0,
    ):
        self.vec_env = vec_env
        self.algorithm = algorithm
        self.episodes = episodes
        self.epsilon_schedule = epsilon_schedule
        n = vec_env.num_envs
        universe, self._plan = _idqn_episode_plan(episodes, n, num_actors, actor)
        self._reset_seeds = episode_reset_seeds(seed, universe)
        self._episode_of_env = self._plan[:n].copy()
        self._next_slot = n
        # Budget episodes of this plan that have not finished yet.
        self.budget_left = int((self._plan < episodes).sum())
        self._obs = vec_env.reset(
            seeds=[int(self._reset_seeds[e]) for e in self._episode_of_env]
        )

    def collect(self, while_waiting=None) -> list[dict]:
        """One :meth:`step` as a learner batch (the synchronous ``collect``).

        ``while_waiting`` (a deferred eval) runs first: a local worker has
        nothing to overlap it with.
        """
        if while_waiting is not None:
            while_waiting()
        return [self.step()]

    def step(self) -> dict:
        algorithm = self.algorithm
        if hasattr(algorithm, "epsilon"):
            eps = np.array(
                [
                    self.epsilon_schedule(min(int(e), self.episodes - 1))
                    for e in self._episode_of_env
                ]
            )
            algorithm.epsilon = float(eps[0]) if len(eps) == 1 else eps
        obs = self._obs
        actions = algorithm.act_batch(obs, explore=True)
        # The next plan episodes' seeds, in the order finished envs take them.
        upcoming = self._plan[self._next_slot : self._next_slot + len(obs)]
        next_obs, rewards, dones, infos = self.vec_env.step(
            actions, reset_seeds=self._reset_seeds[upcoming]
        )
        finished = np.flatnonzero(dones)
        observed_next = next_obs
        if finished.size:
            # Done rows already hold the auto-reset observation; the stored
            # transition must see the terminal one, as the scalar loop does.
            observed_next = next_obs.copy()
            for i in finished:
                observed_next[i] = infos[i]["terminal_observation"]
        row = {
            "obs": obs,
            "actions": actions,
            "rewards": np.array(rewards, copy=True),
            "next_obs": observed_next,
            "dones": np.array(dones, copy=True),
            "episodes": [int(self._episode_of_env[i]) for i in finished],
            "summaries": [infos[i]["episode"] for i in finished],
        }
        for i in finished:
            if self._episode_of_env[i] < self.episodes:
                self.budget_left -= 1
            if self._next_slot < len(self._plan):
                # next_obs[i] already holds this episode's seeded reset.
                self._episode_of_env[i] = int(self._plan[self._next_slot])
            else:
                self._episode_of_env[i] = self.episodes  # never counted
            self._next_slot += 1
        self._obs = next_obs
        return row


def _learn_marl(
    collect,
    *,
    algorithm: MARLAlgorithm,
    episodes: int,
    seed: int,
    epsilon_schedule,
    updates_per_episode: int,
    logger: MetricLogger,
    prefix: str,
    eval_every: int | None,
    eval_episodes: int,
    eval_vec_env,
    update_fn,
) -> MetricLogger:
    """The learner of :func:`train_marl_vectorized`, fed by any row source.

    ``collect(while_waiting=None)`` returns the next
    :meth:`MarlRolloutWorker.step` rows — one local step, or one round
    shipped by async actors — and runs ``while_waiting`` before it blocks
    on them.  Each row is observed; each finished env runs
    ``end_episode`` and, if its episode is in the budget, the update
    budget and (on the eval cadence) a greedy evaluation.  An eval after
    which its batch runs no further update is handed to the next
    ``collect`` as ``while_waiting``: the weights it reads cannot change
    before then, so async actors collect while it runs.  Completed
    episodes are logged strictly in episode-index order so the series
    match the scalar loop's.
    """
    pending: dict[int, dict] = {}
    next_to_log = 0
    seen = 0  # budget episodes processed
    deferred: list = []  # evals after their batch's last update

    def finish(episode: int, entry: dict, evaluate: bool) -> None:
        nonlocal next_to_log
        if evaluate:
            result = evaluate_marl_vectorized(
                eval_vec_env,
                algorithm,
                episodes=eval_episodes,
                seed=seed + 500 + episode,
            )
            entry.update(eval_metrics(prefix, result))
        pending[episode] = entry
        while next_to_log in pending:
            logger.log_many(pending.pop(next_to_log), next_to_log)
            next_to_log += 1

    def run_deferred() -> None:
        for thunk in deferred:
            thunk()
        deferred.clear()

    while seen < episodes:
        rows = collect(while_waiting=run_deferred if deferred else None)
        left = sum(e < episodes for row in rows for e in row["episodes"])
        for row in rows:
            algorithm.observe_batch(
                row["obs"], row["actions"], row["rewards"], row["next_obs"], row["dones"]
            )
            for episode, summary in zip(row["episodes"], row["summaries"]):
                algorithm.end_episode()
                if episode >= episodes:
                    continue
                seen += 1
                left -= 1
                losses = None
                for _ in range(updates_per_episode):
                    losses = update_fn()
                entry = episode_metrics(prefix, summary)
                entry.update(
                    {f"{prefix}/{name}": value for name, value in (losses or {}).items()}
                )
                evaluate = bool(eval_every) and (
                    episode % eval_every == 0 or episode == episodes - 1
                )
                if evaluate and not (left and updates_per_episode):
                    deferred.append(functools.partial(finish, episode, entry, True))
                else:
                    finish(episode, entry, evaluate)
    run_deferred()
    if hasattr(algorithm, "epsilon"):
        algorithm.epsilon = float(epsilon_schedule(episodes - 1))
    return logger


def evaluate_marl(
    env, algorithm: MARLAlgorithm, episodes: int, seed: int = 0
) -> dict[str, float]:
    """Greedy evaluation with the paper's Table II metrics.

    Episode reset seeds come from one ``SeedSequence`` spawn
    (:func:`repro.utils.seeding.episode_reset_seeds`), so evaluation
    episode ``e`` is a pure function of ``(seed, e)`` and
    :func:`evaluate_marl_vectorized` — which finishes episodes out of
    order — can replay the identical seed stream.
    """
    reset_seeds = episode_reset_seeds(seed, episodes)
    rewards, collisions, successes, speeds = [], [], [], []
    for episode in range(episodes):
        obs = env.reset(seed=int(reset_seeds[episode]))
        done = False
        info: dict = {}
        while not done:
            actions = algorithm.act(obs, explore=False)
            obs, _, dones, info = env.step(actions)
            done = dones["__all__"]
        summary = info["episode"]
        rewards.append(summary["episode_reward"])
        collisions.append(summary["collision"])
        successes.append(summary["merge_success_rate"])
        speeds.append(summary["mean_speed"])
    return summarise_eval_episodes(rewards, collisions, successes, speeds)


def evaluate_marl_vectorized(
    vec_env, algorithm: MARLAlgorithm, episodes: int, seed: int = 0
) -> dict[str, float]:
    """Greedy evaluation over a ``VectorBaselineEnv``.

    Steps the env batch with ``algorithm.act_batch(..., explore=False)``
    (no exploration RNG, no replay-buffer writes, no ``end_episode``
    consumption — identical side-effect profile to the scalar
    :func:`evaluate_marl`).  Per-env episode accounting scores exactly
    ``episodes`` completed episodes: env ``i`` always runs a specific
    evaluation-episode index whose reset seed comes from the same
    ``SeedSequence`` spawn as the scalar evaluator's, and summaries are
    accumulated by episode index so the means aggregate the identical
    episode set in the identical order.  At ``num_envs=1`` the result is
    **bit-for-bit** equal to :func:`evaluate_marl`; at larger batches the
    only difference is last-ulp float noise from batched network forwards,
    so results are statistically identical.
    """
    reset_seeds = episode_reset_seeds(seed, episodes)
    n = vec_env.num_envs
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
        actions = algorithm.act_batch(obs, explore=False)
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
            episode_of_env[i] = next_to_start
            next_to_start += 1
    return summarise_eval_episodes(rewards, collisions, successes, speeds)
