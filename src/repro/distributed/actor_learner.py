"""Async actor–learner training stack (Ape-X/IMPALA style) for DTDE runs.

Topology: **N rollout actor processes** (``num_actors``) each drive a
vectorized env batch with batched policy inference on a replica of the
policy networks (``num_workers > 1`` shards the env *stepping* inside
each actor across worker processes via
:class:`~repro.envs.sharded_env.ShardedVectorEnv`), while the **learner**
stays in the calling process, drains transition batches from per-actor
shared-memory :class:`~repro.distributed.queues.ShmRingQueue` rings
merged by :class:`~repro.distributed.queues.ActorFanIn`, and runs
gradient updates continuously.  Fresh policy snapshots flow the other
way through the
:class:`~repro.distributed.parameter_server.ParameterServer` — one
double-buffered segment serves every actor (readers only attach), and
each payload reports the snapshot version that actor acted with, so the
learner logs aggregate and per-actor ``snapshot_staleness``.

Nothing here re-implements a training loop.  The actors step the
synchronous loops' own rollout workers
(:class:`~repro.core.trainer.BatchedRolloutWorker`,
:class:`~repro.baselines.base.MarlRolloutWorker`), and the learner runs
the synchronous loops' own learn step, pulling shipped rounds through a
``collect()`` callable instead of stepping a local worker.  Both method
families share one actor loop (:func:`_actor_main`) and one learner-side
fleet (:func:`_run_actors`: spawn, drain, shutdown).

Option selection consumes one shared RNG stream across an env batch, so
an env batch is never *split* across actors (batch-shaped draws and
batch-shaped BLAS forwards would both change bits).  Fan-out instead
changes what each whole actor steps, per mode:

* **Lockstep fan-out** (``max_staleness=0``) — *replicated collection*.
  All N actors step identical env-batch replicas: same env seeds, same
  snapshot, same published RNG sidecar each round, hence identical
  trajectories.  Every replica ships every round; the learner drains the
  full replica set in rotation (``ActorFanIn.get(expected=merged % N)``)
  before publishing the next version, replaying only the round owner's
  (``round % N``) bit-identical copy.  The drain is the lockstep
  barrier: each ship acks that its replica has consumed the current
  snapshot, so every replica's next ``read`` observes exactly
  ``version == round`` — without it, a newest-wins read would let a fast
  learner feed a slow replica a later snapshot and silently fork the
  replicated state.  The learner adopts the shipped post-round RNG
  state, replays the captured experience in order, updates, and
  publishes version ``round + 1`` — so the run is **bitwise identical**
  to the synchronous vectorized loop at any ``num_actors``
  (``tests/test_actor_learner.py`` locks N in {1, 2, 3}).  This is the
  correctness mode: replication buys attribution coverage, not
  throughput.
* **Staleness fan-out** (``max_staleness=k > 0``) — *partitioned
  collection*, the throughput mode.  Each actor runs its *own* env batch
  on actor-indexed forked RNG streams
  (:func:`~repro.utils.seeding.spawn_rngs` over ``num_actors * agents``
  children, actor-major, so actor 0 keeps the single-actor streams), and
  IDQN partitions the episode universe by stride
  (:func:`~repro.utils.seeding.episode_partition`: actor ``k`` owns
  episodes ``k, k+N, k+2N, ...``), so any N consumes the same
  :func:`~repro.utils.seeding.episode_reset_seeds` universe.  Every
  actor imports the newest snapshot with version >= ``round - k`` before
  each of its rounds; collection and update genuinely overlap and scale
  with N.  The learner logs ``{prefix}/snapshot_staleness`` (aggregate,
  at the merged-payload counter) and
  ``{prefix}/snapshot_staleness/actor{k}`` (per actor, at that actor's
  round counter).

Shutdown: the learner sets the server's stop flag, closes every queue
(waking actors blocked on backpressure), joins the actors and unlinks
every shared-memory segment.  An actor-side failure — including a shard
worker death inside its ``ShardedVectorEnv`` — arrives as an
:class:`~repro.distributed.protocol.ActorError` frame carrying the
actor id and jumps the fan-in merge; an actor that dies without
reporting (SIGKILL, ``os._exit``) is caught by the learner's abort poll,
which names the dead actor process.  Either way the learner re-raises a
``RuntimeError`` naming the failing actor and tears the whole fleet
down.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import time
import traceback
from typing import Callable, NamedTuple

import numpy as np

from ..baselines.base import MarlRolloutWorker
from ..baselines.base import _idqn_episode_plan  # noqa: F401  (re-exported)
from ..baselines.idqn import IndependentDQN
from ..config import Execution
from ..core.hero import HeroTeam
from ..core.options import OptionSet
from ..core.trainer import BatchedRolloutWorker, _make_hero_vec_env
from ..core.update_engine import (
    BoundFamilyVector,
    HeroTeamUpdateEngine,
    IDQNUpdateEngine,
    family_dtype,
    family_vector_size,
    gather_family,
)
from ..envs.lane_change_env import CooperativeLaneChangeEnv
from ..envs.sharded_env import EnvReplicaFactory
from ..envs.wrappers import make_baseline_vector_env
from ..nn.layers import Linear
from ..nn.tensor import get_default_dtype, set_default_dtype
from ..utils.logging_utils import MetricLogger
from ..utils.seeding import spawn_rngs
from .parameter_server import ParameterServer
from .protocol import ActorError, RolloutPayload, encode_rng_state, load_rng_state
from .queues import ActorFanIn, QueueClosed, ShmRingQueue

__all__ = ["train_hero_async", "train_marl_async"]

# Spawned (not forked) actors: a fork would duplicate the learner's BLAS
# state and open shm handles; spawn re-imports cleanly and matches the
# shard workers' model.
_CTX = mp.get_context("spawn")

# Per-actor transition-queue capacity.  A HERO collection round ships
# every SMDP transition and opponent observation of the batch since the
# last round; 64 MiB holds hundreds of rounds of headroom and bounds
# learner lag.  Each actor gets its own ring (SPSC stays single-writer).
_QUEUE_BYTES = 64 << 20

_JOIN_TIMEOUT = 10.0

# Salt for the actor-side forked RNG streams in staleness mode (keeps
# them disjoint from every seed the learner derives).
_ACTOR_RNG_SALT = 31337


# ---------------------------------------------------------------------------
# Shared plumbing: one actor loop, one learner-side fleet
# ---------------------------------------------------------------------------


def _parent_abort() -> str | None:
    """Abort message for actor-side waits when the learner is gone."""
    parent = mp.parent_process()
    if parent is not None and not parent.is_alive():
        return "learner process died while the actor was waiting"
    return None


def _actor_abort(processes):
    """Abort callback for learner-side waits: names the first dead actor."""

    def check() -> str | None:
        for process in processes:
            if not process.is_alive():
                return (
                    f"async actor process '{process.name}' died without "
                    f"reporting an error (exit code {process.exitcode})"
                )
        return None

    return check


def _make_exporter(members, flat: np.ndarray | None = None):
    """Slot exporter: the fused optimizer's flat buffer when it exists
    (zero-copy — ``ParameterServer.publish`` copies straight out of it),
    a ``gather_family`` copy otherwise (non-fused updates own their
    parameter storage per network)."""
    size = family_vector_size(members)
    if flat is not None and flat.size == size:
        return lambda: flat
    out = np.empty(size, dtype=family_dtype(members))
    return lambda: gather_family(members, out)


class _Rollout(NamedTuple):
    """One method family's actor replica, as :func:`_actor_main` drives it."""

    bound: dict  # snapshot slot -> BoundFamilyVector over the replica's nets
    rngs: list  # the generators the snapshot's RNG sidecar carries
    collect: Callable[[], dict]  # one collection round -> payload data
    exhausted: Callable[[], bool] = lambda: False  # nothing left to collect


def _actor_main(spec: dict, server: ParameterServer, queue: ShmRingQueue):
    """Rollout actor process: act on snapshots, ship collected rounds.

    ``spec["build"]`` builds the family's replica (:class:`_Rollout`).
    Each round reads the newest snapshot no older than
    ``round - max_staleness``, loads its weights — and in lockstep its
    RNG sidecar — collects one round and ships it.  Every replica ships
    every round; in lockstep the ship doubles as this replica's snapshot
    ack (the barrier described in the module docstring).  The actor runs
    until the learner's stop flag (exiting early would race the learner's
    liveness poll, which treats a missing actor process as a crash); a
    failure is reported as an :class:`ActorError` frame.
    """
    cleanup = contextlib.ExitStack()
    try:
        # Spawned processes start at the float64 default; adopt the
        # learner's compute dtype before building any network or env.
        set_default_dtype(spec["dtype"])
        rollout = spec["build"](spec, cleanup)
        max_staleness = spec["max_staleness"]
        round_index = 0
        while not server.stop_requested:
            if rollout.exhausted():
                # Nothing left to ship: idle until the learner's stop flag
                # rather than busy-stepping envs.
                time.sleep(0.01)
                continue
            try:
                version, vectors, rng_words = server.read(
                    max(round_index - max_staleness, 0), abort=_parent_abort
                )
            except RuntimeError:
                if server.stop_requested:
                    break
                raise
            for slot, view in rollout.bound.items():
                view.load(vectors[slot])
            if max_staleness == 0:
                for rng, words in zip(rollout.rngs, rng_words):
                    load_rng_state(rng, words)
            payload = RolloutPayload(
                round_index=round_index,
                version_used=version,
                data=rollout.collect(),
                rng_states=(
                    [encode_rng_state(rng) for rng in rollout.rngs]
                    if max_staleness == 0
                    else []
                ),
                actor_id=spec["actor_id"],
            )
            try:
                queue.put(payload, abort=_parent_abort)
            except QueueClosed:
                break
            round_index += 1
    except Exception:
        try:
            queue.put(
                ActorError(
                    message=traceback.format_exc(),
                    actor_id=spec.get("actor_id", -1),
                ),
                timeout=5.0,
            )
        except Exception:
            pass
    finally:
        cleanup.close()
        queue.release()
        server.release()


def _check_payload(payload) -> RolloutPayload:
    if isinstance(payload, ActorError):
        raise RuntimeError(
            f"async actor {payload.actor_id} failed:\n{payload.message}"
        )
    return payload


def _shutdown(server, queues, processes) -> None:
    """Tear the stack down in signal order; never leaves an orphan or shm.

    Stop flag first (wakes actors polling the server), queue closes
    second (wakes actors blocked on backpressure), then join every actor
    — with a terminate fallback so a wedged actor cannot hang the
    learner — and finally close + unlink every shared-memory segment.
    """
    server.request_stop()
    for queue in queues:
        queue.close()
    for process in processes:
        process.join(timeout=_JOIN_TIMEOUT)
    for process in processes:
        if process.is_alive():
            process.terminate()
            process.join(timeout=_JOIN_TIMEOUT)
    for queue in queues:
        queue.release()
    server.release()


def _run_actors(
    name: str,
    specs: list[dict],
    *,
    exporters: dict,
    rngs: list,
    execution: Execution,
    logger: MetricLogger,
    prefix: str,
    unpack,
    learn,
):
    """Spawn one actor per spec, run ``learn`` on their rounds, tear down.

    ``exporters`` map each snapshot slot to its flat-vector exporter;
    ``rngs`` are the learner generators the snapshot's RNG sidecar
    carries.  ``learn`` gets the ``collect(while_waiting=None)`` it pulls
    from: publish the learner's current snapshot (version 0, published
    before the actors start, serves the first round), run
    ``while_waiting`` — the learner's deferred eval, overlapping the
    actors' next round — then drain one round and return
    ``unpack(payload)``.

    Lockstep drains one payload per replica, in rotation, before the next
    publish — the barrier described in the module docstring — and
    returns the round owner's copy (``round % N``) after resuming its
    post-round RNG states; the other copies are bit-identical and only
    served as acks.  Staleness mode takes the first available payload and
    logs its snapshot staleness.
    """
    num_actors = execution.num_actors
    lockstep = execution.max_staleness == 0
    snapshot = {slot: export() for slot, export in exporters.items()}
    server = ParameterServer(
        {slot: vector.size for slot, vector in snapshot.items()},
        num_rngs=len(rngs),
        dtype=next(iter(snapshot.values())).dtype,
    )
    queues = [ShmRingQueue(_QUEUE_BYTES, context=_CTX) for _ in specs]
    processes: list = []

    def publish(vectors) -> None:
        server.publish(vectors, np.stack([encode_rng_state(rng) for rng in rngs]))

    try:
        # Version 0 must exist before the actors' first read.
        publish(snapshot)
        for k, spec in enumerate(specs):
            process = _CTX.Process(
                target=_actor_main,
                args=(spec, server, queues[k]),
                name=f"{name}-actor-{k}",
            )
            process.start()
            processes.append(process)
        abort = _actor_abort(processes)
        fan_in = ActorFanIn(queues)
        merged = 0  # payloads consumed; the global round counter in lockstep

        def collect(while_waiting=None):
            nonlocal merged
            if merged:
                publish({slot: export() for slot, export in exporters.items()})
            if while_waiting is not None:
                while_waiting()
            if lockstep:
                round_payloads = []
                for _ in range(num_actors):
                    round_payloads.append(
                        _check_payload(
                            fan_in.get(expected=merged % num_actors, abort=abort)
                        )
                    )
                    merged += 1
                payload = round_payloads[(merged // num_actors - 1) % num_actors]
                for rng, words in zip(rngs, payload.rng_states):
                    load_rng_state(rng, words)
            else:
                payload = _check_payload(fan_in.get(abort=abort))
                merged += 1
                # version_used can exceed this actor's round counter when
                # other actors drive versions up faster; staleness is the
                # lag behind the actor's own progress, floored at 0.  The
                # aggregate series is logged at the merged-payload counter
                # (monotonic across actors; equals round_index at N=1).
                staleness = float(
                    max(payload.round_index - payload.version_used, 0)
                )
                logger.log(f"{prefix}/snapshot_staleness", staleness, merged - 1)
                logger.log(
                    f"{prefix}/snapshot_staleness/actor{payload.actor_id}",
                    staleness,
                    payload.round_index,
                )
            return unpack(payload)

        return learn(collect)
    finally:
        _shutdown(server, queues, processes)


# ---------------------------------------------------------------------------
# HERO
# ---------------------------------------------------------------------------


def _actor_seed_sets(rng, num_envs: int, num_actors: int, lockstep: bool):
    """Per-actor env reset seeds for HERO fan-out.

    Lockstep replicates: every actor steps the same seeds (one draw of
    ``num_envs``, shared), so trajectories are identical and round
    attribution can rotate.  Staleness partitions: each actor draws its
    own batch, actor-major, so actor 0's seeds are exactly the
    single-actor run's at any N.
    """
    if lockstep:
        seeds = [int(rng.integers(0, 2**31 - 1)) for _ in range(num_envs)]
        return [seeds] * num_actors
    return [
        [int(rng.integers(0, 2**31 - 1)) for _ in range(num_envs)]
        for _ in range(num_actors)
    ]


def _capture_transition(events: list, agent_index: int):
    def capture(transition) -> None:
        events.append(("t", agent_index, transition))

    return capture


def _capture_record(events: list, agent_index: int):
    def capture(obs, other_options) -> None:
        events.append(
            (
                "r",
                agent_index,
                np.array(obs, dtype=get_default_dtype(), copy=True),
                np.array(other_options, dtype=np.int64, copy=True),
            )
        )

    return capture


def _hero_rollout(spec: dict, cleanup: contextlib.ExitStack) -> _Rollout:
    """HERO actor replica: the synchronous loop's
    :class:`BatchedRolloutWorker` on a team whose learnable families are
    bound to snapshot vectors.

    Replay-buffer writes and opponent-model records are captured as an
    ordered event log instead of being applied locally — the learner
    replays them verbatim, so its buffers evolve exactly as the
    synchronous loop's would.  In lockstep all replicas collect identical
    rounds; in staleness mode this actor's batch is its own partition of
    the collection workload.
    """
    env = spec["factory"]()
    team = HeroTeam(
        env,
        np.random.default_rng(0),
        hyper=spec["hyper"],
        option_set=OptionSet(*spec["option_set_args"]),
        opponent_mode=spec["opponent_mode"],
        batch_size=spec["batch_size"],
    )
    team.load_state_dict(spec["team_state"])
    highs = [team.agents[a].high_level for a in env.agents]
    # Skills are pre-trained and frozen during high-level training, but
    # their exploration RNGs advanced during pre-training: adopt the
    # exact states, shipped once at spawn.
    load_rng_state(team.skills.driving_in_lane._rng, spec["skill_rng"][0])
    load_rng_state(team.skills.lane_change._rng, spec["skill_rng"][1])
    if spec["actor_rng"] is not None:  # staleness mode: forked streams
        for high, words in zip(highs, spec["actor_rng"]):
            load_rng_state(high._rng, words)

    bound = {"actor": BoundFamilyVector([h.actor.trunk for h in highs])}
    if spec["has_opponent_slot"]:
        bound["opponent"] = BoundFamilyVector(
            [p.trunk for h in highs for p in h.opponent_model.predictors]
        )
    events: list = []
    for k, high in enumerate(highs):
        high.store_transition = _capture_transition(events, k)
        if spec["has_opponent_slot"]:
            high.opponent_model.record = _capture_record(events, k)

    vec_env = cleanup.enter_context(
        contextlib.closing(
            _make_hero_vec_env(spec["factory"], spec["num_envs"], spec["num_workers"])
        )
    )
    worker = BatchedRolloutWorker(vec_env, team)
    worker.reset(spec["seeds"])

    def collect() -> dict:
        events.clear()
        stats = worker.collect(spec["epsilon_schedule"])
        return {
            "events": list(events),
            "stats": stats,
            "last_observed": [h._last_observed_options.copy() for h in highs],
        }

    return _Rollout(bound, [h._rng for h in highs], collect)


def train_hero_async(
    env: CooperativeLaneChangeEnv,
    team: HeroTeam,
    *,
    execution: Execution,
    rng: np.random.Generator,
    epsilon_schedule,
    seed: int,
    logger: MetricLogger,
    metric_prefix: str,
    learn,
    engine=None,
) -> MetricLogger:
    """Algorithm 1 with its rollout phase in async actor processes.

    ``learn`` is ``train_hero``'s learn loop; it pulls a ``collect()``
    that publishes the current snapshot, drains one round and replays its
    event log into the learner's team, returning the round's finished
    episodes — so at ``execution.max_staleness == 0`` the run is the
    synchronous vectorized loop's bits (at any ``num_actors``), above it
    rollout and update overlap with aggregate and per-actor staleness
    logged per round under ``metric_prefix``.  ``execution.num_actors``
    fans collection out over that many actor processes (see the module
    docstring for the replicated-lockstep / partitioned-staleness split).
    ``engine`` is the :class:`~repro.core.update_engine.UpdateEngine`
    behind the learner's updates when fused updates are active; its flat
    optimizer buffers make each snapshot publish a plain ``np.copyto``.
    Raises ``ValueError`` for configurations that cannot cross the
    process boundary (a non-stock env class or option set).
    """
    if type(env) is not CooperativeLaneChangeEnv:
        raise ValueError(
            f"async actors cannot replicate a {type(env).__name__}; the actor "
            "process rebuilds the env from its configuration — use the stock "
            "CooperativeLaneChangeEnv or the synchronous loop"
        )
    if type(team.option_set) is not OptionSet:
        raise ValueError(
            "async actors require the default OptionSet (custom option sets "
            "hold unpicklable predicates and cannot be shipped to the actor)"
        )
    num_actors = execution.num_actors
    lockstep = execution.max_staleness == 0
    factory = EnvReplicaFactory(
        scenario=env.scenario,
        rewards=env.rewards,
        track=env.track,
        scripted_policy=env._scripted_policy,
    )
    highs = [team.agents[a].high_level for a in env.agents]
    first = highs[0]
    impl = getattr(engine, "_impl", None)
    fused_impl = impl if isinstance(impl, HeroTeamUpdateEngine) else None

    exporters = {
        "actor": _make_exporter(
            [h.actor.trunk for h in highs],
            fused_impl.actor_opt._flat if fused_impl else None,
        )
    }
    has_opponent_slot = bool(first.num_opponents) and first.opponent_mode == "model"
    if has_opponent_slot:
        exporters["opponent"] = _make_exporter(
            [p.trunk for h in highs for p in h.opponent_model.predictors],
            fused_impl.opponent_opt._flat if fused_impl else None,
        )

    seed_sets = _actor_seed_sets(rng, execution.num_envs, num_actors, lockstep)
    # Actor-major RNG forks: actor k's agent streams are children
    # [k * agents, (k + 1) * agents) of one SeedSequence, so actor 0's
    # streams equal the single-actor run's at any fan-out (SeedSequence
    # children depend only on their index, not on how many are spawned).
    actor_streams = (
        None
        if lockstep
        else [
            encode_rng_state(g)
            for g in spawn_rngs(seed + _ACTOR_RNG_SALT, num_actors * len(highs))
        ]
    )
    shared_spec = {
        "build": _hero_rollout,
        "factory": factory,
        "num_envs": execution.num_envs,
        "num_workers": execution.num_workers,
        "epsilon_schedule": epsilon_schedule,
        "hyper": team.hyper,
        "option_set_args": (
            team.option_set.option_duration,
            team.option_set.lane_change_max_steps,
        ),
        "opponent_mode": first.opponent_mode,
        "batch_size": first.batch_size,
        "team_state": team.state_dict(),
        "skill_rng": [
            encode_rng_state(team.skills.driving_in_lane._rng),
            encode_rng_state(team.skills.lane_change._rng),
        ],
        "has_opponent_slot": has_opponent_slot,
        "max_staleness": execution.max_staleness,
        "dtype": np.dtype(get_default_dtype()).name,
    }
    specs = [
        dict(
            shared_spec,
            actor_id=k,
            seeds=seed_sets[k],
            actor_rng=(
                None
                if lockstep
                else actor_streams[k * len(highs) : (k + 1) * len(highs)]
            ),
        )
        for k in range(num_actors)
    ]

    def replay(payload) -> list[dict]:
        # Buffer pushes and opponent records land in the learner's team in
        # the exact order the synchronous loop would have produced them.
        for event in payload.data["events"]:
            if event[0] == "t":
                highs[event[1]].store_transition(event[2])
            else:
                highs[event[1]].opponent_model.record(event[2], event[3])
        for high, observed in zip(highs, payload.data["last_observed"]):
            high._last_observed_options = observed
        return payload.data["stats"]

    return _run_actors(
        "hero",
        specs,
        exporters=exporters,
        rngs=[h._rng for h in highs],
        execution=execution,
        logger=logger,
        prefix=metric_prefix,
        unpack=replay,
        learn=learn,
    )


# ---------------------------------------------------------------------------
# IDQN
# ---------------------------------------------------------------------------


def _idqn_hidden_dim(algorithm: IndependentDQN) -> int:
    trunk = algorithm.q_networks[algorithm.agent_ids[0]].trunk
    for child in trunk.net.children:
        if isinstance(child, Linear):
            return child.out_features
    raise ValueError("IDQN trunk has no Linear layer")


def _idqn_rollout(spec: dict, cleanup: contextlib.ExitStack) -> _Rollout:
    """IDQN actor replica: the synchronous loop's :class:`MarlRolloutWorker`
    acting on snapshots.

    A round closes at every step that finishes a budget episode — the
    steps that trigger updates in the synchronous loop — and ships that
    round's rows.  Lockstep replicas walk the full episode universe;
    staleness actors walk their :func:`~repro.utils.seeding.episode_partition`
    stride of it and go idle once their budget episodes are done.
    """
    algo = IndependentDQN(
        spec["agent_ids"],
        spec["obs_dim"],
        spec["num_actions"],
        np.random.default_rng(0),
        hidden_dim=spec["hidden_dim"],
        buffer_capacity=1,  # the actor never observes; learner owns replay
    )
    bound = {"q": BoundFamilyVector([algo.q_networks[a].trunk for a in algo.agent_ids])}
    if spec["actor_rng"] is not None:  # staleness mode: forked stream
        load_rng_state(algo._rng, spec["actor_rng"])
    vec_env = cleanup.enter_context(
        contextlib.closing(
            make_baseline_vector_env(
                spec["num_envs"],
                scenario=spec["scenario"],
                rewards=spec["rewards"],
                num_workers=spec["num_workers"],
            )
        )
    )
    episodes = spec["episodes"]
    partition = (
        (1, 0) if spec["max_staleness"] == 0 else (spec["num_actors"], spec["actor_id"])
    )
    worker = MarlRolloutWorker(
        vec_env, algo, episodes, spec["seed"], spec["epsilon_schedule"], *partition
    )

    def collect() -> dict:
        rows = []
        while True:
            rows.append(worker.step())
            if any(episode < episodes for episode in rows[-1]["episodes"]):
                return {"rows": rows}

    return _Rollout(bound, [algo._rng], collect, lambda: worker.budget_left == 0)


def train_marl_async(
    vec_env,
    algorithm: IndependentDQN,
    episodes: int,
    seed: int,
    epsilon_schedule,
    logger: MetricLogger,
    prefix: str,
    learn,
    execution: Execution,
    engine=None,
) -> MetricLogger:
    """IDQN training with its rollout phase in async actor processes.

    ``learn`` is ``train_marl_vectorized``'s learner; it pulls the rows
    each round ships.  Each of the ``execution.num_actors`` actor
    processes steps a fresh replica of ``vec_env``'s configuration through
    a :class:`MarlRolloutWorker`, and every row carries the episode index
    each finished env was running, so the learner needs no per-actor
    episode accounting of its own.  Lockstep fan-out replicates
    collection (results are bitwise independent of ``num_actors``);
    staleness fan-out stride-partitions the episode universe across
    actors for real collection parallelism.
    """
    num_actors = execution.num_actors
    lockstep = execution.max_staleness == 0
    ids = algorithm.agent_ids
    members = [algorithm.q_networks[a].trunk for a in ids]
    impl = getattr(engine, "_impl", None)
    fused_impl = impl if isinstance(impl, IDQNUpdateEngine) else None
    actor_streams = None if lockstep else spawn_rngs(seed + _ACTOR_RNG_SALT, num_actors)
    shared_spec = {
        "build": _idqn_rollout,
        "agent_ids": list(ids),
        "obs_dim": algorithm.obs_dim,
        "num_actions": algorithm.num_actions,
        "hidden_dim": _idqn_hidden_dim(algorithm),
        "scenario": vec_env.scenario,
        "rewards": vec_env.rewards,
        "num_envs": vec_env.num_envs,
        "num_workers": vec_env.num_workers,
        "episodes": episodes,
        "seed": seed,
        "epsilon_schedule": epsilon_schedule,
        "max_staleness": execution.max_staleness,
        "num_actors": num_actors,
        "dtype": np.dtype(get_default_dtype()).name,
    }
    specs = [
        dict(
            shared_spec,
            actor_id=k,
            actor_rng=None if lockstep else encode_rng_state(actor_streams[k]),
        )
        for k in range(num_actors)
    ]
    return _run_actors(
        "idqn",
        specs,
        exporters={
            "q": _make_exporter(members, fused_impl.opt._flat if fused_impl else None)
        },
        rngs=[algorithm._rng],
        execution=execution,
        logger=logger,
        prefix=prefix,
        unpack=lambda payload: payload.data["rows"],
        learn=learn,
    )
