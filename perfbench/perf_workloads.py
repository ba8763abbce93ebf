"""The three benchmark workloads.

Each workload is driven through the entry points users call —
``repro.experiments.common.train_hero_method`` /
``train_baseline_method`` and ``repro.PolicyServer`` — and runs as a
sequence of *units*: one training cell, or a fixed budget of served decisions.

Protocol (see ``run.py``):

* ``build()`` makes, once and untimed, what exists before a user starts
  (the served checkpoint).
* ``setup()`` builds what a user builds before the work starts.  The run
  calls it once; ``setup_s`` times it in fresh interpreters, constructed
  with ``setup_kwargs()``.
* ``prepare()`` makes the inputs and runs the pre-flight checks;
  ``warm_up()`` runs untimed work until lazy set-up has finished.
* ``run_unit(index)`` does one unit of timed work and returns a
  :class:`UnitResult`; ``index`` selects the unit's seed.
* ``close()`` releases what ``setup()`` opened; ``discard()`` deletes what
  ``build()`` wrote.

Inputs come only from the run seed: unit ``i`` trains with seed
``cell_seed(seed, i)``, and the serving trajectories come from seeded env
resets.
"""

from __future__ import annotations

import functools
import os
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from perf_loadgen import ClosedLoop, socket_loop
from perf_stats import logger_digest
from repro.config import RewardConfig
from repro.core.batched import BatchedHeroRunner
from repro.distributed import actor_learner  # noqa: F401  (imported at set-up, not mid-cell)
from repro.envs.vector_env import VectorEnv
from repro.experiments import common
from repro.serving import MicroBatcher, split_hero_batch
from repro.serving.server import HeroPolicySession

HERE = Path(__file__).resolve().parent


def cell_seed(seed: int, index: int) -> int:
    """Training seed of unit ``index`` of a run with seed ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0] >> 1)


@dataclass
class UnitResult:
    """One unit of timed work and what its output checks found."""

    wall_s: float
    attempted: int
    failed: int
    env_steps: int = 0
    latencies_s: list = field(default_factory=list)  # per-step latency samples
    digest: str | None = None
    problems: list = field(default_factory=list)
    series: dict = field(default_factory=dict)  # logged curves the trace reads
    serve: dict = field(default_factory=dict)  # LoopStats of a serving unit


def expected_eval_steps(episodes: int) -> list[int]:
    """Episodes after which a training loop logs a greedy eval row.

    The loops' default cadence: every ``max(episodes // 40, 1)`` episodes
    and after the last one.
    """
    every = max(episodes // 40, 1)
    return [e for e in range(episodes) if e % every == 0 or e == episodes - 1]


def check_training_log(logger, prefix: str, episodes: int) -> list[str]:
    """Problems with one method's logged curves (empty when all is well)."""
    problems = []
    steps = logger.steps(f"{prefix}/episode_reward")
    if not np.array_equal(steps, np.arange(episodes)):
        problems.append(f"{prefix}: {len(steps)} episode rows logged, expected {episodes}")
    want = expected_eval_steps(episodes)
    for key in ("eval_episode_reward", "eval_collision_rate",
                "eval_merge_success_rate", "eval_mean_speed"):
        got = logger.steps(f"{prefix}/{key}")
        if not np.array_equal(got, want):
            problems.append(f"{prefix}/{key}: {len(got)} eval rows, expected {len(want)}")
    for key in ("eval_collision_rate", "eval_merge_success_rate"):
        values = logger.values(f"{prefix}/{key}")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            problems.append(f"{prefix}/{key} outside [0, 1]")
    for name in logger.names():
        if not np.all(np.isfinite(logger.values(name))):
            problems.append(f"{name} has non-finite values")
    return problems


class TrainingWorkload:
    """Shared plumbing of the training cells."""

    name = ""
    deterministic = True  # same seed -> same logged curves
    spawns_processes = False  # timed units start child processes

    def __init__(self, seed: int, out_dir: Path, counters):
        self.seed = seed
        self.out_dir = out_dir
        self.counters = counters
        self.scenario = None
        self.rewards = None

    def build(self) -> None:
        pass

    def setup_kwargs(self) -> dict:
        return {}

    def setup(self) -> None:
        self.scenario = common.bench_scenario()
        self.rewards = RewardConfig()

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def discard(self) -> None:
        pass

    def train(self, seed: int) -> list[tuple[str, object, int]]:
        """Run the cell; ``[(prefix, logger, episodes), ...]`` per method."""
        raise NotImplementedError

    def install_trace_hooks(self, patcher, tracer) -> None:
        pass

    def warm_up(self) -> list[UnitResult]:
        """Unit 0, untimed: lazy set-up finishes, and its digest is the reference."""
        return [self.run_unit(0)]

    def run_unit(self, index: int) -> UnitResult:
        seed = cell_seed(self.seed, index)
        counters = self.counters
        counters.new_unit()
        steps0, fallbacks0 = counters.env_steps, counters.fallbacks
        periods0 = len(counters.step_periods)
        t0 = time.perf_counter()
        try:
            trained = self.train(seed)
        except Exception as exc:  # the benchmark keeps going and reports it
            wall = time.perf_counter() - t0
            budget = self.episode_budget()
            return UnitResult(wall, budget, budget, problems=[f"{type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - t0
        result = UnitResult(
            wall, 0, 0,
            env_steps=counters.env_steps - steps0,
            latencies_s=counters.step_periods[periods0:],
        )
        for prefix, logger, episodes in trained:
            problems = check_training_log(logger, prefix, episodes) + self.extra_checks(
                prefix, logger
            )
            result.attempted += episodes
            if problems:
                result.failed += episodes
                result.problems.extend(problems)
            staleness = logger.values(f"{prefix}/snapshot_staleness")
            if staleness.size:
                result.series["snapshot_staleness"] = staleness
        if counters.fallbacks != fallbacks0:
            result.problems.append(
                "vector env off the fast path: " + "; ".join(counters.fallback_reasons)
            )
            result.failed = result.attempted
        if result.env_steps <= 0:
            result.problems.append("no training env transitions counted")
            result.failed = result.attempted
        if self.deterministic:
            result.digest = logger_digest([logger for _, logger, _ in trained])
        return result

    def extra_checks(self, prefix: str, logger) -> list[str]:
        return []

    def episode_budget(self) -> int:
        raise NotImplementedError


class HeroCell(TrainingWorkload):
    """Algorithm 2 (skills) then Algorithm 1 with interleaved greedy evals."""

    name = "hero_cell"
    EPISODES = 16
    SKILL_EPISODES = 28
    config = {
        "entry": "repro.experiments.common.train_hero_method",
        "scenario": "bench_scenario()",
        "episodes": EPISODES,
        "skill_episodes": SKILL_EPISODES,
        "num_envs": 8,
        "fused_updates": True,
        "dtype": "float64",
    }

    def train(self, seed):
        method = common.train_hero_method(
            self.scenario,
            self.rewards,
            self.EPISODES,
            self.SKILL_EPISODES,
            seed,
            num_envs=8,
            fused_updates=True,
        )
        return [("hero", method.logger, self.EPISODES)]

    def extra_checks(self, prefix, logger):
        problems = []
        for skill in ("lane_keeping", "lane_change"):
            rows = len(logger.steps(f"{skill}/episode_reward"))
            if rows != self.SKILL_EPISODES:
                problems.append(f"{skill}: {rows} skill episodes logged, "
                                f"expected {self.SKILL_EPISODES}")
        return problems

    def episode_budget(self):
        return self.EPISODES


class AsyncIdqn(TrainingWorkload):
    """IDQN on the async actor-learner stack: one learner, one actor process."""

    name = "async_idqn"
    deterministic = False  # max_staleness=1 lets timing decide what the actor acts on
    spawns_processes = True
    EPISODES = 240
    config = {
        "entry": "repro.experiments.common.train_baseline_method",
        "methods": ["idqn"],
        "scenario": "bench_scenario()",
        "episodes": EPISODES,
        "num_envs": 8,
        "fused_updates": True,
        "async_actors": True,
        "max_staleness": 1,
        "num_actors": 1,
        "dtype": "float64",
    }

    def train(self, seed):
        method = common.train_baseline_method(
            "idqn", self.scenario, self.rewards, self.EPISODES, seed,
            num_envs=8, fused_updates=True,
            async_actors=True, max_staleness=1, num_actors=1,
        )
        return [("idqn", method.logger, self.EPISODES)]

    def episode_budget(self):
        return self.EPISODES


class ServeHero:
    """Closed-loop serving of a HERO checkpoint, in-process and over a socket.

    One unit serves :data:`UNIT_REQUESTS` in-process decisions from 32
    closed-loop clients on one generator thread, then
    :data:`SOCKET_REQUESTS` round trips of one socket client on its own
    slot.  The phases run one after the other: a socket client running
    alongside the in-process clients makes the batcher split their batches
    at random, and the unit's wall time then swings by 3x on the same code.
    """

    name = "serve_hero"
    deterministic = False
    spawns_processes = False
    NUM_SLOTS = 33
    MAX_BATCH = 32
    SOCKET_SLOT = 32
    TRAJECTORY_STEPS = 30
    UNIT_REQUESTS = 24_000
    SOCKET_REQUESTS = 500
    WARMUP_S = 1.0
    WARMUP_SOCKET_REQUESTS = 100
    CHECKPOINT_SEED = 0
    config = {
        "entry": "repro.PolicyServer",
        "checkpoint": "HeroTeam trained by train_hero_method with the hero_cell "
                      f"configuration at seed {CHECKPOINT_SEED}, float64",
        "num_slots": NUM_SLOTS,
        "max_batch_size": MAX_BATCH,
        "in_process_clients": 32,
        "socket_clients": 1,
        "loop": "closed",
        "phases": "in-process, then socket",
        "unit_requests": UNIT_REQUESTS,
        "unit_socket_requests": SOCKET_REQUESTS,
    }

    def __init__(self, seed: int, out_dir: Path, counters, ckpt_path: str | None = None):
        self.seed = seed
        self.out_dir = out_dir
        self.counters = counters
        self.server = None
        self.client = None
        self.policy = None
        self.ckpt_path = Path(ckpt_path or out_dir / f"serve_hero-{os.getpid()}.npz")

    # -- set-up ----------------------------------------------------------
    def build(self) -> None:
        """Train and checkpoint the served team in a child process.

        A serving process only loads a checkpoint.  Training in this
        process would leave freed replay buffers in its heap, and the
        served team's zero-filled buffers would then be cleared page by
        page, adding about 170 MB of resident memory no user sees.
        """
        code = (
            f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(HERE.parent / 'src')!r}]; "
            "from perf_workloads import ServeHero; "
            f"ServeHero.train_checkpoint({str(self.ckpt_path)!r})"
        )
        subprocess.run([sys.executable, "-c", code], check=True, timeout=170)

    @classmethod
    def train_checkpoint(cls, path) -> None:
        """One hero_cell cell at a fixed seed, saved as a serving checkpoint.

        The served model is configuration, not input: the same deterministic
        float64 cell on every run.  The run seed drives the request
        trajectories.
        """
        method = common.train_hero_method(
            common.bench_scenario(),
            RewardConfig(),
            HeroCell.EPISODES,
            HeroCell.SKILL_EPISODES,
            cls.CHECKPOINT_SEED,
            num_envs=8,
            fused_updates=True,
        )
        method.to_checkpoint(path)

    def setup_kwargs(self) -> dict:
        return {"ckpt_path": str(self.ckpt_path)}

    def setup(self) -> None:
        """Load the checkpoint, start the server and connect the socket client."""
        self.policy = repro.load_policy(self.ckpt_path)
        self.server = repro.PolicyServer(
            self.policy, num_slots=self.NUM_SLOTS, max_batch_size=self.MAX_BATCH
        )
        self.address = self.server.serve("127.0.0.1", 0)
        self.client = repro.PolicyClient(*self.address)

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            # PolicyServer.close() joins its accept thread, which closing the
            # listener does not wake on Linux (the join then times out after
            # 5 s).  One throwaway connection after request_stop() lets the
            # accept loop see the stop flag and exit at once.
            self.server.request_stop()
            with socket.create_connection(self.address, timeout=5.0):
                pass
            self.server.close()
            self.server = None

    def discard(self) -> None:
        self.ckpt_path.unlink(missing_ok=True)

    # -- inputs and the parity probe -------------------------------------
    def prepare(self) -> None:
        self.num_agents = len(self.policy.controller.env.agents)
        self._make_trajectories()
        self.probe = self._parity_probe()
        for slot in range(self.NUM_SLOTS):
            self.server.reset_slot(slot)
        self._cursor = [0] * self.NUM_SLOTS

    def _make_trajectories(self) -> None:
        """Greedy rollouts of the served team, one env per slot, kept as requests."""
        reference = repro.load_policy(self.ckpt_path).controller
        vec = VectorEnv(
            self.NUM_SLOTS, scenario=self.policy.scenario, rewards=self.policy.rewards
        )
        obs = vec.reset([cell_seed(self.seed, 1000 + i) for i in range(self.NUM_SLOTS)])
        runner = BatchedHeroRunner(reference, vec)
        self._requests = [[] for _ in range(self.NUM_SLOTS)]
        episode_start = np.ones(self.NUM_SLOTS, dtype=bool)
        for _ in range(self.TRAJECTORY_STEPS):
            batch = split_hero_batch(obs, vec.agent_d, vec.agent_heading)
            for slot, request in enumerate(batch):
                self._requests[slot].append((request, bool(episode_start[slot])))
            actions = runner.act(obs, epsilon=0.0, explore=False)
            obs, _, dones, _ = vec.step(actions)
            episode_start[:] = dones
            for i in np.flatnonzero(dones):
                runner.start_episode(i)
        vec.close()

    def _parity_probe(self) -> UnitResult:
        """Served actions for one full batch equal BatchedHeroRunner.act bitwise.

        The float64 serving contract holds for identical batch row-sets, so
        the probe is retried until the server flushes it as one batch.
        """
        reference = repro.load_policy(self.ckpt_path).controller
        n = self.MAX_BATCH
        vec = VectorEnv(n, scenario=self.policy.scenario, rewards=self.policy.rewards)
        obs = vec.reset([cell_seed(self.seed, 2000 + i) for i in range(n)])
        expected = BatchedHeroRunner(reference, vec).act(obs, epsilon=0.0, explore=False)
        requests = split_hero_batch(obs, vec.agent_d, vec.agent_heading)
        vec.close()
        result = UnitResult(wall_s=0.0, attempted=n, failed=0)
        sizes = getattr(self.server._batcher, "batch_sizes", None)
        for _attempt in range(20):
            for slot in range(n):
                self.server.reset_slot(slot)
            before = len(sizes) if sizes is not None else 0
            futures = [self.server.submit_async(r) for r in requests]
            served = [f.result(timeout=30) for f in futures]
            if sizes is None or sizes[before:] == [n]:
                break  # one flush of the whole probe: the bitwise-parity path
        else:
            result.problems.append("parity probe never flushed as one batch")
            result.failed = n
            return result
        bad = sum(not np.array_equal(s, e) for s, e in zip(served, expected))
        if bad:
            result.failed = bad
            result.problems.append(
                f"parity probe: {bad}/{n} served actions differ from BatchedHeroRunner.act"
            )
        return result

    # -- load ------------------------------------------------------------
    def _next_request(self, slot: int):
        step = self._cursor[slot]
        self._cursor[slot] = (step + 1) % self.TRAJECTORY_STEPS
        request, episode_start = self._requests[slot][step]
        if episode_start:
            if slot == self.SOCKET_SLOT:
                self.client.reset_slot(slot)
            else:
                self.server.reset_slot(slot)
        return request

    def _check(self, slot, action) -> bool:
        action = np.asarray(action)
        return action.shape == (self.num_agents, 2) and bool(np.all(np.isfinite(action)))

    def _load(self, socket_requests: int, **budget) -> UnitResult:
        loop = ClosedLoop(
            self.server.submit_async, self._next_request, self._check,
            range(self.NUM_SLOTS - 1),
        )
        in_process = loop.run(**budget)
        socket_stats = socket_loop(
            self.client.act, self._next_request, self._check, self.SOCKET_SLOT,
            socket_requests,
        )
        served = in_process.completed + socket_stats.completed
        return UnitResult(
            wall_s=in_process.elapsed_s + socket_stats.elapsed_s,
            attempted=served + in_process.failed + socket_stats.failed,
            failed=in_process.failed + socket_stats.failed,
            env_steps=served,  # one served decision advances one client env step
            latencies_s=in_process.latencies_s,
            serve={"in_process": in_process, "socket": socket_stats},
        )

    def warm_up(self) -> list[UnitResult]:
        """The parity probe, then load until every lazily built runner exists."""
        return [self.probe, self._load(self.WARMUP_SOCKET_REQUESTS, seconds=self.WARMUP_S)]

    def run_unit(self, index: int) -> UnitResult:
        return self._load(self.SOCKET_REQUESTS, requests=self.UNIT_REQUESTS)

    def install_trace_hooks(self, patcher, tracer) -> None:
        """Queue wait (submit to handler start) and batch fill, per request,
        and the server-side time of each socket request."""
        stamps: dict[int, float] = {}
        max_batch = self.MAX_BATCH

        def stamp_submit(fn):
            @functools.wraps(fn)
            def wrapper(batcher, payload, *args, **kwargs):
                stamps[id(payload)] = time.perf_counter()
                return fn(batcher, payload, *args, **kwargs)

            return wrapper

        def time_handler(fn):
            @functools.wraps(fn)
            def wrapper(session, requests, *args, **kwargs):
                now = time.perf_counter()
                waits = tracer.samples["serving.queue_wait_s"]
                for request in requests:
                    t_submit = stamps.pop(id(request), None)
                    if t_submit is not None:
                        waits.append(now - t_submit)
                tracer.samples["serving.batch_fill"].append(len(requests) / max_batch)
                return fn(session, requests, *args, **kwargs)

            return wrapper

        def time_socket_request(fn):
            # Only the socket front-end calls the blocking submit.
            @functools.wraps(fn)
            def wrapper(server, request, *args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(server, request, *args, **kwargs)
                finally:
                    tracer.samples["serving.socket_server_s"].append(time.perf_counter() - t0)

            return wrapper

        patcher.patch(MicroBatcher, "submit", stamp_submit)
        patcher.patch(HeroPolicySession, "act", time_handler)
        patcher.patch(repro.PolicyServer, "submit", time_socket_request)


WORKLOADS = {cls.name: cls for cls in (HeroCell, AsyncIdqn, ServeHero)}
