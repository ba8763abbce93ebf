"""Sharded multi-process rollout engine: ``VectorEnv`` shards behind workers.

:class:`ShardedVectorEnv` splits a batch of ``N`` cooperative lane-change
environments across ``W`` worker processes.  Each worker owns a
single-process :class:`~repro.envs.vector_env.VectorEnv` over a contiguous
shard of the batch (env order is preserved: worker ``w`` owns global env
indices ``[lo_w, hi_w)`` and shard outputs concatenate back in env order).
All per-step traffic — actions in; observations, rewards, dones, episode
summaries, terminal observations and exact vehicle pose out — moves
through one preallocated shared-memory block, so the step loop never
pickles a byte: the parent writes the stacked action array, releases one
semaphore per worker, and the workers write their output slices in place.

Equivalence invariant
---------------------

``ShardedVectorEnv(N, num_workers=W)`` is **bit-for-bit** equal to
``VectorEnv(N)`` for every ``W``:

* every arithmetic path is the unchanged ``VectorEnv`` kernel — sharding
  only changes array shapes, and those kernels are elementwise per env
  (``tests/test_vector_env.py`` locks them to the scalar env at any batch
  size, hence across batch splits);
* per-env RNG streams are aligned to **global** env indices: after
  constructing its shard, each worker replays the single-process
  constructor's ``reset(seed=global_index)`` seeding, so unseeded
  auto-resets draw the identical initial-condition stream at any ``W``;
* seeded resets (:meth:`reset`, :meth:`reset_env`) forward the caller's
  per-env seeds unchanged — training loops that derive them from
  :func:`repro.utils.seeding.episode_reset_seeds` therefore replay the
  identical seed stream at any ``(N, W)``;
* :meth:`step`'s ``reset_seeds`` queue is assigned to finished envs in
  *global* env order, which no single worker can see: workers auto-reset
  unseeded as usual, then the parent re-resets the seeded rows with one
  batched dispatch.  A seeded reset replaces the env's RNG, so the
  result is bitwise the single-process engine's one seeded reset, at the
  cost of a second round trip on steps that finish a seeded episode.

``tests/test_sharded_env.py`` locks the invariant for ``W ∈ {1, 2, 3}``
across the scripted-traffic variants, including auto-resets.

Failure handling
----------------

A worker that hits an exception reports it through the shared block and
the parent raises a ``RuntimeError`` naming the worker and its global env
range; a worker that *dies* (killed, segfault, ``os._exit``) is detected
by liveness polling and surfaced the same way.  :meth:`close` (also run
by the context manager and the finalizer) shuts workers down gracefully,
terminates stragglers and unlinks the shared memory, so no orphan
processes or ``/dev/shm`` segments outlive the parent.

The worker entrypoint is a module-level function and every construction
argument crosses the process boundary exactly once at start-up, so the
engine is safe under the ``spawn`` start method (the default start method
of the host platform is used unless ``context=`` says otherwise).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from ..config import RewardConfig, ScenarioConfig
from ..nn.tensor import get_default_dtype, set_default_dtype
from .geometry import Track
from .lane_change_env import CooperativeLaneChangeEnv
from .sensors import feature_dim
from .stepping import ObsBatch, VectorStepper
from .traffic import ScriptedPolicy
from .vector_env import VectorEnv

__all__ = ["EnvReplicaFactory", "ShardedVectorEnv"]

# Worker commands (written into the shared ``cmd`` slot, signalled by
# semaphore — no pickled messages in the step loop).
_CMD_STEP = 1
_CMD_RESET = 2
_CMD_CLOSE = 3

_STATUS_OK = 0
_STATUS_ERROR = 1

# Fixed-width UTF-8 slots for error / fallback-reason strings.
_MSG_BYTES = 240

# The feature-mode observation stack every batched consumer reads; the
# shared buffers are laid out for exactly these keys.
_OBS_KEYS = ("lidar", "speed", "lane_onehot", "features")

_EPISODE_KEYS = (
    "episode_reward",
    "collision",
    "merge_success_rate",
    "mean_speed",
    "length",
)


class EnvReplicaFactory:
    """Picklable factory replicating one ``CooperativeLaneChangeEnv`` setup.

    Worker processes rebuild their shard's environments from this object,
    so it must cross the process boundary — a local closure cannot (the
    ``spawn`` start method pickles start-up arguments).  Captures exactly
    what the env constructor takes; ``track`` and ``scripted_policy`` are
    stateless parameter holders, so pickled copies behave identically to
    the parent's instances.
    """

    def __init__(
        self,
        scenario: ScenarioConfig | None = None,
        rewards: RewardConfig | None = None,
        track: Track | None = None,
        scripted_policy: ScriptedPolicy | None = None,
    ):
        self.scenario = scenario
        self.rewards = rewards
        self.track = track
        self.scripted_policy = scripted_policy

    def __call__(self) -> CooperativeLaneChangeEnv:
        return CooperativeLaneChangeEnv(
            scenario=self.scenario,
            rewards=self.rewards,
            track=self.track,
            scripted_policy=self.scripted_policy,
        )


# ----------------------------------------------------------------------
# Shared-memory layout
# ----------------------------------------------------------------------
def _build_layout(
    num_envs: int,
    num_agents: int,
    num_workers: int,
    beams: int,
    lanes: int,
    feats: int,
    float_dtype: str = "float64",
) -> tuple[dict[str, tuple[tuple[int, ...], str, int]], int]:
    """Field name -> (shape, dtype, byte offset) map plus the total size.

    ``float_dtype`` is the compute dtype of the policy side: the bulky
    env<->policy payload blocks (actions, rewards, observations and
    terminal observations) are laid out in it, so ``--dtype float32``
    halves the shared-memory traffic.  Physics-exact state mirrors
    (``agent_d``/``agent_heading``/``lane_deviation``) and episode stats
    stay float64 — they are documented as bitwise-equal to the scalar
    env's internal float64 state at any compute dtype.
    """
    n, a, w = num_envs, num_agents, num_workers
    entries: list[tuple[str, tuple[int, ...], str]] = [
        # Control plane.
        ("cmd", (w,), "int64"),
        ("status", (w,), "int64"),
        ("msg", (w, _MSG_BYTES), "uint8"),
        ("fallback", (w, _MSG_BYTES), "uint8"),
        # Inputs.
        ("actions", (n, a, 2), float_dtype),
        ("reset_rows", (n,), "uint8"),
        ("reset_seeds", (n,), "int64"),
        ("reset_has_seed", (n,), "uint8"),
        # Step outputs.
        ("rewards", (n,), float_dtype),
        ("dones", (n,), "uint8"),
        ("step_t", (n,), "int64"),
        ("episode_stats", (n, len(_EPISODE_KEYS)), "float64"),
        # Exact post-step state mirrors (VectorEnv's pose/lane surface).
        ("agent_d", (n, a), "float64"),
        ("agent_heading", (n, a), "float64"),
        ("lane_ids", (n, a), "int64"),
        ("lane_deviation", (n, a), "float64"),
    ]
    obs_shapes = {
        "lidar": (n, a, beams),
        "speed": (n, a, 1),
        "lane_onehot": (n, a, lanes),
        "features": (n, a, feats),
    }
    for key in _OBS_KEYS:
        entries.append((f"obs_{key}", obs_shapes[key], float_dtype))
        entries.append((f"term_{key}", obs_shapes[key], float_dtype))

    layout: dict[str, tuple[tuple[int, ...], str, int]] = {}
    offset = 0
    for name, shape, dtype in entries:
        offset = (offset + 7) & ~7  # 8-byte alignment for every field
        layout[name] = (shape, dtype, offset)
        offset += int(np.prod(shape)) * np.dtype(dtype).itemsize
    return layout, offset


def _attach_views(
    shm: shared_memory.SharedMemory,
    layout: dict[str, tuple[tuple[int, ...], str, int]],
) -> dict[str, np.ndarray]:
    return {
        name: np.ndarray(shape, dtype=dtype, buffer=shm.buf, offset=offset)
        for name, (shape, dtype, offset) in layout.items()
    }


def _write_text(row: np.ndarray, text: str) -> None:
    data = text.encode("utf-8", "replace")[: row.shape[0]]
    row[:] = 0
    if data:
        row[: len(data)] = np.frombuffer(data, dtype=np.uint8)


def _read_text(row: np.ndarray) -> str:
    return bytes(row).split(b"\x00", 1)[0].decode("utf-8", "replace")


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to the parent's segment without taking ownership of it.

    Only the parent unlinks the block.  On Python >= 3.13 ``track=False``
    says so explicitly; earlier versions attach normally — workers share
    the parent's resource tracker, where the duplicate registration is a
    set add and the parent's unlink balances it exactly once.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg
        return shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _publish_obs(
    views: dict[str, np.ndarray], obs: ObsBatch, lo: int, hi: int
) -> None:
    for key in _OBS_KEYS:
        views[f"obs_{key}"][lo:hi] = obs[key]


def _publish_state(
    views: dict[str, np.ndarray], vec: VectorEnv, lo: int, hi: int
) -> None:
    views["agent_d"][lo:hi] = vec.agent_d
    views["agent_heading"][lo:hi] = vec.agent_heading
    views["lane_ids"][lo:hi] = vec.lane_ids
    views["lane_deviation"][lo:hi] = vec.lane_deviation


def _worker_step(views: dict[str, np.ndarray], vec: VectorEnv, lo: int, hi: int):
    obs, rewards, dones, infos = vec.step(views["actions"][lo:hi])
    _publish_obs(views, obs, lo, hi)
    views["rewards"][lo:hi] = rewards
    views["dones"][lo:hi] = dones
    for j, info in enumerate(infos):
        views["step_t"][lo + j] = info["t"]
        if "episode" in info:
            summary = info["episode"]
            views["episode_stats"][lo + j] = [summary[k] for k in _EPISODE_KEYS]
            terminal = info["terminal_observation"]
            for key in _OBS_KEYS:
                views[f"term_{key}"][lo + j] = terminal[key]
    _publish_state(views, vec, lo, hi)


def _worker_reset(views: dict[str, np.ndarray], vec: VectorEnv, lo: int, hi: int):
    """Reset this shard's rows flagged in ``reset_rows``, in one batch."""
    rows = np.flatnonzero(views["reset_rows"][lo:hi])
    seeds = [
        int(views["reset_seeds"][lo + i]) if views["reset_has_seed"][lo + i] else None
        for i in rows
    ]
    obs = vec._reset_rows(rows, seeds)
    for key in _OBS_KEYS:
        views[f"obs_{key}"][lo + rows] = obs[key]
    _publish_state(views, vec, lo, hi)


def _shard_worker_main(
    worker_index: int,
    shm_name: str,
    layout: dict[str, tuple[tuple[int, ...], str, int]],
    lo: int,
    hi: int,
    env_factory: Callable[[], CooperativeLaneChangeEnv],
    auto_reset: bool,
    request,
    reply,
    float_dtype: str = "float64",
) -> None:
    """Worker entrypoint: own envs ``[lo, hi)`` of the batch until CLOSE.

    Module-level (spawn-safe); every argument is pickled exactly once at
    start-up.  The command loop afterwards moves data through shared
    memory only.  ``float_dtype`` replays the parent's compute dtype in
    this process (spawned children start at the float64 default), so the
    shard's VectorEnv emits observations in the shm blocks' dtype.
    """
    set_default_dtype(float_dtype)
    shm = _attach_shm(shm_name)
    views = _attach_views(shm, layout)

    def fail(exc: BaseException) -> None:
        views["status"][worker_index] = _STATUS_ERROR
        _write_text(views["msg"][worker_index], f"{type(exc).__name__}: {exc}")

    try:
        try:
            vec = VectorEnv(
                hi - lo, env_fns=[env_factory] * (hi - lo), auto_reset=auto_reset
            )
            # Align per-env RNG streams with the single-process VectorEnv:
            # its constructor seeds env i with ``reset(seed=i)``, and the
            # env RNG state after a seeded reset is a pure function of the
            # seed, so replaying it with *global* indices makes unseeded
            # auto-resets draw identical streams at any worker count.
            obs = vec.reset(seeds=list(range(lo, hi)))
            _write_text(views["fallback"][worker_index], vec.fallback_reason or "")
            _publish_obs(views, obs, lo, hi)
            _publish_state(views, vec, lo, hi)
            views["status"][worker_index] = _STATUS_OK
        except Exception as exc:  # surfaced by the parent's init handshake
            fail(exc)
            return
        finally:
            reply.release()

        parent = mp.parent_process()
        while True:
            # Poll so a worker orphaned by a crashed parent exits instead
            # of blocking on the request semaphore forever.
            if not request.acquire(timeout=1.0):
                if parent is not None and not parent.is_alive():
                    return
                continue
            command = int(views["cmd"][worker_index])
            if command == _CMD_CLOSE:
                return
            views["status"][worker_index] = _STATUS_OK
            try:
                if command == _CMD_STEP:
                    _worker_step(views, vec, lo, hi)
                elif command == _CMD_RESET:
                    _worker_reset(views, vec, lo, hi)
                else:
                    raise RuntimeError(f"unknown command {command}")
            except Exception as exc:  # parent raises with shard context
                fail(exc)
            reply.release()
    finally:
        del views
        shm.close()


# ----------------------------------------------------------------------
# Parent-side engine
# ----------------------------------------------------------------------
class ShardedVectorEnv(VectorStepper):
    """``W``-process drop-in substitute for :class:`VectorEnv` (module doc).

    Parameters mirror :class:`VectorEnv` where they overlap;
    ``env_factory`` (a picklable nullary callable such as
    :class:`EnvReplicaFactory`) replaces ``env_fns`` — every worker
    replicates it across its shard.  ``num_workers`` defaults to one per
    usable CPU, capped at ``num_envs``; ``context`` picks the
    multiprocessing start method (``None`` = platform default, ``spawn``
    always supported).
    """

    def __init__(
        self,
        num_envs: int,
        scenario: ScenarioConfig | None = None,
        rewards: RewardConfig | None = None,
        env_factory: Callable[[], CooperativeLaneChangeEnv] | None = None,
        num_workers: int | None = None,
        auto_reset: bool = True,
        context: str | None = None,
        timeout: float = 120.0,
    ):
        if num_envs < 1:
            raise ValueError(f"num_envs must be >= 1, got {num_envs}")
        if num_workers is not None and num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if num_workers is None:
            num_workers = _usable_cpus()
        # One construction path everywhere: workers and the parent-local
        # template both build envs from the same picklable factory.
        if env_factory is None:
            env_factory = EnvReplicaFactory(scenario=scenario, rewards=rewards)
        self.num_envs = num_envs
        self.num_workers = min(num_workers, num_envs)
        self.auto_reset = auto_reset
        self._timeout = timeout
        self._closed = False
        # Set when the command protocol desyncs (worker death / timeout
        # left replies undrained); every later command must refuse to run.
        self._broken: str | None = None
        self._procs: list[mp.process.BaseProcess] = []
        self._shm: shared_memory.SharedMemory | None = None

        # A parent-local replica provides every piece of static metadata
        # (spaces, dims, track, probe vehicles); it is never stepped.
        self._template = env_factory()
        self._template.reset(seed=0)
        self.scenario = self._template.scenario
        self.rewards = self._template.rewards
        self.agents = list(self._template.agents)
        self.num_agents = len(self.agents)
        self.observation_spaces = self._template.observation_spaces
        self.action_spaces = self._template.action_spaces
        self.high_level_obs_dim = self._template.high_level_obs_dim
        self.low_level_obs_dim = self._template.low_level_obs_dim
        if self.scenario.observation_mode != "features":
            raise ValueError(
                "ShardedVectorEnv lays out shared-memory observation buffers "
                "for the 'features' stack; observation_mode="
                f"{self.scenario.observation_mode!r} has no batched consumer"
            )

        # Contiguous ordered shards (linspace bounds: sizes differ by at
        # most one, smaller shards first when N % W != 0), so
        # concatenating shard outputs preserves global env order.
        bounds = np.linspace(0, num_envs, self.num_workers + 1).astype(int)
        self._shards = [
            (int(bounds[w]), int(bounds[w + 1])) for w in range(self.num_workers)
        ]

        layout, total = _build_layout(
            num_envs,
            self.num_agents,
            self.num_workers,
            beams=self.scenario.lidar_beams,
            lanes=self.scenario.num_lanes,
            feats=feature_dim(self.scenario.num_lanes),
            float_dtype=np.dtype(get_default_dtype()).name,
        )
        self.obs_dtype = np.dtype(get_default_dtype())
        self._shm = shared_memory.SharedMemory(create=True, size=total)
        self._views = _attach_views(self._shm, layout)
        self._views["cmd"][:] = 0
        self._views["status"][:] = _STATUS_OK

        ctx = mp.get_context(context)
        self._request = [ctx.Semaphore(0) for _ in range(self.num_workers)]
        self._reply = [ctx.Semaphore(0) for _ in range(self.num_workers)]
        try:
            for w, (lo, hi) in enumerate(self._shards):
                proc = ctx.Process(
                    target=_shard_worker_main,
                    args=(
                        w,
                        self._shm.name,
                        layout,
                        lo,
                        hi,
                        env_factory,
                        auto_reset,
                        self._request[w],
                        self._reply[w],
                        self.obs_dtype.name,
                    ),
                    daemon=True,
                    name=f"repro-shard-{w}",
                )
                proc.start()
                self._procs.append(proc)
            self._await(range(self.num_workers))
        except Exception:
            self.close()
            raise
        reasons = [
            _read_text(self._views["fallback"][w]) for w in range(self.num_workers)
        ]
        self._fallback_reason = next((r for r in reasons if r), None)

    # ------------------------------------------------------------------
    # Interface metadata
    # ------------------------------------------------------------------
    @property
    def fast_path(self) -> bool:
        """Whether every shard steps on the stacked-array fast path."""
        return self._fallback_reason is None

    @property
    def fallback_reason(self) -> str | None:
        """First shard's reason for scalar-fallback stepping (None if fast)."""
        return self._fallback_reason

    @property
    def track(self):
        """Shared track geometry (identical across the batch; read-only)."""
        return self._template.track

    @property
    def template_env(self) -> CooperativeLaneChangeEnv:
        """Parent-local replica for static probing; never stepped."""
        return self._template

    @property
    def shards(self) -> list[tuple[int, int]]:
        """Global env index range ``[lo, hi)`` owned by each worker."""
        return list(self._shards)

    @property
    def processes(self) -> tuple[mp.process.BaseProcess, ...]:
        """The live worker process handles (for monitoring/tests)."""
        return tuple(self._procs)

    @property
    def agent_d(self) -> np.ndarray:
        """Learning vehicles' exact lateral positions, ``(n, a)``.

        A read-only view of the shared block; workers refresh it after
        every state-changing command (see :attr:`VectorEnv.agent_d` for
        the semantics it mirrors bitwise).
        """
        return self._views["agent_d"]

    @property
    def agent_heading(self) -> np.ndarray:
        """Learning vehicles' exact heading errors, ``(n, a)``."""
        return self._views["agent_heading"]

    @property
    def lane_ids(self) -> np.ndarray:
        """Post-step (pre-auto-reset) lane ids, ``(n, a)``."""
        return self._views["lane_ids"]

    @property
    def lane_deviation(self) -> np.ndarray:
        """Post-step distances to the current lane centre, ``(n, a)``."""
        return self._views["lane_deviation"]

    # ------------------------------------------------------------------
    # Command plumbing
    # ------------------------------------------------------------------
    def _assert_open(self) -> None:
        if self._closed:
            raise RuntimeError("ShardedVectorEnv is closed")
        if self._broken is not None:
            raise RuntimeError(
                "ShardedVectorEnv is broken and must be closed "
                f"(earlier failure: {self._broken}); the command protocol "
                "is out of sync, so further results would be stale"
            )

    def _shard_of(self, i: int) -> int:
        for w, (lo, hi) in enumerate(self._shards):
            if lo <= i < hi:
                return w
        raise IndexError(f"env index {i} out of range [0, {self.num_envs})")

    def _dispatch(self, command: int, workers: Sequence[int]) -> None:
        for w in workers:
            self._views["cmd"][w] = command
            self._request[w].release()
        self._await(workers)

    def _await(self, workers: Sequence[int]) -> None:
        deadline = time.monotonic() + self._timeout
        for w in workers:
            while not self._reply[w].acquire(timeout=0.05):
                lo, hi = self._shards[w]
                if not self._procs[w].is_alive():
                    # Replies of later workers stay undrained: the
                    # semaphore protocol is out of sync, so poison the
                    # engine — a retried command would consume a stale
                    # reply and silently return a previous command's data.
                    self._broken = (
                        f"worker {w} (envs [{lo}, {hi})) died with exit "
                        f"code {self._procs[w].exitcode}"
                    )
                    raise RuntimeError(f"rollout {self._broken}")
                if time.monotonic() > deadline:
                    self._broken = (
                        f"worker {w} (envs [{lo}, {hi})) did not reply "
                        f"within {self._timeout:.0f}s"
                    )
                    raise TimeoutError(f"rollout {self._broken}")
        for w in workers:
            if self._views["status"][w] == _STATUS_ERROR:
                lo, hi = self._shards[w]
                raise RuntimeError(
                    f"rollout worker {w} (envs [{lo}, {hi})) failed: "
                    f"{_read_text(self._views['msg'][w])}"
                )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _dispatch_reset(self, rows: Sequence[int], seeds: Sequence[int | None]) -> None:
        """Reset envs ``rows`` (``seeds[k]`` for ``rows[k]``) with one
        dispatch to the workers owning them; results land in the views."""
        views = self._views
        views["reset_rows"][:] = 0
        for i, seed in zip(rows, seeds):
            views["reset_rows"][i] = 1
            views["reset_has_seed"][i] = seed is not None
            views["reset_seeds"][i] = 0 if seed is None else seed
        self._dispatch(_CMD_RESET, sorted({self._shard_of(int(i)) for i in rows}))

    def reset(self, seeds: int | Sequence[int | None] | None = None) -> ObsBatch:
        """Reset every environment; same seed semantics as ``VectorEnv``."""
        self._assert_open()
        self._dispatch_reset(range(self.num_envs), self._normalize_seeds(seeds))
        return {key: self._views[f"obs_{key}"].copy() for key in _OBS_KEYS}

    def reset_env(self, i: int, seed: int | None = None) -> dict[str, np.ndarray]:
        """Reset just environment ``i`` (optionally seeded); its obs rows."""
        self._assert_open()
        self._dispatch_reset([int(i)], [None if seed is None else int(seed)])
        return {key: self._views[f"obs_{key}"][i].copy() for key in _OBS_KEYS}

    def step(
        self, actions: np.ndarray, reset_seeds: Sequence[int | None] = ()
    ) -> tuple[ObsBatch, np.ndarray, np.ndarray, list[dict[str, Any]]]:
        """Advance every environment one step across all workers.

        Same contract as :meth:`VectorEnv.step`: stacked observations,
        shared team rewards/dones of shape ``(num_envs,)``, auto-reset
        rows with the finished episode's summary and terminal observation
        in ``infos[i]``, finished envs seeded from ``reset_seeds`` in env
        order (re-reset after the step; see the module docstring).
        """
        self._assert_open()
        # Cast to the shm actions dtype (the compute dtype).  The worker
        # upcasts to float64 before physics, which is exact, so the only
        # rounding is the policy's own output precision.
        actions = np.asarray(actions, dtype=self._views["actions"].dtype)
        expected = (self.num_envs, self.num_agents, 2)
        if actions.shape != expected:
            raise ValueError(f"actions must have shape {expected}, got {actions.shape}")
        self._views["actions"][:] = actions
        self._dispatch(_CMD_STEP, range(self.num_workers))
        if self.auto_reset and len(reset_seeds):
            finished = np.flatnonzero(self._views["dones"])
            seeded = [
                (i, seed)
                for i, seed in zip(finished, self._auto_reset_seeds(finished, reset_seeds))
                if seed is not None
            ]
            if seeded:
                self._dispatch_reset(*zip(*seeded))

        observations = {key: self._views[f"obs_{key}"].copy() for key in _OBS_KEYS}
        rewards = self._views["rewards"].copy()
        dones = self._views["dones"].astype(bool)
        infos: list[dict[str, Any]] = [
            {"t": int(self._views["step_t"][i])} for i in range(self.num_envs)
        ]
        for i in np.flatnonzero(dones):
            stats = self._views["episode_stats"][i]
            infos[i]["episode"] = {
                key: float(stats[j]) for j, key in enumerate(_EPISODE_KEYS)
            }
            infos[i]["terminal_observation"] = {
                key: self._views[f"term_{key}"][i].copy() for key in _OBS_KEYS
            }
        return observations, rewards, dones, infos

    def close(self) -> None:
        """Shut workers down, reap them, and unlink the shared block.

        Idempotent; also invoked by the context manager and the
        finalizer, so abandoning an instance cannot leak processes or
        shared memory.
        """
        if self._closed:
            return
        self._closed = True
        for w, proc in enumerate(self._procs):
            if proc.is_alive():
                self._views["cmd"][w] = _CMD_CLOSE
                self._request[w].release()
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        if self._shm is not None:
            self._views = {}
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None

    def __del__(self):  # noqa: D105 - finalizer only mirrors close()
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass


def _usable_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware where possible)."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
