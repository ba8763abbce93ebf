"""The shared stepping interface behind every vectorized rollout consumer.

Two engines step batches of cooperative lane-change environments:

* :class:`~repro.envs.vector_env.VectorEnv` — single-process, all ``N``
  envs in stacked NumPy arrays;
* :class:`~repro.envs.sharded_env.ShardedVectorEnv` — the same batch
  sharded across ``W`` worker processes exchanging stacked arrays over
  shared memory.

Everything downstream — :class:`~repro.core.batched.BatchedHeroRunner`,
:class:`~repro.core.trainer.BatchedRolloutWorker`, ``train_hero``,
``train_marl_vectorized`` and both vectorized evaluators — programs
against this surface only, so the two engines are drop-in substitutes
for each other.  :class:`VectorStepper` names that surface in one place:

========================  ====================================================
member                    contract
========================  ====================================================
``num_envs``              batch size ``N``
``num_agents``/``agents`` learning vehicles per env (shared across the batch)
``num_workers``           worker processes stepping the batch (1 = in-process)
``scenario``/``rewards``  the shared configuration dataclasses
``observation_spaces``    per-agent spaces of the template environment
``action_spaces``         per-agent spaces of the template environment
``high_level_obs_dim``    flat dim of ``s_h = [lidar, speed, laneID]``
``low_level_obs_dim``     flat dim of the feature-mode ``s_l``
``track``                 shared track geometry (read-only)
``template_env``          a live scalar env for static probing (never stepped
                          by the engine; e.g. option initiation predicates)
``fast_path``             whether steps run on the stacked kernels
``fallback_reason``       why they do not (``None`` on the fast path) —
                          surface it in logs, never swallow it
``reset(seeds)``          reset all envs; stacked observation dict
``reset_env(i, seed)``    reset one env; its ``(num_agents, ...)`` obs rows
``step(actions, ...)``    ``(obs, rewards, dones, infos)`` with auto-reset;
                          with ``reset_seeds=``, the k-th env (in env order)
                          that finishes resets with ``reset_seeds[k]``; past
                          the end of the list (or on ``None``) it continues
                          its own stream
``agent_d``               learning vehicles' exact lateral positions (n, a)
``agent_heading``         learning vehicles' exact heading errors (n, a)
``lane_ids``              post-step (pre-auto-reset) lane ids (n, a)
``lane_deviation``        post-step distance to lane centre (n, a)
``close()``               release engine resources (worker processes,
                          shared memory); idempotent
========================  ====================================================

The interface also carries the repo's reproducibility contract: for a
fixed ``num_envs`` every implementation must return **bit-for-bit**
identical observations, rewards, dones and episode summaries for the
same action and reset-seed streams (``tests/test_sharded_env.py`` locks
single-process vs sharded equality at several worker counts).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

ObsBatch = dict[str, np.ndarray]


class VectorStepper:
    """Base class naming the vectorized stepping surface (see module doc).

    Subclasses provide the attributes and methods tabulated above;  the
    base class only implements the observation-flattening helpers shared
    by every engine and the default no-op :meth:`close`.
    """

    num_envs: int
    num_agents: int
    num_workers: int = 1
    agents: list[str]

    # ------------------------------------------------------------------
    # Lifecycle + stepping (implemented by engines)
    # ------------------------------------------------------------------
    def reset(self, seeds: int | Sequence[int | None] | None = None) -> ObsBatch:
        """Reset every environment; returns stacked observations."""
        raise NotImplementedError

    def _normalize_seeds(
        self, seeds: int | Sequence[int | None] | None
    ) -> list[int | None]:
        """Expand :meth:`reset`'s seed argument to one entry per env.

        Shared by every engine so the seed semantics — ``None`` (each env
        continues its own RNG stream), one int (env ``i`` gets
        ``seeds + i``), or one seed/None per env — can never drift between
        them (the engines' bit-for-bit equivalence depends on it).
        """
        if seeds is None:
            return [None] * self.num_envs
        if isinstance(seeds, (int, np.integer)):
            return [int(seeds) + i for i in range(self.num_envs)]
        if len(seeds) != self.num_envs:
            raise ValueError(f"expected {self.num_envs} seeds, got {len(seeds)}")
        return [None if seed is None else int(seed) for seed in seeds]

    def reset_env(self, i: int, seed: int | None = None) -> dict[str, np.ndarray]:
        """Reset just environment ``i``; returns its per-agent obs rows."""
        raise NotImplementedError

    def step(
        self, actions: np.ndarray, reset_seeds: Sequence[int | None] = ()
    ) -> tuple[ObsBatch, np.ndarray, np.ndarray, list[dict[str, Any]]]:
        """Advance every environment one step (auto-reset on done)."""
        raise NotImplementedError

    @staticmethod
    def _auto_reset_seeds(
        done_rows: np.ndarray, reset_seeds: Sequence[int | None]
    ) -> list[int | None]:
        """The seed each finished env auto-resets with, in env order.

        The queue rule of :meth:`step`: the k-th finished env takes
        ``reset_seeds[k]``; past the end of the list (or on a ``None``
        entry) it continues its own RNG stream.  Callers pass the seeds of
        the episodes they will start next, so one auto-reset replaces the
        unseeded reset plus seeded re-reset they would otherwise pay.
        """
        return [
            None if k >= len(reset_seeds) or reset_seeds[k] is None
            else int(reset_seeds[k])
            for k in range(len(done_rows))
        ]

    def close(self) -> None:
        """Release engine resources; default engines hold none."""

    def __enter__(self) -> "VectorStepper":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Flattening helpers (stacked counterparts of the scalar staticmethods)
    # ------------------------------------------------------------------
    @staticmethod
    def flatten_high(obs: ObsBatch) -> np.ndarray:
        """Stacked s_h = [lidar, speed, laneID]; shape (num_envs, agents, Dh)."""
        return np.concatenate([obs["lidar"], obs["speed"], obs["lane_onehot"]], axis=-1)

    @staticmethod
    def flatten_low(obs: ObsBatch) -> np.ndarray:
        """Stacked s_l = [features, speed, laneID]; shape (num_envs, agents, Dl)."""
        if "features" not in obs:
            raise KeyError("low-level flat obs requires observation_mode='features'")
        return np.concatenate(
            [obs["features"], obs["speed"], obs["lane_onehot"]], axis=-1
        )
