"""Experiment configuration dataclasses.

:class:`PaperHyperparameters` encodes Table I of the paper verbatim; every
experiment config derives from it. Scenario-level knobs (track size, number
of vehicles, option set) live in :class:`ScenarioConfig`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class PaperHyperparameters:
    """Training hyperparameters from Table I of the paper."""

    training_episodes: int = 14_000
    episode_length: int = 30
    buffer_capacity: int = 100_000
    batch_size: int = 1024
    learning_rate: float = 0.01
    discount_factor: float = 0.95
    hidden_dim: int = 32
    target_update_rate: float = 0.01

    def scaled(self, fraction: float) -> "PaperHyperparameters":
        """Return a copy with the episode budget scaled down.

        Benchmarks cannot afford 14k episodes; the ``scale`` knob keeps the
        other hyperparameters fixed so learning dynamics stay comparable.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        episodes = max(1, int(round(self.training_episodes * fraction)))
        return replace(self, training_episodes=episodes)


@dataclass(frozen=True)
class RewardConfig:
    """Reward shaping constants from Sec. IV-B / IV-C."""

    collision_penalty: float = -20.0
    lane_change_success_reward: float = 20.0
    lane_change_fail_penalty: float = -20.0
    # alpha weighs collision avoidance vs forward progress in the team reward.
    alpha: float = 0.5
    # beta weighs lane deviation vs travel distance in the intrinsic reward.
    beta: float = 0.5
    travel_reward_scale: float = 10.0


@dataclass(frozen=True)
class OptionBounds:
    """Per-option action bounds from Sec. IV-C (linear / angular speed)."""

    linear_low: float
    linear_high: float
    angular_low: float
    angular_high: float

    def as_arrays(self):
        import numpy as np

        low = np.array([self.linear_low, self.angular_low])
        high = np.array([self.linear_high, self.angular_high])
        return low, high


# The paper's Sec. IV-C table of per-skill action ranges.
SLOW_DOWN_BOUNDS = OptionBounds(0.04, 0.08, -0.1, 0.1)
ACCELERATE_BOUNDS = OptionBounds(0.08, 0.14, -0.1, 0.1)
LANE_CHANGE_BOUNDS = OptionBounds(0.10, 0.20, 0.12, 0.25)


@dataclass(frozen=True)
class ScenarioConfig:
    """Cooperative lane-change scenario parameters (Sec. V-B, Fig. 9/12)."""

    num_learning_vehicles: int = 3
    num_scripted_vehicles: int = 1
    track_length: float = 20.0
    lane_width: float = 0.5
    num_lanes: int = 2
    vehicle_radius: float = 0.12
    dt: float = 0.5
    lidar_beams: int = 16
    lidar_range: float = 3.0
    camera_size: int = 16
    camera_range: float = 2.0
    episode_length: int = 30
    scripted_speed: float = 0.02
    initial_speed: float = 0.08
    max_option_steps: int = 6
    observation_mode: str = "features"  # "features" | "image"

    @property
    def num_vehicles(self) -> int:
        return self.num_learning_vehicles + self.num_scripted_vehicles


@dataclass(frozen=True)
class TestbedConfig:
    """Domain-shift bundle standing in for the physical testbed (Sec. V-E).

    Each field perturbs one unmodelled-dynamics axis; see DESIGN.md §2 for
    the substitution argument.
    """

    sensor_noise_std: float = 0.03
    action_delay_steps: int = 1
    speed_scale_range: tuple[float, float] = (0.85, 1.05)
    heading_drift_std: float = 0.02
    initial_position_jitter: float = 0.6
    evaluation_episodes: int = 20


@dataclass(frozen=True)
class Execution:
    """How a training run executes: one validated spec for every loop.

    ``num_envs``: vectorized env copies the rollouts (and the interleaved
    greedy evaluations) step in parallel; 1 keeps the scalar loops.

    ``num_workers``: worker processes the env batch is sharded across
    (``repro.envs.sharded_env``; applies when ``num_envs > 1``);
    bit-for-bit equal to in-process stepping at any count.

    ``fused_updates``: route gradient updates through
    ``repro.core.update_engine``, which stacks architecturally identical
    networks into one forward/backward per family.  HERO (skills and
    team), IDQN, MADDPG and MAAC fuse; COMA keeps its own update.
    Tolerance-equivalent to the per-network loop, not bitwise.

    ``async_actors``: collect rollouts in separate actor processes
    (``repro.distributed.actor_learner``; HERO and IDQN).  Needs
    ``num_envs > 1``: :meth:`resolved` falls back to the synchronous loop
    with a warning otherwise.

    ``max_staleness``: snapshot-staleness budget for ``async_actors``, in
    collection rounds.  0 is a lockstep barrier, bitwise identical to the
    synchronous loop; ``k > 0`` lets the actors run up to ``k`` rounds
    ahead of the newest policy snapshot.

    ``num_actors``: rollout actor processes for ``async_actors``.  Under
    lockstep the result is bitwise identical at any count (replicated
    collection); with ``max_staleness > 0`` each actor collects its own
    slice of the episode universe.

    The compute dtype is not part of the spec: it is a process-wide
    default (``repro.nn.default_dtype``) that must be set before any
    network is built.
    """

    num_envs: int = 1
    num_workers: int = 1
    fused_updates: bool = False
    async_actors: bool = False
    max_staleness: int = 0
    num_actors: int = 1

    def __post_init__(self) -> None:
        for name, low in (
            ("num_envs", 1),
            ("num_workers", 1),
            ("num_actors", 1),
            ("max_staleness", 0),
        ):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")

    def resolved(self) -> "Execution":
        """The spec a run actually executes: async collection needs an
        env batch, so ``async_actors`` at ``num_envs == 1`` falls back to
        the synchronous scalar loop with a ``RuntimeWarning``."""
        if not self.async_actors or self.num_envs > 1:
            return self
        warnings.warn(
            "async_actors needs num_envs > 1 (the actor process steps a "
            "vectorized env batch); falling back to the synchronous scalar loop",
            RuntimeWarning,
            stacklevel=3,
        )
        return replace(self, async_actors=False)


@dataclass
class TrainingConfig:
    """Bundle handed to training loops; mutable because trainers anneal it."""

    hyper: PaperHyperparameters = field(default_factory=PaperHyperparameters)
    rewards: RewardConfig = field(default_factory=RewardConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    seed: int = 0
    execution: Execution = field(default_factory=Execution)
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_episodes: int = 2_000
    updates_per_episode: int = 1
    warmup_transitions: int = 64
    entropy_coef: float = 0.01
    opponent_entropy_coef: float = 0.01  # lambda in the opponent-model loss
    sac_alpha: float = 0.2
    grad_clip: float = 10.0
