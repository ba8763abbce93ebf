"""Where the benchmark hooks into each layer of ``repro``.

Two kinds of hooks, both installed with a :class:`perf_trace.Patcher` and
removed when the run ends:

* :func:`install_counters` — always on, untraced runs too.  They count the
  quantities the end-to-end metrics are defined over (training env
  transitions, rollout-payload rows, vector envs off the fast path) and
  read the clock once per env step, for the step period.
* :func:`install_spans` — the traced run only.  One span per call of each
  layer's public functions, named ``<layer>.<what>``.

A target that no longer exists is skipped and reported, so a refactor that
renames a method shows up as a missing layer rather than a crash.
"""

from __future__ import annotations

import functools
import threading
import time

from perf_trace import Patcher, Tracer

LAYERS = ("envs", "core", "baselines", "training", "distributed", "serving", "experiments")
UPDATE_FAMILIES = ("hero", "sac", "idqn")
METHODS = ("hero", "idqn")


class Counters:
    """Training env transitions, step periods, payload rows and fallbacks.

    A *step period* is the time from one step of a training env to its
    next step: how long the env waits for the learner loop to come round
    again (acting, learning and any interleaved eval in between).  On the
    async learner, which steps no env, it is the time between two rollout
    payloads.
    """

    def __init__(self):
        self.env_steps = 0
        self.fallbacks = 0
        self.fallback_reasons: list[str] = []
        self.step_periods: list[float] = []
        self._last_step: dict[int, float] = {}
        self._local = threading.local()

    def new_unit(self) -> None:
        """Forget the previous unit's envs so no period spans two units."""
        self._last_step.clear()

    def mark_step(self, key) -> None:
        now = time.perf_counter()
        last = self._last_step.get(key)
        self._last_step[key] = now
        if last is not None:
            self.step_periods.append(now - last)

    def depth(self, key: str) -> int:
        return getattr(self._local, key, 0)

    def nested(self, key: str, fn):
        """Wrapper that tracks how deep calls to ``fn`` nest (per thread)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            setattr(self._local, key, self.depth(key) + 1)
            try:
                return fn(*args, **kwargs)
            finally:
                setattr(self._local, key, self.depth(key) - 1)

        return wrapper


def _update_family(args) -> str:
    target = getattr(args[0], "target", None)
    name = type(target).__name__
    return {
        "HeroTeam": "hero",
        "SACAgent": "sac",
        "IndependentDQN": "idqn",
    }.get(name, getattr(target, "name", name).lower())


def install_counters(patcher: Patcher, counters: Counters) -> list[str]:
    """Install the always-on counting hooks; returns targets not found."""
    from repro.baselines import base as baselines_base
    from repro.core import trainer
    from repro.distributed import queues
    from repro.envs import skill_envs, vector_env

    missing: list[str] = []

    def count_vector_step(fn):
        @functools.wraps(fn)
        def wrapper(self, actions, *args, **kwargs):
            training = not counters.depth("eval")
            if training:
                counters.mark_step(id(self))
            result = fn(self, actions, *args, **kwargs)
            if training:
                counters.env_steps += self.num_envs
            return result

        return wrapper

    def count_skill_step(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            counters.mark_step(id(self))
            result = fn(self, *args, **kwargs)
            counters.env_steps += 1
            return result

        return wrapper

    def count_fallback(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            fn(self, *args, **kwargs)
            reason = getattr(self, "fallback_reason", None)
            if reason is not None:
                counters.fallbacks += 1
                counters.fallback_reasons.append(str(reason))

        return wrapper

    def count_payload(fn):
        # Outermost learner-side get only: ActorFanIn.get delegates to
        # ShmRingQueue.get for a single actor.
        inner = counters.nested("get", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = counters.depth("get") == 0
            payload = inner(*args, **kwargs)
            if outer:
                data = getattr(payload, "data", None)
                if isinstance(data, dict):
                    counters.mark_step("payload")
                    counters.env_steps += sum(
                        len(row["dones"]) for row in data.get("rows", ())
                    )
            return payload

        return wrapper

    checks = [
        (
            "VectorEnv.step",
            lambda: patcher.patch(vector_env.VectorEnv, "step", count_vector_step),
        ),
        (
            "VectorEnv.__init__",
            lambda: patcher.patch(vector_env.VectorEnv, "__init__", count_fallback),
        ),
        (
            "LaneKeepingEnv.step",
            lambda: patcher.patch(skill_envs.LaneKeepingEnv, "step", count_skill_step),
        ),
        (
            "LaneChangeEnv.step",
            lambda: patcher.patch(skill_envs.LaneChangeEnv, "step", count_skill_step),
        ),
        (
            "evaluate_hero_vectorized",
            lambda: patcher.patch_function(
                trainer.evaluate_hero_vectorized,
                functools.partial(counters.nested, "eval"),
                "repro",
            ),
        ),
        (
            "evaluate_marl_vectorized",
            lambda: patcher.patch_function(
                baselines_base.evaluate_marl_vectorized,
                functools.partial(counters.nested, "eval"),
                "repro",
            ),
        ),
        (
            "ActorFanIn.get",
            lambda: patcher.patch(queues.ActorFanIn, "get", count_payload),
        ),
        (
            "ShmRingQueue.get",
            lambda: patcher.patch(queues.ShmRingQueue, "get", count_payload),
        ),
    ]
    for label, install in checks:
        if not install():
            missing.append(label)
    return missing


def _rows_of_actions(tracer, args, kwargs, result):
    actions = args[1] if len(args) > 1 else kwargs.get("actions")
    tracer.add("envs.vector_step.rows", len(actions))


def _rows_of_obs(tracer, args, kwargs, result):
    tracer.add("core.hero_act.rows", len(result))


def _useful_update(tracer, args, kwargs, result):
    if result is not None:
        tracer.add(f"core.update.{_update_family(args)}.useful")


def install_spans(patcher: Patcher, tracer: Tracer) -> list[str]:
    """Install one span wrapper per layer entry point; returns targets not found."""
    from repro.baselines import base as baselines_base
    from repro.core import batched, low_level, trainer, update_engine
    from repro.distributed import parameter_server, queues
    from repro.envs import lane_change_env, sensors, skill_envs, vector_env
    from repro.experiments import common
    from repro.serving import server
    from repro.training import replay

    def span(name, on_exit=None):
        return lambda fn: tracer.wrap(fn, name, on_exit)

    def method(cls, attr, name, on_exit=None):
        return (
            f"{cls.__name__}.{attr}",
            lambda: patcher.patch_method(cls, attr, span(name, on_exit)),
        )

    def function(fn, name):
        return (fn.__name__, lambda: patcher.patch_function(fn, span(name), "repro"))

    def cell_name(args):
        return f"experiments.cell.{args[0]}"

    targets = [
        # envs
        method(vector_env.VectorEnv, "step", "envs.vector_step", _rows_of_actions),
        method(lane_change_env.CooperativeLaneChangeEnv, "reset", "envs.scalar_reset"),
        method(sensors.Lidar, "scan_batch", "envs.lidar_scan"),
        method(skill_envs.LaneKeepingEnv, "step", "envs.skill_step"),
        method(skill_envs.LaneChangeEnv, "step", "envs.skill_step"),
        # core
        function(trainer.train_low_level_skills, "core.skill_train"),
        method(low_level.SACAgent, "act", "core.sac_act"),
        method(update_engine.UpdateEngine, "update", lambda a: f"core.update.{_update_family(a)}",
               _useful_update),
        method(batched.BatchedHeroRunner, "act", "core.hero_act", _rows_of_obs),
        function(trainer.evaluate_hero_vectorized, "core.eval_hero"),
        # baselines
        method(baselines_base.MARLAlgorithm, "act_batch", "baselines.act_batch"),
        method(baselines_base.MARLAlgorithm, "observe_batch", "baselines.observe_batch"),
        function(baselines_base.evaluate_marl_vectorized, "baselines.eval"),
        # training
        method(replay.ReplayBuffer, "push", "training.replay_push"),
        method(replay.ReplayBuffer, "push_batch", "training.replay_push"),
        method(replay.ReplayBuffer, "sample", "training.replay_sample"),
        method(replay.JointReplayBuffer, "push", "training.replay_push"),
        method(replay.JointReplayBuffer, "push_batch", "training.replay_push"),
        method(replay.JointReplayBuffer, "sample", "training.replay_sample"),
        # distributed (learner side)
        method(queues.ShmRingQueue, "get", "distributed.rollout_get"),
        method(queues.ActorFanIn, "get", "distributed.rollout_get"),
        method(parameter_server.ParameterServer, "publish", "distributed.param_publish"),
        # serving
        method(server.HeroPolicySession, "act", "serving.session_act"),
        # experiments
        function(common.train_hero_method, "experiments.cell.hero"),
        function(common.train_baseline_method, cell_name),
    ]
    missing = []
    for label, install in targets:
        if not install():
            missing.append(label)
    return missing
