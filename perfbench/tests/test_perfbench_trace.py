"""Tests for the benchmark's span tracer, patcher and statistics."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import perf_stats  # noqa: E402
import perf_trace  # noqa: E402
from perf_trace import Patcher, Tracer, chrome_trace, self_times, summarise  # noqa: E402


def span(span_id, parent, name, t0, t1):
    return (span_id, parent, name, t0, t1, 1)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        self.now += 10
        return self.now


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_children_clipped_and_merged():
    spans = [
        span(1, 0, "core.a", 0, 100),
        span(2, 1, "envs.b", 10, 30),
        span(3, 1, "envs.c", 20, 50),  # overlaps b: covered once
        span(4, 1, "envs.d", 90, 120),  # runs past the parent: clipped
        span(5, 2, "training.e", 12, 18),  # grandchild: not the parent's child
    ]
    selfs = self_times(spans)
    assert selfs[1] == 100 - 40 - 10
    assert selfs[2] == 20 - 6
    assert selfs[3] == 30
    assert selfs[5] == 6


def test_nested_wrappers_record_parent_links_and_self_time(monkeypatch):
    monkeypatch.setattr(perf_trace.time, "perf_counter_ns", FakeClock())
    tracer = Tracer()
    inner = tracer.wrap(lambda: "leaf", "envs.inner")

    def outer_body():
        return inner() + inner()

    outer = tracer.wrap(outer_body, "core.outer")
    tracer.enabled = True
    assert outer() == "leafleaf"
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[2], []).append(s)
    (root,) = by_name["core.outer"]
    assert root[1] == 0
    assert all(child[1] == root[0] for child in by_name["envs.inner"])
    names, layers = summarise(tracer.spans)
    assert names["envs.inner"]["calls"] == 2
    child_busy = names["envs.inner"]["busy_s"]
    assert names["core.outer"]["self_s"] == pytest.approx(names["core.outer"]["busy_s"] - child_busy)
    assert layers["core"]["self_s"] == pytest.approx(names["core.outer"]["self_s"])


def test_busy_time_counts_same_name_nesting_once():
    spans = [
        span(1, 0, "baselines.act_batch", 0, 100),
        span(2, 1, "baselines.act_batch", 10, 90),  # a subclass calling super()
        span(3, 0, "baselines.act_batch", 200, 250),
    ]
    names, layers = summarise(spans)
    assert names["baselines.act_batch"]["calls"] == 3
    assert names["baselines.act_batch"]["busy_s"] == pytest.approx(150e-9)
    assert layers["baselines"]["busy_s"] == pytest.approx(150e-9)
    assert layers["baselines"]["self_s"] == pytest.approx(150e-9)


def test_chrome_trace_events_are_complete_events():
    spans = [span(1, 0, "core.a", 1_000, 5_000), span(2, 1, "envs.b", 2_000, 3_000)]
    doc = json.loads(json.dumps(chrome_trace(spans, "run-x", 7)))
    events = doc["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X"]
    assert events[0]["ts"] == 0 and events[0]["dur"] == 4.0
    assert events[1]["cat"] == "envs" and events[1]["args"]["parent"] == 1
    assert all(e["args"]["run_id"] == "run-x" and e["pid"] == 7 for e in events)


# -- percentile rule -----------------------------------------------------------


def test_percentile_rule_needs_ten_samples_beyond():
    assert perf_stats.supported_percentile(1000) == 99.0
    assert perf_stats.supported_percentile(999) == 95.0
    assert perf_stats.supported_percentile(10_000, ceiling=99.9) == 99.9
    assert perf_stats.supported_percentile(200) == 95.0
    assert perf_stats.supported_percentile(100) == 90.0
    assert perf_stats.supported_percentile(19) is None


def test_tail_reports_percentile_value_and_count():
    values = list(range(1, 1001))
    out = perf_stats.tail(values)
    assert out["count"] == 1000
    assert out["tail_p"] == 99.0
    assert out["p50"] == pytest.approx(500.5)
    assert out["tail"] == pytest.approx(990.01)
    small = perf_stats.tail([3.0, 1.0, 2.0])
    assert small["tail_p"] is None and small["tail"] == 3.0 and small["count"] == 3


# -- wrappers and restore ----------------------------------------------------


class Base:
    def method(self, x):
        return ("base", x)

    @staticmethod
    def static(x):
        return x * 2

    @classmethod
    def klass(cls, x):
        return (cls.__name__, x)

    def boom(self):
        raise KeyError("boom")


class Child(Base):
    def method(self, x):
        return ("child", super().method(x))


class Inherits(Base):
    pass


def test_wrappers_preserve_results_and_exceptions_and_restore():
    tracer = Tracer()
    originals = {k: Base.__dict__[k] for k in ("method", "static", "klass", "boom")}
    child_method = Child.__dict__["method"]
    with Patcher() as patcher:
        wrap = lambda name: lambda fn: tracer.wrap(fn, name)  # noqa: E731
        assert patcher.patch_method(Base, "method", wrap("core.method")) == 2
        assert patcher.patch(Base, "static", wrap("core.static"))
        assert patcher.patch(Base, "klass", wrap("core.klass"))
        assert patcher.patch(Base, "boom", wrap("core.boom"))
        assert patcher.patch(Inherits, "boom", wrap("core.boom2"))  # inherited, not owned
        assert not patcher.patch(Base, "missing", wrap("core.missing"))
        tracer.enabled = True
        assert Child().method(3) == ("child", ("base", 3))
        assert Base.static(4) == 8 and Base().static(4) == 8
        assert Child.klass(5) == ("Child", 5)
        with pytest.raises(KeyError, match="boom"):
            Base().boom()
        with pytest.raises(KeyError):
            Inherits().boom()
        names = [s[2] for s in tracer.spans]
        assert names.count("core.method") == 2
        assert "core.boom" in names and "core.boom2" in names  # span closed on raise
        assert tracer._stack() == []
    for key, value in originals.items():
        assert Base.__dict__[key] is value
    assert Child.__dict__["method"] is child_method
    assert "boom" not in Inherits.__dict__
    assert Inherits().method(1) == ("base", 1)


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    wrapped = tracer.wrap(lambda x: x + 1, "core.f")
    assert wrapped(1) == 2
    assert tracer.spans == []


def test_patch_function_replaces_every_binding_and_restores(monkeypatch):
    def target(x):
        return x + 1

    home = types.ModuleType("fakepkg.home")
    home.target = target
    user = types.ModuleType("fakepkg.user")
    user.target = target  # from .home import target
    other = types.ModuleType("elsewhere")
    other.target = target
    for mod in (home, user, other):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = Tracer()
    tracer.enabled = True
    patcher = Patcher()
    assert patcher.patch_function(target, lambda fn: tracer.wrap(fn, "core.t"), "fakepkg") == 2
    assert home.target is user.target is not target
    assert other.target is target
    assert user.target(1) == 2 and len(tracer.spans) == 1
    patcher.restore()
    assert home.target is target and user.target is target


def test_install_spans_restores_repro_originals():
    pytest.importorskip("repro")
    from perf_layers import Counters, install_counters, install_spans
    from repro.envs.vector_env import VectorEnv
    from repro.experiments import common

    step, train = VectorEnv.__dict__["step"], common.train_hero_method
    patcher = Patcher()
    assert install_counters(patcher, Counters()) == []
    assert install_spans(patcher, Tracer()) == []
    assert VectorEnv.__dict__["step"] is not step
    assert common.train_hero_method is not train
    patcher.restore()
    assert VectorEnv.__dict__["step"] is step
    assert common.train_hero_method is train


# -- entry point ---------------------------------------------------------------


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hero_cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
