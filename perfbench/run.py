"""End-to-end benchmark of the HERO reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload hero_cell --seed 0 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen; ``README.md`` has
their configurations):

* ``hero_cell`` — ``train_hero_method``: skills, then HERO with evals.
* ``async_idqn`` — IDQN with one learner and one spawned actor process.
* ``serve_hero`` — ``PolicyServer`` under 32 in-process closed-loop clients,
  then one socket client.

A run builds what exists before a user starts (the served checkpoint),
sets up, runs untimed warm-up work, then runs units of work (training cells
or serving budgets) until ``--seconds`` have passed, and checks every
unit's outputs.  ``setup_s`` is the median over fresh interpreters, started
between timed units, of the time to import every layer and set the
workload up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced unit on the same seed, prints the per-layer metrics
from the traced units, the tracing overhead from the pairs, and writes the
first traced unit's spans as Chrome trace-event JSON under
``.perfbench_out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

BLAS is pinned to one thread per process, so the benchmark (load
generator plus program) stays within two CPUs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
MAX_TRACE_EVENTS = 300_000
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload) -> float:
    """Time a fresh interpreter takes to import every layer and set ``workload`` up."""
    code = (
        "import sys, time; t = time.perf_counter(); "
        f"sys.path[:0] = [{str(HERE)!r}, {str(ROOT / 'src')!r}]; "
        "from pathlib import Path; "
        "from perf_layers import Counters; from perf_workloads import WORKLOADS; "
        f"w = WORKLOADS[{workload.name!r}]({workload.seed}, Path({str(OUT)!r}), Counters(), "
        f"**{workload.setup_kwargs()!r}); "
        "w.setup(); dt = time.perf_counter() - t; w.close(); print(dt)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb(with_children: bool) -> float:
    """Peak resident set of this process, with its largest reaped child if asked (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if with_children else 0
    return (own + children) / 1024.0


def emit(line: str = "") -> None:
    print(line, flush=True)


def stop_children() -> None:
    """Stop and reap every process the run started.

    The async stack joins its actors, but creating shared memory starts
    multiprocessing's resource tracker, which would otherwise outlive this
    process by a few milliseconds; ``_stop()`` closes its pipe, which ends
    it, and reaps it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()  # no-op when it never started


class Run:
    """One benchmark run: set-up, warm-up, timed units, checks, metrics."""

    def __init__(self, args, spec: dict):
        from perf_layers import Counters, install_counters
        from perf_trace import Patcher, Tracer
        from perf_workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise SystemExit(
                f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}"
            )
        self.args = args
        self.spec = spec
        self.counters = Counters()
        self.base_patcher = Patcher()
        self.missing = install_counters(self.base_patcher, self.counters)
        self.workload = WORKLOADS[args.workload](args.seed, OUT, self.counters)
        self.tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[int, str] = {}
        self.digest_repeats = 0
        self.plain: list = []  # (index, UnitResult) untraced timed units
        self.traced: list = []  # (index, UnitResult) traced timed units
        self.trace_names: dict = {}
        self.trace_layers: dict = {}
        self.trace_counters: dict = {}
        self.trace_samples: dict = {}
        self.trace_spans = 0
        self.trace_file: Path | None = None
        self.setup_times: list[float] = []

    # -- bookkeeping -------------------------------------------------------
    def account(self, index: int, unit) -> None:
        self.attempted += unit.attempted
        self.failed += unit.failed
        self.problems.extend(unit.problems)
        if unit.digest is None:
            return
        if index not in self.digests:
            self.digests[index] = unit.digest
        elif self.digests[index] == unit.digest:
            self.digest_repeats += 1
        else:
            self.problems.append(
                f"unit {index}: logged-curve digest {unit.digest} differs from "
                f"{self.digests[index]} on an earlier repeat of the same seed"
            )
            self.failed += unit.attempted - unit.failed

    # -- phases --------------------------------------------------------------
    def set_up(self) -> None:
        self.workload.build()
        self.workload.setup()
        self.workload.prepare()
        for unit in self.workload.warm_up():
            self.account(0, unit)

    def run_traced(self, index: int):
        from perf_layers import install_spans
        from perf_trace import Patcher, chrome_trace, summarise

        tracer = self.tracer
        tracer.reset()
        patcher = Patcher()
        missing = install_spans(patcher, tracer)
        self.workload.install_trace_hooks(patcher, tracer)
        tracer.enabled = True
        try:
            unit = self.workload.run_unit(index)
        finally:
            tracer.enabled = False
            patcher.restore()
        for label in missing:
            if label not in self.missing:
                self.missing.append(label)
        names, layers = summarise(tracer.spans)
        for name, entry in names.items():
            acc = self.trace_names.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for layer, entry in layers.items():
            acc = self.trace_layers.setdefault(layer, {"busy_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for name, value in tracer.counters.items():
            self.trace_counters[name] = self.trace_counters.get(name, 0.0) + value
        for name, values in tracer.samples.items():
            self.trace_samples.setdefault(name, []).extend(values)
        self.trace_spans += len(tracer.spans)
        if self.trace_file is None:
            self.trace_file = OUT / f"trace-{self.args.workload}-seed{self.args.seed}.json"
            spans = tracer.spans[:MAX_TRACE_EVENTS]
            with open(self.trace_file, "w") as fh:
                json.dump(chrome_trace(spans, tracer.run_id, os.getpid()), fh)
        tracer.reset()
        return unit

    def run_timed(self) -> None:
        trace = bool(self.args.trace)
        start = time.perf_counter()
        i = 0
        while True:
            pair_done = not trace or i % 2 == 0
            if i > 0 and pair_done and time.perf_counter() - start >= self.args.seconds:
                break
            index = i // 2 if trace else i
            if trace and i % 2 == 1:
                unit = self.run_traced(index)
                self.traced.append((index, unit))
            else:
                unit = self.workload.run_unit(index)
                self.plain.append((index, unit))
            self.account(index, unit)
            if i == 0:
                # Read here, not at exit: with more units the allocator's
                # reuse of freed replay buffers decides the peak (see README).
                # Children count only when the timed work starts them (the
                # async actor), not the checkpoint builder.
                self.peak_rss_mb = peak_rss_mb(self.workload.spawns_processes)
            tag = "traced" if trace and i % 2 == 1 else "plain"
            emit(
                f"  unit {index} [{tag}] wall {unit.wall_s:.4f} s, "
                f"{unit.env_steps} env steps, {unit.attempted} ops, {unit.failed} failed"
                + (f", digest {unit.digest}" if unit.digest else "")
            )
            if i > 0 and i % 2 == 0 and len(self.setup_times) < SETUP_SAMPLES:
                # Spread over the run, so that one slow spell of a shared
                # host does not set every sample; after peak_rss_mb was
                # read, so these children do not count towards it.
                self.setup_times.append(setup_seconds(self.workload))
            i += 1

    # -- metrics ---------------------------------------------------------------
    def end_to_end(self) -> dict:
        from perf_stats import median

        units = [u for _, u in self.plain]
        return {
            "wall_s": median(u.wall_s for u in units),
            "env_steps_per_s": median(u.env_steps / u.wall_s for u in units),
            "setup_s": median(self.setup_times),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict:
        from perf_layers import LAYERS, METHODS, UPDATE_FAMILIES
        from perf_stats import median, tail

        n = max(len(self.traced), 1)
        names, counters = self.trace_names, self.trace_counters

        def calls(name):
            return names.get(name, {}).get("calls", 0) / n

        def busy(name):
            return names.get(name, {}).get("busy_s", 0.0) / n

        out = {}
        for name in ("envs.vector_step", "envs.scalar_reset", "envs.lidar_scan",
                     "envs.skill_step", "core.sac_act", "core.hero_act", "core.eval_hero",
                     "baselines.eval", "training.replay_push", "training.replay_sample",
                     "distributed.param_publish", "serving.session_act"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.busy_s"] = busy(name)
        out["envs.vector_step.rows"] = counters.get("envs.vector_step.rows", 0.0) / n
        out["core.hero_act.rows"] = counters.get("core.hero_act.rows", 0.0) / n
        out["envs.fallback.count"] = float(self.counters.fallbacks)
        out["core.skill_train.busy_s"] = busy("core.skill_train")
        for family in UPDATE_FAMILIES:
            name = f"core.update.{family}"
            total = names.get(name, {}).get("calls", 0)
            useful = counters.get(f"{name}.useful", 0.0)
            out[f"{name}.calls"] = total / n
            out[f"{name}.busy_s"] = busy(name)
            out[f"{name}.useful_ratio"] = useful / total if total else 0.0
        out["baselines.act_batch.busy_s"] = busy("baselines.act_batch")
        out["baselines.observe_batch.busy_s"] = busy("baselines.observe_batch")
        for method in METHODS:
            out[f"experiments.cell.{method}.busy_s"] = busy(f"experiments.cell.{method}")
        out["distributed.rollout_get.calls"] = calls("distributed.rollout_get")
        out["distributed.rollout_get.wait_s"] = busy("distributed.rollout_get")
        staleness = [x for _, u in self.traced for x in u.series.get("snapshot_staleness", ())]
        out["distributed.snapshot_staleness.mean"] = (
            sum(staleness) / len(staleness) if staleness else 0.0
        )
        fill = self.trace_samples.get("serving.batch_fill", [])
        out["serving.batch_fill.mean"] = sum(fill) / len(fill) if fill else 0.0
        waits = self.trace_samples.get("serving.queue_wait_s", [])
        out["serving.queue_wait_p50_ms"] = tail(waits)["p50"] * 1e3 if waits else 0.0
        sock = self.socket_latency
        if sock is not None:
            in_proc = [u.serve["in_process"] for _, u in self.plain]
            out["serving.decisions_per_s"] = median(s.completed / s.elapsed_s for s in in_proc)
            out["serving.socket_p50_ms"] = sock["p50"] * 1e3
            out["serving.socket_tail_ms"] = sock["tail"] * 1e3
            # Round trip minus the server-side time of a socket request, both
            # from the traced units.
            traced_rtt = [x for _, u in self.traced for x in u.serve["socket"].latencies_s]
            server_side = self.trace_samples.get("serving.socket_server_s", [])
            if traced_rtt and server_side:
                out["serving.socket_overhead_p50_ms"] = (
                    tail(traced_rtt)["p50"] - tail(server_side)["p50"]
                ) * 1e3
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = self.trace_layers.get(layer, {}).get("self_s", 0.0) / n
        out["step.p50_ms"] = self.latency["p50"] * 1e3
        out["step.tail_ms"] = self.latency["tail"] * 1e3
        plain_wall = median(u.wall_s for _, u in self.plain)
        traced_wall = median(u.wall_s for _, u in self.traced)
        out["trace.overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
        out["trace.spans"] = self.trace_spans / n
        return out

    # -- report ------------------------------------------------------------------
    def report_layers(self) -> None:
        from perf_stats import median

        n = max(len(self.traced), 1)
        wall = median(u.wall_s for _, u in self.traced)
        emit(f"per-layer split of traced units (mean per unit; traced wall_s {wall:.4f} s)")
        emit(f"  {'layer / span':34s} {'busy_s':>10s} {'self_s':>10s} {'calls':>10s} {'share':>7s}")
        for layer in sorted(self.trace_layers, key=lambda k: -self.trace_layers[k]["busy_s"]):
            entry = self.trace_layers[layer]
            emit(f"  {layer:34s} {entry['busy_s'] / n:10.4f} {entry['self_s'] / n:10.4f} "
                 f"{'':>10s} {entry['busy_s'] / n / wall:7.1%}")
            for name in sorted(self.trace_names, key=lambda k: -self.trace_names[k]["busy_s"]):
                if name.split(".", 1)[0] != layer:
                    continue
                e = self.trace_names[name]
                emit(f"    {name:32s} {e['busy_s'] / n:10.4f} {e['self_s'] / n:10.4f} "
                     f"{e['calls'] / n:10.1f} {e['busy_s'] / n / wall:7.1%}")
        plain_wall = median(u.wall_s for _, u in self.plain)
        emit(f"tracing overhead: traced wall_s {wall:.4f} s vs untraced {plain_wall:.4f} s "
             f"({(wall / plain_wall - 1.0) * 100.0:+.2f}%, {len(self.traced)} pairs)")
        if self.trace_file is not None:
            emit(f"chrome trace (first traced unit): {self.trace_file.relative_to(ROOT)}")

    def finish(self) -> dict:
        from perf_stats import tail

        while len(self.setup_times) < SETUP_SAMPLES:  # a run too short to spread them
            self.setup_times.append(setup_seconds(self.workload))
        plain = [u for _, u in self.plain]
        self.latency = tail([x for u in plain for x in u.latencies_s])
        self.socket_latency = None
        if all(u.serve for u in plain):
            self.socket_latency = tail(
                [x for u in plain for x in u.serve["socket"].latencies_s]
            )
        kind = "per_layer" if self.args.trace else "end_to_end"
        values = self.per_layer() if self.args.trace else self.end_to_end()
        if self.args.trace:
            self.report_layers()
        for label, lat in (("step", self.latency), ("socket", self.socket_latency)):
            if lat is not None:
                emit(f"{label} latency (untraced units): p50 {lat['p50'] * 1e3:.4f} ms, "
                     f"p{lat['tail_p']} {lat['tail'] * 1e3:.4f} ms over {lat['count']} samples")
        if self.digests:
            emit(f"logged-curve digest (unit 0): {self.digests.get(0)}; "
                 f"{self.digest_repeats} repeat(s) matched")
        emit(f"set-up in fresh interpreters: {[round(t, 4) for t in self.setup_times]} s")
        if self.missing:
            emit(f"hook targets not found: {', '.join(self.missing)}")
        for problem in self.problems:
            emit(f"CHECK FAILED: {problem}")
        metrics = {}
        for entry in self.spec[kind]:
            value = float(values.get(entry["name"], 0.0))
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            emit(f"{entry['name']:40s} {value:16.6f} {entry['unit']}")
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        emit(f"error_rate {error_rate:.6f} ({self.failed} failed of {self.attempted} ops)")
        correct = self.failed == 0 and not self.problems and self.attempted > 0
        return {
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed if self.attempted else 1,
            "metrics": metrics,
        }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    # Pin BLAS before NumPy loads; spawned actor processes inherit it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    run = Run(args, spec)
    workload = run.workload
    emit(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    emit(f"config: {json.dumps(workload.config, sort_keys=True)}")
    try:
        run.set_up()
        run.run_timed()
        result = run.finish()
    finally:
        try:
            workload.close()
            workload.discard()
            run.base_patcher.restore()
        finally:
            stop_children()
    emit(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
