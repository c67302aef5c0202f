"""Benchmark of the aridem package, end to end and layer by layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src and nothing is installed. Workloads (see workloads.py):

  engine-bulk   one Execution.run of the n=48 matmul
  sweep-grid    `aridem sweep` through cli.main, sizes 12,16,20 x procs 1,4,16,
                once with the paper defaults and once with roundrobin, t_master 2
  small-mixed   246 small programs (matmul n=1..6 and generated ones), each
                built, run (FIFO), stepped (LIFO) and simulated

A pass is set-up (fresh import of the package plus the workload's own
set-up, timed as setup_s) followed by the timed section (wall_s). Passes
repeat for --seconds and every pass's outputs are checked outside the
timed section. The process is single-threaded and pins itself to the
lowest-numbered CPU it may use; its one child, the host speed probe of an
untraced run, inherits the pin and is waited for before the result.

--trace 0 reports the end-to-end metrics, as medians over passes:
  wall_s, elements_per_s, setup_s (5 set-ups per pass), peak_rss_mb.
Each pass's three times are scaled to the speed of the reference host,
measured by hostspeed.py before and after every 2 s of passes, because the
shared host's own speed drifts by up to a factor of two over minutes; the
medians as measured are printed before the result.
fail_ratio, the share of checks that failed, is printed with them and
carried by the "attempted" and "failed" fields of the result.

--trace 1 first makes one pass under tracemalloc, which gives the
allocation peaks, then spends the rest of --seconds half on untraced passes
and half on traced ones, whose layer spans, GC pauses (gc.callbacks) and
simulator events (on_event) give the per-layer metrics. The traced passes
are checked to leave at most max(trace.overhead_s, 10 % of their wall_s)
outside every layer span. Spans are written as Chrome Trace Event JSON
to bench/out/trace-<workload>-<seed>.json, which Perfetto opens.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 only when every
check passed; 2 means the package source was not found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

import hostspeed  # noqa: E402  (bench-local modules, found through sys.path[0])
import progen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_TRACE_PASSES = 2
# Set-up takes milliseconds while the machine's speed drifts over seconds,
# so extra set-ups follow every pass and their samples span the whole run.
EXTRA_SETUPS_PER_PASS = 4
# Seconds of passes between host speed samples: a sample takes about a
# fifth of that, and the host's speed drifts over tens of seconds.
SAMPLE_EVERY_S = 2.0
# The traced pass time that no layer span may cover, as a share of it, when
# trace.overhead_s is smaller: the harness loop between layer calls.
UNATTRIBUTED_SHARE = 0.10

END_TO_END = {
    "wall_s": "s",
    "elements_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "programs.build_s": "s",
    "programs.calls": "count",
    "engine.compile_s": "s",
    "engine.run_s": "s",
    "engine.step_s": "s",
    "engine.elements_per_s": "1/s",
    "engine.gc_s": "s",
    "engine.gc_collections": "count",
    "engine.peak_alloc_mb": "MB",
    "engine.elements_created": "count",
    "engine.max_queue_depth": "count",
    "engine.max_partial_depth": "count",
    "machine.simulate_s": "s",
    "machine.elements_per_s": "1/s",
    "machine.events": "count",
    "machine.events_per_s": "1/s",
    "machine.gc_s": "s",
    "machine.peak_alloc_mb": "MB",
    "machine.messages": "count",
    "machine.sim_time": "count",
    "baseline.instruction_s": "s",
    "baseline.oracle_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.bytes_out": "count",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}

_clock = time.perf_counter


def fresh_import() -> SimpleNamespace:
    """Import the package from scratch, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "aridem" or m.startswith("aridem.")]:
        del sys.modules[name]
    importlib.import_module("aridem.cli")
    return SimpleNamespace(**{name: sys.modules[f"aridem.{name}"] for name in
                              ("core", "engine", "machine", "programs", "baseline", "cli")},
                           aridem=sys.modules["aridem"])


def trace_targets(mods) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) wrapped in a traced pass.

    The cli entries are the names cli imported, so a sweep's inner calls
    are attributed without touching the package source.
    """
    return [
        (mods.cli, "main", "cli.main"),
        (mods.cli, "build_matmul_program", "programs.build"),
        (mods.cli, "simulate", "machine.simulate"),
        (mods.cli, "simulate_instruction_model", "baseline.instruction"),
        (mods.programs, "build_matmul_program", "programs.build"),
        (progen, "build", "programs.build"),
        (mods.engine.Execution, "__init__", "engine.compile"),
        (mods.engine.Execution, "run", "engine.run"),
        (workloads, "step_to_quiescence", "engine.step"),
        (mods.machine, "simulate", "machine.simulate"),
        (mods.baseline, "matmul_oracle", "baseline.oracle"),
    ]


class Pass(SimpleNamespace):
    """setup_s, wall_s, pass_id, result (a workloads.PassResult) and, once
    run_passes has run it, setups and speed_s."""


def one_pass(workload, ref, tracer: spans.Tracer | None = None, pass_id: int = 0) -> Pass:
    gc.collect()
    start = _clock()
    mods = fresh_import()
    if tracer is not None:
        tracer.begin_pass(pass_id)
        tracer.install(trace_targets(mods))
        setup_span = tracer.open("setup")
    try:
        state = workload.setup(mods, ref)
        if tracer is not None:
            tracer.close(setup_span)
            root = tracer.open("pass")
        begin = _clock()
        raw = workload.run_pass(mods, state)
        end = _clock()
        if tracer is not None:
            tracer.close(root)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return Pass(setup_s=begin - start, wall_s=end - begin, pass_id=pass_id,
                result=workload.collect(state, raw))


def setup_only(workload, ref) -> float:
    gc.collect()
    start = _clock()
    workload.setup(fresh_import(), ref)
    return _clock() - start


def run_passes(workload, ref, checker, seconds: float, minimum: int,
               extra_setups: int = 0,
               probe: hostspeed.Probe | None = None) -> list[Pass]:
    """Untraced passes for seconds, each with its set-up times in setups.

    Given a probe, the host speed is sampled before the first pass and then
    whenever SAMPLE_EVERY_S has gone by since the last sample, at the end
    of a pass; each pass's speed_s is the mean of the samples on either
    side of it.
    """
    passes: list[Pass] = []
    unsampled: list[Pass] = []
    before = probe.sample() if probe is not None else 0.0
    start = last = _clock()
    while len(passes) < minimum or _clock() - start < seconds:
        p = one_pass(workload, ref)
        p.setups = [p.setup_s] + [setup_only(workload, ref) for _ in range(extra_setups)]
        workload.check(checker, ref, p.result)
        p.result.detail = None  # checked; keeping it would grow peak RSS with every pass
        passes.append(p)
        unsampled.append(p)
        if probe is not None and _clock() - last >= SAMPLE_EVERY_S:
            before = sample_speed(probe, before, unsampled)
            last = _clock()
    if probe is not None and unsampled:
        sample_speed(probe, before, unsampled)
    return passes


def sample_speed(probe: hostspeed.Probe, before: float, unsampled: list[Pass]) -> float:
    """Give the passes since the last sample their speed_s; returns the new sample."""
    after = probe.sample()
    for p in unsampled:
        p.speed_s = (before + after) / 2
    unsampled.clear()
    return after


def end_to_end(passes: list[Pass]) -> dict:
    """The end-to-end metrics, each pass's times scaled to the reference host's speed."""
    scale = [hostspeed.REFERENCE_S / p.speed_s for p in passes]
    print(f"measured: wall_s {statistics.median(p.wall_s for p in passes):.6f} s, "
          f"setup_s {statistics.median(s for p in passes for s in p.setups):.6f} s; "
          f"host speed sample median {statistics.median(p.speed_s for p in passes):.6f} s "
          f"(reference {hostspeed.REFERENCE_S} s)")
    return {
        "wall_s": statistics.median(p.wall_s * k for p, k in zip(passes, scale)),
        "elements_per_s": statistics.median(p.result.elements / (p.wall_s * k)
                                            for p, k in zip(passes, scale)),
        "setup_s": statistics.median(s * k for p, k in zip(passes, scale) for s in p.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_sample(tracer: spans.Tracer, p: Pass, events: int) -> dict:
    """Per-layer figures of one traced pass."""
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    gc_s = {"engine": 0.0, "machine": 0.0}
    gc_n = {"engine": 0, "machine": 0}
    # Layer self time inside the timed section: spans under the "pass" root.
    root_of: dict[int, str] = {}
    layer_self_s = 0.0
    for span, self_s in tracer.self_times(p.pass_id):
        root_of[span.sid] = span.name if span.parent is None else root_of[span.parent]
        if span.parent is not None and root_of[span.sid] == "pass":
            layer_self_s += self_s
        total[span.name] = total.get(span.name, 0.0) + span.end - span.start
        own[span.name] = own.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        layer = span.name.split(".")[0]
        if layer in gc_s:
            gc_s[layer] += span.gc_s
            gc_n[layer] += span.gc_collections
    run_s = total.get("engine.run", 0.0)
    sim_s = total.get("machine.simulate", 0.0)
    result = p.result
    sample = {
        "programs.build_s": total.get("programs.build", 0.0),
        "programs.calls": calls.get("programs.build", 0),
        "engine.compile_s": total.get("engine.compile", 0.0),
        "engine.run_s": run_s,
        "engine.step_s": total.get("engine.step", 0.0),
        "engine.elements_per_s": result.run_elements / run_s if run_s else 0.0,
        "engine.gc_s": gc_s["engine"],
        "engine.gc_collections": gc_n["engine"],
        "machine.simulate_s": sim_s,
        "machine.elements_per_s": result.sim_elements / sim_s if sim_s else 0.0,
        "machine.events": events,
        "machine.events_per_s": events / sim_s if sim_s else 0.0,
        "machine.gc_s": gc_s["machine"],
        "baseline.instruction_s": total.get("baseline.instruction", 0.0),
        "baseline.oracle_s": total.get("baseline.oracle", 0.0),
        "cli.main_s": total.get("cli.main", 0.0),
        "cli.self_s": own.get("cli.main", 0.0),
        "trace.unattributed_s": own.get("pass", 0.0),
    }
    sample.update(result.counters)
    sample["span_calls"] = calls
    sample["layer_self_s"] = layer_self_s
    return sample


def exact_counts(sample: dict) -> dict:
    """The figures of a traced pass that must repeat exactly on every pass."""
    names = {*workloads.zero_counters(), "programs.calls", "machine.events", "span_calls"}
    return {k: v for k, v in sample.items() if k in names}


def peak_alloc_mb(tracer: spans.Tracer, pass_id: int, layer: str) -> float:
    peaks = [s.peak - s.base for s in tracer.spans
             if s.pass_id == pass_id and s.name.startswith(layer + ".")]
    return max(peaks, default=0) / (1 << 20)


def per_layer(workload, ref, checker, seconds: float, seed: int) -> dict:
    # The tracemalloc pass comes first and its time is taken out of the
    # budget, so the whole run takes about seconds unless this one pass is
    # longer than that.
    tracer = spans.Tracer()
    memory_id = 0
    start = _clock()
    tracer.memory = True
    tracemalloc.start()
    try:
        p = one_pass(workload, ref, tracer, memory_id)
    finally:
        tracemalloc.stop()
        tracer.memory = False
    workload.check(checker, ref, p.result)
    half = max(seconds - (_clock() - start), 0.0) / 2

    untraced = run_passes(workload, ref, checker, half, MIN_TRACE_PASSES)
    samples = []
    traced: list[Pass] = []
    start = _clock()
    while len(traced) < MIN_TRACE_PASSES or _clock() - start < half:
        before = tracer.events
        p = one_pass(workload, ref, tracer, memory_id + 1 + len(traced))
        workload.check(checker, ref, p.result)
        p.result.detail = None
        traced.append(p)
        samples.append(layer_sample(tracer, p, tracer.events - before))

    exact = [exact_counts(s) for s in samples]
    checker.check(all(e == exact[0] for e in exact),
                  "traced passes disagree on counts: "
                  + "; ".join(json.dumps(e, sort_keys=True) for e in exact))

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload.name}-{seed}.json"
    tracer.write_chrome(trace_path)
    print(f"trace: {trace_path.relative_to(BENCH_DIR.parent)}")

    traced_wall = statistics.median(p.wall_s for p in traced)
    found = {
        "engine.peak_alloc_mb": peak_alloc_mb(tracer, memory_id, "engine"),
        "machine.peak_alloc_mb": peak_alloc_mb(tracer, memory_id, "machine"),
        "trace.overhead_s": traced_wall - statistics.median(p.wall_s for p in untraced),
    }
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name in found:
            metrics[name] = found[name]
        else:
            values = [s[name] for s in samples]
            metrics[name] = (statistics.median_low(values) if unit == "count"
                             else statistics.median(values))

    layer_self = statistics.median(s["layer_self_s"] for s in samples)
    unattributed = metrics["trace.unattributed_s"]
    allowance = max(metrics["trace.overhead_s"], UNATTRIBUTED_SHARE * traced_wall)
    print(f"traced wall_s {traced_wall:.6f} s; layer self times sum to {layer_self:.6f} s, "
          f"unattributed {unattributed:.6f} s, allowed "
          f"max(trace.overhead_s {metrics['trace.overhead_s']:.6f} s, "
          f"{UNATTRIBUTED_SHARE:.0%} of traced wall_s) = {allowance:.6f} s")
    checker.check(unattributed <= allowance,
                  f"layer spans leave {unattributed:.6f} s of the traced pass "
                  f"unattributed, more than {allowance:.6f} s")
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Benchmark the aridem package.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "aridem" / "__init__.py").is_file():
        print(f"error: no package source at {SRC_DIR}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    # The vCPUs of a small virtual machine can differ in speed by a quarter
    # or more, and a process mostly stays where it started; pinning to one
    # CPU keeps every pass of every run on the same one.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Bytecode caching is fixed here, whatever PYTHONDONTWRITEBYTECODE says,
    # so that setup_s times the same import everywhere: the first import
    # writes the cache and every timed import reads it.
    sys.dont_write_bytecode = False
    sys.pycache_prefix = str(OUT_DIR / "pycache")
    mods = fresh_import()
    if Path(mods.aridem.__file__).resolve().parent != SRC_DIR / "aridem":
        print(f"error: imported aridem from {mods.aridem.__file__}, not {SRC_DIR}",
              file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]()
    checker = workloads.Checker()
    units = PER_LAYER if args.trace else END_TO_END
    try:
        ref = workload.reference(mods, args.seed)
        del mods
        if args.trace:
            metrics = per_layer(workload, ref, checker, args.seconds, args.seed)
        else:
            with hostspeed.Probe() as probe:
                passes = run_passes(workload, ref, checker, args.seconds, MIN_PASSES,
                                    EXTRA_SETUPS_PER_PASS, probe)
            metrics = end_to_end(passes)
            print(f"{workload.name} seed={args.seed}: {len(passes)} passes, "
                  f"{sum(len(p.setups) for p in passes)} set-ups")
    except Exception:
        traceback.print_exc()
        checker.check(False, "the benchmark raised")
        metrics = {}

    for message in checker.failures[:20]:
        print(f"FAILED: {message}")
    failed = len(checker.failures)
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>18.6f} {units[name]}")
    print(f"  {'fail_ratio':<26} {failed / max(checker.attempted, 1):>18.6f} "
          f"({failed} of {checker.attempted} checks failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
