"""In-process A/B timing of two source trees of the aridem package.

    python3 tools/ab.py PARENT_TREE CHANGE_TREE --workload run|sweep|small|build
                        [--rounds N] [--size N]

Each tree is a checkout whose src/aridem is loaded into this one process
under a package name of its own (the package imports only relatively), so
both sides share the interpreter and the CPU. The parent's files are
loaded a second time as the control: parent against control is an A/A
read, the harness's own noise. The process pins itself to the
lowest-numbered CPU it may use, as bench/run.py does.

The workloads come from bench/workloads.py by import, each tree's package
passed in as its argument; nothing under bench/ is copied or written:
  run     EngineBulk: one Execution.run of the matmul of --size (48)
  sweep   SweepGrid's 18 simulate() calls: sizes 12, 16, 20 by procs 1,
          4, 16 for each of its two grids, whose costs and dispatch the
          tree's own cli parser reads from the grid's flags; the programs
          are built untimed
  small   SmallMixed's loop: each of its 246 programs built, run (FIFO),
          stepped (LIFO) and simulated
  build   the builds of that loop alone
Every workload draws its programs with seed 0. --size shrinks a
workload: run's n, sweep's one size, and for small and build the
largest matmul and the count of generated programs.

A round times one pass of each side, in alternating order: parent,
control, change, then change, control, parent. A pass sets its state up,
collects the heap, and times the workload's pass alone. Its result is
then reduced to plain data, outside the timed section, and must equal the
parent's; if any differs, the run stops with exit 1 and reports nothing.
One untimed pass of each side comes first.

The last line of standard output is a JSON fragment: the median of the
per-round change/parent ratios, the rounds the change won, the median
control/parent ratio, each side's median seconds, and every ratio.
"""

from __future__ import annotations

import argparse
import enum
import gc
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from collections.abc import Mapping
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import progen  # noqa: E402  (bench-local modules, found through BENCH_DIR)
import workloads  # noqa: E402

MODULES = ("core", "engine", "machine", "programs", "baseline", "cli")
SIDES = ("parent", "control", "change")
SEED = 0
_clock = time.perf_counter


class OutputsDiffer(Exception):
    """A side's pass gave a result other than the parent's."""


def load(tree, name: str) -> SimpleNamespace:
    """tree's src/aridem imported as the package name, in the shape
    bench/workloads.py takes: one attribute per module, and aridem."""
    source = Path(tree) / "src" / "aridem"
    for loaded in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[loaded]
    spec = importlib.util.spec_from_file_location(
        name, source / "__init__.py", submodule_search_locations=[str(source)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return SimpleNamespace(aridem=package,
                           **{module: sys.modules[f"{name}.{module}"] for module in MODULES})


def plain(value):
    """value as plain data, so that results of the two trees' classes
    compare: a record as its class name and fields, an Execution as its
    public counters and views, a mapping as its items in order."""
    if isinstance(value, enum.Enum):
        return repr(value)
    if isinstance(value, Mapping):
        return [(plain(key), plain(item)) for key, item in value.items()]
    if type(value).__name__ == "Execution":
        return plain({name: getattr(value, name) for name in (
            "outputs", "elements_processed", "elements_created", "max_queue_depth",
            "max_partial_depth", "queue", "partials")})
    fields = getattr(value, "_fields", None)
    if fields is not None:  # Element, RunResult, Metrics and the frozen values
        return [type(value).__name__, *[plain(getattr(value, name)) for name in fields]]
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


class Run:
    """EngineBulk's pass: one run() of a fresh Execution."""

    def __init__(self, size: int | None) -> None:
        self.bulk = workloads.EngineBulk() if size is None else workloads.EngineBulk(size)
        self.ref = {"seed": SEED}

    def prepare(self, mods):
        return self.bulk.setup(mods, self.ref)

    def timed(self, mods, execution):
        return self.bulk.run_pass(mods, execution)


class Sweep:
    """SweepGrid's simulate() calls, on programs built untimed."""

    def __init__(self, size: int | None) -> None:
        self.grid = workloads.SweepGrid(pins={}) if size is None else workloads.SweepGrid(
            sizes=(size,), pins={})

    def prepare(self, mods):
        calls = []
        for _, flags in workloads.SWEEP_GRIDS:
            args = mods.cli.build_parser().parse_args(["sweep", *flags])
            costs = mods.machine.CostModel(args.t_proc, args.t_msg, args.t_master)
            for n in self.grid.sizes:
                program = mods.programs.build_matmul_program(n, SEED)
                calls += [(program, mods.machine.MachineConfig(p, args.dispatch), costs)
                          for p in self.grid.procs]
        return calls

    def timed(self, mods, calls):
        simulate = mods.machine.simulate
        return [simulate(program, machine, costs) for program, machine, costs in calls]


class Small:
    """SmallMixed's per-program loop; its programs are drawn once."""

    def __init__(self, size: int | None) -> None:
        self.mixed = workloads.SmallMixed() if size is None else workloads.SmallMixed(
            matmul_sizes=range(1, size + 1), generated=size)
        self.ref = None

    def prepare(self, mods):
        if self.ref is None:
            self.ref = self.mixed.reference(mods, SEED)
        return self.mixed.setup(mods, self.ref)

    def timed(self, mods, state):
        return self.mixed.run_pass(mods, state)


class Build(Small):
    """The builds of SmallMixed's loop alone."""

    def timed(self, mods, state):
        seed, items = state
        matmul = mods.programs.build_matmul_program
        return [matmul(what, seed) if kind == "matmul" else progen.build(mods.aridem, what)
                for kind, what in items]


WORKLOADS = {"run": Run, "sweep": Sweep, "small": Small, "build": Build}


def one_pass(work, mods) -> tuple[float, list]:
    """The seconds of one timed pass of work on mods, and its result as
    plain data."""
    state = work.prepare(mods)
    gc.collect()
    start = _clock()
    raw = work.timed(mods, state)
    elapsed = _clock() - start
    return elapsed, plain(raw)


def compare(parent, change, workload: str, rounds: int = 10,
            size: int | None = None) -> dict:
    """The JSON fragment of the module docstring, for change against
    parent; raises OutputsDiffer when a side's result is not the
    parent's."""
    sides = {"parent": load(parent, "_ab_parent"), "control": load(parent, "_ab_control"),
             "change": load(change, "_ab_change")}
    work = WORKLOADS[workload](size)
    _, expected = one_pass(work, sides["parent"])
    times = {side: [] for side in SIDES}
    for r in range(-1, rounds):  # round -1 is the untimed warm-up
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            elapsed, got = one_pass(work, sides[side])
            if got != expected:
                raise OutputsDiffer(f"{side} ({change if side == 'change' else parent}) "
                                    f"gives other results than the parent on {workload}")
            if r >= 0:
                times[side].append(elapsed)
    ratios = [c / p for c, p in zip(times["change"], times["parent"])]
    controls = [c / p for c, p in zip(times["control"], times["parent"])]
    return {
        "workload": workload,
        "rounds": rounds,
        "ratio": round(statistics.median(ratios), 4),
        "won": sum(ratio < 1 for ratio in ratios),
        "aa_ratio": round(statistics.median(controls), 4),
        "median_s": {side: round(statistics.median(times[side]), 6) for side in SIDES},
        "ratios": [round(ratio, 4) for ratio in ratios],
        "aa_ratios": [round(ratio, 4) for ratio in controls],
    }


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the parent's source tree")
    parser.add_argument("change", help="the change's source tree")
    parser.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    parser.add_argument("--rounds", type=_positive, default=10)
    parser.add_argument("--size", type=_positive, default=None)
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (Path(tree) / "src" / "aridem" / "__init__.py").is_file():
            print(f"error: no src/aridem package in {tree}", file=sys.stderr)
            return 2
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        fragment = compare(args.parent, args.change, args.workload, args.rounds, args.size)
    except OutputsDiffer as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(json.dumps(fragment))
    return 0


if __name__ == "__main__":
    sys.exit(main())
