"""The three benchmark workloads and the checks on their outputs.

Each workload has four parts, called by run.py:

  reference(mods, seed)   inputs and check data made once per run, never timed
  setup(mods, ref)        timed as setup_s, after a fresh package import
  run_pass(mods, state)   timed as wall_s
  collect(state, raw)     turns the raw pass result into a PassResult

check() then compares a PassResult with the reference. mods is the
freshly imported package (see run.fresh_import). Calls into the package
go through module attributes, so the traced run can wrap them.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import progen

BENCH_DIR = Path(__file__).resolve().parent
PINS_PATH = BENCH_DIR / "pins.json"
CHECKSUM_MOD = 1 << 32


class Checker:
    """Counts checks attempted and keeps a message for each that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclass
class PassResult:
    """What one pass produced, reduced to what checks and metrics need."""

    elements: int                 # processed, summed over every executor call
    run_elements: int = 0         # processed by Execution.run alone
    sim_elements: int = 0         # processed by machine.simulate alone
    counters: dict = field(default_factory=dict)  # exact counts, per pass
    detail: object = None         # workload-specific, read by check()


def zero_counters() -> dict:
    return {"engine.elements_created": 0, "engine.max_queue_depth": 0,
            "engine.max_partial_depth": 0, "machine.messages": 0,
            "machine.sim_time": 0, "cli.bytes_out": 0}


def matmul_outputs(mods, n: int, seed: int) -> dict:
    a = mods.programs.generate_matrix(n, seed, 0)
    b = mods.programs.generate_matrix(n, seed, 1)
    c = mods.baseline.matmul_oracle(a, b)
    return {(i, j): c.at(i, j) for i in range(n) for j in range(n)}


def check_matmul_fifo(checker: Checker, label: str, n: int, result, outputs: dict) -> None:
    """A FIFO run of the n x n matmul: closed-form counts and oracle outputs."""
    created = 4 * n ** 3 + 3 * n ** 2
    checker.check(result.elements_created == created,
                  f"{label}: created {result.elements_created}, expected {created}")
    checker.check(result.elements_processed == result.elements_created,
                  f"{label}: processed {result.elements_processed} "
                  f"!= created {result.elements_created}")
    checker.check(result.outputs == outputs, f"{label}: outputs differ from matmul_oracle")
    checker.check(result.max_queue_depth == 2 * n ** 3 + n ** 2,
                  f"{label}: max_queue_depth {result.max_queue_depth}, "
                  f"expected {2 * n ** 3 + n ** 2}")
    checker.check(result.max_partial_depth == n ** 3 + n ** 2,
                  f"{label}: max_partial_depth {result.max_partial_depth}, "
                  f"expected {n ** 3 + n ** 2}")


# -- engine-bulk --------------------------------------------------------

class EngineBulk:
    """One run() of a large matmul: the engine loop and its partial store."""

    name = "engine-bulk"

    def __init__(self, n: int = 48) -> None:
        self.n = n

    def reference(self, mods, seed: int) -> dict:
        return {"seed": seed, "outputs": matmul_outputs(mods, self.n, seed)}

    def setup(self, mods, ref: dict):
        program = mods.programs.build_matmul_program(self.n, ref["seed"])
        return mods.engine.Execution(program)

    def run_pass(self, mods, execution):
        return execution.run()

    def collect(self, state, result) -> PassResult:
        counters = zero_counters()
        counters.update({"engine.elements_created": result.elements_created,
                         "engine.max_queue_depth": result.max_queue_depth,
                         "engine.max_partial_depth": result.max_partial_depth})
        return PassResult(elements=result.elements_processed,
                          run_elements=result.elements_processed,
                          counters=counters, detail=result)

    def check(self, checker: Checker, ref: dict, result: PassResult) -> None:
        check_matmul_fifo(checker, f"engine-bulk n={self.n}", self.n,
                          result.detail, ref["outputs"])


# -- sweep-grid ---------------------------------------------------------

# The grid runs once with the paper's defaults and once with round-robin
# dispatch and a busy master, so both dispatch policies and t_master > 0
# are pinned.
SWEEP_GRIDS = (("paper", ()),
               ("roundrobin-tmaster2", ("--dispatch", "roundrobin", "--t-master", "2")))
PINNED_COLUMNS = ("elements_processed", "messages", "sim_time", "idle_time_total",
                  "imbalance")


def load_pins() -> dict:
    with open(PINS_PATH) as handle:
        return json.load(handle)


def parse_sweep_csv(text: str) -> tuple[list[dict], list[str]]:
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    comments = [line for line in text.splitlines() if line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows)))), comments


def sweep_pins(records: list[dict], comments: list[str]) -> dict:
    """The seed-independent part of one grid's output, as pins.json keeps it."""
    cells = {f"{r['model']},{r['n']},{r['procs']}": [r[c] for c in PINNED_COLUMNS]
             for r in records}
    return {"cells": cells, "comments": comments}


class SweepGrid:
    """`aridem sweep` through cli.main over a scaled paper grid, twice."""

    name = "sweep-grid"

    def __init__(self, sizes=(12, 16, 20), procs=(1, 4, 16), pins: dict | None = None,
                 out_dir: Path = BENCH_DIR / "out") -> None:
        self.sizes = tuple(sizes)
        self.procs = tuple(procs)
        self.pins = load_pins()["sweep-grid"] if pins is None else pins
        self.out_dir = out_dir

    def reference(self, mods, seed: int) -> dict:
        checksums = {n: sum(matmul_outputs(mods, n, seed).values()) % CHECKSUM_MOD
                     for n in self.sizes}
        # first_output keeps each grid's text from the first pass; every
        # later pass must repeat it byte for byte.
        return {"seed": seed, "checksums": checksums, "first_output": {}}

    def setup(self, mods, ref: dict):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        sizes = ",".join(map(str, self.sizes))
        procs = ",".join(map(str, self.procs))
        argvs = []
        for grid, flags in SWEEP_GRIDS:
            out = self.out_dir / f"sweep-{grid}.csv"
            out.unlink(missing_ok=True)
            argvs.append((grid, out, ["sweep", "--sizes", sizes, "--procs", procs,
                                      "--seed", str(ref["seed"]), "--out", str(out), *flags]))
        return argvs

    def run_pass(self, mods, argvs):
        return [mods.cli.main(argv) for _, _, argv in argvs]

    def collect(self, argvs, codes) -> PassResult:
        grids = {}
        counters = zero_counters()
        elements = 0
        for (grid, out, _), code in zip(argvs, codes):
            text = out.read_text() if code == 0 else ""
            records, comments = parse_sweep_csv(text)
            grids[grid] = (code, text, records, comments)
            counters["cli.bytes_out"] += len(text.encode())
            for r in records:
                if r["model"] == "element":
                    elements += int(r["elements_processed"])
                    counters["machine.messages"] += int(r["messages"])
                    counters["machine.sim_time"] += int(r["sim_time"])
        return PassResult(elements=elements, sim_elements=elements,
                          counters=counters, detail=grids)

    def check(self, checker: Checker, ref: dict, result: PassResult) -> None:
        for grid, (code, text, records, comments) in result.detail.items():
            checker.check(code == 0, f"sweep {grid}: exit code {code}")
            pinned = self.pins.get(grid, {})
            pinned_cells = pinned.get("cells", {})
            got = sweep_pins(records, comments)
            expected_cells = {f"{m},{n},{p}" for m in ("element", "instruction")
                              for n in self.sizes for p in self.procs}
            checker.check(set(got["cells"]) == expected_cells,
                          f"sweep {grid}: records cover {sorted(got['cells'])}")
            for key in sorted(expected_cells):
                checker.check(got["cells"].get(key) == pinned_cells.get(key),
                              f"sweep {grid} cell {key}: {got['cells'].get(key)} "
                              f"!= pinned {pinned_cells.get(key)}")
            checker.check(got["comments"] == pinned.get("comments"),
                          f"sweep {grid}: summary lines differ from the pins")
            by_cell = {(r["model"], int(r["n"]), int(r["procs"])): r for r in records}
            for n in self.sizes:
                for p in self.procs:
                    element = by_cell.get(("element", n, p), {})
                    instruction = by_cell.get(("instruction", n, p), {})
                    checker.check(
                        element.get("result_checksum") == instruction.get("result_checksum"),
                        f"sweep {grid} n={n} P={p}: element and instruction checksums differ")
                    checker.check(
                        element.get("result_checksum") == str(ref["checksums"][n]),
                        f"sweep {grid} n={n} P={p}: checksum differs from matmul_oracle")
            checker.check(all(r["seed"] == str(ref["seed"]) for r in records),
                          f"sweep {grid}: seed column is not {ref['seed']}")
            first = ref["first_output"].setdefault(grid, text)
            checker.check(text == first, f"sweep {grid}: output differs on repeat")


# -- small-mixed --------------------------------------------------------

# (workers, dispatch) pairs; program k is simulated on pair k mod 10.
MACHINES = tuple((p, d) for p in (1, 2, 3, 4, 8) for d in ("idle", "roundrobin"))
# Generated programs are drawn until their element count falls in this
# band, so that a pass does about the same work whatever the seed.
GENERATED_ELEMENTS = (20, 48)


def step_to_quiescence(execution) -> None:
    """Drive an Execution one step() at a time until its queue drains."""
    while execution.step():
        pass


class SmallMixed:
    """Many small programs, each built, run, stepped and simulated."""

    name = "small-mixed"

    def __init__(self, matmul_sizes=range(1, 7), generated: int = 240) -> None:
        self.matmul_sizes = tuple(matmul_sizes)
        self.generated = generated

    def reference(self, mods, seed: int) -> dict:
        rng = random.Random(seed)
        items = [("matmul", n, matmul_outputs(mods, n, seed), 4 * n ** 3 + 3 * n ** 2)
                 for n in self.matmul_sizes]
        low, high = GENERATED_ELEMENTS
        while len(items) < len(self.matmul_sizes) + self.generated:
            spec = progen.random_spec(rng)
            if low <= spec.elements <= high:
                items.append(("generated", spec, spec.outputs, spec.elements))
        return {"seed": seed, "items": items}

    def setup(self, mods, ref: dict):
        return ref["seed"], [(kind, what) for kind, what, _, _ in ref["items"]]

    def run_pass(self, mods, state):
        seed, items = state
        engine, machine = mods.engine, mods.machine
        out = []
        for k, (kind, what) in enumerate(items):
            if kind == "matmul":
                program = mods.programs.build_matmul_program(what, seed)
            else:
                program = progen.build(mods.aridem, what)
            fifo = engine.run(program)
            stepped = engine.Execution(program, discipline="lifo")
            step_to_quiescence(stepped)
            workers, dispatch = MACHINES[k % len(MACHINES)]
            metrics = machine.simulate(
                program, machine.MachineConfig(workers=workers, dispatch=dispatch))
            out.append((fifo, stepped, metrics))
        return out

    def collect(self, state, runs) -> PassResult:
        counters = zero_counters()
        run_elements = sim_elements = step_elements = 0
        for fifo, stepped, metrics in runs:
            run_elements += fifo.elements_processed
            step_elements += stepped.elements_processed
            sim_elements += metrics.elements_processed
            counters["engine.elements_created"] += fifo.elements_created
            counters["engine.max_queue_depth"] = max(counters["engine.max_queue_depth"],
                                                     fifo.max_queue_depth)
            counters["engine.max_partial_depth"] = max(counters["engine.max_partial_depth"],
                                                       fifo.max_partial_depth)
            counters["machine.messages"] += metrics.messages
            counters["machine.sim_time"] += metrics.sim_time
        return PassResult(elements=run_elements + step_elements + sim_elements,
                          run_elements=run_elements, sim_elements=sim_elements,
                          counters=counters, detail=runs)

    def check(self, checker: Checker, ref: dict, result: PassResult) -> None:
        items = ref["items"]
        checker.check(len(result.detail) == len(items),
                      f"small-mixed: {len(result.detail)} programs ran, expected {len(items)}")
        for k, ((kind, what, outputs, count), (fifo, stepped, metrics)) in enumerate(
                zip(items, result.detail)):
            label = f"small-mixed program {k} ({kind})"
            if kind == "matmul":
                check_matmul_fifo(checker, label, what, fifo, outputs)
            else:
                checker.check(fifo.outputs == outputs, f"{label}: run() outputs")
                checker.check(fifo.elements_processed == count,
                              f"{label}: run() processed {fifo.elements_processed}, "
                              f"expected {count}")
                checker.check(fifo.elements_created == count,
                              f"{label}: run() created {fifo.elements_created}, "
                              f"expected {count}")
            checker.check(stepped.outputs == outputs, f"{label}: step() outputs")
            checker.check(stepped.elements_processed == count
                          and stepped.elements_created == count,
                          f"{label}: step() processed {stepped.elements_processed}, "
                          f"created {stepped.elements_created}, expected {count}")
            checker.check(len(stepped.partials) == 0,
                          f"{label}: step() left {len(stepped.partials)} operands parked")
            checker.check(metrics.outputs == outputs, f"{label}: simulate() outputs")
            checker.check(metrics.elements_processed == count,
                          f"{label}: simulate() processed {metrics.elements_processed}, "
                          f"expected {count}")
            checker.check(metrics.result_checksum == sum(outputs.values()) % CHECKSUM_MOD,
                          f"{label}: simulate() checksum {metrics.result_checksum}")


WORKLOADS = {w.name: w for w in (EngineBulk, SweepGrid, SmallMixed)}
