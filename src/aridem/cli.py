"""Command-line front end.

Subcommands: demo (traced walkthrough programs), run (one model at one
configuration), sweep (the size/processor grid for both models), counts
(reference count tables and the derived ratio). Records go to stdout or
--out as CSV or JSON. Exit codes: 0 success, 1 failed run, 2 usage.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .baseline import (
    ELEMENT_COUNT_MODEL,
    INSTRUCTION_COUNT_MODEL,
    ratio_report,
    simulate_instruction_model,
)
from .core import Element, ElementModelError
from .engine import run as run_program
from .machine import (
    MAX_WORKERS,
    CostModel,
    MachineConfig,
    simulate,
    worker_busy_profile,
)
from .programs import build_matmul_program, build_negate_demo, build_square_demo, matmul_element_count


# The largest matrix size run and sweep accept: at n = 128 a run queues
# about 4.2M elements at once (2n³ + 2n²), a count that grows as n³.
# counts computes its counts in closed form and takes any size.
_MAX_SIZE = 128


def _ints(least: int, most: tuple[str, int] | None = None, many: bool = False):
    """An argparse type for an int no less than least, 0 or 1, and no more
    than most, a bound given as (name, value); with many, for a non-empty
    comma-separated list of such ints. Any other text gets one of the
    messages below, not argparse's own, which would name this private
    function."""
    kind = "positive" if least else "non-negative"

    def parse(text: str):
        parts = [part for part in text.split(",") if part.strip()] if many else [text]
        if not parts:
            raise argparse.ArgumentTypeError("expected a non-empty list of positive integers")
        values = []
        for part in parts:
            try:
                value = int(part)
            except ValueError:
                value = least - 1
            if value < least:
                raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {part}")
            if most is not None and value > most[1]:
                raise argparse.ArgumentTypeError(
                    f"expected a {most[0]} of at most {most[1]}, got {value}")
            values.append(value)
        return values if many else value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aridem",
        description="Simulate element-model programs and benchmark them "
                    "against an instruction-model baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a small traced walkthrough program")
    demo.add_argument("name", choices=("negate", "square"))
    demo.set_defaults(func=cmd_demo)

    def add_cost_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--t-proc", type=_ints(0), default=1,
                       help="time per dispatched work unit (default 1)")
        p.add_argument("--t-msg", type=_ints(0), default=10,
                       help="time per message (default 10)")
        p.add_argument("--t-master", type=_ints(0), default=0,
                       help="master bookkeeping time per dispatch (default 0)")
        p.add_argument("--dispatch", choices=("idle", "roundrobin"), default="idle",
                       help="worker pick policy (default idle)")

    def add_output_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    runp = sub.add_parser("run", help="simulate one model at one configuration")
    runp.add_argument("model", choices=("element", "instruction"))
    runp.add_argument("--n", type=_ints(1, ("size", _MAX_SIZE)), required=True,
                      help="matrix size")
    runp.add_argument("--procs", type=_ints(1, ("worker count", MAX_WORKERS)), default=1,
                      help="worker count")
    runp.add_argument("--seed", type=_ints(0), default=0)
    add_cost_flags(runp)
    add_output_flags(runp)
    runp.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="run the size/processor grid for both models")
    sweep.add_argument("--sizes", type=_ints(1, ("size", _MAX_SIZE), many=True),
                       default=[40, 60, 80, 100],
                       help="comma-separated matrix sizes (default 40,60,80,100)")
    sweep.add_argument("--procs", type=_ints(1, ("worker count", MAX_WORKERS), many=True),
                       default=[2, 4, 8, 16],
                       help="comma-separated worker counts (default 2,4,8,16)")
    sweep.add_argument("--seed", type=_ints(0), default=0)
    add_cost_flags(sweep)
    add_output_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    counts = sub.add_parser("counts", help="print reference count tables and ratios")
    counts.add_argument("--sizes", type=_ints(1, many=True), default=[40, 60, 80, 100])
    add_output_flags(counts)
    counts.set_defaults(func=cmd_counts)

    return parser


def _records(args: argparse.Namespace, models, sizes, procs):
    """Yield the validated record of each (model, n, P) cell, in that order.

    Each size's element program is built once and simulated at every P.
    """
    costs = CostModel(t_proc=args.t_proc, t_msg=args.t_msg, t_master=args.t_master)
    for model in models:
        for n in sizes:
            program = build_matmul_program(n, args.seed) if model == "element" else None
            for p in procs:
                if program is None:
                    metrics = simulate_instruction_model(n, p, costs, args.seed)
                else:
                    machine = MachineConfig(workers=p, dispatch=args.dispatch)
                    metrics = simulate(program, machine, costs)
                imbalance = round(worker_busy_profile(metrics), 6)  # validates metrics
                yield {
                    "model": model,
                    "n": n,
                    "procs": p,
                    "seed": args.seed,
                    "elements_processed": metrics.elements_processed,
                    "messages": metrics.messages,
                    "sim_time": metrics.sim_time,
                    "idle_time_total": metrics.idle_time_total,
                    "imbalance": imbalance,
                    "result_checksum": metrics.result_checksum,
                }


def _format(fmt: str, doc, rows: list[dict], comments=()) -> str:
    """doc as indented JSON, or rows as CSV (floats to six places) followed
    by one "# " line per comment."""
    if fmt == "json":
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows([f"{v:.6f}" if isinstance(v, float) else v for v in row.values()]
                     for row in rows)
    buf.writelines(f"# {line}\n" for line in comments)
    return buf.getvalue()


def cmd_demo(args: argparse.Namespace) -> str:
    program = build_negate_demo() if args.name == "negate" else build_square_demo()
    lines: list[str] = []

    def on_event(event: tuple) -> None:
        if event[0] == "pop":
            lines.append(f"pop {event[1].describe(program.names)}")
        elif event[0] == "apply":
            lines.append(f"  apply {event[1].operation.name.lower()}")
        elif event[0] == "create":
            lines.append(f"  -> {event[1].describe(program.names)}")
        elif event[0] == "output":
            lines.append("  -> result recorded")

    outputs = run_program(program, on_event=on_event).outputs
    for indices, value in sorted(outputs.items()):
        lines.append(Element(program.result_identifier, indices, value).describe(program.names))
    return "\n".join(lines) + "\n"


def cmd_run(args: argparse.Namespace) -> str:
    [record] = _records(args, (args.model,), (args.n,), (args.procs,))
    return _format(args.format, record, [record])


def cmd_sweep(args: argparse.Namespace) -> str:
    sizes = sorted(set(args.sizes))
    records = list(_records(args, ("element", "instruction"), sizes, sorted(set(args.procs))))
    summary = []
    for model in ("element", "instruction"):
        for n in sizes:
            times = [r["sim_time"] for r in records
                     if r["model"] == model and r["n"] == n]
            decreasing = all(b < a for a, b in zip(times, times[1:]))
            summary.append({"model": model, "n": n, "sim_time_decreasing": decreasing})
    comments = [f"model={s['model']} n={s['n']} "
                f"sim_time_decreasing={str(s['sim_time_decreasing']).lower()}"
                for s in summary]
    return _format(args.format, {"records": records, "summary": summary}, records, comments)


def cmd_counts(args: argparse.Namespace) -> str:
    rows = []
    for n in sorted(set(args.sizes)):
        rows.append({
            "n": n,
            "instructions_reference": INSTRUCTION_COUNT_MODEL.count(n),
            "elements_reference": ELEMENT_COUNT_MODEL.count(n),
            "elements_encoding": matmul_element_count(n),
            "instruction_element_ratio": round(float(ratio_report(n)), 6),
        })
    return _format(args.format, {"rows": rows}, rows)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    made = None  # an --out file this call created, removed unless it is written
    try:
        if out is not None:
            existed = os.path.exists(out)
            open(out, "a").close()  # fail before the run; "a" truncates nothing
            made = None if existed else out
        text = args.func(args)
        if out is None:
            sys.stdout.write(text)
        else:
            with open(out, "w") as handle:
                handle.write(text)
            made = None
        return 0
    except (ElementModelError, ValueError, OSError) as exc:  # OSError: --out unwritable
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if made is not None:
            os.remove(made)

