"""Discrete-event simulation of a master/worker element machine.

The master owns the ready queue and the partial store. Work units are
fully gathered operand sets; the master dispatches one unit per message
to an idle worker, the worker computes for t_proc, and a single return
message carries the unit's outputs back. The queue is popped lazily:
elements stay queued until an idle worker exists to take the deduction
they trigger, so dispatch order (and therefore every counter) is a pure
function of the program and the configuration.

Message accounting per unit: 1 for the dispatch plus max(1, outputs) for
the return, so a unit that deduces nothing still sends one completion.

The master expands elements into units on the Program's compiled plans,
as Execution._drain does: the element tuples, packed keys, plan opcodes
and join stores are described once, in engine. A unit is (operand
count, created): created is the one element a unit deduces, a list for
Replicate, and None for a sink, whose unit carries the output record as
a third item (None unless it sinks the result), its indices decoded.

The loop counts only units per worker, and operands per worker. The other
counts follow at quiescence, where every element has been popped and
every unit dispatched and returned: messages are 2 per unit plus
count - 1 per Replicate unit, elements processed are the initial ones
plus one per unit that is not a sink plus count - 1 per Replicate unit,
and a worker's busy time is t_proc per unit it ran. Metrics computes
the remaining totals from these, as its docstring says. A run that stops
with operands still parked reads and names them as Execution.run does,
through engine's _parked_operands.

Events are taken in (time, kind, worker) order, a finish before an
arrival at the same time, from two FIFO queues instead of a heap. Costs
are constant per run and the master's send times never decrease, so
finishes are due in dispatch order, and each arrival is due t_msg after
its finish, in the order the finishes were taken. One read of the two
heads takes the earlier, the finish on a tie, and finds the machine
quiet when both are empty. One case breaks plain FIFO order: with
t_master = 0, units dispatched at one moment finish at one moment, and
a later one may go to a lower-numbered worker (the round-robin wrap, or
a second dispatch pass at the same time). As dues never fall, the tie
test compares worker ids only when a new due equals the last
dispatch's, and a lower worker's entry is then inserted in place.

The hand-off: a finished worker gets its next unit directly. Every
dispatch pass either fills all idle workers or runs out of work, and a
finish brings no work, so a finish that leads to a dispatch has freed
the only idle worker. The freed worker therefore stays out of the idle
list, which is not scanned for it, and goes back in only when the pass
finds no work.
"""

from __future__ import annotations

from bisect import insort
from collections import deque

from .core import (
    INT64_MAX,
    INT64_MIN,
    _check_hook,
    _deadlock_error,
    _duplicate_operand,
    _duplicate_output,
    _Frozen,
    _int_arg,
    _of_type,
    _over_budget,
    _overflow,
    _Value,
)
from .engine import (
    _OP_NEGATE,
    _OP_PEAK,
    _OP_REPLICATE,
    _OP_SINK,
    _OP_SUM,
    Program,
    _indices,
    _parked_operands,
    _without_gc,
)

DEFAULT_EVENT_LIMIT = 100_000_000
# The most workers a machine may have. A run keeps a few entries per
# worker, so a count past what the host can hold is refused when the
# machine is made instead of raising MemoryError mid-run; the paper's
# machines have at most 16.
MAX_WORKERS = 65_536


class MachineConfig(_Frozen):
    """Worker count and dispatch policy.

    workers is a positive int of at most MAX_WORKERS. dispatch "idle"
    always picks the lowest-numbered idle worker; "roundrobin" scans
    forward from the last pick. The machine is deterministic.
    """

    _fields = ("workers", "dispatch")

    def __init__(self, workers: int, dispatch: str = "idle") -> None:
        _int_arg("workers", workers, 1, most=MAX_WORKERS)
        if dispatch not in ("idle", "roundrobin"):
            raise ValueError(f"unknown dispatch policy {dispatch!r}")
        self.__dict__.update(workers=workers, dispatch=dispatch)


class CostModel(_Frozen):
    """Integer time costs: per-unit compute, per-message latency, and the
    master's bookkeeping charge per dispatch."""

    _fields = ("t_proc", "t_msg", "t_master")

    def __init__(self, t_proc: int = 1, t_msg: int = 10, t_master: int = 0) -> None:
        for name, v in (("t_proc", t_proc), ("t_msg", t_msg), ("t_master", t_master)):
            _int_arg(name, v, 0)
        if t_proc == 0 and t_msg == 0 and t_master == 0:
            raise ValueError("at least one cost must be positive")
        self.__dict__.update(t_proc=t_proc, t_msg=t_msg, t_master=t_master)


class Metrics(_Value):
    """Aggregate counters from one simulated run.

    A record stores only what the run measured. per_worker_processed
    counts the operands of the units each worker ran (a join unit has
    two). Three totals are read-only and derived from the stored fields,
    so a record cannot contradict itself:
      operands_processed = sum(per_worker_processed)
      idle_time_total = len(per_worker_busy) * sim_time - sum(per_worker_busy)
      result_checksum = sum(outputs.values()) mod 2**32
    Metrics are mutable and unhashable; outputs defaults to a new empty
    dict.
    """

    _fields = ("elements_processed", "messages", "sim_time",
               "per_worker_processed", "per_worker_busy", "outputs")

    def __init__(self, elements_processed: int, messages: int, sim_time: int,
                 per_worker_processed: list[int], per_worker_busy: list[int],
                 outputs: dict[tuple[int, ...], int] | None = None) -> None:
        self.elements_processed = elements_processed
        self.messages = messages
        self.sim_time = sim_time
        self.per_worker_processed = per_worker_processed
        self.per_worker_busy = per_worker_busy
        self.outputs = {} if outputs is None else outputs

    @property
    def operands_processed(self) -> int:
        return sum(self.per_worker_processed)

    @property
    def idle_time_total(self) -> int:
        return len(self.per_worker_busy) * self.sim_time - sum(self.per_worker_busy)

    @property
    def result_checksum(self) -> int:
        return sum(self.outputs.values()) % (1 << 32)


def validate_metrics(metrics: Metrics) -> Metrics:
    """Check what a Metrics can still get wrong, raising ValueError: a
    field of the wrong type (the counters must be plain ints, the
    per-worker fields lists of plain ints and outputs a dict), per-worker
    lists that are empty or of unequal length, a negative counter or
    per-worker entry, and a worker busy longer than the run. metrics that
    are not a Metrics are refused too."""
    _of_type("metrics", metrics, Metrics)
    for name in ("elements_processed", "messages", "sim_time"):
        _int_arg(name, getattr(metrics, name))
    processed, busy = metrics.per_worker_processed, metrics.per_worker_busy
    for name, tally in (("per_worker_processed", processed), ("per_worker_busy", busy)):
        if type(tally) is not list or any([type(v) is not int for v in tally]):
            raise ValueError(f"{name} must be a list of plain ints, not {tally!r}")
    _of_type("outputs", metrics.outputs, dict)
    if not busy or len(processed) != len(busy):
        raise ValueError("per-worker lists must be non-empty and equal length")
    if min(metrics.elements_processed, metrics.messages, metrics.sim_time,
           *processed, *busy) < 0:
        raise ValueError("counters must be non-negative")
    if max(busy) > metrics.sim_time:
        raise ValueError("workers cannot be busy longer than the run")
    return metrics


def worker_busy_profile(metrics: Metrics) -> float:
    """Imbalance as max worker busy time over mean worker busy time.

    1.0 is a perfect split. Raises ValueError for metrics that
    validate_metrics refuses and for a run that processed nothing; a run
    whose workers were never busy reports 1.0.
    """
    validate_metrics(metrics)
    if metrics.elements_processed == 0:
        raise ValueError("no elements were processed")
    busy = metrics.per_worker_busy
    total = sum(busy)
    if total == 0:
        return 1.0
    return max(busy) * len(busy) / total


def simulate(program: Program, machine: MachineConfig,
             costs: CostModel = CostModel(), *,
             max_events: int = DEFAULT_EVENT_LIMIT,
             on_event=None) -> Metrics:
    """Run program on the simulated machine and return its Metrics.

    on_event gets the events the engine module docstring lists; the
    idle_state snapshots let tests audit that no worker idles while
    dispatchable work exists. A run that ends with operands still parked
    raises JoinDeadlockError with run()'s text, prefixed "machine ".

    ValueError refuses, before the run, a max_events that is not a
    non-negative int, a program, machine or costs that is not a Program,
    MachineConfig or CostModel, and an on_event that is neither None nor
    callable. Cyclic GC is off for the whole call, as in Execution.run.
    """
    _int_arg("max_events", max_events, 0)
    _of_type("program", program, Program)
    _of_type("machine", machine, MachineConfig)
    _of_type("costs", costs, CostModel)
    _check_hook(on_event)
    return _without_gc(_simulate, program, machine, costs, max_events, on_event)


def _simulate(program: Program, machine: MachineConfig, costs: CostModel,
              max_events: int, on_event) -> Metrics:
    """The event loop and the master's unit expansion, as the module
    docstring describes; the radix is the one Program._initial gives
    for max_events."""
    workers = machine.workers
    t_proc, t_msg, t_master = costs.t_proc, costs.t_msg, costs.t_master
    roundrobin = machine.dispatch == "roundrobin"
    hi, lo = INT64_MAX, INT64_MIN

    plans = program._plans
    queue, places = program._initial(max_events)
    joins = program._stores()
    radix = places[1]
    pop_element = queue.popleft
    push_element = queue.append
    push_elements = queue.extend
    pending: deque[tuple] = deque()  # ready units not yet dispatched
    add_unit = pending.append
    next_unit = pending.popleft
    outputs: dict[tuple[int, ...], int] = {}

    # idle[workers] is a sentinel: a round-robin scan that finds no idle
    # worker after the cursor stops there and wraps to the start.
    idle = [True] * (workers + 1)
    idle_count = workers
    freed = -1  # the worker the last finish freed, for the hand-off
    cursor = workers - 1  # roundrobin: next scan starts after this worker
    # the two event queues, of (due, worker, unit); an entry moves from
    # finishing to arriving as it is, and arrives t_msg after its due
    finishing: deque[tuple] = deque()
    arriving: deque[tuple] = deque()
    last_due = -1  # due time of the last dispatch; every due is positive
    now = 0
    master_free = 0
    events = 0
    sinks = 0
    fanout = 0  # sum of count - 1 over Replicate units
    per_processed = [0] * workers
    per_units = [0] * workers

    while True:
        # Dispatch pass: hand ready units to idle workers, expanding
        # queued elements into units only while a worker is idle.
        while idle_count:
            if not pending:
                while queue:
                    element = pop_element()
                    ident, key, val = element
                    for plan in plans[ident]:
                        code = plan[0]
                        if code <= _OP_SUM:  # _OP_MUL or _OP_SUM
                            parked = joins[plan[5]]
                            if parked.__class__ is list:
                                hit = parked[key]
                                if hit is not None:
                                    parked[key] = None
                            else:
                                hit = parked.pop(key, None)
                            if hit is None:
                                parked[key] = element
                                continue
                            _, slot, out_id, arg, result_id, rid = plan
                            # a join's two identifiers differ, so the same
                            # identifier means the same slot
                            if hit[0] == ident:
                                raise _duplicate_operand(slot, rid, _indices(
                                    key, program.arities[ident], radix))
                            if code == _OP_SUM:
                                value = val + hit[2]
                                if key % radix + 1 == arg:
                                    out = (result_id, key // radix, value)
                                else:
                                    out = (out_id, key + 1, value)
                            else:
                                value = val * hit[2]
                                out = (out_id, key if arg is None else
                                       key // places[arg[0]] * places[arg[1]]
                                       + key % places[arg[1]] + arg[2], value)
                            if value > hi or value < lo:
                                raise _overflow(
                                    "SumStep" if code == _OP_SUM else "MulPair", value)
                            add_unit((2, out))
                        elif code == _OP_REPLICATE:
                            _, out_id, e, count, _ = plan
                            stride = places[e]
                            head, tail = divmod(key, stride)
                            base = head * places[e + 1] + tail
                            created = []
                            for k in range(base, base + count * stride, stride):
                                created.append((out_id, k, val))
                            add_unit((1, created))
                            fanout += count - 1
                        elif code == _OP_SINK:
                            add_unit((1, None, (_indices(key, plan[2], radix), val)
                                      if plan[1] else None))
                            sinks += 1
                        elif code == _OP_PEAK:
                            continue
                        else:  # _OP_NEGATE or _OP_SQUARE
                            value = -val if code == _OP_NEGATE else val * val
                            if value > hi or value < lo:
                                raise _overflow(
                                    "Negate" if code == _OP_NEGATE else "Square", value)
                            _, out_id, tf, _ = plan
                            add_unit((1, (out_id, key if tf is None else
                                          key // places[tf[0]] * places[tf[1]]
                                          + key % places[tf[1]] + tf[2], value)))
                    if pending:
                        break
                else:
                    if freed >= 0:
                        idle[freed] = True
                        freed = -1
                    break
            unit = next_unit()
            if freed >= 0:
                w = freed
                freed = -1
            else:
                if roundrobin:
                    w = idle.index(True, cursor + 1)
                    if w == workers:
                        w = idle.index(True)
                else:
                    w = idle.index(True)
                idle[w] = False
            cursor = w
            idle_count -= 1
            send = (master_free if master_free > now else now) + t_master
            master_free = send
            per_processed[w] += unit[0]
            per_units[w] += 1
            due = send + t_msg + t_proc
            # the tie test of the module docstring
            if due == last_due and w < finishing[-1][1]:
                insort(finishing, (due, w, unit))
            else:
                finishing.append((due, w, unit))
            last_due = due
            if on_event is not None:
                on_event(("dispatch", send, w, unit[0]))
        if on_event is not None:
            on_event(("idle_state", now, len(queue), idle_count, len(pending)))

        if events >= max_events and (finishing or arriving):
            raise _over_budget(max_events, "events")
        events += 1
        if finishing and not (arriving and arriving[0][0] + t_msg < finishing[0][0]):
            entry = finishing.popleft()
            now, freed, _ = entry
            idle_count += 1
            arriving.append(entry)
            if on_event is not None:
                on_event(("finish", now, freed))
        elif arriving:
            now, w, unit = arriving.popleft()
            now += t_msg
            created = unit[1]
            if created.__class__ is tuple:
                push_element(created)
            elif created is None:
                record = unit[2]
                if record is not None:
                    key = record[0]
                    if key in outputs:
                        raise _duplicate_output(key)
                    outputs[key] = record[1]
            else:
                push_elements(created)
            if on_event is not None:
                on_event(("arrival", now, w, 1 if created.__class__ is tuple
                          else 0 if created is None else len(created)))
        else:
            break

    stuck = _parked_operands(joins, program.arities, radix)
    if stuck:
        raise _deadlock_error(stuck, program.names, "machine ")

    units = sum(per_units)
    return Metrics(
        elements_processed=len(program.initial_elements) + units - sinks + fanout,
        messages=2 * units + fanout,
        sim_time=now,
        per_worker_processed=per_processed,
        per_worker_busy=list(map(t_proc.__mul__, per_units)),
        outputs=outputs,
    )
