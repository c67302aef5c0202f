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

The master expands elements into units on the plans the Program was
compiled to when it was built (the per-identifier opcode tuples that
Execution._drain executes), not through apply_relation and
PartialStore. A unit is (operand count, created): created is the one
element a unit deduces, a list for Replicate, and None for a sink, whose
unit carries the output record as a third item (None unless it sinks the
result). A join parks the bare element tuple.

The loop counts only units per worker, and operands per worker. The other
totals follow at quiescence, where every element has been popped and
every unit dispatched and returned: messages are 2 per unit plus
count - 1 per Replicate unit, elements processed are the initial ones
plus one per unit that is not a sink plus count - 1 per Replicate unit,
and a worker's busy time is t_proc per unit it ran. A run that stops
with operands still parked names them as Execution.run does, in
(relation id, index list) order.

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

A finished worker is handed its next unit directly. Every dispatch pass
either fills all idle workers or runs out of work, and a finish brings
no work, so a finish that leads to a dispatch has freed the only idle
worker. The freed worker therefore stays out of the idle list, which is
not scanned for it, and goes back in only when the pass finds no work.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field

from .core import (
    INT64_MAX,
    INT64_MIN,
    DuplicateOperandError,
    DuplicateOutputError,
    IntegerOverflowError,
    SimulationLimitError,
)
from .engine import (
    _OP_MUL,
    _OP_NEGATE,
    _OP_REPLICATE,
    _OP_SINK,
    _OP_SUM,
    Program,
    _deadlock_error,
    _without_gc,
)

DEFAULT_EVENT_LIMIT = 100_000_000


@dataclass(frozen=True)
class MachineConfig:
    """Worker count and dispatch policy.

    dispatch "idle" always picks the lowest-numbered idle worker;
    "roundrobin" scans forward from the last pick. The machine is
    deterministic.
    """

    workers: int
    dispatch: str = "idle"

    def __post_init__(self) -> None:
        if type(self.workers) is not int:
            raise ValueError(f"workers must be an integer, not {self.workers!r}")
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if self.dispatch not in ("idle", "roundrobin"):
            raise ValueError(f"unknown dispatch policy {self.dispatch!r}")


@dataclass(frozen=True)
class CostModel:
    """Integer time costs: per-unit compute, per-message latency, and the
    master's bookkeeping charge per dispatch."""

    t_proc: int = 1
    t_msg: int = 10
    t_master: int = 0

    def __post_init__(self) -> None:
        for name in ("t_proc", "t_msg", "t_master"):
            v = getattr(self, name)
            if type(v) is not int or v < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if self.t_proc == 0 and self.t_msg == 0 and self.t_master == 0:
            raise ValueError("at least one cost must be positive")


@dataclass
class Metrics:
    """Aggregate counters from one simulated run.

    per_worker_processed counts the operands of the units each worker ran
    (a join unit has two); operands_processed is their exact total,
    counted where the units are formed.
    """

    elements_processed: int
    operands_processed: int
    messages: int
    sim_time: int
    idle_time_total: int
    per_worker_processed: list[int]
    per_worker_busy: list[int]
    result_checksum: int
    outputs: dict[tuple[int, ...], int] = field(default_factory=dict)


def validate_metrics(metrics: Metrics) -> Metrics:
    """Check the cross-field identities every emitted record must satisfy."""
    if min(metrics.elements_processed, metrics.operands_processed,
           metrics.messages, metrics.sim_time) < 0:
        raise ValueError("counters must be non-negative")
    workers = len(metrics.per_worker_busy)
    if workers < 1 or len(metrics.per_worker_processed) != workers:
        raise ValueError("per-worker lists must be non-empty and equal length")
    if sum(metrics.per_worker_processed) != metrics.operands_processed:
        raise ValueError("per-worker processed counts do not sum to the total")
    busy_total = sum(metrics.per_worker_busy)
    if metrics.idle_time_total != workers * metrics.sim_time - busy_total:
        raise ValueError("idle time does not match the busy-time accounting")
    if metrics.idle_time_total < 0:
        raise ValueError("workers cannot be busy longer than the run")
    if not 0 <= metrics.result_checksum < (1 << 32):
        raise ValueError("checksum out of range")
    if metrics.result_checksum != sum(metrics.outputs.values()) % (1 << 32):
        raise ValueError("checksum does not match outputs")
    return metrics


def worker_busy_profile(metrics: Metrics) -> float:
    """Imbalance as max worker busy time over mean worker busy time.

    1.0 is a perfect split. Raises ValueError for a run that processed
    nothing; a run whose workers were never busy reports 1.0.
    """
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

    on_event, when given, receives ("dispatch", time, worker, operands),
    ("finish", time, worker), ("arrival", time, worker, outputs) and an
    ("idle_state", time, queued, idle_workers, pending_units) snapshot
    after each event settles; the snapshots let tests audit that no
    worker idles while dispatchable work exists. A run that ends with
    operands still parked raises JoinDeadlockError with run()'s text,
    prefixed "machine ".

    Cyclic GC is off for the whole call, as in Execution.run: the live
    set of queued and parked elements holds no cycles. GC is left as it
    was found, also when the run raises.
    """
    return _without_gc(_simulate, program, machine, costs, max_events, on_event)


def _simulate(program: Program, machine: MachineConfig, costs: CostModel,
              max_events: int, on_event) -> Metrics:
    """The event loop, with the master's unit expansion on compiled plans.

    As in Execution._drain, elements are plain (identifier, indices,
    value) tuples, and each binary relation parks its operands in its own
    dict keyed by the index list. Units, the totals derived at
    quiescence, the hand-off to a freed worker and the tie test on due
    times are as the module docstring describes.
    """
    workers = machine.workers
    t_proc, t_msg, t_master = costs.t_proc, costs.t_msg, costs.t_master
    roundrobin = machine.dispatch == "roundrobin"
    hi, lo = INT64_MAX, INT64_MIN

    plans = program._compiled.plans
    joins = {rid: {} for rid in program._compiled.binary}
    queue = deque(program.initial_elements)
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
    # The worker the last finish freed, kept out of idle: the dispatch
    # pass hands it the next unit or, with no work, puts it back.
    freed = -1
    cursor = workers - 1  # roundrobin: next scan starts after this worker
    # (due, worker, unit) in due order: finishing holds dispatched units;
    # a finished entry moves to arriving as it is and arrives t_msg later.
    finishing: deque[tuple] = deque()
    arriving: deque[tuple] = deque()
    last_due = -1  # due time of the last dispatch; every due is positive
    now = 0
    master_free = 0
    events = 0
    joined = 0  # join units, the second operand of each
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
                    ident, idx, val = element
                    for plan in plans[ident]:
                        code = plan[0]
                        if code == _OP_SUM:
                            _, slot, out_id, limit, result_id, rid = plan
                            parked = joins[rid]
                            hit = parked.pop(idx, None)
                            if hit is None:
                                parked[idx] = element
                                continue
                            # a join's two identifiers differ, so the same
                            # identifier means the same slot
                            if hit[0] == ident:
                                raise DuplicateOperandError(
                                    f"two elements for slot {slot} of relation "
                                    f"{rid} at indices {idx}"
                                )
                            total = val + hit[2]
                            if total > hi or total < lo:
                                raise IntegerOverflowError(
                                    f"SumStep produced {total}, outside 64-bit range"
                                )
                            joined += 1
                            nxt = idx[-1] + 1
                            if nxt == limit:
                                add_unit((2, (result_id, idx[:-1], total)))
                            else:
                                add_unit((2, (out_id, idx[:-1] + (nxt,), total)))
                        elif code == _OP_MUL:
                            _, slot, out_id, tf, rid = plan
                            parked = joins[rid]
                            hit = parked.pop(idx, None)
                            if hit is None:
                                parked[idx] = element
                                continue
                            if hit[0] == ident:
                                raise DuplicateOperandError(
                                    f"two elements for slot {slot} of relation "
                                    f"{rid} at indices {idx}"
                                )
                            product = val * hit[2]
                            if product > hi or product < lo:
                                raise IntegerOverflowError(
                                    f"MulPair produced {product}, outside 64-bit range"
                                )
                            joined += 1
                            add_unit((2, (out_id, idx if tf is None else tf(idx),
                                          product)))
                        elif code == _OP_REPLICATE:
                            _, out_id, pos, count, _ = plan
                            head, tail = idx[:pos], idx[pos:]
                            add_unit((1, [(out_id, head + (j,) + tail, val)
                                          for j in range(count)]))
                            fanout += count - 1
                        elif code == _OP_SINK:
                            add_unit((1, None, (idx, val) if plan[1] else None))
                            sinks += 1
                        elif code == _OP_NEGATE:
                            value = -val
                            if value > hi or value < lo:
                                raise IntegerOverflowError(
                                    f"Negate produced {value}, outside 64-bit range"
                                )
                            tf = plan[2]
                            add_unit((1, (plan[1], idx if tf is None else tf(idx),
                                          value)))
                        else:  # _OP_SQUARE
                            value = val * val
                            if value > hi:
                                raise IntegerOverflowError(
                                    f"Square produced {value}, outside 64-bit range"
                                )
                            tf = plan[2]
                            add_unit((1, (plan[1], idx if tf is None else tf(idx),
                                          value)))
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
            # Dues never fall, so only an equal due can order before the
            # last entry: a t_master = 0 tie, sent to a lower worker.
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
            raise SimulationLimitError(f"exceeded {max_events} events")
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
                        raise DuplicateOutputError(f"result indices {key} produced twice")
                    outputs[key] = record[1]
            else:
                push_elements(created)
            if on_event is not None:
                on_event(("arrival", now, w, 1 if created.__class__ is tuple
                          else 0 if created is None else len(created)))
        else:
            break

    if any(joins.values()):
        raise _deadlock_error(joins, program.names, "machine ")

    sim_time = now
    units = sum(per_units)
    return Metrics(
        elements_processed=len(program.initial_elements) + units - sinks + fanout,
        operands_processed=units + joined,
        messages=2 * units + fanout,
        sim_time=sim_time,
        idle_time_total=workers * sim_time - t_proc * units,
        per_worker_processed=per_processed,
        per_worker_busy=[t_proc * n for n in per_units],
        result_checksum=sum(outputs.values()) % (1 << 32),
        outputs=outputs,
    )
