"""Reference semantics of the element model, one relation at a time.

The package executes programs only on their compiled plans
(Execution._drain and the simulator's loop). This module writes each
operation out a second time, in the plain form the model defines it, so
that the tests can check the plan loops against it:

  apply_transform  -- the output index lists of one input index list
  operand_slot     -- which operand of a join an identifier is
  PartialStore     -- parks the first operand of a join until its partner
  evaluate         -- one relation's arithmetic, on unbounded values
  apply_relation   -- evaluate, raising on a value outside int64
  drive            -- deduction over the three above, FIFO or LIFO, to
                      quiescence or for a number of steps
  run_reference    -- drive to quiescence, FIFO unless told LIFO, raising
                      its error
  first_overflows  -- every overflow text a run can stop with first
  simulate_reference -- the master/worker machine over the same
                      primitives, written from the machine module's
                      model: one heap of events, no hand-off
"""

import heapq
from collections import deque
from itertools import repeat
from types import SimpleNamespace

from aridem import (
    INT64_MAX,
    INT64_MIN,
    Element,
    ElementModelError,
    JoinDeadlockError,
    Metrics,
    Operation,
    ProgramError,
    TransformKind,
)
from aridem.core import (_deadlock_error, _duplicate_operand, _duplicate_output, _over_budget,
                         _overflow)

JOINS = frozenset({Operation.MUL_PAIR, Operation.SUM_STEP})
OVERFLOW_NAMES = {Operation.NEGATE: "Negate", Operation.SQUARE: "Square",
                  Operation.MUL_PAIR: "MulPair", Operation.SUM_STEP: "SumStep"}


def apply_transform(transform, indices: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All output index lists for one input index list.

    Every kind yields exactly one list except INSERT_VARIED, which
    yields count of them.
    """
    kind = transform.kind
    if kind is TransformKind.KEEP:
        return [indices]
    if kind is TransformKind.DROP:
        p = transform.position
        return [indices[:p] + indices[p + 1 :]]
    if kind is TransformKind.INSERT_VARIED:
        p = transform.position
        head, tail = indices[:p], indices[p:]
        return [head + (j,) + tail for j in range(transform.count)]
    if kind is TransformKind.INCREMENT_LAST:
        if not indices:
            raise ProgramError("IncrementLast needs at least one index")
        return [indices[:-1] + (indices[-1] + 1,)]
    if kind is TransformKind.TRUNCATE:
        return [indices[: transform.count]]
    raise ProgramError(f"unknown transform kind {kind!r}")


def operand_slot(rid: int, relation, identifier: int) -> int:
    """Position (0 = left) of identifier among the inputs of relation rid."""
    try:
        return relation.input_identifiers.index(identifier)
    except ValueError:
        raise ProgramError(
            f"identifier {identifier} is not an operand of relation {rid}"
        ) from None


class PartialStore:
    """Holds the first-arriving operand of each binary match.

    Keys are (relation id, index list); a relation's id is its position
    in its Program. offer() either parks an element
    and returns None, or pops the waiting partner and returns the ordered
    (left, right) pair. A second arrival for an already-filled slot is a
    program bug and raises DuplicateOperandError.
    """

    def __init__(self) -> None:
        self._waiting: dict[tuple[int, tuple[int, ...]], tuple[int, Element]] = {}
        self.max_size = 0

    def offer(self, rid: int, relation, element: Element):
        slot = operand_slot(rid, relation, element.identifier)
        key = (rid, element.indices)
        hit = self._waiting.get(key)
        if hit is None:
            self._waiting[key] = (slot, element)
            if len(self._waiting) > self.max_size:
                self.max_size = len(self._waiting)
            return None
        other_slot, other = hit
        if other_slot == slot:
            raise _duplicate_operand(slot, rid, element.indices)
        del self._waiting[key]
        return (other, element) if other_slot == 0 else (element, other)

    def __len__(self) -> int:
        return len(self._waiting)

    def pending(self) -> list[Element]:
        """Elements still waiting for a partner (diagnostic order: insertion)."""
        return [elem for _, elem in self._waiting.values()]

    def parked(self) -> tuple[Element, ...]:
        """Elements still waiting, in the (relation id, index list) order
        the executors name them in."""
        return tuple(elem for _, (_, elem) in sorted(self._waiting.items()))


def evaluate(relation, gathered) -> list[Element]:
    """apply_relation on a tuple of one or two operands, with unbounded
    values: nothing is range-checked."""
    op = relation.operation
    out_id = relation.output_identifier
    transform = relation.index_transform

    if op in JOINS:
        left, right = gathered
        if (left.identifier, right.identifier) != relation.input_identifiers:
            raise ProgramError(
                f"operands ({left.identifier}, {right.identifier}) do not match "
                f"relation inputs {relation.input_identifiers}"
            )
        if left.indices != right.indices:
            raise ProgramError("binary operands must share one index list")
        if op is Operation.MUL_PAIR:
            indices = apply_transform(transform, left.indices)[0]
            return [Element(out_id, indices, left.value * right.value)]
        # SUM_STEP: running sum advances the last index until the limit,
        # then the total moves to the result identifier with that index gone.
        limit, result_id = relation.parameters
        if not left.indices:
            raise ProgramError("SumStep operands need at least one index")
        value = left.value + right.value
        nxt = left.indices[-1] + 1
        if nxt == limit:
            return [Element(result_id, left.indices[:-1], value)]
        return [Element(out_id, left.indices[:-1] + (nxt,), value)]

    (element,) = gathered
    if element.identifier != relation.input_identifiers[0]:
        raise ProgramError(
            f"operand {element.identifier} does not match relation input "
            f"{relation.input_identifiers[0]}"
        )
    if op is Operation.SINK:
        return []
    if op is Operation.REPLICATE:
        return [
            Element(out_id, indices, element.value)
            for indices in apply_transform(transform, element.indices)
        ]
    if op is Operation.NEGATE:
        value = -element.value
    elif op is Operation.SQUARE:
        value = element.value * element.value
    else:
        raise ProgramError(f"unknown operation {op!r}")
    return [Element(out_id, apply_transform(transform, element.indices)[0], value)]


def apply_relation(relation, operands) -> list[Element]:
    """Perform one relation on fully gathered operands.

    operands is a single Element for unary relations and an ordered
    (left, right) pair for binary ones. Returns the created elements:
    exactly parameters[0] for Replicate, none for Sink, one otherwise.
    A value outside the signed 64-bit range raises IntegerOverflowError.
    """
    created = evaluate(relation, operands if relation.operation in JOINS else (operands,))
    for element in created:
        if element.value > INT64_MAX or element.value < INT64_MIN:
            raise _overflow(OVERFLOW_NAMES[relation.operation], element.value)
    return created


def consumers_of(program) -> dict[int, list]:
    """The (relation id, relation) pairs that consume each identifier, in
    relation order."""
    consumers = {}
    for rid, rel in enumerate(program.relations):
        for ident in rel.input_identifiers:
            consumers.setdefault(ident, []).append((rid, rel))
    return consumers


def drive(program, apply=apply_relation, discipline="fifo", steps=None):
    """Deduction on the reference primitives, one relation at a time,
    taking each element from the queue's front ("fifo") or back ("lifo"),
    for at most steps elements when steps is given, else to quiescence.

    Returns outputs, elements_processed, elements_created,
    max_queue_depth, max_partial_depth, the elements popped, the queue,
    the operands still parked in (relation id, index list) order, and
    error, the ElementModelError that stopped the run or None. A result
    index list sunk twice stops it with DuplicateOutputError, and operands
    parked once the queue is empty give JoinDeadlockError, each in the
    executors' text. max_queue_depth is the largest of the initial queue
    length and the length after each element whose relations all
    completed, taken after every such element.
    """
    consumers = consumers_of(program)
    queue = deque(program.initial_elements)
    take = queue.popleft if discipline == "fifo" else queue.pop
    partials, outputs, popped, error = PartialStore(), {}, [], None
    max_queue = len(queue)
    try:
        for _ in repeat(None) if steps is None else range(steps):
            if not queue:
                break
            element = take()
            popped.append(element)
            for rid, rel in consumers.get(element.identifier, ()):
                operands = (partials.offer(rid, rel, element) if rel.operation in JOINS
                            else element)
                if operands is None:
                    continue
                if rel.operation is not Operation.SINK:
                    queue.extend(apply(rel, operands))
                elif element.identifier == program.result_identifier:
                    if element.indices in outputs:
                        raise _duplicate_output(element.indices)
                    outputs[element.indices] = element.value
            max_queue = max(max_queue, len(queue))
    except ElementModelError as caught:
        error = caught
    parked = partials.parked()
    if error is None and parked and not queue:
        error = _deadlock_error(parked, program.names)
    return SimpleNamespace(outputs=outputs, elements_processed=len(popped),
                           elements_created=len(popped) + len(queue),
                           max_queue_depth=max_queue, max_partial_depth=partials.max_size,
                           popped=popped, queue=tuple(queue), parked=parked, error=error)


def run_reference(program, apply=apply_relation, discipline="fifo"):
    """drive to quiescence, raising the error that stops the run."""
    state = drive(program, apply, discipline)
    if state.error is not None:
        raise state.error
    return state


def first_overflows(program) -> set[str]:
    """The overflow texts a run of program can stop with first.

    Evaluates program to quiescence with unbounded values. An application
    whose operands all descend from in-range values, and whose result is
    out of range, gives the text its executor raises; the element it
    creates, and all that descends from it, carries None instead of a
    value. In whatever order an executor takes the elements, the first
    overflow it meets is one of these applications, provided no join of
    program ever sees a duplicate operand.
    """
    texts = set()

    def apply(relation, operands):
        gathered = operands if relation.operation in JOINS else (operands,)
        if any(operand.value is None for operand in gathered):
            # where the created elements go does not depend on the values
            zeroed = [operand._replace(value=0) for operand in gathered]
            return [element._replace(value=None)
                    for element in evaluate(relation, zeroed)]
        created = evaluate(relation, gathered)
        for i, element in enumerate(created):
            if element.value > INT64_MAX or element.value < INT64_MIN:
                texts.add(str(_overflow(OVERFLOW_NAMES[relation.operation],
                                        element.value)))
                created[i] = element._replace(value=None)
        return created

    try:
        run_reference(program, apply)
    except JoinDeadlockError:
        pass  # the texts were all gathered by quiescence
    return texts


FINISH, ARRIVAL = 0, 1  # a finish is taken before an arrival at one time


def simulate_reference(program, machine, costs, max_events, on_event=None):
    """simulate()'s Metrics, events and errors, from the model alone.

    The master pops queued elements in FIFO order, whole elements, only
    while a worker is idle and no unit is pending, and turns every
    relation an element completes into one unit: its operand count, the
    elements it creates, and the element a result sink records. Each unit
    goes to the worker the policy names: the lowest idle one, or under
    "roundrobin" the first idle one after the last pick, wrapping. It is
    sent at max(master free, now) + t_master and finishes t_msg + t_proc
    later; its return arrives t_msg after that, and the master queues
    what it created and records its output. Events are taken from one
    heap of (time, kind, worker) entries, the budget checked before each.
    A unit costs 1 + max(1, created) messages.
    """
    consumers = consumers_of(program)
    emit = on_event or (lambda event: None)
    workers, t_proc, t_msg = machine.workers, costs.t_proc, costs.t_msg
    queue, pending, partials, outputs = deque(program.initial_elements), deque(), PartialStore(), {}
    heap = []  # (time, kind, worker, unit); no two entries share the first three
    idle = [True] * workers
    last = workers - 1
    operands, units = [0] * workers, [0] * workers
    now = master_free = events = popped = messages = 0
    while True:
        while True in idle:
            while queue and not pending:
                element = queue.popleft()
                popped += 1
                for rid, rel in consumers.get(element.identifier, ()):
                    if rel.operation in JOINS:
                        pair = partials.offer(rid, rel, element)
                        if pair is not None:
                            pending.append((2, apply_relation(rel, pair), None))
                    elif rel.operation is not Operation.SINK:
                        pending.append((1, apply_relation(rel, element), None))
                    else:
                        result = element.identifier == program.result_identifier
                        pending.append((1, [], element if result else None))
            if not pending:
                break
            unit = pending.popleft()
            if machine.dispatch == "roundrobin" and True in idle[last + 1:]:
                w = idle.index(True, last + 1)
            else:
                w = idle.index(True)
            idle[w], last = False, w
            send = master_free = max(master_free, now) + costs.t_master
            operands[w] += unit[0]
            units[w] += 1
            messages += 1 + max(1, len(unit[1]))
            heapq.heappush(heap, (send + t_msg + t_proc, FINISH, w, unit))
            emit(("dispatch", send, w, unit[0]))
        emit(("idle_state", now, len(queue), idle.count(True), len(pending)))
        if not heap:
            break
        if events == max_events:
            raise _over_budget(max_events, "events")
        events += 1
        now, kind, w, unit = heapq.heappop(heap)
        if kind == FINISH:
            idle[w] = True
            heapq.heappush(heap, (now + t_msg, ARRIVAL, w, unit))
            emit(("finish", now, w))
            continue
        _, created, record = unit
        if record is not None:
            if record.indices in outputs:
                raise _duplicate_output(record.indices)
            outputs[record.indices] = record.value
        queue.extend(created)
        emit(("arrival", now, w, len(created)))
    parked = partials.parked()
    if parked:
        raise _deadlock_error(parked, program.names, "machine ")
    return Metrics(popped, messages, now, operands, [t_proc * n for n in units], outputs)
