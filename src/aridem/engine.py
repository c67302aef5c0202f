"""Sequential deduction engine.

Runs a Program to quiescence: pop an element, apply every relation that
consumes its identifier, push whatever was deduced. A Program is
compiled once, when it is built, into per-identifier plans: flat tuples
that name an opcode and its operands, in relation order. step() executes
those plans one element at a time, with Elements, the PartialStore, an
arity check on every created element and the trace hook; run() executes
them in one tight loop over plain tuples, which is what keeps large runs
affordable in pure Python. machine.simulate executes the same plans.
The paths are tested against each other and against a reference loop
over core.apply_relation and PartialStore.offer.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

from .core import (
    INT64_MAX,
    INT64_MIN,
    DuplicateOperandError,
    DuplicateOutputError,
    Element,
    IntegerOverflowError,
    JoinDeadlockError,
    Operation,
    PartialStore,
    ProgramError,
    Relation,
    SimulationLimitError,
    TransformKind,
    _check_int64,
)

TraceFn = Callable[..., None]

DEFAULT_STEP_LIMIT = 100_000_000


@dataclass(frozen=True)
class Program:
    """A complete element program: relations, seed elements, and metadata.

    arities registers the index-list length of every identifier; the
    result_identifier is the one whose sink records final outputs. names
    is optional and only used for display.

    The program is validated and compiled once, when it is built; every
    executor runs the compiled plans. A built Program is frozen: it keeps
    the relations of its RelationStore as a tuple (relations added to the
    store later are not seen), the initial elements as a tuple, and
    read-only copies of arities and names, and assigning any field raises.
    """

    relations: tuple[Relation, ...]
    initial_elements: tuple[Element, ...]
    arities: Mapping[int, int]
    result_identifier: int
    names: Mapping[int, str] = field(default_factory=dict)
    _compiled: _Compiled = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("relations", tuple(self.relations)),
                            ("initial_elements", tuple(self.initial_elements)),
                            ("arities", MappingProxyType(dict(self.arities))),
                            ("names", MappingProxyType(dict(self.names)))):
            object.__setattr__(self, name, value)
        self.validate()
        object.__setattr__(self, "_compiled", _compile_plans(self))

    def __reduce__(self):
        # the plans hold closures; pickle and copy rebuild them instead
        return (Program, (self.relations, self.initial_elements, dict(self.arities),
                          self.result_identifier, dict(self.names)))

    def identifier_name(self, identifier: int) -> str:
        return self.names.get(identifier, f"id{identifier}")

    def validate(self) -> None:
        arities = self.arities
        if any(a < 0 for a in arities.values()):
            raise ProgramError("arities must be non-negative")
        if self.result_identifier not in arities:
            raise ProgramError("result identifier has no registered arity")

        for position, rel in enumerate(self.relations):
            if rel.rid != position:
                raise ProgramError(
                    f"relation {position} has rid {rel.rid}: add relations "
                    f"through one RelationStore"
                )
            for ident in rel.input_identifiers:
                if ident not in arities:
                    raise ProgramError(f"relation {rel.rid} input {ident} unregistered")
            in_arity = arities[rel.input_identifiers[0]]
            if rel.is_binary():
                other = arities[rel.input_identifiers[1]]
                if other != in_arity:
                    raise ProgramError(
                        f"relation {rel.rid} joins arities {in_arity} and {other}"
                    )
            if rel.operation is Operation.SINK:
                continue
            if rel.output_identifier not in arities:
                raise ProgramError(
                    f"relation {rel.rid} output {rel.output_identifier} unregistered"
                )
            out_arity = rel.index_transform.output_arity(in_arity)
            if arities[rel.output_identifier] != out_arity:
                raise ProgramError(
                    f"relation {rel.rid} produces arity {out_arity} but "
                    f"{rel.output_identifier} is registered at "
                    f"{arities[rel.output_identifier]}"
                )
            if rel.operation is Operation.SUM_STEP:
                result_id = rel.parameters[1]
                if result_id not in arities:
                    raise ProgramError(
                        f"SumStep result identifier {result_id} unregistered"
                    )
                if arities[result_id] != in_arity - 1:
                    raise ProgramError(
                        "SumStep result arity must be one less than its input"
                    )

        for elem in self.initial_elements:
            if elem.identifier not in arities:
                raise ProgramError(f"initial element identifier {elem.identifier} unregistered")
            if len(elem.indices) != arities[elem.identifier]:
                raise ProgramError(
                    f"initial element {elem} has arity {len(elem.indices)}, "
                    f"expected {arities[elem.identifier]}"
                )
            if elem.value > INT64_MAX or elem.value < INT64_MIN:
                raise ProgramError(f"initial value {elem.value} outside 64-bit range")
            if any(i < 0 for i in elem.indices):
                raise ProgramError("initial indices must be non-negative")


@dataclass
class RunResult:
    """Counters and outputs from one run to quiescence."""

    outputs: dict[tuple[int, ...], int]
    elements_processed: int
    elements_created: int
    max_queue_depth: int
    max_partial_depth: int


# Plan opcodes. A plan is one flat tuple per (identifier, relation) pair;
# the executors dispatch on plan[0] without touching Relation objects.
_OP_NEGATE = 0
_OP_SQUARE = 1
_OP_REPLICATE = 2
_OP_MUL = 3
_OP_SUM = 4
_OP_SINK = 5


def _compile_transform(transform) -> Callable | None:
    """Single-output transform as a tuple->tuple callable, None for identity."""
    kind = transform.kind
    if kind is TransformKind.KEEP:
        return None
    if kind is TransformKind.DROP:
        p = transform.position
        return lambda idx: idx[:p] + idx[p + 1 :]
    if kind is TransformKind.INCREMENT_LAST:
        return lambda idx: idx[:-1] + (idx[-1] + 1,)
    if kind is TransformKind.TRUNCATE:
        k = transform.count
        return lambda idx: idx[:k]
    raise ProgramError(f"transform {kind!r} has no single-output form")


class _Compiled:
    """A Program's plans, built once by _compile_plans when it is built.

    plans maps every registered identifier to its plan tuples in rid
    order; steps pairs each of those plans with its Relation, for
    step()'s trace; binary holds the rids of the join relations. (A
    plain class: a NamedTuple here cost 0.4 ms of every package import.)
    """

    __slots__ = ("plans", "steps", "binary")

    def __init__(self, plans: dict[int, tuple[tuple, ...]],
                 steps: dict[int, tuple[tuple[tuple, Relation], ...]],
                 binary: tuple[int, ...]) -> None:
        self.plans = plans
        self.steps = steps
        self.binary = binary


def _compile_plans(program: Program) -> _Compiled:
    steps: dict[int, list[tuple[tuple, Relation]]] = {
        ident: [] for ident in program.arities
    }
    binary = []
    for rel in program.relations:
        op = rel.operation
        first = rel.input_identifiers[0]
        if op is Operation.SINK:
            steps[first].append(((_OP_SINK, first == program.result_identifier), rel))
        elif op is Operation.NEGATE:
            tf = _compile_transform(rel.index_transform)
            steps[first].append(((_OP_NEGATE, rel.output_identifier, tf), rel))
        elif op is Operation.SQUARE:
            tf = _compile_transform(rel.index_transform)
            steps[first].append(((_OP_SQUARE, rel.output_identifier, tf), rel))
        elif op is Operation.REPLICATE:
            t = rel.index_transform
            steps[first].append(
                ((_OP_REPLICATE, rel.output_identifier, t.position, t.count), rel)
            )
        elif op is Operation.MUL_PAIR:
            binary.append(rel.rid)
            tf = _compile_transform(rel.index_transform)
            for slot, ident in enumerate(rel.input_identifiers):
                steps[ident].append(
                    ((_OP_MUL, rel.rid, slot, rel.output_identifier, tf), rel)
                )
        elif op is Operation.SUM_STEP:
            binary.append(rel.rid)
            limit, result_id = rel.parameters
            for slot, ident in enumerate(rel.input_identifiers):
                steps[ident].append(
                    ((_OP_SUM, rel.rid, slot, rel.output_identifier, limit, result_id),
                     rel)
                )
        else:
            raise ProgramError(f"unknown operation {op!r}")
    return _Compiled(
        plans={ident: tuple(plan for plan, _ in pairs)
               for ident, pairs in steps.items()},
        steps={ident: tuple(pairs) for ident, pairs in steps.items()},
        binary=tuple(binary),
    )


class Execution:
    """Mutable state of one run. Not reusable once the queue drains.

    discipline picks the ready-queue order: "fifo" (default) or "lifo".
    Quiescent totals are order-independent; the discipline toggle exists
    so tests can prove that. trace, when given, is called with
    ("pop", element), ("apply", relation, operands), ("create", element),
    ("output", indices, value) and forces the step() path. max_steps
    bounds the elements processed, as max_events bounds simulate(): a
    program that would process more raises SimulationLimitError.
    """

    def __init__(self, program: Program, discipline: str = "fifo",
                 trace: TraceFn | None = None, *,
                 max_steps: int = DEFAULT_STEP_LIMIT) -> None:
        if discipline not in ("fifo", "lifo"):
            raise ValueError(f"unknown discipline {discipline!r}")
        self.program = program
        self.discipline = discipline
        self.trace = trace
        self.queue: deque[Element] = deque(program.initial_elements)
        self.partials = PartialStore()
        self.outputs: dict[tuple[int, ...], int] = {}
        self.elements_processed = 0
        self.elements_created = len(self.queue)
        self.max_queue_depth = len(self.queue)
        self.max_steps = max_steps

    def _record_output(self, element: Element) -> None:
        if element.indices in self.outputs:
            raise DuplicateOutputError(
                f"result indices {element.indices} produced twice"
            )
        self.outputs[element.indices] = element.value
        if self.trace is not None:
            self.trace("output", element.indices, element.value)

    def step(self) -> bool:
        """Process one element through every relation that consumes it.

        Returns False when the queue is already empty, and raises
        SimulationLimitError in place of processing element max_steps + 1.
        Executes the compiled plans as _drain does, with the queue and
        the PartialStore holding Elements, the arity of every created
        element checked against the program, and the trace called with
        each Relation and its operands (an ordered (left, right) pair
        for a join).
        """
        queue = self.queue
        if not queue:
            return False
        if self.elements_processed >= self.max_steps:
            raise SimulationLimitError(f"exceeded {self.max_steps} steps")
        element = queue.popleft() if self.discipline == "fifo" else queue.pop()
        self.elements_processed += 1
        trace = self.trace
        if trace is not None:
            trace("pop", element)
        ident, idx, val = element
        partials = self.partials
        waiting = partials._waiting
        arities = self.program.arities
        for plan, rel in self.program._compiled.steps[ident]:
            code = plan[0]
            operands = element
            if code == _OP_MUL or code == _OP_SUM:
                slot = plan[2]
                key = (plan[1], idx)
                hit = waiting.get(key)
                if hit is None:
                    waiting[key] = (slot, element)
                    if len(waiting) > partials.max_size:
                        partials.max_size = len(waiting)
                    continue
                if hit[0] == slot:
                    raise DuplicateOperandError(
                        f"two elements for slot {slot} of relation {plan[1]} "
                        f"at indices {idx}"
                    )
                del waiting[key]
                other = hit[1]
                operands = (element, other) if slot == 0 else (other, element)
                if code == _OP_MUL:
                    _, _, _, out_id, tf = plan
                    value = _check_int64(val * other.value, "MulPair")
                    created = ((out_id, idx if tf is None else tf(idx), value),)
                else:
                    _, _, _, out_id, limit, result_id = plan
                    value = _check_int64(val + other.value, "SumStep")
                    nxt = idx[-1] + 1
                    if nxt == limit:
                        created = ((result_id, idx[:-1], value),)
                    else:
                        created = ((out_id, idx[:-1] + (nxt,), value),)
            elif code == _OP_SINK:
                if trace is not None:
                    trace("apply", rel, element)
                if plan[1]:
                    self._record_output(element)
                continue
            elif code == _OP_REPLICATE:
                _, out_id, pos, count = plan
                head, tail = idx[:pos], idx[pos:]
                created = [(out_id, head + (j,) + tail, val) for j in range(count)]
            else:
                _, out_id, tf = plan
                if code == _OP_NEGATE:
                    value = _check_int64(-val, "Negate")
                else:
                    value = _check_int64(val * val, "Square")
                created = ((out_id, idx if tf is None else tf(idx), value),)
            if trace is not None:
                trace("apply", rel, operands)
            for out in map(Element._make, created):
                if len(out.indices) != arities[out.identifier]:
                    raise ProgramError(
                        f"created element {out} violates registered arity"
                    )
                queue.append(out)
                self.elements_created += 1
                if trace is not None:
                    trace("create", out)
        if len(queue) > self.max_queue_depth:
            self.max_queue_depth = len(queue)
        return True

    def _finish(self) -> RunResult:
        if len(self.partials):
            stuck = self.partials.pending()
            raise JoinDeadlockError(
                f"quiescent with {len(stuck)} unmatched operand(s), "
                f"first {stuck[0].describe(self.program.names)}"
            )
        return RunResult(
            outputs=self.outputs,
            elements_processed=self.elements_processed,
            elements_created=self.elements_created,
            max_queue_depth=self.max_queue_depth,
            max_partial_depth=self.partials.max_size,
        )

    def run(self) -> RunResult:
        """Execute to quiescence and return totals.

        Traced executions go through step(); everything else takes the
        compiled-plan loop in _drain(). Either raises SimulationLimitError
        once max_steps elements are processed with more still queued.
        Cyclic GC is off while that loop runs: its live set is large and
        holds no cycles, and rescanning it cost about as much as the loop
        itself. GC is left as it was found, also when the loop raises.
        """
        if self.trace is not None:
            while self.step():
                pass
            return self._finish()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self._drain()
        finally:
            if gc_was_enabled:
                gc.enable()
        return self._finish()

    def _drain(self) -> None:
        """The compiled-plan loop: step() without the trace and arity check.

        The step budget costs nothing per element: the loop counts
        processed elements by iterating a range that ends at max_steps.
        Inside the loop elements are plain (identifier, indices, value)
        tuples, and each binary relation parks its operands in its own
        dict keyed by the index list. Both are undone on the way out,
        also when the loop raises: whatever is still queued or parked is
        an Element again, the PartialStore holds every parked operand in
        the order it arrived, and the counters are written back.
        """
        queue = self.queue
        fifo = self.discipline == "fifo"
        compiled = self.program._compiled
        plans = compiled.plans
        partials = self.partials
        waiting = partials._waiting
        outputs = self.outputs
        append = queue.append
        hi, lo = INT64_MAX, INT64_MIN
        processed = self.elements_processed
        max_steps = self.max_steps
        created = self.elements_created
        max_queue = self.max_queue_depth
        psize = len(waiting)
        max_partial = partials.max_size

        # Parked entries are (slot, element, arrival); operands parked
        # before this call (by step()) arrive first.
        joins = {rid: {} for rid in compiled.binary}
        for arrival, ((rid, idx), (slot, element)) in enumerate(
            waiting.items(), -len(waiting)
        ):
            joins[rid][idx] = (slot, element, arrival)
        waiting.clear()

        try:
            for processed in range(processed + 1, max_steps + 1):
                if not queue:
                    processed -= 1
                    break
                element = queue.popleft() if fifo else queue.pop()
                ident, idx, val = element
                for plan in plans[ident]:
                    code = plan[0]
                    if code == _OP_SUM:
                        _, rid, slot, out_id, limit, result_id = plan
                        parked = joins[rid]
                        hit = parked.pop(idx, None)
                        if hit is None:
                            parked[idx] = (slot, element, processed)
                            psize += 1
                            if psize > max_partial:
                                max_partial = psize
                            continue
                        if hit[0] == slot:
                            parked[idx] = hit
                            raise DuplicateOperandError(
                                f"two elements for slot {slot} of relation "
                                f"{rid} at indices {idx}"
                            )
                        psize -= 1
                        total = val + hit[1][2]
                        if total > hi or total < lo:
                            raise IntegerOverflowError(
                                f"SumStep produced {total}, outside 64-bit range"
                            )
                        nxt = idx[-1] + 1
                        if nxt == limit:
                            append((result_id, idx[:-1], total))
                        else:
                            append((out_id, idx[:-1] + (nxt,), total))
                        created += 1
                    elif code == _OP_MUL:
                        _, rid, slot, out_id, tf = plan
                        parked = joins[rid]
                        hit = parked.pop(idx, None)
                        if hit is None:
                            parked[idx] = (slot, element, processed)
                            psize += 1
                            if psize > max_partial:
                                max_partial = psize
                            continue
                        if hit[0] == slot:
                            parked[idx] = hit
                            raise DuplicateOperandError(
                                f"two elements for slot {slot} of relation "
                                f"{rid} at indices {idx}"
                            )
                        psize -= 1
                        product = val * hit[1][2]
                        if product > hi or product < lo:
                            raise IntegerOverflowError(
                                f"MulPair produced {product}, outside 64-bit range"
                            )
                        append((out_id, idx if tf is None else tf(idx), product))
                        created += 1
                    elif code == _OP_REPLICATE:
                        _, out_id, pos, count = plan
                        head, tail = idx[:pos], idx[pos:]
                        for j in range(count):
                            append((out_id, head + (j,) + tail, val))
                        created += count
                    elif code == _OP_SINK:
                        if plan[1]:
                            if idx in outputs:
                                raise DuplicateOutputError(
                                    f"result indices {idx} produced twice"
                                )
                            outputs[idx] = val
                    elif code == _OP_NEGATE:
                        value = -val
                        if value > hi or value < lo:
                            raise IntegerOverflowError(
                                f"Negate produced {value}, outside 64-bit range"
                            )
                        tf = plan[2]
                        append((plan[1], idx if tf is None else tf(idx), value))
                        created += 1
                    else:  # _OP_SQUARE
                        value = val * val
                        if value > hi:
                            raise IntegerOverflowError(
                                f"Square produced {value}, outside 64-bit range"
                            )
                        tf = plan[2]
                        append((plan[1], idx if tf is None else tf(idx), value))
                        created += 1
                if len(queue) > max_queue:
                    max_queue = len(queue)
            else:
                if queue:
                    raise SimulationLimitError(f"exceeded {max_steps} steps")
        finally:
            self.elements_processed = processed
            self.elements_created = created
            self.max_queue_depth = max_queue
            partials.max_size = max_partial
            # (arrival, rid) is unique: an element parks at most once per
            # relation, and relations are tried in rid order, as in step().
            for arrival, rid, idx, slot, element in sorted(
                (arrival, rid, idx, slot, element)
                for rid, parked in joins.items()
                for idx, (slot, element, arrival) in parked.items()
            ):
                waiting[(rid, idx)] = (slot, Element._make(element))
            if queue:
                rest = list(map(Element._make, queue))
                queue.clear()
                queue.extend(rest)


def run(program: Program, discipline: str = "fifo",
        trace: TraceFn | None = None, *,
        max_steps: int = DEFAULT_STEP_LIMIT) -> RunResult:
    """Run a program to quiescence and return its RunResult."""
    return Execution(program, discipline=discipline, trace=trace,
                     max_steps=max_steps).run()
