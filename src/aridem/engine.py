"""Sequential deduction engine.

Runs a Program to quiescence: pop an element, apply every relation that
consumes its identifier, push whatever was deduced. step() walks that
cycle one element at a time through the plain core primitives; run()
executes the same semantics through per-identifier plans compiled to
flat tuples, which is what keeps large runs affordable in pure Python.
Both paths are exercised against each other in the test suite.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from .core import (
    BINARY_OPERATIONS,
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
    RelationStore,
    TransformKind,
    apply_relation,
)

TraceFn = Callable[..., None]


@dataclass
class Program:
    """A complete element program: relations, seed elements, and metadata.

    arities registers the index-list length of every identifier; the
    result_identifier is the one whose sink records final outputs. names
    is optional and only used for display.
    """

    relations: RelationStore
    initial_elements: list[Element]
    arities: dict[int, int]
    result_identifier: int
    names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def identifier_name(self, identifier: int) -> str:
        return self.names.get(identifier, f"id{identifier}")

    def validate(self) -> None:
        arities = self.arities
        if any(a < 0 for a in arities.values()):
            raise ProgramError("arities must be non-negative")
        if self.result_identifier not in arities:
            raise ProgramError("result identifier has no registered arity")

        for rel in self.relations:
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
# run() dispatches on plan[0] without touching Relation objects.
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


def _compile_plans(program: Program) -> dict[int, tuple[tuple, ...]]:
    plans: dict[int, list[tuple]] = {ident: [] for ident in program.arities}
    for rel in program.relations:
        op = rel.operation
        if op is Operation.SINK:
            is_result = rel.input_identifiers[0] == program.result_identifier
            plans[rel.input_identifiers[0]].append((_OP_SINK, is_result))
        elif op is Operation.NEGATE:
            tf = _compile_transform(rel.index_transform)
            plans[rel.input_identifiers[0]].append((_OP_NEGATE, rel.output_identifier, tf))
        elif op is Operation.SQUARE:
            tf = _compile_transform(rel.index_transform)
            plans[rel.input_identifiers[0]].append((_OP_SQUARE, rel.output_identifier, tf))
        elif op is Operation.REPLICATE:
            t = rel.index_transform
            plans[rel.input_identifiers[0]].append(
                (_OP_REPLICATE, rel.output_identifier, t.position, t.count)
            )
        elif op is Operation.MUL_PAIR:
            tf = _compile_transform(rel.index_transform)
            for slot, ident in enumerate(rel.input_identifiers):
                plans[ident].append((_OP_MUL, rel.rid, slot, rel.output_identifier, tf))
        elif op is Operation.SUM_STEP:
            limit, result_id = rel.parameters
            for slot, ident in enumerate(rel.input_identifiers):
                plans[ident].append(
                    (_OP_SUM, rel.rid, slot, rel.output_identifier, limit, result_id)
                )
        else:
            raise ProgramError(f"unknown operation {op!r}")
    return {ident: tuple(entries) for ident, entries in plans.items()}


class Execution:
    """Mutable state of one run. Not reusable once the queue drains.

    discipline picks the ready-queue order: "fifo" (default) or "lifo".
    Quiescent totals are order-independent; the discipline toggle exists
    so tests can prove that. trace, when given, is called with
    ("pop", element), ("apply", relation, operands), ("create", element),
    ("output", indices, value) and forces the readable path.
    """

    def __init__(self, program: Program, discipline: str = "fifo",
                 trace: TraceFn | None = None) -> None:
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
        self._plans = _compile_plans(program)

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

        Returns False when the queue is already empty. This path checks
        the arity of every created element against the program.
        """
        queue = self.queue
        if not queue:
            return False
        element = queue.popleft() if self.discipline == "fifo" else queue.pop()
        self.elements_processed += 1
        trace = self.trace
        if trace is not None:
            trace("pop", element)
        program = self.program
        for rel in program.relations.lookup(element.identifier):
            if rel.is_binary():
                pair = self.partials.offer(rel, element)
                if pair is None:
                    continue
                operands = pair
            else:
                operands = element
            if rel.operation is Operation.SINK:
                if trace is not None:
                    trace("apply", rel, operands)
                if rel.input_identifiers[0] == program.result_identifier:
                    self._record_output(element)
                continue
            created = apply_relation(rel, operands)
            if trace is not None:
                trace("apply", rel, operands)
            for out in created:
                if len(out.indices) != program.arities[out.identifier]:
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
        compiled-plan loop in _drain(). Cyclic GC is off while that loop
        runs: its live set is large and holds no cycles, and rescanning
        it cost about as much as the loop itself. GC is left as it was
        found, also when the loop raises.
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
        """The compiled-plan loop: apply_relation's semantics, inlined.

        Inside the loop elements are plain (identifier, indices, value)
        tuples, and each binary relation parks its operands in its own
        dict keyed by the index list. Both are undone on the way out,
        also when the loop raises: whatever is still queued or parked is
        an Element again, the PartialStore holds every parked operand in
        the order it arrived, and the counters are written back.
        """
        queue = self.queue
        fifo = self.discipline == "fifo"
        plans = self._plans
        partials = self.partials
        waiting = partials._waiting
        outputs = self.outputs
        append = queue.append
        hi, lo = INT64_MAX, INT64_MIN
        processed = self.elements_processed
        created = self.elements_created
        max_queue = self.max_queue_depth
        psize = len(waiting)
        max_partial = partials.max_size

        # Parked entries are (slot, element, arrival); operands parked
        # before this call (by step()) arrive first.
        joins = {rel.rid: {} for rel in self.program.relations if rel.is_binary()}
        for arrival, ((rid, idx), (slot, element)) in enumerate(
            waiting.items(), -len(waiting)
        ):
            joins[rid][idx] = (slot, element, arrival)
        waiting.clear()

        try:
            while queue:
                element = queue.popleft() if fifo else queue.pop()
                ident, idx, val = element
                processed += 1
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
        trace: TraceFn | None = None) -> RunResult:
    """Run a program to quiescence and return its RunResult."""
    return Execution(program, discipline=discipline, trace=trace).run()
