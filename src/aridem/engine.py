"""Sequential deduction engine.

Runs a Program to quiescence: pop an element, apply every relation that
consumes its identifier, push whatever was deduced. A Program is
compiled once, when it is built, into per-identifier plans: flat tuples
that name an opcode and its operands, in relation order. One loop,
Execution._drain, executes those plans over plain tuples, which is what
keeps large runs affordable in pure Python; step() takes one element
through it and run() takes all of them, traced or not. Parked operands
are listed in (relation id, index list) order, which no processing order
can change, so every executor names the same first one when a run
deadlocks. machine.simulate executes the same plans. The paths are tested
against each other and against a reference loop over
core.apply_relation and PartialStore.offer.
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
    ProgramError,
    Relation,
    SimulationLimitError,
    TransformKind,
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
        if min(arities.values(), default=0) < 0:
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
            if elem.indices and min(elem.indices) < 0:
                raise ProgramError("initial indices must be non-negative")


@dataclass
class RunResult:
    """Counters and outputs from one run to quiescence."""

    outputs: dict[tuple[int, ...], int]
    elements_processed: int
    elements_created: int
    max_queue_depth: int
    max_partial_depth: int


# Plan opcodes. A plan is one flat tuple per (identifier, relation) pair
# that ends with the relation's rid; the executors dispatch on plan[0]
# without touching Relation objects.
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
    order; binary holds the rids of the join relations. (A plain class:
    a NamedTuple here cost 0.4 ms of every package import.)
    """

    __slots__ = ("plans", "binary")

    def __init__(self, plans: dict[int, tuple[tuple, ...]],
                 binary: tuple[int, ...]) -> None:
        self.plans = plans
        self.binary = binary


def _compile_plans(program: Program) -> _Compiled:
    plans: dict[int, list[tuple]] = {ident: [] for ident in program.arities}
    binary = []
    for rel in program.relations:
        op, rid = rel.operation, rel.rid
        first = rel.input_identifiers[0]
        if op is Operation.SINK:
            plans[first].append((_OP_SINK, first == program.result_identifier, rid))
        elif op is Operation.NEGATE or op is Operation.SQUARE:
            code = _OP_NEGATE if op is Operation.NEGATE else _OP_SQUARE
            tf = _compile_transform(rel.index_transform)
            plans[first].append((code, rel.output_identifier, tf, rid))
        elif op is Operation.REPLICATE:
            t = rel.index_transform
            plans[first].append(
                (_OP_REPLICATE, rel.output_identifier, t.position, t.count, rid)
            )
        elif op is Operation.MUL_PAIR:
            binary.append(rid)
            tf = _compile_transform(rel.index_transform)
            for slot, ident in enumerate(rel.input_identifiers):
                plans[ident].append((_OP_MUL, slot, rel.output_identifier, tf, rid))
        elif op is Operation.SUM_STEP:
            binary.append(rid)
            limit, result_id = rel.parameters
            for slot, ident in enumerate(rel.input_identifiers):
                plans[ident].append(
                    (_OP_SUM, slot, rel.output_identifier, limit, result_id, rid)
                )
        else:
            raise ProgramError(f"unknown operation {op!r}")
    return _Compiled(
        plans={ident: tuple(plan) for ident, plan in plans.items()},
        binary=tuple(binary),
    )


def _without_gc(fn: Callable, *args):
    """Call fn with cyclic GC off: the live set of queued and parked
    tuples is large and holds no cycles, and rescanning it cost about as
    much as the loop itself. GC is left as it was found, also when fn
    raises."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return fn(*args)
    finally:
        if gc_was_enabled:
            gc.enable()


def _parked_operands(joins: dict[int, dict]) -> list[Element]:
    """The operands parked in a run's join dicts, in (relation id, index
    list) order."""
    return [Element._make(store[idx]) for _, store in sorted(joins.items())
            for idx in sorted(store)]


def _deadlock_error(joins: dict[int, dict], names: Mapping[int, str],
                    prefix: str = "") -> JoinDeadlockError:
    """The error for a run gone quiescent with operands parked in joins;
    the simulator passes the prefix "machine "."""
    stuck = _parked_operands(joins)
    return JoinDeadlockError(
        f"{prefix}quiescent with {len(stuck)} unmatched operand(s), "
        f"first {stuck[0].describe(names)}"
    )


class _Partials:
    """Read-only view of an Execution's parked operands."""

    __slots__ = ("_execution",)

    def __init__(self, execution: Execution) -> None:
        self._execution = execution

    def __len__(self) -> int:
        return self._execution._parked

    @property
    def max_size(self) -> int:
        return self._execution._max_parked

    def pending(self) -> list[Element]:
        """Operands still waiting for a partner, in (relation id, index
        list) order."""
        return _parked_operands(self._execution._joins)


class Execution:
    """State of one run: plain (identifier, indices, value) tuples in a
    deque, one parked dict per join keyed by the index list, the park
    count and its peak. Not reusable once the queue drains.

    step() and run() drive the same loop, _drain, and may be mixed.
    discipline, queue and partials are read-only; queue and partials are
    views built on request (a tuple of Elements, and a view with len(),
    max_size and pending()); elements_created is elements_processed +
    len(queue), since every created element is queued and every
    processed one was popped.

    discipline picks the ready-queue order: "fifo" (default) or "lifo".
    Quiescent totals are order-independent; the discipline toggle exists
    so tests can prove that. trace, when given, is called with
    ("pop", element), ("apply", relation, operands), ("create", element)
    and ("output", indices, value), where operands is an ordered
    (left, right) pair for a join. max_steps bounds the elements
    processed, as max_events bounds simulate(): a program that would
    process more raises SimulationLimitError.
    """

    def __init__(self, program: Program, discipline: str = "fifo",
                 trace: TraceFn | None = None, *,
                 max_steps: int = DEFAULT_STEP_LIMIT) -> None:
        if discipline not in ("fifo", "lifo"):
            raise ValueError(f"unknown discipline {discipline!r}")
        self.program = program
        self._discipline = discipline
        self.trace = trace
        self.max_steps = max_steps
        self._queue: deque[tuple] = deque(program.initial_elements)
        self._joins: dict[int, dict] = {rid: {} for rid in program._compiled.binary}
        self._parked = 0
        self._max_parked = 0
        self.outputs: dict[tuple[int, ...], int] = {}
        self.elements_processed = 0
        self.max_queue_depth = len(self._queue)

    @property
    def discipline(self) -> str:
        return self._discipline

    @property
    def queue(self) -> tuple[Element, ...]:
        return tuple(map(Element._make, self._queue))

    @property
    def partials(self) -> _Partials:
        return _Partials(self)

    @property
    def elements_created(self) -> int:
        return self.elements_processed + len(self._queue)

    def step(self) -> bool:
        """Process one element through every relation that consumes it.

        Returns False when the queue is already empty, and raises
        SimulationLimitError in place of processing element max_steps + 1.
        """
        if not self._queue:
            return False
        if self.elements_processed >= self.max_steps:
            raise SimulationLimitError(f"exceeded {self.max_steps} steps")
        self._drain(self.elements_processed + 1)
        return True

    def run(self) -> RunResult:
        """Execute to quiescence and return totals.

        Raises SimulationLimitError once max_steps elements are processed
        with more still queued. Cyclic GC is off while the loop runs.
        """
        _without_gc(self._drain, self.max_steps)
        if self._queue:
            raise SimulationLimitError(f"exceeded {self.max_steps} steps")
        return self._finish()

    def _finish(self) -> RunResult:
        if self._parked:
            raise _deadlock_error(self._joins, self.program.names)
        return RunResult(
            outputs=self.outputs,
            elements_processed=self.elements_processed,
            elements_created=self.elements_created,
            max_queue_depth=self.max_queue_depth,
            max_partial_depth=self._max_parked,
        )

    def _drain(self, stop: int) -> None:
        """The element loop: process elements until stop of them have been
        processed in all, or the queue is empty.

        The count costs nothing per element: the loop iterates a range
        that ends at stop. A join pops its partner from its parked dict
        or parks the element tuple itself. The trace payloads (Elements,
        the Relation looked up by rid, ordered operands) are built only
        when a hook is set. Only the counters are written back on the way
        out, also when the loop raises; the queue and the parked dicts
        are the state itself.
        """
        queue = self._queue
        fifo = self._discipline == "fifo"
        plans = self.program._compiled.plans
        joins = self._joins
        outputs = self.outputs
        append = queue.append
        trace = self.trace
        emit = self._emit
        hi, lo = INT64_MAX, INT64_MIN
        processed = self.elements_processed
        max_queue = self.max_queue_depth
        psize = self._parked
        max_partial = self._max_parked

        try:
            for processed in range(processed + 1, stop + 1):
                if not queue:
                    processed -= 1
                    break
                element = queue.popleft() if fifo else queue.pop()
                if trace is not None:
                    shown = Element._make(element)
                    trace("pop", shown)
                ident, idx, val = element
                for plan in plans[ident]:
                    code = plan[0]
                    if code == _OP_SUM:
                        _, slot, out_id, limit, result_id, rid = plan
                        parked = joins[rid]
                        hit = parked.pop(idx, None)
                        if hit is None:
                            parked[idx] = element
                            psize += 1
                            if psize > max_partial:
                                max_partial = psize
                            continue
                        # a join's two identifiers differ, so the same
                        # identifier means the same slot
                        if hit[0] == ident:
                            parked[idx] = hit
                            raise DuplicateOperandError(
                                f"two elements for slot {slot} of relation "
                                f"{rid} at indices {idx}"
                            )
                        psize -= 1
                        total = val + hit[2]
                        if total > hi or total < lo:
                            raise IntegerOverflowError(
                                f"SumStep produced {total}, outside 64-bit range"
                            )
                        nxt = idx[-1] + 1
                        if nxt == limit:
                            out = (result_id, idx[:-1], total)
                        else:
                            out = (out_id, idx[:-1] + (nxt,), total)
                        if trace is None:
                            append(out)
                        else:
                            pair = (shown, Element._make(hit))
                            emit(rid, pair if slot == 0 else pair[::-1], (out,))
                    elif code == _OP_MUL:
                        _, slot, out_id, tf, rid = plan
                        parked = joins[rid]
                        hit = parked.pop(idx, None)
                        if hit is None:
                            parked[idx] = element
                            psize += 1
                            if psize > max_partial:
                                max_partial = psize
                            continue
                        if hit[0] == ident:
                            parked[idx] = hit
                            raise DuplicateOperandError(
                                f"two elements for slot {slot} of relation "
                                f"{rid} at indices {idx}"
                            )
                        psize -= 1
                        product = val * hit[2]
                        if product > hi or product < lo:
                            raise IntegerOverflowError(
                                f"MulPair produced {product}, outside 64-bit range"
                            )
                        out = (out_id, idx if tf is None else tf(idx), product)
                        if trace is None:
                            append(out)
                        else:
                            pair = (shown, Element._make(hit))
                            emit(rid, pair if slot == 0 else pair[::-1], (out,))
                    elif code == _OP_REPLICATE:
                        _, out_id, pos, count, rid = plan
                        head, tail = idx[:pos], idx[pos:]
                        if trace is None:
                            for j in range(count):
                                append((out_id, head + (j,) + tail, val))
                        else:
                            emit(rid, shown, [(out_id, head + (j,) + tail, val)
                                              for j in range(count)])
                    elif code == _OP_SINK:
                        if trace is not None:
                            emit(plan[2], shown, ())
                        if plan[1]:
                            if idx in outputs:
                                raise DuplicateOutputError(
                                    f"result indices {idx} produced twice"
                                )
                            outputs[idx] = val
                            if trace is not None:
                                trace("output", idx, val)
                    else:
                        if code == _OP_NEGATE:
                            value = -val
                            if value > hi or value < lo:
                                raise IntegerOverflowError(
                                    f"Negate produced {value}, outside 64-bit range"
                                )
                        else:  # _OP_SQUARE
                            value = val * val
                            if value > hi:
                                raise IntegerOverflowError(
                                    f"Square produced {value}, outside 64-bit range"
                                )
                        _, out_id, tf, rid = plan
                        out = (out_id, idx if tf is None else tf(idx), value)
                        if trace is None:
                            append(out)
                        else:
                            emit(rid, shown, (out,))
                if len(queue) > max_queue:
                    max_queue = len(queue)
        finally:
            self.elements_processed = processed
            self.max_queue_depth = max_queue
            self._parked = psize
            self._max_parked = max_partial

    def _emit(self, rid: int, operands, created) -> None:
        """The traced path of one application: report relation rid and
        its operands, then queue and report each created element."""
        trace = self.trace
        trace("apply", self.program.relations[rid], operands)
        for out in created:
            self._queue.append(out)
            trace("create", Element._make(out))


def run(program: Program, discipline: str = "fifo",
        trace: TraceFn | None = None, *,
        max_steps: int = DEFAULT_STEP_LIMIT) -> RunResult:
    """Run a program to quiescence and return its RunResult."""
    return Execution(program, discipline=discipline, trace=trace,
                     max_steps=max_steps).run()
