"""Core building blocks of the element model.

An element is an (identifier, index list, value) triple and is consumed
exactly once. Relations map input elements to output elements through a
small closed operation set. Binary relations pair their two operands
through a PartialStore keyed on (relation, index list): the first operand
to show up waits, the second releases the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from typing import NamedTuple

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


class ElementModelError(Exception):
    """Base class for every error raised by this package."""


class ProgramError(ElementModelError):
    """A program or relation is malformed, or used inconsistently."""


class DuplicateOperandError(ProgramError):
    """A second element arrived for an operand slot that is already filled."""


class DuplicateOutputError(ProgramError):
    """Two result elements carried the same index list."""


class JoinDeadlockError(ElementModelError):
    """Execution went quiescent while unmatched operands were still waiting."""


class IntegerOverflowError(ElementModelError):
    """An operation produced a value outside the signed 64-bit range."""


class SimulationLimitError(ElementModelError):
    """A run used up its step or event budget before it went quiescent."""


class Element(NamedTuple):
    """A unit of work: identifier, index list, and a 64-bit integer value."""

    identifier: int
    indices: tuple[int, ...]
    value: int

    def describe(self, names: dict[int, str] | None = None) -> str:
        name = (names or {}).get(self.identifier, f"id{self.identifier}")
        if self.indices:
            name += "(" + ",".join(str(i) for i in self.indices) + ")"
        return f"{name} = {self.value}"


class Operation(Enum):
    """Closed operation set for relations."""

    NEGATE = auto()
    SQUARE = auto()
    REPLICATE = auto()
    MUL_PAIR = auto()
    SUM_STEP = auto()
    SINK = auto()


class TransformKind(Enum):
    KEEP = auto()
    DROP = auto()
    INSERT_VARIED = auto()
    INCREMENT_LAST = auto()
    TRUNCATE = auto()


# The build path tests members by identity through these aliases: on CPython
# 3.11 an enum class attribute read and Enum.__hash__ each cost a Python call.
_NEGATE, _SQUARE, _REPLICATE = Operation.NEGATE, Operation.SQUARE, Operation.REPLICATE
_MUL_PAIR, _SUM_STEP, _SINK = Operation.MUL_PAIR, Operation.SUM_STEP, Operation.SINK
_KEEP, _DROP, _TRUNCATE = TransformKind.KEEP, TransformKind.DROP, TransformKind.TRUNCATE
_INSERT_VARIED, _INCREMENT_LAST = TransformKind.INSERT_VARIED, TransformKind.INCREMENT_LAST
BINARY_OPERATIONS = frozenset({_MUL_PAIR, _SUM_STEP})


@dataclass(frozen=True)
class IndexTransform:
    """Describes how an output index list is derived from the input's.

    Field use by kind:
      KEEP            -- no fields, output indices equal input indices
      DROP            -- position: which index to remove
      INSERT_VARIED   -- position, count: insert one of 0..count-1 at position
                         (one output index list per inserted value)
      INCREMENT_LAST  -- no fields, last index incremented by one
      TRUNCATE        -- count: keep only the first count indices
    """

    kind: TransformKind
    position: int = 0
    count: int = 0

    def __post_init__(self) -> None:
        if self.position < 0 or self.count < 0:
            raise ProgramError("transform position and count must be non-negative")
        if self.kind is _INSERT_VARIED and self.count < 1:
            raise ProgramError("InsertVaried needs a positive count")

    @classmethod
    def keep(cls) -> "IndexTransform":
        return cls(_KEEP)

    @classmethod
    def drop(cls, position: int) -> "IndexTransform":
        return cls(_DROP, position=position)

    @classmethod
    def insert_varied(cls, position: int, count: int) -> "IndexTransform":
        return cls(_INSERT_VARIED, position=position, count=count)

    @classmethod
    def increment_last(cls) -> "IndexTransform":
        return cls(_INCREMENT_LAST)

    @classmethod
    def truncate_to(cls, count: int) -> "IndexTransform":
        return cls(_TRUNCATE, count=count)

    def output_arity(self, input_arity: int) -> int:
        """Arity of each produced index list given the input arity."""
        kind = self.kind
        if kind is _KEEP:
            return input_arity
        if kind is _INCREMENT_LAST:
            if input_arity < 1:
                raise ProgramError("IncrementLast needs at least one index")
            return input_arity
        if kind is _DROP:
            if self.position >= input_arity:
                raise ProgramError(
                    f"cannot drop index {self.position} from arity {input_arity}"
                )
            return input_arity - 1
        if kind is _INSERT_VARIED:
            if self.position > input_arity:
                raise ProgramError(
                    f"cannot insert at position {self.position} into arity {input_arity}"
                )
            return input_arity + 1
        if kind is _TRUNCATE:
            if self.count > input_arity:
                raise ProgramError(
                    f"cannot truncate arity {input_arity} to {self.count}"
                )
            return self.count
        raise ProgramError(f"unknown transform kind {kind!r}")

    def apply(self, indices: tuple[int, ...]) -> list[tuple[int, ...]]:
        """All output index lists for one input index list.

        Every kind yields exactly one list except INSERT_VARIED, which
        yields count of them.
        """
        kind = self.kind
        if kind is _KEEP:
            return [indices]
        if kind is _DROP:
            p = self.position
            return [indices[:p] + indices[p + 1 :]]
        if kind is _INSERT_VARIED:
            p = self.position
            head, tail = indices[:p], indices[p:]
            return [head + (j,) + tail for j in range(self.count)]
        if kind is _INCREMENT_LAST:
            if not indices:
                raise ProgramError("IncrementLast needs at least one index")
            return [indices[:-1] + (indices[-1] + 1,)]
        if kind is _TRUNCATE:
            return [indices[: self.count]]
        raise ProgramError(f"unknown transform kind {kind!r}")


@dataclass(frozen=True, eq=False)
class Relation:
    """A deduction rule: consume matching element(s), emit derived element(s).

    Unary relations fire on every element of their single input
    identifier. Binary relations (MUL_PAIR, SUM_STEP) fire once both
    operands with the same index list have arrived; input_identifiers
    order fixes which identifier is the left operand. A Relation is
    frozen; RelationStore.add sets its rid, once.
    """

    input_identifiers: tuple[int, ...]
    operation: Operation
    parameters: tuple[int, ...]
    output_identifier: int
    index_transform: IndexTransform
    rid: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        ids = self.input_identifiers
        op = self.operation
        if (ids and min(ids) < 0) or self.output_identifier < 0:
            raise ProgramError("identifiers must be non-negative")
        if op is _MUL_PAIR or op is _SUM_STEP:
            if len(ids) != 2:
                raise ProgramError(f"{op.name} takes exactly two input identifiers")
            if ids[0] == ids[1]:
                raise ProgramError(f"{op.name} operand identifiers must differ")
        elif len(ids) != 1:
            raise ProgramError(f"{op.name} takes exactly one input identifier")

        kind = self.index_transform.kind
        if op is _REPLICATE:
            if len(self.parameters) != 1 or self.parameters[0] < 1:
                raise ProgramError("Replicate takes one positive parameter")
            if kind is not _INSERT_VARIED:
                raise ProgramError("Replicate requires an InsertVaried transform")
            if self.index_transform.count != self.parameters[0]:
                raise ProgramError("Replicate fan-out must match transform count")
        elif op is _SUM_STEP:
            if len(self.parameters) != 2:
                raise ProgramError("SumStep takes parameters (limit, result identifier)")
            limit, result_id = self.parameters
            if limit < 1 or result_id < 0:
                raise ProgramError("SumStep limit must be positive, result id non-negative")
            if kind is not _INCREMENT_LAST:
                raise ProgramError("SumStep requires an IncrementLast transform")
        else:
            if self.parameters:
                raise ProgramError(f"{op.name} takes no parameters")
            if kind is _INSERT_VARIED:
                raise ProgramError(f"{op.name} cannot use an InsertVaried transform")

    def is_binary(self) -> bool:
        op = self.operation
        return op is _MUL_PAIR or op is _SUM_STEP

    def operand_slot(self, identifier: int) -> int:
        """Position (0 = left) of identifier among this relation's inputs."""
        try:
            return self.input_identifiers.index(identifier)
        except ValueError:
            raise ProgramError(
                f"identifier {identifier} is not an operand of relation {self.rid}"
            ) from None


class RelationStore:
    """Registry of relations; a relation's rid is its position in it."""

    def __init__(self) -> None:
        self.relations: list[Relation] = []

    def add(self, relation: Relation) -> Relation:
        if relation.rid != -1:
            raise ProgramError(
                f"relation {relation.rid} is already in a RelationStore"
            )
        object.__setattr__(relation, "rid", len(self.relations))
        self.relations.append(relation)
        return relation

    def __len__(self) -> int:
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)


class PartialStore:
    """Holds the first-arriving operand of each binary match.

    Keys are (relation id, index list). offer() either parks an element
    and returns None, or pops the waiting partner and returns the ordered
    (left, right) pair. A second arrival for an already-filled slot is a
    program bug and raises DuplicateOperandError.
    """

    def __init__(self) -> None:
        self._waiting: dict[tuple[int, tuple[int, ...]], tuple[int, Element]] = {}
        self.max_size = 0

    def offer(self, relation: Relation, element: Element):
        if relation.rid < 0:
            raise ProgramError("relation was never added to a RelationStore")
        slot = relation.operand_slot(element.identifier)
        key = (relation.rid, element.indices)
        hit = self._waiting.get(key)
        if hit is None:
            self._waiting[key] = (slot, element)
            if len(self._waiting) > self.max_size:
                self.max_size = len(self._waiting)
            return None
        other_slot, other = hit
        if other_slot == slot:
            raise _duplicate_operand(slot, relation.rid, element.indices)
        del self._waiting[key]
        return (other, element) if other_slot == 0 else (element, other)

    def __len__(self) -> int:
        return len(self._waiting)

    def pending(self) -> list[Element]:
        """Elements still waiting for a partner (diagnostic order: insertion)."""
        return [elem for _, elem in self._waiting.values()]


def _overflow(name: str, value: int) -> IntegerOverflowError:
    """The error every executor raises when name produces an out-of-range value."""
    return IntegerOverflowError(f"{name} produced {value}, outside 64-bit range")


def _duplicate_operand(slot: int, rid: int,
                       indices: tuple[int, ...]) -> DuplicateOperandError:
    """The error for a second operand in slot of join rid at indices."""
    return DuplicateOperandError(
        f"two elements for slot {slot} of relation {rid} at indices {indices}"
    )


def _check_int64(value: int, context: str) -> int:
    if value > INT64_MAX or value < INT64_MIN:
        raise _overflow(context, value)
    return value


def apply_relation(relation: Relation, operands) -> list[Element]:
    """Perform one relation on fully gathered operands.

    operands is a single Element for unary relations and an ordered
    (left, right) pair for binary ones. Returns the created elements:
    exactly parameters[0] for Replicate, none for Sink, one otherwise.
    """
    op = relation.operation
    out_id = relation.output_identifier
    transform = relation.index_transform

    if op is _MUL_PAIR or op is _SUM_STEP:
        left, right = operands
        if (left.identifier, right.identifier) != relation.input_identifiers:
            raise ProgramError(
                f"operands ({left.identifier}, {right.identifier}) do not match "
                f"relation inputs {relation.input_identifiers}"
            )
        if left.indices != right.indices:
            raise ProgramError("binary operands must share one index list")
        if op is _MUL_PAIR:
            value = _check_int64(left.value * right.value, "MulPair")
            indices = transform.apply(left.indices)[0]
            return [Element(out_id, indices, value)]
        # SUM_STEP: running sum advances the last index until the limit,
        # then the total moves to the result identifier with that index gone.
        limit, result_id = relation.parameters
        if not left.indices:
            raise ProgramError("SumStep operands need at least one index")
        value = _check_int64(left.value + right.value, "SumStep")
        nxt = left.indices[-1] + 1
        if nxt == limit:
            return [Element(result_id, left.indices[:-1], value)]
        return [Element(out_id, left.indices[:-1] + (nxt,), value)]

    element = operands
    if element.identifier != relation.input_identifiers[0]:
        raise ProgramError(
            f"operand {element.identifier} does not match relation input "
            f"{relation.input_identifiers[0]}"
        )
    if op is _SINK:
        return []
    if op is _REPLICATE:
        return [
            Element(out_id, indices, element.value)
            for indices in transform.apply(element.indices)
        ]
    if op is _NEGATE:
        value = _check_int64(-element.value, "Negate")
    elif op is _SQUARE:
        value = _check_int64(element.value * element.value, "Square")
    else:
        raise ProgramError(f"unknown operation {op!r}")
    return [Element(out_id, transform.apply(element.indices)[0], value)]
