"""Core building blocks of the element model.

An element is an (identifier, index list, value) triple and is consumed
exactly once. Relations map input elements to output elements through a
small closed operation set. Binary relations pair their two operands
on (relation, index list): the first operand to show up waits, the
second releases the pair. This module defines the model and checks each
relation when it is built; engine and machine execute it.
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


@dataclass(frozen=True, eq=False)
class Relation:
    """A deduction rule: consume matching element(s), emit derived element(s).

    Unary relations fire on every element of their single input
    identifier. Binary relations (MUL_PAIR, SUM_STEP) fire once both
    operands with the same index list have arrived; input_identifiers
    order fixes which identifier is the left operand. input_identifiers
    and parameters must be tuples. A Relation is frozen;
    RelationStore.add sets its rid, once.
    """

    input_identifiers: tuple[int, ...]
    operation: Operation
    parameters: tuple[int, ...]
    output_identifier: int
    index_transform: IndexTransform
    rid: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        ids = self.input_identifiers
        if type(ids) is not tuple or type(self.parameters) is not tuple:
            raise ProgramError("input identifiers and parameters must be tuples")
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


def _overflow(name: str, value: int) -> IntegerOverflowError:
    """The error every executor raises when name produces an out-of-range value."""
    return IntegerOverflowError(f"{name} produced {value}, outside 64-bit range")


def _duplicate_operand(slot: int, rid: int,
                       indices: tuple[int, ...]) -> DuplicateOperandError:
    """The error for a second operand in slot of join rid at indices."""
    return DuplicateOperandError(
        f"two elements for slot {slot} of relation {rid} at indices {indices}"
    )
