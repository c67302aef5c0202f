"""Core building blocks of the element model.

An element is an (identifier, index list, value) triple and is consumed
exactly once. Relations map input elements to output elements through a
small closed operation set. Binary relations pair their two operands
on (relation, index list): the first operand to show up waits, the
second releases the pair. This module defines the model, whose values
check only their own fields; engine and machine build and execute it.

The value types here and in the other modules are plain classes on two
small bases, _Value and _Frozen, whose methods are written out in the
source and so compiled once into the .pyc: no class generates code at
import. engine.RunResult stays a dataclass only so that callers can use
dataclasses.replace and fields on it.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import FrozenInstanceError
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

_TRANSFORM_NOT_INT = "transform position and count must be plain ints"
_RELATION_NOT_INT = "identifiers and parameters must be plain ints"


class _Value:
    """The repr and equality @dataclass would give a class.

    A subclass names its fields in _fields, in constructor order; its
    __init__ stores each of them once. Two values are equal when they
    are of one class and their fields are equal. A field can be set but
    not deleted, so that the repr and equality always find it.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __delattr__(self, name: str) -> None:
        if name in self._fields:
            raise AttributeError(f"cannot delete field {name!r}")
        object.__delattr__(self, name)

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[name] for name in self._fields])

    def __repr__(self) -> str:
        d = self.__dict__
        fields = ", ".join([f"{name}={d[name]!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented


class _Frozen(_Value):
    """A _Value that hashes its fields and refuses to assign or delete any.

    Its __init__ stores the fields straight into the instance __dict__:
    with one item assignment per field where a program build makes many
    (IndexTransform, Relation), which is the fastest form, and with one
    update call elsewhere.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class IndexTransform(_Frozen):
    """Describes how an output index list is derived from the input's.

    Field use by kind:
      KEEP            -- no fields, output indices equal input indices
      DROP            -- position: which index to remove
      INSERT_VARIED   -- position, count: insert one of 0..count-1 at position
                         (one output index list per inserted value)
      INCREMENT_LAST  -- no fields, last index incremented by one
      TRUNCATE        -- count: keep only the first count indices

    kind must be a TransformKind, and position and count plain ints.
    """

    _fields = ("kind", "position", "count")

    def __init__(self, kind: TransformKind, position: int = 0, count: int = 0) -> None:
        try:
            if position < 0 or count < 0:
                raise ProgramError("transform position and count must be non-negative")
        except TypeError:  # a position or count that does not compare with an int
            raise ProgramError(_TRANSFORM_NOT_INT) from None
        if kind is _INSERT_VARIED and count < 1:
            raise ProgramError("InsertVaried needs a positive count")
        if type(kind) is not TransformKind:
            raise ProgramError(f"transform kind {kind!r} is not a TransformKind")
        if type(position) is not int or type(count) is not int:
            raise ProgramError(_TRANSFORM_NOT_INT)
        d = self.__dict__
        d["kind"] = kind
        d["position"] = position
        d["count"] = count

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


class Relation(_Frozen):
    """A deduction rule: consume matching element(s), emit derived element(s).

    Unary relations fire on every element of their single input
    identifier. Binary relations (MUL_PAIR, SUM_STEP) fire once both
    operands with the same index list have arrived; input_identifiers
    order fixes which identifier is the left operand. input_identifiers
    and parameters must be tuples, and they and output_identifier must
    hold plain ints (a bool is refused); operation is an Operation and
    index_transform an IndexTransform. A Relation is a frozen value; the
    Program that holds it numbers it by position and checks the rest.
    """

    _fields = ("input_identifiers", "operation", "parameters", "output_identifier",
               "index_transform")

    def __init__(self, input_identifiers: tuple[int, ...], operation: Operation,
                 parameters: tuple[int, ...], output_identifier: int,
                 index_transform: IndexTransform) -> None:
        ids, op, params = input_identifiers, operation, parameters
        if type(ids) is not tuple or type(params) is not tuple:
            raise ProgramError("input identifiers and parameters must be tuples")
        try:
            if (ids and min(ids) < 0) or output_identifier < 0:
                raise ProgramError("identifiers must be non-negative")
            if type(op) is not Operation:
                raise ProgramError(f"unknown operation {op!r}")
            if op is _MUL_PAIR or op is _SUM_STEP:
                if len(ids) != 2:
                    raise ProgramError(f"{op.name} takes exactly two input identifiers")
                if ids[0] == ids[1]:
                    raise ProgramError(f"{op.name} operand identifiers must differ")
            elif len(ids) != 1:
                raise ProgramError(f"{op.name} takes exactly one input identifier")
            if type(index_transform) is not IndexTransform:
                raise ProgramError(f"transform {index_transform!r} is not an IndexTransform")

            kind = index_transform.kind
            if op is _REPLICATE:
                if len(params) != 1 or params[0] < 1:
                    raise ProgramError("Replicate takes one positive parameter")
                if kind is not _INSERT_VARIED:
                    raise ProgramError("Replicate requires an InsertVaried transform")
                if index_transform.count != params[0]:
                    raise ProgramError("Replicate fan-out must match transform count")
            elif op is _SUM_STEP:
                if len(params) != 2:
                    raise ProgramError("SumStep takes parameters (limit, result identifier)")
                limit, result_id = params
                if limit < 1 or result_id < 0:
                    raise ProgramError("SumStep limit must be positive, result id non-negative")
                if kind is not _INCREMENT_LAST:
                    raise ProgramError("SumStep requires an IncrementLast transform")
            else:
                if params:
                    raise ProgramError(f"{op.name} takes no parameters")
                if kind is _INSERT_VARIED:
                    raise ProgramError(f"{op.name} cannot use an InsertVaried transform")
        except TypeError:  # an item that does not compare with an int
            raise ProgramError(_RELATION_NOT_INT) from None
        # after the checks above, so each input they refuse keeps their text
        for item in ids + params:
            if type(item) is not int:
                raise ProgramError(_RELATION_NOT_INT)
        if type(output_identifier) is not int:
            raise ProgramError(_RELATION_NOT_INT)
        d = self.__dict__
        d["input_identifiers"] = ids
        d["operation"] = op
        d["parameters"] = params
        d["output_identifier"] = output_identifier
        d["index_transform"] = index_transform


class RelationStore:
    """Relations in order, to build a Program from; a plain list serves too.
    The package builds plain lists; this stays for bench/progen.py."""

    def __init__(self) -> None:
        self.relations: list[Relation] = []

    def add(self, relation: Relation) -> Relation:
        self.relations.append(relation)
        return relation

    def __len__(self) -> int:
        return len(self.relations)

    def __iter__(self):
        return iter(self.relations)


_INT_KINDS = {None: "plain", 0: "non-negative", 1: "positive"}


def _int_arg(name: str, value, least: int | None = None, error: type = ValueError,
             most: int | None = None) -> None:
    """Raise error, "<name> must be a <kind> int, not <value!r>", unless
    value is a plain int (a bool is refused) of at least least, kind
    being "plain", "non-negative" or "positive" for least None, 0 or 1,
    and "<name> must be at most <most>, not <value!r>" when it exceeds a
    given most. Every entry point checks its int arguments through this:
    sizes, seeds, counts, workers, costs and budgets. The per-field
    checks of Relation, IndexTransform and Matrix entries and cells keep
    their own texts."""
    if type(value) is not int or (least is not None and value < least):
        raise error(f"{name} must be a {_INT_KINDS[least]} int, not {value!r}")
    if most is not None and value > most:
        raise error(f"{name} must be at most {most}, not {value!r}")


def _of_type(name: str, value, kind, what: str | None = None) -> None:
    """Raise ValueError, "<name> must be <what>, not <type of value>",
    unless isinstance(value, kind); what defaults to "a <kind's name>"."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {what or 'a ' + kind.__name__}, not {type(value).__name__}")


def _check_hook(on_event) -> None:
    """Refuse an on_event that is neither None nor callable, before a run
    that would call it."""
    _of_type("on_event", on_event, (type(None), Callable), "callable or None")


def _overflow(name: str, value: int) -> IntegerOverflowError:
    """The error every executor raises when name produces an out-of-range value."""
    return IntegerOverflowError(f"{name} produced {value}, outside 64-bit range")


def _over_budget(budget: int, unit: str) -> SimulationLimitError:
    """The error every executor raises when a run would pass its budget of
    unit ("steps" or "events")."""
    return SimulationLimitError(f"exceeded {budget} {unit}")


def _duplicate_operand(slot: int, rid: int,
                       indices: tuple[int, ...]) -> DuplicateOperandError:
    """The error for a second operand in slot of join rid at indices."""
    return DuplicateOperandError(
        f"two elements for slot {slot} of relation {rid} at indices {indices}"
    )


def _duplicate_output(indices: tuple[int, ...]) -> DuplicateOutputError:
    """The error for a second result element at indices."""
    return DuplicateOutputError(f"result indices {indices} produced twice")


def _deadlock_error(stuck: tuple[Element, ...], names: dict[int, str],
                    prefix: str = "") -> JoinDeadlockError:
    """The error for a run gone quiescent with the operands stuck parked,
    named by names; the simulator passes the prefix "machine "."""
    return JoinDeadlockError(
        f"{prefix}quiescent with {len(stuck)} unmatched operand(s), "
        f"first {stuck[0].describe(names)}"
    )
