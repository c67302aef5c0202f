"""Sequential deduction engine, and the compiled form every executor runs.

Runs a Program to quiescence: pop an element, apply every relation that
consumes its identifier, push whatever was deduced. Building a Program
checks it and compiles each relation into per-identifier plans (see
_compile_plans and the plan opcodes). Execution._drain and
machine._simulate both execute those plans, and the tests check them
against each other and against a reference loop of their own.

Inside both loops an element is a plain (identifier, key, value) tuple.
The key packs the index list (d0, ..., da-1) into one int in a mixed
radix R fixed per program: d0*R**(a-1) + ... + da-1. So a join matches
on an int, and each transform is int arithmetic with powers of R. R
exceeds every index any element can reach: _compile_plans bounds it by
the rise rule, and where the rises never settle Program._initial takes
it from each run's budget. Keys are decoded back to index tuples only at
the edges: result outputs as they are sunk, the queue and partials
views, the error texts and the event payloads. Each join parks in a list
or a dict, as the comment on _DENSE_MAX says.

Both executors call one hook, on_event, with one tuple per event, kind
first. step() and run() send ("pop", element), ("apply", relation,
operands, rid), ("create", element) and ("output", indices, value),
operands being a join's (left, right) pair or the one element and rid
the relation's position; machine.simulate sends ("dispatch", time,
worker, operands), ("finish", time, worker), ("arrival", time, worker,
outputs) and ("idle_state", time, queued, idle_workers, pending_units)
once each event settles, operands and outputs being counts. Elements in
the payloads are Elements, their indices tuples.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .core import (
    INT64_MAX,
    INT64_MIN,
    Element,
    ProgramError,
    Relation,
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
from .core import _DROP, _INCREMENT_LAST, _INSERT_VARIED, _KEEP
from .core import _MUL_PAIR, _NEGATE, _REPLICATE, _SINK, _SUM_STEP

DEFAULT_STEP_LIMIT = 100_000_000

# The join stores. Each join parks the operand that arrives first in one
# of two stores, chosen when the program is built. Where the build fixes
# the radix and radix ** arity, the join's key space, is under
# _DENSE_PER_ELEMENT slots per initial element and under _DENSE_MAX, the
# store is a list indexed by key, None where nothing is parked: a join
# reads, fills and clears its slot with no hashing. Every other join, and
# every join of a program whose radix comes from the run's budget, parks
# in a dict keyed by the key and pops its partner. The executors tell the
# two apart by class, once per join they apply. A duplicate operand leaves
# the store as it was. Each run allocates its lists, at about 2.5 ns a
# slot, and a park and match on a list saves about 270 ns against a dict
# at paper scale (matmul n = 48), 55-80 ns against a small one. The
# initial elements are the part of a run's work that the build can count:
# 64 slots cost about 160 ns per initial element, so a list repays itself
# once its join matches about as many operands as the program has initial
# elements, as matmul's joins do (3n**2 initial elements, n**3 matches per
# join; a list from n = 6), and a small program with a wide key space
# keeps its dict. _DENSE_MAX caps a list at 2**22 slots, 32 MB; matmul's
# stay under it up to n = 160.
_DENSE_PER_ELEMENT = 64
_DENSE_MAX = 2 ** 22

_ARITIES_NOT_INT = "arities must map plain ints to plain ints"


class Program(_Frozen):
    """A complete element program: relations, seed elements, and metadata.

    arities registers the index-list length of every identifier; the
    result_identifier is the one whose sink records final outputs. names
    is optional and only used for display; each name must be a str.

    relations is any iterable of Relations, such as a list or a
    RelationStore; a relation's rid is its position. Building checks and
    compiles the program once, raising ProgramError if it is malformed.
    A built Program is frozen: it keeps the relations and initial
    elements as tuples and read-only copies of arities and names, and
    assigning any field raises. Programs built from equal parts compare
    equal; what the build derives, _plans, _binary, _places and _keys
    (see _compile_plans), is left out of its repr and equality.
    """

    _fields = ("relations", "initial_elements", "arities", "result_identifier", "names")

    def __init__(self, relations: Iterable[Relation], initial_elements: Iterable[Element],
                 arities: Mapping[int, int], result_identifier: int,
                 names: Mapping[int, str] = MappingProxyType({})) -> None:
        d = self.__dict__
        try:
            d.update(relations=tuple(relations), initial_elements=tuple(initial_elements),
                     arities=MappingProxyType(dict(arities)),
                     result_identifier=result_identifier, names=MappingProxyType(dict(names)))
        except (TypeError, ValueError) as error:  # a field of the wrong container
            raise ProgramError(f"cannot read the program's fields: {error}") from None
        d["_plans"], d["_binary"], d["_places"], d["_keys"] = _compile_plans(self)

    def identifier_name(self, identifier: int) -> str:
        return self.names.get(identifier, f"id{identifier}")

    def _stores(self) -> dict[int, list | dict]:
        """A new run's empty join stores by rid (see _DENSE_MAX)."""
        return {rid: [None] * slots if slots else {} for rid, slots in self._binary.items()}

    def _initial(self, budget: int) -> tuple[deque, list[int]]:
        """A new run's queue of initial keys and the radix's powers by
        exponent, when it may process budget elements, or take budget events.

        A program whose indices the build bounded has them already. In
        one the build could not bound, _keys is None and an index rises
        by at most one per generation: the indices of a created element
        come from the element processed to make it (a join's partner has
        the same key), plus one at most, or from a Replicate count. Each
        step processes one element, and each element the master takes
        arrived in an event, so no index passes reach + budget + 1, reach
        being the largest initial index or the build's guess, which is at
        least the largest Replicate index. The build stores the powers of
        radix reach + 2; the run's radix is that plus budget.
        """
        keys, places = self._keys, self._places
        if keys is None:
            radix = places[1] + budget
            keys, places = _packed(self.initial_elements, radix), _powers(radix, len(places))
        return deque(keys), places


@dataclass(init=False, repr=False, eq=False)
class RunResult(_Value):
    """Counters and outputs from one run to quiescence.

    A dataclass only for dataclasses.replace and fields; it generates no code.
    """

    outputs: dict[tuple[int, ...], int]
    elements_processed: int
    elements_created: int
    max_queue_depth: int
    max_partial_depth: int
    _fields = tuple(__annotations__)

    def __init__(self, outputs: dict[tuple[int, ...], int], elements_processed: int,
                 elements_created: int, max_queue_depth: int,
                 max_partial_depth: int) -> None:
        self.outputs = outputs
        self.elements_processed = elements_processed
        self.elements_created = elements_created
        self.max_queue_depth = max_queue_depth
        self.max_partial_depth = max_partial_depth


# Plan opcodes. A plan is one flat tuple per (identifier, relation) pair
# that ends with the relation's rid; the executors dispatch on plan[0]
# without touching Relation objects. Plans hold no radix: they name its
# powers by exponent, and each executor looks them up in the program's
# list places, places[e] being radix ** e and places[1] the radix. Both
# joins compile to one shape, (code, slot, out_id, arg, result_id, rid):
# arg is MulPair's key transform or SumStep's limit, and result_id is
# SumStep's result identifier (None for MulPair). The join codes are the
# lowest, so code <= _OP_SUM selects the one join branch of each
# executor. A key transform is None for KEEP, or (x, y, add): the new key
# is key // places[x] * places[y] + key % places[y] + add, add being 1
# for IncrementLast and 0 otherwise, which is also what the relation
# adds to its output's rise (see _compile_plans). Replicate's
# plan is (code, out_id, e, count, rid): copy j of a key with head
# key // places[e] and tail key % places[e] is head * places[e + 1] +
# j * places[e] + tail. A sink's is (code, is_result, arity, rid), arity
# to decode the result's key with.
#
# The peak plan, (_OP_PEAK,), names no relation. It ends the plans of an
# identifier one pop of which can make two or more elements (a
# Replicate's count, 1 per join, Negate or Square plan, 0 per sink), and
# only there does _drain test the queue against its peak. The queue
# after an element is the one before it, less the element, plus what it
# made, so an element that makes at most one cannot pass a length
# already seen; an element that raises mid-plans leaves the peak as it
# was. _simulate skips the plan. Each executor names every code in its
# dispatch, so that a new one cannot fall into the Negate/Square else
# unseen (tests check this).
_OP_MUL = 0
_OP_SUM = 1
_OP_REPLICATE = 2
_OP_SINK = 3
_OP_NEGATE = 4
_OP_SQUARE = 5
_OP_PEAK = 6


def _key(indices: tuple[int, ...], radix: int) -> int:
    """indices packed into one int, the first most significant."""
    key = 0
    for i in indices:
        key = key * radix + i
    return key


def _indices(key: int, arity: int, radix: int) -> tuple[int, ...]:
    """The arity indices that key packs in radix."""
    if arity < 3:  # divmod gives a pair of indices as a tuple
        return divmod(key, radix) if arity == 2 else (key,) if arity else ()
    digits = [0] * arity
    for p in range(arity - 1, -1, -1):
        key, digits[p] = divmod(key, radix)
    return tuple(digits)


def _packed(elements: Iterable[Element], radix: int) -> tuple[tuple, ...]:
    """elements as (identifier, key, value) tuples."""
    return tuple([(ident, _key(idx, radix), val) for ident, idx, val in elements])


def _unpacked(element: tuple, arities: Mapping[int, int], radix: int) -> Element:
    """The Element that an (identifier, key, value) tuple packs."""
    ident, key, val = element
    return Element(ident, _indices(key, arities[ident], radix), val)


def _powers(radix: int, count: int) -> list[int]:
    """radix ** e for e from 0 to count - 1, by e."""
    return [radix ** e for e in range(count)]


def _compile_transform(t, in_arity: int) -> tuple[int, tuple[int, int, int] | None]:
    """The arity t makes of in_arity indices, and t as a key transform (see
    the plan opcodes): None for KEEP, and for INSERT_VARIED, whose fields
    Replicate's plan holds."""
    kind = t.kind
    if kind is _KEEP:
        return in_arity, None
    if kind is _INCREMENT_LAST:
        if in_arity < 1:
            raise ProgramError("IncrementLast needs at least one index")
        return in_arity, (0, 0, 1)
    p = t.position
    if kind is _DROP:
        if p >= in_arity:
            raise ProgramError(f"cannot drop index {p} from arity {in_arity}")
        return in_arity - 1, (in_arity - p, in_arity - 1 - p, 0)
    if kind is _INSERT_VARIED:
        if p > in_arity:
            raise ProgramError(f"cannot insert at position {p} into arity {in_arity}")
        return in_arity + 1, None
    k = t.count  # TRUNCATE, the one kind left
    if k > in_arity:
        raise ProgramError(f"cannot truncate arity {in_arity} to {k}")
    return k, (in_arity - k, 0, 0)


def _compile_plans(program: Program) -> tuple[dict[int, tuple[tuple, ...]], dict[int, int],
                                              list[int], tuple[tuple, ...] | None]:
    """Check program and compile it: the plans of every registered
    identifier in rid order, then the peak plan where _OP_PEAK says, the
    slot count of each join's store by rid (0 for a dict, see
    _DENSE_MAX), the radix's powers by exponent, and the initial
    elements packed in that radix (None when only a run's budget bounds
    the indices, see Program._initial). The checks fire in order:
    arities, the result identifier, each relation, each initial element,
    a negative identifier and last the names, so a program that an
    earlier check refuses keeps that check's text.

    The rise rule. One walk over the relations checks and compiles them,
    and one over the initial elements checks and packs them in a radix
    fixed in between. The walk guesses the largest initial index: the
    largest Replicate index (matmul's) or 15. Each identifier has a
    rise, how far its indices can pass the guess. The walk records one
    step (input, input, output, add) per relation that makes an element,
    and one more for a SumStep's result with add 0; add is 1 for
    IncrementLast. A step raises its output's rise to the least of its
    inputs' plus add, which bounds every index: a join's operands share
    one index list, Drop and Truncate keep some indices, and Replicate
    inserts one of at most the guess. Passes over the steps follow the
    walk until one changes nothing, the second where no relation makes
    an identifier that it or an earlier one reads, and a rise still
    changing after len(steps) + 2 passes is taken as unbounded. A rise
    bounds a whole identifier, not each position, so a cycle that
    increments an index and then drops it packs per run. The radix is
    the guess plus the largest rise plus one; an initial index past the
    guess raises it by as much, which bounds every index again, and the
    elements are packed anew.

    A plan names no exponent above its relation's input arity plus one,
    and only relations that make an element, each with a step, name
    one, so the powers run to the widest input among the steps plus
    one: a sink of a wide identifier costs none.
    """
    arities = program.arities
    try:
        if arities and min(arities.values()) < 0:
            raise ProgramError("arities must be non-negative")
    except TypeError:  # a value that does not compare with an int
        raise ProgramError(_ARITIES_NOT_INT) from None
    for ident, arity in arities.items():
        if type(ident) is not int or type(arity) is not int:
            raise ProgramError(_ARITIES_NOT_INT)
    result = program.result_identifier
    if type(result) is not int or result not in arities:
        raise ProgramError("result identifier has no registered arity")

    plans: dict[int, list[tuple]] = {ident: [] for ident in arities}
    made = dict.fromkeys(arities, 0)  # the most elements one pop makes (see _OP_PEAK)
    binary = []
    steps = []  # (input, input, output, add), a unary relation's input twice
    # the largest index a Replicate makes, and at least 15, which the
    # indices of small programs stay within, so their elements are packed
    # once; a radix larger than they need costs nothing
    guess = 15
    for rid, rel in enumerate(program.relations):
        if type(rel) is not Relation:
            raise ProgramError(f"relation {rid} is not a Relation")
        ids = rel.input_identifiers
        for ident in ids:
            if ident not in arities:
                raise ProgramError(f"relation {rid} input {ident} unregistered")
        op, first = rel.operation, ids[0]
        in_arity, second = arities[first], ids[-1]
        if op is _MUL_PAIR or op is _SUM_STEP:
            other = arities[second]
            if other != in_arity:
                raise ProgramError(f"relation {rid} joins arities {in_arity} and {other}")
        if op is _SINK:
            plans[first].append((_OP_SINK, first == result, in_arity, rid))
            continue
        out_id, t = rel.output_identifier, rel.index_transform
        if out_id not in arities:
            raise ProgramError(f"relation {rid} output {out_id} unregistered")
        out_arity, tf = _compile_transform(t, in_arity)
        if arities[out_id] != out_arity:
            raise ProgramError(
                f"relation {rid} produces arity {out_arity} but "
                f"{out_id} is registered at {arities[out_id]}"
            )
        steps.append((first, second, out_id, 0 if tf is None else tf[2]))
        for ident in ids:
            made[ident] += t.count if op is _REPLICATE else 1
        if op is _SUM_STEP or op is _MUL_PAIR:
            if op is _SUM_STEP:
                code, (arg, result_id) = _OP_SUM, rel.parameters
                if result_id not in arities:
                    raise ProgramError(f"SumStep result identifier {result_id} unregistered")
                if arities[result_id] != in_arity - 1:
                    raise ProgramError(
                        "SumStep result arity must be one less than its input"
                    )
                steps.append((first, second, result_id, 0))
            else:
                code, arg, result_id = _OP_MUL, tf, None
            binary.append((rid, in_arity))
            for slot, ident in enumerate(ids):
                plans[ident].append((code, slot, out_id, arg, result_id, rid))
        elif op is _REPLICATE:
            e = in_arity - t.position
            plans[first].append((_OP_REPLICATE, out_id, e, t.count, rid))
            if t.count - 1 > guess:
                guess = t.count - 1
        else:  # Negate or Square
            code = _OP_NEGATE if op is _NEGATE else _OP_SQUARE
            plans[first].append((code, out_id, tf, rid))

    rise = dict.fromkeys(arities, 0)  # each identifier's rise
    for _ in range(len(steps) + 2):  # passes until one changes nothing
        stable = True
        for a, b, out, add in steps:
            least = rise[a]
            if rise[b] < least:
                least = rise[b]
            if least + add > rise[out]:
                rise[out] = least + add
                stable = False
        if stable:
            break
    radix = guess + max(rise.values()) + 1 if stable else None
    # a program bounded only by its runs' budgets packs its elements per run
    packing = guess + 1 if radix is None else radix
    keys = []
    pack = keys.append
    top = 0
    for elem in program.initial_elements:
        if type(elem) is not Element:
            raise ProgramError(f"initial element {elem!r} is not an Element")
        ident, idx, val = elem
        try:
            if ident not in arities:
                raise ProgramError(f"initial element identifier {ident} unregistered")
            if len(idx) != arities[ident]:
                raise ProgramError(
                    f"initial element {elem} has arity {len(idx)}, "
                    f"expected {arities[ident]}"
                )
            if val > INT64_MAX or val < INT64_MIN:
                raise ProgramError(f"initial value {val} outside 64-bit range")
            plain = type(ident) is int and type(idx) is tuple and type(val) is int
            key = 0
            for i in idx:
                if i < 0:
                    raise ProgramError("initial indices must be non-negative")
                if type(i) is int:
                    key = key * packing + i
                    if i > top:
                        top = i
                else:
                    plain = False
        except TypeError:  # a part unhashable, without a length, or not comparable
            plain = False
        # after the checks above, so each element they refuse keeps their text
        if not plain:
            raise ProgramError(f"initial element {elem} must hold plain ints, "
                               f"its indices in a tuple")
        pack((ident, key, val))
    if min(arities, default=0) < 0:  # Relation refuses these too
        raise ProgramError("identifiers must be non-negative")
    if not all(isinstance(name, str) for name in program.names.values()):
        raise ProgramError("names must be strings")  # or describe() fails mid-run
    if radix is not None and top > guess:
        radix += top - guess
        keys = _packed(program.initial_elements, radix)
    # each join's slot count when it parks in a list, else 0 (see _DENSE_MAX)
    bound = 0 if radix is None else min(_DENSE_MAX, _DENSE_PER_ELEMENT * len(keys))
    slots = {}
    for rid, arity in binary:
        slots[rid] = radix ** arity if bound and radix ** arity < bound else 0
    plans = {ident: tuple(plan) + ((_OP_PEAK,),) if made[ident] > 1 else tuple(plan)
             for ident, plan in plans.items()}
    # the powers up to one past the widest input that names one (see above)
    count = max([arities[s[0]] for s in steps], default=0) + 2
    if radix is None:
        return plans, slots, _powers(max(top, guess) + 2, count), None
    return plans, slots, _powers(radix, count), tuple(keys)


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


def _parked_operands(joins: dict[int, list | dict], arities: Mapping[int, int],
                     radix: int) -> tuple[Element, ...]:
    """The operands parked in a run's join stores, in (relation id, index
    list) order: keys sort as their index lists while every index is
    below the radix. No processing order can change that order, so every
    executor names the same first operand when a run deadlocks. A list
    store is filtered only once a count of its Nones, in C, finds one
    parked."""
    stuck = []
    for _, store in sorted(joins.items()):
        if store.__class__ is not list:
            stuck += [store[key] for key in sorted(store)]
        elif store.count(None) != len(store):
            stuck += filter(None, store)
    return tuple([_unpacked(element, arities, radix) for element in stuck])


class Execution:
    """One run of a program, one element at a time or to quiescence. Not
    reusable once the queue drains.

    step() and run() drive the same loop, _drain, and may be mixed.
    queue and partials are tuples of Elements decoded on request: the
    ready elements in queue order, and the operands still waiting for a
    partner in (relation id, index list) order. max_queue_depth and
    max_partial_depth are their peaks so far; elements_created is
    elements_processed + len(queue), since every created element is
    queued and every processed one was popped.

    discipline picks the ready-queue order: "fifo" (default) or "lifo";
    quiescent totals do not depend on it. on_event gets the events the
    module docstring lists. max_steps, a non-negative int, bounds the
    elements processed: a program that would process more raises
    SimulationLimitError. A program that is not a Program, or an
    on_event neither None nor callable, raises ValueError.

    Every attribute is read-only: the settings are fixed when the run is
    set up, and the counters are written by the run alone. outputs is the
    run's own dict, not a copy, so a caller or hook that changes it
    changes the run's result. To take events from part of a run, pass a
    hook that forwards them.
    """

    def __init__(self, program: Program, discipline: str = "fifo", *,
                 on_event: Callable[[tuple], None] | None = None,
                 max_steps: int = DEFAULT_STEP_LIMIT) -> None:
        if discipline not in ("fifo", "lifo"):
            raise ValueError(f"unknown discipline {discipline!r}")
        _int_arg("max_steps", max_steps, 0)
        _of_type("program", program, Program)
        _check_hook(on_event)
        self._program = program
        self._on_event = on_event
        self._max_steps = max_steps
        queue, self._places = program._initial(max_steps)
        self._queue = queue
        # the discipline's pop and the queue's append, bound once: binding
        # them in each _drain cost about 90 ns, a seventh of a step() on
        # CPython 3.11
        self._pop = queue.pop if discipline == "lifo" else queue.popleft
        self._append = queue.append
        # None until the first _drain makes them, so that the run, not
        # setting it up, allocates the list stores
        self._joins = None
        self._parked = 0
        self._outputs: dict[tuple[int, ...], int] = {}
        self._elements_processed = 0
        self._max_queue_depth = len(queue)
        self._max_partial_depth = 0

    program = property(attrgetter("_program"))
    on_event = property(attrgetter("_on_event"))
    max_steps = property(attrgetter("_max_steps"))
    outputs = property(attrgetter("_outputs"))
    elements_processed = property(attrgetter("_elements_processed"))
    max_queue_depth = property(attrgetter("_max_queue_depth"))
    max_partial_depth = property(attrgetter("_max_partial_depth"))

    @property
    def queue(self) -> tuple[Element, ...]:
        return tuple([self._element(e) for e in self._queue])

    @property
    def partials(self) -> tuple[Element, ...]:
        return _parked_operands(self._joins or {}, self._program.arities, self._places[1])

    @property
    def elements_created(self) -> int:
        return self._elements_processed + len(self._queue)

    def step(self) -> bool:
        """Process one element through every relation that consumes it.

        Returns False when the queue is already empty, and raises
        SimulationLimitError in place of processing element max_steps + 1.
        """
        if not self._queue:
            return False
        if self._elements_processed >= self._max_steps:
            raise _over_budget(self._max_steps, "steps")
        self._drain((self._elements_processed + 1,))
        return True

    def run(self) -> RunResult:
        """Execute to quiescence and return totals.

        Raises SimulationLimitError once max_steps elements are processed
        with more still queued. Cyclic GC is off while the loop runs.
        """
        _without_gc(self._drain, range(self._elements_processed + 1, self._max_steps + 1))
        if self._queue:
            raise _over_budget(self._max_steps, "steps")
        if self._parked:
            raise _deadlock_error(self.partials, self._program.names)
        return RunResult(
            outputs=self._outputs,
            elements_processed=self._elements_processed,
            elements_created=self.elements_created,
            max_queue_depth=self._max_queue_depth,
            max_partial_depth=self._max_partial_depth,
        )

    def _element(self, element: tuple) -> Element:
        return _unpacked(element, self._program.arities, self._places[1])

    def _drain(self, counts) -> None:
        """The element loop: process one element for each number in
        counts, the elements processed in all once it is done, until
        counts or the queue runs out.

        The count costs nothing per element: step() passes a 1-tuple, and
        run() a range that ends at max_steps. A hook only adds report
        lines, which build the event payloads and fall through to the
        untraced code: the hooked loop queues at the same append site,
        append bound to _create, and expands Replicate the same way. The
        queue's peak is tested only in the peak plan (see _OP_PEAK). Only
        the counters are written back on the way out, also when the loop
        raises; the queue and the join stores are the state itself.
        """
        queue, joins, places = self._queue, self._joins, self._places
        if joins is None:
            joins = self._joins = self._program._stores()
        pop, plans, append, radix = self._pop, self._program._plans, self._append, places[1]
        outputs = self._outputs
        on_event = self._on_event
        if on_event is not None:
            append = partial(self._create, on_event)
            shown_as, relations = self._element, self._program.relations
        hi, lo = INT64_MAX, INT64_MIN
        processed = self._elements_processed
        max_queue = self._max_queue_depth
        psize = self._parked
        max_partial = self._max_partial_depth

        try:
            for processed in counts:
                if not queue:
                    processed -= 1
                    break
                element = pop()
                if on_event is not None:
                    shown = shown_as(element)
                    on_event(("pop", shown))
                ident, key, val = element
                for plan in plans[ident]:
                    code = plan[0]
                    if code <= _OP_SUM:  # _OP_MUL or _OP_SUM
                        _, slot, out_id, arg, result_id, rid = plan
                        parked = joins[rid]
                        if parked.__class__ is list:
                            hit = parked[key]
                            if hit is not None:
                                parked[key] = None
                        else:
                            hit = parked.pop(key, None)
                        if hit is None:
                            parked[key] = element
                            psize += 1
                            if psize > max_partial:
                                max_partial = psize
                            continue
                        # a join's two identifiers differ, so the same
                        # identifier means the same slot
                        if hit[0] == ident:
                            parked[key] = hit
                            raise _duplicate_operand(slot, rid,
                                                     self._element(element).indices)
                        psize -= 1
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
                        if on_event is not None:
                            on_event(("apply", relations[rid], (shown, shown_as(hit))
                                      if slot == 0 else (shown_as(hit), shown), rid))
                        append(out)
                    elif code == _OP_REPLICATE:
                        _, out_id, e, count, rid = plan
                        stride = places[e]
                        head, tail = divmod(key, stride)
                        base = head * places[e + 1] + tail
                        if on_event is not None:
                            on_event(("apply", relations[rid], shown, rid))
                        for k in range(base, base + count * stride, stride):
                            append((out_id, k, val))
                    elif code == _OP_SINK:
                        if on_event is not None:
                            on_event(("apply", relations[plan[3]], shown, plan[3]))
                        if plan[1]:
                            idx = _indices(key, plan[2], radix)
                            if idx in outputs:
                                raise _duplicate_output(idx)
                            outputs[idx] = val
                            if on_event is not None:
                                on_event(("output", idx, val))
                    elif code == _OP_PEAK:
                        if len(queue) > max_queue:
                            max_queue = len(queue)
                    else:  # _OP_NEGATE or _OP_SQUARE
                        value = -val if code == _OP_NEGATE else val * val
                        if value > hi or value < lo:
                            raise _overflow(
                                "Negate" if code == _OP_NEGATE else "Square", value)
                        _, out_id, tf, rid = plan
                        if on_event is not None:
                            on_event(("apply", relations[rid], shown, rid))
                        append((out_id, key if tf is None else
                                key // places[tf[0]] * places[tf[1]]
                                + key % places[tf[1]] + tf[2], value))
        finally:
            self._elements_processed = processed
            self._max_queue_depth = max_queue
            self._parked = psize
            self._max_partial_depth = max_partial

    def _create(self, on_event, out: tuple) -> None:
        """The hooked loop's append: queue out, report it to _drain's hook."""
        self._queue.append(out)
        on_event(("create", self._element(out)))


def run(program: Program, discipline: str = "fifo", *,
        on_event: Callable[[tuple], None] | None = None,
        max_steps: int = DEFAULT_STEP_LIMIT) -> RunResult:
    """Run a program to quiescence and return its RunResult."""
    return Execution(program, discipline=discipline, on_event=on_event,
                     max_steps=max_steps).run()
