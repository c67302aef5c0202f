"""The two join stores: a list indexed by key, or a dict keyed by it.

A join of a program whose radix the build fixes parks its operands in a
list of radix ** arity slots when that is under the bound of
aridem.engine (_DENSE_PER_ELEMENT slots per initial element, and
_DENSE_MAX); every other join, and every join of a program whose radix
comes from the run's budget, parks them in a dict. The programs here put
one join just under that bound, the same join just over it, and the same
join beside an increment cycle, which the build cannot bound. Each must
run as the reference loop does on every executor, whichever store it
parks in: outputs, counters, max_partial_depth, partials, and the
deadlock, duplicate-operand and duplicate-output texts.
"""

import pytest

from aridem import (
    CostModel,
    Element,
    ElementModelError,
    Execution,
    IndexTransform,
    MachineConfig,
    Operation,
    Program,
    Relation,
    build_matmul_program,
    simulate,
)
from aridem.engine import _DENSE_MAX, _DENSE_PER_ELEMENT
from reference import drive
from test_packed import increment_cycle, parked_program

# One MulPair of 0 and 1 into 2 over six initial elements, whose indices
# reach top: the radix is top + 1 and the join's key space (top + 1)**2,
# against a bound of 64 * 6 = 384 slots: 361 under it, 400 over it.
UNDER, OVER = 18, 19
INITIAL = 6

FAULTS = {
    # three matched pairs, parked out of key order first
    "matched": lambda t: [(0, (t, 0), 2), (1, (1, t), 3), (0, (0, 2), 5),
                          (1, (t, 0), 7), (0, (1, t), 11), (1, (0, 2), 13)],
    # (t, 0) and (t, 1) find no partner
    "deadlock": lambda t: [(0, (t, 0), 2), (1, (1, t), 3), (0, (0, 2), 5),
                           (1, (t, 1), 7), (0, (1, t), 11), (1, (0, 2), 13)],
    # 0 (t, 0) twice, and no 1 (t, 0) to take either
    "duplicate": lambda t: [(0, (t, 0), 2), (1, (1, t), 3), (0, (0, 2), 5),
                            (0, (t, 0), 7), (0, (1, t), 11), (1, (0, 2), 13)],
    # (t, 0) parks again once its first pair has matched, into the cleared
    # slot, and its second pair sinks the result (t, 0) a second time
    "rematched": lambda t: [(0, (t, 0), 2), (1, (t, 0), 3), (0, (t, 0), 5),
                            (1, (t, 0), 7), (0, (1, t), 11), (1, (1, t), 13)],
}


def join_program(top, fault, cycle=False):
    """The join over FAULTS[fault](top); with cycle, identifier 3 also
    increments its last index forever, though no element ever reaches it,
    so the build cannot bound the radix."""
    relations = [Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
                 Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())]
    arities = {0: 2, 1: 2, 2: 2}
    if cycle:
        relations.append(Relation((3,), Operation.NEGATE, (), 3,
                                  IndexTransform.increment_last()))
        arities[3] = 2
    return Program(relations, [Element(*e) for e in FAULTS[fault](top)], arities, 2)


PROGRAMS = {
    "under": lambda fault: join_program(UNDER, fault),
    "over": lambda fault: join_program(OVER, fault),
    "unbounded": lambda fault: join_program(UNDER, fault, cycle=True),
}


def reference(program, discipline="fifo"):
    """The reference loop under discipline: outputs, elements processed
    and created, the peak and the parked operands in (relation id, index
    list) order, and the error class and text, or None."""
    state = drive(program, discipline=discipline)
    error = state.error and (type(state.error), str(state.error))
    return (state.outputs, state.elements_processed, state.elements_created,
            state.max_partial_depth, state.parked, error)


def engine_outcome(execution, drive):
    try:
        drive()
        error = None
    except ElementModelError as caught:
        error = (type(caught), str(caught))
    return (execution.outputs, execution.elements_processed, execution.elements_created,
            execution.max_partial_depth, execution.partials, error)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_executor_matches_the_reference(name, fault):
    program = PROGRAMS[name](fault)
    for discipline in ("fifo", "lifo"):
        execution = Execution(program, discipline=discipline)
        assert engine_outcome(execution, execution.run) == reference(program, discipline)

    expected = reference(program)
    execution = Execution(program)
    stepped = []

    def step_then_run():
        for _ in range(len(program.initial_elements) + 3):
            stepped.append(execution.partials)
            execution.step()
        execution.run()

    assert engine_outcome(execution, step_then_run) == expected
    # the parked operands after each step are the reference's after as many
    assert stepped[:4] == [drive(program, steps=k).parked for k in range(4)]

    error = expected[-1]
    for workers in (1, 4):
        for dispatch in ("idle", "roundrobin"):
            config = MachineConfig(workers, dispatch)
            try:
                metrics = simulate(program, config, CostModel(t_master=1))
                got = (metrics.outputs, metrics.elements_processed, None)
            except ElementModelError as caught:
                got = (None, None, (type(caught), str(caught).removeprefix("machine ")))
            want = (None, None, error) if error else (expected[0], expected[1], None)
            assert got == want, (workers, dispatch)


def test_bound_sits_between_the_two_programs():
    under, over = (PROGRAMS[name]("matched") for name in ("under", "over"))
    bound = _DENSE_PER_ELEMENT * INITIAL
    assert under._places[1] ** 2 < bound <= over._places[1] ** 2
    assert under._binary == {0: (UNDER + 1) ** 2}
    assert over._binary == {0: 0}
    assert _DENSE_MAX == 2 ** 22


def test_bounded_stores_are_lists_and_unbounded_ones_dicts():
    program = build_matmul_program(8, 0)
    joins, (_, places) = program._stores(), program._initial(100)
    assert joins == {2: [None] * places[1] ** 3, 3: [None] * places[1] ** 3}
    assert joins[2] is not joins[3]
    joins = PROGRAMS["under"]("matched")._stores()
    assert joins == {0: [None] * (UNDER + 1) ** 2}
    for program in (PROGRAMS["over"]("matched"), PROGRAMS["unbounded"]("matched")):
        joins = program._stores()
        assert joins == {0: {}} and type(joins[0]) is dict
    assert PROGRAMS["unbounded"]("matched")._keys is None
    cycle = increment_cycle()
    assert cycle._keys is None and cycle._stores() == {}
    # the packed-key tests' largest initial indices keep their joins' dicts
    for top in (10 ** 6, 2 ** 40):
        joins = parked_program(top)._stores()
        assert joins == {0: {}, 1: {}}


def test_matmul_parks_in_lists_from_n6():
    """Matmul's joins park in lists from n = 6, where its 108 initial
    elements allow 6,912 slots against 17**3 = 4,913."""
    assert build_matmul_program(5, 0)._binary == {2: 0, 3: 0}
    assert build_matmul_program(6, 0)._binary == {2: 17 ** 3, 3: 17 ** 3}


def test_each_run_makes_its_own_stores():
    """Setting an Execution up allocates no store: its first step or run
    makes them. A run that drains leaves every slot None, and the next
    Execution of the same program gets new lists."""
    program = build_matmul_program(6, 0)
    execution = Execution(program)
    assert execution._joins is None and execution.partials == ()
    result = execution.run()
    assert all(slot is None for store in execution._joins.values() for slot in store)
    assert result.max_partial_depth == 6 ** 3 + 6 ** 2
    other = Execution(program)
    other.step()
    assert type(other._joins[2]) is list and other._joins[2] is not execution._joins[2]
