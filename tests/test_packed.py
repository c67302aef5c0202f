"""Edges of the packed index keys.

Inside run(), step() and simulate() an element's index list travels as
one int, packed in a radix fixed per program (see aridem.engine). The
programs here sit where a packed key could go wrong: an index at the
radix less one, initial indices of 10**6 and 2**40, arity 0 and 3, Drop
and Truncate at every position, Replicate at every position up to the
end, IncrementLast at its bound, SumStep seeds at and past their limit,
and an IncrementLast cycle stopped by the budget. Each must run as the
reference does on every executor, and show index tuples wherever
indices leave an executor: outputs, queue, partials, error texts and
event payloads. The tests named for the radix check the packing itself.

The build bounds the radix with one rise per identifier, how far its
indices can pass the largest initial index it guesses. A rise bounds a
whole identifier, not each position, so a cycle that increments an
index and then drops it packs per run, in a radix taken from the
budget, as a cycle whose indices rise without end does; the last tests
pin that, and a cycle that ends under such a radix.
"""

import pytest
from hypothesis import given, settings

from aridem import (
    CostModel,
    DuplicateOperandError,
    DuplicateOutputError,
    Element,
    ElementModelError,
    Execution,
    IndexTransform,
    JoinDeadlockError,
    MachineConfig,
    Operation,
    Program,
    Relation,
    SimulationLimitError,
    build_matmul_program,
    run,
    simulate,
)
from aridem.engine import DEFAULT_STEP_LIMIT
from reference import apply_relation, apply_transform, drive, run_reference
from test_differential import outcome
from test_differential import programs as generated_programs

TOPS = [5, 10 ** 6, 2 ** 40]


def executors(budget=None):
    """Every executor, each given budget steps or events when a budget is
    given, and the default budgets otherwise."""
    steps = {} if budget is None else {"max_steps": budget}
    events = {} if budget is None else {"max_events": budget}

    def step(program):
        execution = Execution(program, **steps)
        while execution.step():
            pass
        return execution.run()

    return {
        "run": lambda p: run(p, **steps),
        "lifo": lambda p: run(p, discipline="lifo", **steps),
        "step": step,
        "traced": lambda p: run(p, on_event=lambda event: None, **steps),
        "simulate": lambda p: simulate(p, MachineConfig(workers=1), **events),
        "simulate-roundrobin": lambda p: simulate(p, MachineConfig(3, "roundrobin"),
                                                  CostModel(t_master=2), **events),
    }


EXECUTORS = executors()


def agreed(program):
    """The one outcome of every executor, which matches the reference's:
    its outputs, with plain-int index tuples, and elements processed, or
    its error class; error texts lose the simulator's "machine " prefix."""
    expected = outcome(run, program, text=True)
    for name, execute in EXECUTORS.items():
        assert outcome(execute, program, text=True) == expected, name
    try:
        reference = run_reference(program)
    except ElementModelError as error:
        assert expected[0] is type(error)
        return expected
    assert expected == (reference.outputs, reference.elements_processed)
    for indices in expected[0]:
        assert type(indices) is tuple and all(type(i) is int for i in indices)
    return expected


def one_step(source_arity, operation, transform, initial, parameters=()):
    """initial (identifier 0) through one relation into the result, 1."""
    out = len(apply_transform(transform, (0,) * source_arity)[0])
    return Program(
        relations=[Relation((0,), operation, parameters, 1, transform),
                   Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())],
        initial_elements=initial,
        arities={0: source_arity, 1: out},
        result_identifier=1,
    )


def arity_three(top):
    """Three elements whose indices reach top in every position."""
    return [Element(0, (top, 0, 1), 3), Element(0, (0, top, top - 1), -4),
            Element(0, (1, 1, top), 5)]


UNARY_TRANSFORMS = ([IndexTransform.keep(), IndexTransform.increment_last()]
                    + [IndexTransform.drop(p) for p in range(3)]
                    + [IndexTransform.truncate_to(k) for k in range(4)])


@pytest.mark.parametrize("top", TOPS)
@pytest.mark.parametrize("transform", UNARY_TRANSFORMS,
                         ids=lambda t: f"{t.kind.name.lower()}-{t.position}-{t.count}")
def test_arity_three_transforms(top, transform):
    program = one_step(3, Operation.NEGATE, transform, arity_three(top))
    expected = agreed(program)
    if transform.kind.name == "TRUNCATE" and transform.count == 0:
        assert expected == (DuplicateOutputError, "result indices () produced twice")
    else:
        assert sorted(expected[0]) == sorted(apply_transform(transform, e.indices)[0]
                                             for e in arity_three(top))


@pytest.mark.parametrize("top", TOPS)
@pytest.mark.parametrize("position", range(4))
def test_replicate_at_every_position(top, position):
    program = one_step(3, Operation.REPLICATE, IndexTransform.insert_varied(position, 3),
                       arity_three(top), parameters=(3,))
    outputs, processed = agreed(program)
    assert processed == 3 + 9
    assert sorted(outputs) == sorted(e.indices[:position] + (j,) + e.indices[position:]
                                     for e in arity_three(top) for j in range(3))


@pytest.mark.parametrize("top", TOPS)
def test_join_on_large_indices(top):
    """A MulPair that increments the last index, over index lists that
    match only in full."""
    program = Program(
        relations=[Relation((0, 2), Operation.MUL_PAIR, (), 1,
                            IndexTransform.increment_last()),
                   Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())],
        initial_elements=arity_three(top) + [Element(2, (top, 0, 1), 7),
                                             Element(2, (1, 1, top), 2)],
        arities={0: 3, 1: 3, 2: 3},
        result_identifier=1,
    )
    text = f"quiescent with 1 unmatched operand(s), first id0(0,{top},{top - 1}) = -4"
    assert agreed(program) == (JoinDeadlockError, text)
    execution = Execution(program)
    with pytest.raises(JoinDeadlockError):
        execution.run()
    assert execution.outputs == {(top, 0, 2): 21, (1, 1, top + 1): 10}


def test_arity_zero():
    joined = Program(
        relations=[Relation((0,), Operation.REPLICATE, (3,), 1,
                            IndexTransform.insert_varied(0, 3)),
                   Relation((0, 2), Operation.MUL_PAIR, (), 3, IndexTransform.keep()),
                   Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())],
        initial_elements=[Element(0, (), 6), Element(2, (), 7)],
        arities={0: 0, 1: 1, 2: 0, 3: 0},
        result_identifier=1,
    )
    assert agreed(joined) == ({(0,): 6, (1,): 6, (2,): 6}, 6)
    negated = one_step(0, Operation.NEGATE, IndexTransform.keep(), [Element(0, (), 6)])
    assert agreed(negated) == ({(): -6}, 2)


@pytest.mark.parametrize("top", TOPS)
def test_increment_last_to_its_bound(top):
    """Two IncrementLasts in a row take an index to top + 2, the largest
    index the program can reach."""
    program = Program(
        relations=[Relation((0,), Operation.NEGATE, (), 1, IndexTransform.increment_last()),
                   Relation((1,), Operation.SQUARE, (), 2, IndexTransform.increment_last()),
                   Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
        initial_elements=[Element(0, (top, top), 3), Element(0, (0, top - 1), 2)],
        arities={0: 2, 1: 2, 2: 2},
        result_identifier=2,
    )
    assert agreed(program) == ({(top, top + 2): 9, (0, top + 1): 4}, 6)


def running_sums(top):
    """SumStep seeds below, at and past the limit 3, partners at top."""
    return Program(
        relations=[Relation((0, 1), Operation.SUM_STEP, (3, 2), 0,
                            IndexTransform.increment_last()),
                   Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
        initial_elements=[Element(0, (top, 2), 10), Element(1, (top, 2), 1),
                          Element(0, (0, 3), 20), Element(1, (0, 3), 2),
                          Element(1, (0, 4), 3),
                          Element(0, (1, top), 30), Element(1, (1, top), 4)],
        arities={0: 2, 1: 2, 2: 1},
        result_identifier=2,
    )


@pytest.mark.parametrize("top", TOPS)
def test_sum_step_seeds_at_and_past_the_limit(top):
    program = running_sums(top)
    # (top, 2) + 1 reaches the limit and is summed into (top,); the seed
    # at the limit runs on to (0, 5), the one past it to (1, top + 1),
    # and both wait there for a partner
    text = "quiescent with 2 unmatched operand(s), first id0(0,5) = 25"
    assert agreed(program) == (JoinDeadlockError, text)
    execution = Execution(program)
    with pytest.raises(JoinDeadlockError):
        execution.run()
    assert execution.outputs == {(top,): 11}
    assert execution.partials == (Element(0, (0, 5), 25), Element(0, (1, top + 1), 34))


def increment_cycle(replicated=True):
    """Identifier 0 increments its last index forever, and unless not
    replicated each element is replicated at the end into identifier 1,
    which is sunk. An index past the radix would carry into the first."""
    replicate = [Relation((0,), Operation.REPLICATE, (2,), 1,
                          IndexTransform.insert_varied(2, 2)),
                 Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())]
    return Program(
        relations=[Relation((0,), Operation.NEGATE, (), 0, IndexTransform.increment_last())]
        + (replicate if replicated else []),
        initial_elements=[Element(0, (3, 7), 1)],
        arities={0: 2, 1: 3},
        result_identifier=1,
    )


@pytest.mark.parametrize("replicated", [True, False], ids=["replicated", "alone"])
@pytest.mark.parametrize("budget", [0, 1, 50, 301])
def test_increment_cycle_stops_at_the_budget(budget, replicated):
    program = increment_cycle(replicated)
    execution = Execution(program, max_steps=budget)
    with pytest.raises(SimulationLimitError, match=rf"^exceeded {budget} steps$"):
        execution.run()
    state = drive(program, steps=budget)
    assert execution.elements_processed == budget
    assert execution.queue == state.queue
    outputs = {e.indices: e.value for e in state.popped if e.identifier == 1}
    assert execution.outputs == outputs
    with pytest.raises(SimulationLimitError, match=rf"^exceeded {budget} events$"):
        simulate(program, MachineConfig(workers=2), max_events=budget)


def test_increment_cycle_under_a_huge_budget():
    """A budget of 10**18 makes keys of many int digits; a few steps decode
    as the reference's."""
    program = increment_cycle()
    execution = Execution(program, max_steps=10 ** 18)
    for _ in range(40):
        execution.step()
    state = drive(program, steps=40)
    assert execution.queue == state.queue
    assert execution.outputs == {e.indices: e.value for e in state.popped
                                 if e.identifier == 1}


@pytest.mark.parametrize("top", TOPS)
def test_duplicate_texts_name_index_tuples(top):
    operand = Program(
        relations=[Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep())],
        initial_elements=[Element(0, (top, 7), 1), Element(0, (top, 7), 2)],
        arities={0: 2, 1: 2, 2: 2},
        result_identifier=2,
    )
    assert agreed(operand) == (
        DuplicateOperandError, f"two elements for slot 0 of relation 0 at indices ({top}, 7)")
    output = one_step(2, Operation.NEGATE, IndexTransform.drop(0),
                      [Element(0, (5, top), 1), Element(0, (6, top), 2)])
    assert agreed(output) == (DuplicateOutputError, f"result indices ({top},) produced twice")


def parked_program(top):
    """Two joins whose operands park out of index order, and stay parked."""
    return Program(
        relations=[Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
                   Relation((1, 3), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
                   Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
        initial_elements=[Element(1, (2, 0), 1), Element(0, (1, top), 2),
                          Element(0, (1, 3), 3), Element(3, (0, top), 4),
                          Element(0, (2, 0), 5), Element(3, (1, 3), 6)],
        arities={0: 2, 1: 2, 2: 2, 3: 2},
        result_identifier=2,
    )


@pytest.mark.parametrize("top", TOPS)
def test_queue_partials_and_deadlock_in_index_order(top):
    program = parked_program(top)
    execution = Execution(program)
    for steps in range(1, 8):
        execution.step()
        state = drive(program, steps=steps)
        assert execution.queue == state.queue
        assert execution.partials == state.parked
        assert all(type(e) is Element and type(e.indices) is tuple
                   for e in execution.queue + execution.partials)
    # relation 0's parked operands, then relation 1's, each in index order
    assert execution.partials == (Element(0, (1, 3), 3), Element(0, (1, top), 2),
                                  Element(3, (0, top), 4), Element(3, (1, 3), 6),
                                  Element(1, (2, 0), 1))
    assert execution.outputs == {(2, 0): 5}
    text = "quiescent with 5 unmatched operand(s), first id0(1,3) = 3"
    assert agreed(program) == (JoinDeadlockError, text)


@pytest.mark.parametrize("steps", [0, 1, 7, 40])
def test_step_then_run(steps):
    program = build_matmul_program(3, 2)
    execution = Execution(program)
    for _ in range(steps):
        execution.step()
    state = drive(program, steps=steps)
    assert execution.queue == state.queue and execution.partials == state.parked
    assert execution.run() == run(program)


@pytest.mark.parametrize("top", TOPS)
def test_traced_payloads_hold_index_tuples(top):
    program = one_step(1, Operation.REPLICATE, IndexTransform.insert_varied(1, 2),
                       [Element(0, (top,), 9)], parameters=(2,))
    events = []
    run(program, on_event=events.append)
    shown = [(event[0],) + event[1:] for event in events if event[0] != "apply"]
    assert shown == [
        ("pop", Element(0, (top,), 9)),
        ("create", Element(1, (top, 0), 9)),
        ("create", Element(1, (top, 1), 9)),
        ("pop", Element(1, (top, 0), 9)),
        ("output", (top, 0), 9),
        ("pop", Element(1, (top, 1), 9)),
        ("output", (top, 1), 9),
    ]
    for event in events:
        for part in event[1:]:
            for element in part if type(part) is tuple and event[0] == "apply" else [part]:
                if type(element) is Element:
                    assert type(element.indices) is tuple


# -- the radix ----------------------------------------------------------

def radix(program, budget=DEFAULT_STEP_LIMIT):
    return program._initial(budget)[1][1]


@pytest.mark.parametrize("n", [1, 5, 15, 16, 48])
def test_radix_of_matmul(n):
    """The running sum's index reaches n before it hands its total on, so
    the radix is n + 1, or 17 below the build's guess of 15."""
    program = build_matmul_program(n, 0)
    assert radix(program) == max(n, 16) + 1
    assert program._keys[0] == (0, 0, program.initial_elements[0].value)


def all_indices(program):
    """Every index of every element a FIFO reference run makes."""
    seen = [i for e in program.initial_elements for i in e.indices]

    def apply(relation, operands):
        created = apply_relation(relation, operands)
        seen.extend(i for e in created for i in e.indices)
        return created

    try:
        run_reference(program, apply)
    except ElementModelError:
        pass
    return seen


@settings(max_examples=200, deadline=None, database=None)
@given(generated_programs())
def test_radix_exceeds_every_index(program):
    assert max(all_indices(program), default=0) < radix(program)


@pytest.mark.parametrize("make", [
    lambda top: one_step(3, Operation.NEGATE, IndexTransform.increment_last(),
                         arity_three(top)),
    running_sums,
    parked_program,
], ids=["increment", "running-sums", "parked"])
@pytest.mark.parametrize("top", TOPS)
def test_radix_exceeds_every_index_at_large_tops(make, top):
    program = make(top)
    assert max(all_indices(program)) < radix(program) <= max(top, 15) + 3


def test_radix_is_tight_at_the_bound():
    """An index at the radix less one: an initial index of 30 passes the
    build's guess, and the chain of two IncrementLasts takes it to 32."""
    program = Program(
        relations=[Relation((0,), Operation.NEGATE, (), 1, IndexTransform.increment_last()),
                   Relation((1,), Operation.NEGATE, (), 2, IndexTransform.increment_last()),
                   Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
        initial_elements=[Element(0, (4, 30), 1)],
        arities={0: 2, 1: 2, 2: 2},
        result_identifier=2,
    )
    assert radix(program) == 33
    assert run(program).outputs == {(4, 32): 1}


def test_unbounded_program_takes_its_radix_from_the_budget():
    """An IncrementLast cycle has no static bound: its keys are packed per
    run, in radix reach + budget + 2, reach being the larger of its
    largest initial index and the build's guess, 15 here."""
    program = increment_cycle()
    assert program._keys is None
    for budget in (0, 10, 10 ** 18):
        queue, places = program._initial(budget)
        assert places[1] == 15 + budget + 2
        assert tuple(queue) == ((0, 3 * places[1] + 7, 1),)
        assert program._stores() == {rid: {} for rid in program._binary}
    assert Execution(program, max_steps=10)._radix == 27
    wide = Program(program.relations, [Element(0, (40, 0), 1)], program.arities, 1)
    assert wide._initial(10)[1][1] == 40 + 10 + 2


def test_powers_stop_at_the_widest_input_that_makes_an_element():
    """A sink makes no element and names no power, so a program whose one
    relation sinks identifiers of arity 3,000 keeps the radix and 1 only:
    it held 3,002 powers, whose bits grow with the square of the arity."""
    wide = (0,) * 2999 + (7,)
    program = Program(
        relations=[Relation((0,), Operation.SINK, (), 0, IndexTransform.keep())],
        initial_elements=[Element(0, wide, 5)],
        arities={0: 3000},
        result_identifier=0,
    )
    assert len(program._places) == 2
    assert program._places == [1, radix(program)]
    assert run(program).outputs == {wide: 5}
    assert simulate(program, MachineConfig(workers=2)).outputs == {wide: 5}
    # matmul's Replicates read arity 2 and its joins arity 3: powers 0 to 4
    assert len(build_matmul_program(3, seed=0)._places) == 5


@pytest.mark.parametrize("top", [5, 30, 10 ** 6])
def test_chain_listed_in_reverse_gets_the_same_radix(top):
    """The chain of test_radix_is_tight_at_the_bound listed last relation
    first: no identifier feeds itself, but the relations are out of
    order, so the rises take more than one pass to settle."""
    relations = [
        Relation((0,), Operation.NEGATE, (), 1, IndexTransform.increment_last()),
        Relation((1,), Operation.NEGATE, (), 2, IndexTransform.increment_last()),
        Relation((2,), Operation.SINK, (), 2, IndexTransform.keep()),
    ]
    in_order, reversed_ = (Program(rels, [Element(0, (4, top), 1)], {0: 2, 1: 2, 2: 2}, 2)
                           for rels in (relations, relations[::-1]))
    assert radix(reversed_) == radix(in_order) == max(top, 15) + 3
    assert agreed(reversed_) == agreed(in_order) == ({(4, top + 2): 1}, 3)


@pytest.mark.parametrize("chain_first", [True, False], ids=["chain-first", "chain-last"])
def test_sum_step_result_rises_in_the_walk(chain_first):
    """A SumStep result that goes on to rise: 0 and 1 at (15, 18) are
    negated into 2 and 3 at (15, 19), whose sum, the last index at the
    limit 20, hands its result to 4 at (15,); the chain 4 -> 5 -> 6 -> 7
    takes that to (18,). The result's rise is its inputs' rise, 1, which
    the chain raises to 4 at 7: radix 15 + 4 + 1, plus 3 for the initial
    index 18 past the guess. Listed first, the chain reads 4 before the
    SumStep makes it, so the walk takes more than one pass."""
    def negate(source, target):
        return Relation((source,), Operation.NEGATE, (), target,
                        IndexTransform.increment_last())

    head = [negate(0, 2), negate(1, 3),
            Relation((2, 3), Operation.SUM_STEP, (20, 4), 8,
                     IndexTransform.increment_last())]
    chain = [negate(4, 5), negate(5, 6), negate(6, 7),
             Relation((7,), Operation.SINK, (), 7, IndexTransform.keep())]
    program = Program(
        relations=chain + head if chain_first else head + chain,
        initial_elements=[Element(0, (15, 18), 1), Element(1, (15, 18), 2)],
        arities={0: 2, 1: 2, 2: 2, 3: 2, 8: 2, 4: 1, 5: 1, 6: 1, 7: 1},
        result_identifier=7,
    )
    assert radix(program) == 23
    assert agreed(program) == ({(18,): 3}, 8)


def test_increment_then_drop_packs_per_run():
    """A cycle that increments an index and then drops it: 0 (i, j) makes
    1 (i, j + 1), which makes 2 (i,), which is replicated back into 0 as
    (i, 0) and (i, 1). Its indices stay below 4, but one rise per
    identifier cannot see that the increment is dropped, so the program
    packs per run; it runs as the reference does until the budget."""
    program = Program(
        relations=[Relation((0,), Operation.NEGATE, (), 1, IndexTransform.increment_last()),
                   Relation((1,), Operation.NEGATE, (), 2, IndexTransform.drop(1)),
                   Relation((2,), Operation.REPLICATE, (2,), 0,
                            IndexTransform.insert_varied(1, 2))],
        initial_elements=[Element(0, (3, 1), 1)],
        arities={0: 2, 1: 2, 2: 1},
        result_identifier=2,
    )
    assert program._keys is None
    for name, execute in executors(20).items():
        unit = "events" if name.startswith("simulate") else "steps"
        with pytest.raises(SimulationLimitError, match=rf"^exceeded 20 {unit}$"):
            execute(program)
    execution = Execution(program, max_steps=20)
    with pytest.raises(SimulationLimitError):
        execution.run()
    assert execution.queue == drive(program, steps=20).queue


def test_cycle_that_ends_under_the_budget_radix():
    """A SumStep whose partner, 1, is the Square of its own running sum,
    0: 2, then 2 + 4 = 6, 6 + 36 = 42 and 42 + 1764 = 1806 at the limit
    3. The cycle ends, but it runs through an increment, so no rise
    bounds it and only each run's budget bounds its indices."""
    program = Program(
        relations=[Relation((0, 1), Operation.SUM_STEP, (3, 2), 0,
                            IndexTransform.increment_last()),
                   Relation((0,), Operation.SQUARE, (), 1, IndexTransform.keep()),
                   Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
        initial_elements=[Element(0, (5, 0), 2)],
        arities={0: 2, 1: 2, 2: 1},
        result_identifier=2,
    )
    assert program._keys is None
    assert agreed(program) == ({(5,): 1806}, 7)
