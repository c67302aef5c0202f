"""The executors agree on random well-formed programs.

run() and step(), under FIFO and LIFO, traced and untraced, and a few
step() calls followed by run() are checked against the reference loop
in reference.py, their queue peaks too, which the reference counts after
every element (also on hand-written programs whose peak one pop sets,
or cannot set); step() and a traced run() must also give run()'s whole
RunResult under the same discipline, or its error text; simulate() is
checked against run() at every worker count and dispatch policy, on
outputs, elements processed and error text, and its totals, which it
derives at quiescence, against counts taken from its on_event stream.
run()'s own on_event stream must account for its counters and outputs.
Where equal-time finishes may reorder the machine's queue, its overflow
text must be one of the first overflows the reference lists. A
deadlock gives one text on every executor, discipline, worker count,
dispatch policy and cost model.

Programs are drawn over NEGATE, SQUARE, REPLICATE, MUL_PAIR, SUM_STEP and
SINK with KEEP, DROP, TRUNCATE, INCREMENT_LAST and INSERT_VARIED
transforms, identifiers consumed by several relations, and identifiers
nothing consumes. Seed values range over all of int64, so some programs
overflow, and joins may lack a partner, so some deadlock.

Every outcome must be the same whatever order the elements are processed
in, or the executors could rightly differ. So the generator keeps
track of which identifiers can carry one index list twice (those made by
DROP or TRUNCATE, and what derives from them) and never feeds one into a
join or makes it the result: the only error that can then stop a run
early is an overflow, which any order reaches.
"""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aridem import (
    CostModel,
    Element,
    ElementModelError,
    Execution,
    IndexTransform,
    IntegerOverflowError,
    JoinDeadlockError,
    MachineConfig,
    Operation,
    Program,
    Relation,
    RelationStore,
    TransformKind,
    build_matmul_program,
    run,
    simulate,
    validate_metrics,
)
from aridem.core import INT64_MAX, INT64_MIN
from conftest import fanout_chain_program
from reference import apply_transform, first_overflows, run_reference

MAX_ARITY = 3
VALUES = st.one_of(st.integers(-9, 9), st.integers(INT64_MIN, INT64_MAX))


@st.composite
def programs(draw):
    arity = draw(st.integers(0, 2))
    dims = [draw(st.integers(1, 3)) for _ in range(arity)]
    initial = [Element(0, idx, draw(VALUES))
               for idx in itertools.product(*(range(d) for d in dims))]
    arities = {0: arity}
    index_lists = {0: [e.indices for e in initial]}
    distinct = [0]  # identifiers whose index lists never repeat
    store = RelationStore()

    def add(inputs, operation, parameters, transform, indices, clean):
        out = len(arities)
        store.add(Relation(inputs, operation, parameters, out, transform))
        # every output index list of one input list has the same arity
        arities[out] = len(apply_transform(transform, (0,) * arities[inputs[0]])[0])
        index_lists[out] = indices
        if clean:
            distinct.append(out)
        return out

    def unary(src, operation, transform, clean):
        indices = [new for idx in index_lists[src]
                   for new in apply_transform(transform, idx)]
        parameters = (transform.count,) if operation is Operation.REPLICATE else ()
        return add((src,), operation, parameters, transform, indices, clean)

    def value_op():
        return draw(st.sampled_from((Operation.NEGATE, Operation.SQUARE)))

    for _ in range(draw(st.integers(1, 7))):
        shape = draw(st.sampled_from(
            ("map", "replicate", "collapse", "join", "sum", "chain")))
        src = draw(st.sampled_from(distinct))
        a = arities[src]
        if shape == "replicate" and a < MAX_ARITY:
            position = draw(st.integers(0, a))
            count = draw(st.integers(1, 3))
            unary(src, Operation.REPLICATE,
                  IndexTransform.insert_varied(position, count), True)
        elif shape == "collapse" and any(arities.values()):
            # any identifier may collapse; the output can repeat index lists
            src = draw(st.sampled_from([i for i, n in arities.items() if n]))
            k = draw(st.integers(0, arities[src] - 1))
            transform = draw(st.sampled_from(
                (IndexTransform.drop(k), IndexTransform.truncate_to(k))))
            out = unary(src, value_op(), transform, False)
            if draw(st.booleans()):
                store.add(Relation((out,), Operation.SINK, (), out,
                                   IndexTransform.keep()))
        elif shape == "join":
            partners = [d for d in distinct if d != src and arities[d] == a]
            if partners and draw(st.booleans()):
                right = draw(st.sampled_from(partners))
            else:
                src, right = (unary(src, value_op(), IndexTransform.keep(), True)
                              for _ in range(2))
            transform = draw(st.sampled_from(
                [IndexTransform.keep()]
                + ([IndexTransform.increment_last(), IndexTransform.drop(a - 1),
                    IndexTransform.truncate_to(0)] if a else [])))
            matched = sorted(set(index_lists[src]) & set(index_lists[right]))
            indices = [apply_transform(transform, idx)[0] for idx in matched]
            add((src, right), Operation.MUL_PAIR, (), transform, indices,
                transform.kind in (TransformKind.KEEP, TransformKind.INCREMENT_LAST))
        elif shape == "sum" and a >= 1:
            # a fresh running sum, seeded at position 0 of every prefix the
            # operand stream has there, adds it up to limit into a result
            limit = draw(st.integers(1, 4))
            prefixes = sorted({idx[:-1] for idx in index_lists[src] if idx[-1] == 0})
            running = len(arities)
            arities[running] = a
            index_lists[running] = []
            initial += [Element(running, p + (0,), draw(VALUES)) for p in prefixes]
            present = set(index_lists[src])
            done = [p for p in prefixes
                    if all(p + (k,) in present for k in range(limit))]
            result = len(arities)
            arities[result] = a - 1
            index_lists[result] = done
            distinct.append(result)
            store.add(Relation((running, src), Operation.SUM_STEP, (limit, result),
                               running, IndexTransform.increment_last()))
        elif shape == "chain":
            unary(src, value_op(), IndexTransform.keep(), True)
        else:
            transform = (IndexTransform.increment_last()
                         if a and draw(st.booleans()) else IndexTransform.keep())
            unary(src, value_op(), transform, True)

    result = draw(st.sampled_from(distinct))
    store.add(Relation((result,), Operation.SINK, (), result, IndexTransform.keep()))
    # the first few identifiers get names, the rest show as id<n>
    named = draw(st.integers(0, len(arities)))
    return Program(relations=store, initial_elements=initial,
                   arities=arities, result_identifier=result,
                   names={ident: f"v{ident}" for ident in range(named)})


def outcome(execute, program, counters=("elements_processed",), text=False):
    """Outputs and counters, or the error class (and text, without the
    simulator's "machine " prefix on a deadlock)."""
    try:
        result = execute(program)
    except ElementModelError as error:
        if text:
            return type(error), str(error).removeprefix("machine ")
        return type(error)
    return (result.outputs,) + tuple(getattr(result, name) for name in counters)


def stepped(discipline, steps=None):
    """step() to quiescence, or steps times and then run(); run() also
    reports a join deadlock left by step()."""
    def execute(program):
        execution = Execution(program, discipline=discipline)
        for _ in itertools.repeat(None) if steps is None else range(steps):
            if not execution.step():
                break
        return execution.run()
    return execute


def traced(program):
    return run(program, on_event=lambda event: None)


def check_paths_agree(program, steps):
    totals = ("elements_processed", "elements_created")
    expected = outcome(run_reference, program, totals)
    for execute in (run, lambda p: run(p, discipline="lifo"),
                    stepped("fifo"), stepped("lifo"), traced):
        assert outcome(execute, program, totals) == expected
    # under one discipline the peaks are the same on every path too
    peaks = totals + ("max_queue_depth", "max_partial_depth")
    fifo = outcome(run, program, peaks)
    for execute in (stepped("fifo"), traced, stepped("fifo", steps)):
        assert outcome(execute, program, peaks) == fifo
    # and the queue peak is the one the reference counts, element by element
    for discipline in ("fifo", "lifo"):
        expected = outcome(partial(run_reference, discipline=discipline), program,
                           ("max_queue_depth",))
        for execute in (partial(run, discipline=discipline), stepped(discipline),
                        stepped(discipline, steps),
                        partial(run, discipline=discipline, on_event=lambda event: None)):
            assert outcome(execute, program, ("max_queue_depth",)) == expected


@settings(max_examples=150, deadline=None, database=None)
@given(programs(), st.integers(0, 6))
def test_engine_paths_agree_with_reference(program, steps):
    check_paths_agree(program, steps)


def _beside_join(relation, arity):
    """relation on id 0, making id 3 of arity arity, beside a MulPair of
    ids 0 and 1 into the sunk result 2. FIFO parks both 1s, then a
    Replicate of id 7 of count 2 leaves the queue below its initial 5, and
    each 0 then makes two elements: the second sets the queue's peak, 6."""
    return Program(
        relations=[Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
                   relation,
                   Relation((7,), Operation.REPLICATE, (2,), 8,
                            IndexTransform.insert_varied(0, 2)),
                   Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
        initial_elements=[Element(1, (0,), 2), Element(1, (1,), 3), Element(7, (), 4),
                          Element(0, (0,), 5), Element(0, (1,), 6)],
        arities={0: 1, 1: 1, 2: 1, 3: arity, 7: 0, 8: 1}, result_identifier=2)


def _replicate(count):
    return Relation((0,), Operation.REPLICATE, (count,), 3,
                    IndexTransform.insert_varied(1, count))


def _replicate_alone(count):
    """A Replicate of count on id 0 into the sunk result 3."""
    return Program(relations=[_replicate(count),
                              Relation((3,), Operation.SINK, (), 3, IndexTransform.keep())],
                   initial_elements=[Element(0, (i,), i) for i in range(3)],
                   arities={0: 1, 3: 2}, result_identifier=3)


# identifiers whose one pop can make two elements, and one whose pop
# cannot, each setting or keeping a queue peak that the reference counts
@pytest.mark.parametrize("program", [
    fanout_chain_program(2, 3),
    _beside_join(Relation((0,), Operation.NEGATE, (), 3, IndexTransform.keep()), 1),
    _replicate_alone(1),
    _replicate_alone(2),
    _beside_join(_replicate(1), 2),
], ids=["negate-and-square", "join-and-negate", "replicate-1-alone", "replicate-2-alone",
        "join-and-replicate-1"])
@pytest.mark.parametrize("steps", [0, 3])
def test_queue_peak_agrees_with_reference_by_hand(program, steps):
    check_paths_agree(program, steps)


@settings(max_examples=150, deadline=None, database=None)
@given(programs(), st.sampled_from(("fifo", "lifo")))
def test_step_and_trace_match_run_exactly(program, discipline):
    def exact(execute):
        try:
            return execute(program)
        except ElementModelError as error:
            return type(error), str(error)

    expected = exact(lambda p: run(p, discipline=discipline))
    assert exact(stepped(discipline)) == expected
    assert exact(lambda p: run(p, discipline=discipline,
                               on_event=lambda event: None)) == expected


ENGINE_EVENT_LENGTHS = {"pop": 2, "apply": 4, "create": 2, "output": 3}


def check_engine_events(program):
    """Run program with one events.append hook: every event is a tuple of
    a documented kind, one pop per element processed, one create per
    element created after the initial ones, and the output events rebuild
    outputs, also when the run raises."""
    events = []
    execution = Execution(program, on_event=events.append)
    try:
        execution.run()
    except ElementModelError:
        pass
    for event in events:
        assert type(event) is tuple and len(event) == ENGINE_EVENT_LENGTHS[event[0]]
    kinds = [event[0] for event in events]
    assert kinds.count("pop") == execution.elements_processed
    assert (kinds.count("create")
            == execution.elements_created - len(program.initial_elements))
    assert {e[1]: e[2] for e in events if e[0] == "output"} == execution.outputs
    assert kinds.count("output") == len(execution.outputs)


def test_engine_events_match_counters_on_matmul():
    check_engine_events(build_matmul_program(3, 0))


@settings(max_examples=150, deadline=None, database=None)
@given(programs())
def test_engine_events_match_counters(program):
    check_engine_events(program)


def audited(config, costs):
    """simulate() whose Metrics must validate, whose totals must match
    counts taken from its own on_event stream, and whose every dispatch
    must go where the policy says, given the idle workers rebuilt from the
    dispatch and finish events: the lowest idle worker under "idle", the
    first idle worker after the last pick, wrapping, under "roundrobin"."""
    def execute(program):
        events = []
        metrics = validate_metrics(simulate(program, config, costs,
                                            on_event=events.append))
        units, operands = [0] * config.workers, [0] * config.workers
        created = returns = 0
        idle = set(range(config.workers))
        last = config.workers - 1
        for event in events:
            if event[0] == "dispatch":
                w = event[2]
                after = [v for v in idle if v > last]
                if config.dispatch == "idle" or not after:
                    after = idle
                assert w == min(after), (event, sorted(idle), last)
                idle.remove(w)
                last = w
                units[w] += 1
                operands[w] += event[3]
            elif event[0] == "finish":
                idle.add(event[2])
            elif event[0] == "idle_state":
                assert event[3] == len(idle)
            elif event[0] == "arrival":
                created += event[3]
                returns += max(1, event[3])
        assert metrics.messages == sum(units) + returns
        assert metrics.elements_processed == len(program.initial_elements) + created
        assert metrics.per_worker_busy == [costs.t_proc * n for n in units]
        assert metrics.per_worker_processed == operands
        return metrics
    return execute


@settings(max_examples=150, deadline=None, database=None)
@given(programs())
def test_simulate_agrees_with_run(program):
    expected = outcome(run, program, text=True)
    overflowed = expected[0] is IntegerOverflowError
    if overflowed:
        overflows = first_overflows(program)
        assert expected[1] in overflows
    for workers in range(1, 9):
        # odd worker counts take the default costs, with their t_master = 0
        # ties; even ones charge the master
        costs = CostModel() if workers % 2 else CostModel(t_proc=3, t_master=2)
        for dispatch in ("idle", "roundrobin"):
            config = MachineConfig(workers=workers, dispatch=dispatch)
            # The machine pops elements in run()'s FIFO order, so it meets
            # the same first overflow, unless a tie hands an equal-time
            # finish to a lower worker (round-robin at t_master = 0): its
            # outputs then queue first, and it may meet another of the
            # first overflows.
            got = outcome(audited(config, costs), program, text=True)
            if overflowed and dispatch == "roundrobin" and not costs.t_master:
                assert got[0] is IntegerOverflowError and got[1] in overflows
            else:
                assert got == expected


def test_a_tie_can_meet_another_first_overflow():
    """Two running sums over a replicated stream each square past int64.
    Round-robin dispatch at t_master = 0 on 4 workers meets the second
    before the first, so the check above has a case that run()'s text
    alone would fail."""
    store = RelationStore()
    store.add(Relation((0,), Operation.REPLICATE, (2,), 1,
                       IndexTransform.insert_varied(0, 2)))
    store.add(Relation((2, 1), Operation.SUM_STEP, (3, 3), 2,
                       IndexTransform.increment_last()))
    store.add(Relation((3,), Operation.SQUARE, (), 4, IndexTransform.increment_last()))
    store.add(Relation((1,), Operation.SINK, (), 1, IndexTransform.keep()))
    program = Program(
        relations=store,
        initial_elements=[Element(0, (k,), 1) for k in range(3)]
        + [Element(2, (0, 0), 1 << 32), Element(2, (1, 0), 2 << 32)],
        arities={0: 1, 1: 2, 2: 2, 3: 1, 4: 1}, result_identifier=1)
    expected = outcome(run, program, text=True)
    config = MachineConfig(workers=4, dispatch="roundrobin")
    tie = outcome(audited(config, CostModel()), program, text=True)
    assert expected[0] is tie[0] is IntegerOverflowError
    assert tie != expected
    assert first_overflows(program) == {expected[1], tie[1]}


@settings(max_examples=300, deadline=None, database=None)
@given(programs())
def test_deadlock_text_is_the_same_everywhere(program):
    """Parked operands are named in (relation id, index list) order,
    which no processing order changes, so the text differs only by the
    simulator's "machine " prefix, round-robin at t_master = 0 included."""
    expected = outcome(run, program, text=True)
    if expected[0] is not JoinDeadlockError:
        return
    executors = [lambda p: run(p, discipline="lifo"), stepped("fifo"), stepped("lifo")]
    for workers, dispatch, costs in itertools.product(
            range(1, 9), ("idle", "roundrobin"),
            (CostModel(), CostModel(t_proc=3, t_master=2), CostModel(t_msg=0))):
        config = MachineConfig(workers=workers, dispatch=dispatch)
        executors.append(lambda p, config=config, costs=costs: simulate(p, config, costs))
    for execute in executors:
        assert outcome(execute, program, text=True) == expected


def parts_of(program):
    """program as plain nested tuples: each relation as its five fields,
    its transform as (kind, position, count), and arities and names as
    (identifier, arity) and (identifier, name) pairs."""
    relations = tuple(
        (rel.input_identifiers, rel.operation, rel.parameters, rel.output_identifier,
         (rel.index_transform.kind, rel.index_transform.position,
          rel.index_transform.count))
        for rel in program.relations)
    return (relations, program.initial_elements, tuple(program.arities.items()),
            program.result_identifier, tuple(program.names.items()))


def nodes(node, path=()):
    """Every part of node, node itself first, each with its path."""
    yield path, node
    if type(node) in (tuple, Element):
        for i, item in enumerate(node):
            yield from nodes(item, path + (i,))


def replaced(node, path, new):
    """node with its part at path replaced by new."""
    if not path:
        return new
    items = list(node)
    items[path[0]] = replaced(items[path[0]], path[1:], new)
    return Element._make(items) if type(node) is Element else tuple(items)


def corruptions(node):
    """node changed in its type, its sign or its container."""
    if type(node) is int:
        return [float(node), bool(node), str(node), None, -node - 1]
    if type(node) is str:
        return [len(node), None, node.encode()]
    if isinstance(node, (Operation, TransformKind)):
        other = TransformKind.KEEP if type(node) is Operation else Operation.NEGATE
        return [node.name, other, None]
    return [list(node), None] + ([tuple(node)] if type(node) is Element else [])


def build(parts):
    """The Program parts describe. Only a part left a tuple becomes a
    Relation or an IndexTransform; a part corrupted into something else
    goes in as it is, and the arity and name pairs go in as pairs."""
    relations, initial, arities, result, names = parts

    def relation(fields):
        if type(fields) is not tuple:
            return fields
        *fields, t = fields
        return Relation(*fields, IndexTransform(*t) if type(t) is tuple else t)

    if relations is not None:
        relations = [relation(fields) for fields in relations]
    return Program(relations, initial, arities, result, names)


@st.composite
def corrupted_parts(draw):
    """A generated program's parts with one of them corrupted."""
    parts = parts_of(draw(programs()))
    path, node = draw(st.sampled_from([(path, node) for path, node in nodes(parts)
                                       if path]))
    return replaced(parts, path, draw(st.sampled_from(corruptions(node))))


def test_corrupted_programs_fail_at_build_or_run_as_the_reference():
    """Corrupt one part of a valid program, its names included: a type, a
    sign or a container. Its build then raises an ElementModelError, or
    every executor runs it to the reference's outcome, with plain-int
    outputs, and every identifier can be described by its name. No bare
    exception either way. Both happen: a value may change
    sign, and a list may hold the relations or the initial elements."""
    seen = set()

    @settings(max_examples=250, deadline=None, database=None)
    @given(corrupted_parts())
    def check(parts):
        try:
            program = build(parts)
        except ElementModelError:
            seen.add("refused")
            return
        seen.add("built")
        for ident in program.arities:
            Element(ident, (0,), 0).describe(program.names)
        totals = ("elements_processed", "elements_created")
        expected = outcome(run_reference, program, totals)
        for execute in (run, lambda p: run(p, discipline="lifo"), stepped("fifo")):
            assert outcome(execute, program, totals) == expected
        for config in (MachineConfig(workers=1), MachineConfig(workers=3)):
            got = outcome(lambda p: simulate(p, config), program)
            assert got == (expected if isinstance(expected, type) else expected[:2])
        if not isinstance(expected, type):
            for indices, value in expected[0].items():
                assert type(value) is int and type(indices) is tuple
                assert all(type(i) is int for i in indices)

    check()
    assert seen == {"refused", "built"}


def test_generated_programs_reach_every_outcome():
    """The generator is not vacuous: it draws clean runs, overflows and
    deadlocks alike."""
    seen = set()

    @settings(max_examples=300, deadline=None, database=None)
    @given(programs())
    def collect(program):
        result = outcome(run, program)
        seen.add(result if isinstance(result, type) else "ok")

    collect()
    assert {"ok", IntegerOverflowError, JoinDeadlockError} <= seen
