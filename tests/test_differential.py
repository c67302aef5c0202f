"""The executors agree on random well-formed programs.

run() and step(), under FIFO and LIFO, traced and untraced, and a few
step() calls followed by run() are checked against a reference loop over
the public core.apply_relation and PartialStore.offer; step() and a
traced run() must also give run()'s whole RunResult under the same
discipline, or its error text; simulate() is
checked against run() at every worker count and dispatch policy, on
outputs, elements processed and error text, and its totals, which it
derives at quiescence, against counts taken from its on_event stream. A
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
from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from aridem import (
    CostModel,
    DuplicateOutputError,
    Element,
    ElementModelError,
    Execution,
    IndexTransform,
    IntegerOverflowError,
    JoinDeadlockError,
    MachineConfig,
    Operation,
    PartialStore,
    Program,
    Relation,
    RelationStore,
    TransformKind,
    apply_relation,
    run,
    simulate,
    validate_metrics,
)
from aridem.core import INT64_MAX, INT64_MIN

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
        arities[out] = transform.output_arity(arities[inputs[0]])
        index_lists[out] = indices
        if clean:
            distinct.append(out)
        return out

    def unary(src, operation, transform, clean):
        indices = [new for idx in index_lists[src] for new in transform.apply(idx)]
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
            indices = [transform.apply(idx)[0] for idx in matched]
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
    return Program(relations=store, initial_elements=initial,
                   arities=arities, result_identifier=result)


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


def reference(program):
    """FIFO deduction on the public primitives, one relation at a time."""
    consumers = {}
    for rel in program.relations:
        for ident in rel.input_identifiers:
            consumers.setdefault(ident, []).append(rel)
    queue = deque(program.initial_elements)
    partials, outputs = PartialStore(), {}
    processed, created = 0, len(queue)
    while queue:
        element = queue.popleft()
        processed += 1
        for rel in consumers.get(element.identifier, ()):
            operands = partials.offer(rel, element) if rel.is_binary() else element
            if operands is None:
                continue
            if rel.operation is not Operation.SINK:
                new = apply_relation(rel, operands)
                queue.extend(new)
                created += len(new)
            elif element.identifier == program.result_identifier:
                if element.indices in outputs:
                    raise DuplicateOutputError(f"{element.indices} produced twice")
                outputs[element.indices] = element.value
    if len(partials):
        raise JoinDeadlockError(f"{len(partials)} unmatched operand(s)")
    return SimpleNamespace(outputs=outputs, elements_processed=processed,
                           elements_created=created)


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
    return run(program, trace=lambda *event: None)


@settings(max_examples=150, deadline=None, database=None)
@given(programs(), st.integers(0, 6))
def test_engine_paths_agree_with_reference(program, steps):
    totals = ("elements_processed", "elements_created")
    expected = outcome(reference, program, totals)
    for execute in (run, lambda p: run(p, discipline="lifo"),
                    stepped("fifo"), stepped("lifo"), traced):
        assert outcome(execute, program, totals) == expected
    # under one discipline the peaks are the same on every path too
    peaks = totals + ("max_queue_depth", "max_partial_depth")
    fifo = outcome(run, program, peaks)
    for execute in (stepped("fifo"), traced, stepped("fifo", steps)):
        assert outcome(execute, program, peaks) == fifo


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
                               trace=lambda *event: None)) == expected


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
    expected_class = outcome(run, program)
    for workers in range(1, 9):
        # odd worker counts take the default costs, with their t_master = 0
        # ties; even ones charge the master
        costs = CostModel() if workers % 2 else CostModel(t_proc=3, t_master=2)
        for dispatch in ("idle", "roundrobin"):
            config = MachineConfig(workers=workers, dispatch=dispatch)
            # The machine pops elements in run()'s FIFO order, so it meets
            # the same first overflow, unless a tie hands an equal-time
            # finish to a lower worker (round-robin at t_master = 0): its
            # outputs then queue first.
            tie = dispatch == "roundrobin" and not costs.t_master
            if tie and expected_class is IntegerOverflowError:
                assert outcome(audited(config, costs), program) == expected_class
            else:
                assert outcome(audited(config, costs), program, text=True) == expected


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
