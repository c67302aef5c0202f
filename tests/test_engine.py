import dataclasses
import gc
import inspect
import pickle
import re

import pytest

import aridem
from aridem import (
    DuplicateOperandError,
    DuplicateOutputError,
    Element,
    Execution,
    IndexTransform,
    IntegerOverflowError,
    JoinDeadlockError,
    MachineConfig,
    Matrix,
    Operation,
    Program,
    ProgramError,
    Relation,
    SimulationLimitError,
    build_matmul_program,
    build_negate_demo,
    build_square_demo,
    matmul_program,
    run,
    simulate,
)
from aridem import engine
from aridem.core import INT64_MIN
from conftest import fanout_chain_program, single_join_program


def tiny_program(initial, relations, arities, result=1, names=None):
    return Program(relations=relations, initial_elements=initial,
                   arities=arities, result_identifier=result, names=names or {})


class TestFrozenProgram:
    def test_assigning_any_field_raises(self):
        program = build_negate_demo()
        for name in ("relations", "initial_elements", "arities", "result_identifier",
                     "names", "_plans", "_binary", "_places", "_keys"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(program, name, getattr(program, name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(program, name)

    def test_unregistered_initial_element_cannot_be_swapped_in(self):
        program = build_negate_demo()
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.initial_elements = (Element(99, (), 1),)
        assert run(program).outputs == {(): -5}
        assert simulate(program, MachineConfig(workers=2)).outputs == {(): -5}

    def test_mappings_are_read_only_copies(self):
        arities = {0: 0, 1: 0}
        names = {1: "neg"}
        program = tiny_program(
            [Element(0, (), 5)],
            [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep()),
             Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())],
            arities, names=names)
        arities[1] = 3
        names[1] = "other"
        assert program.arities == {0: 0, 1: 0}
        assert program.identifier_name(1) == "neg"
        with pytest.raises(TypeError):
            program.arities[1] = 3
        with pytest.raises(TypeError):
            program.names[0] = "seed"

    def test_relations_added_to_the_store_later_are_not_seen(self):
        relations = [
            Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep()),
            Relation((1,), Operation.SINK, (), 1, IndexTransform.keep()),
        ]
        program = Program(relations=relations, initial_elements=[Element(0, (), 5)],
                          arities={0: 0, 1: 0}, result_identifier=1)
        relations.append(Relation((0,), Operation.SQUARE, (), 1, IndexTransform.keep()))
        assert len(program.relations) == 2
        assert run(program).outputs == {(): -5}

    def test_relations_are_frozen(self):
        program = build_negate_demo()
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.relations[1].output_identifier = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            program.relations[0].operation = Operation.SQUARE
        assert program.relations[1].output_identifier == 1
        assert run(pickle.loads(pickle.dumps(program))).outputs == {(): -5}

    def test_a_relation_id_is_its_position(self):
        # relation 1 of a built program, put in a new list, is relation 0 of
        # a program built from that list, and still relation 1 of its own,
        # through a pickle round trip too
        program = build_negate_demo()
        sink = program.relations[1]
        other = Program([sink], [Element(1, (), 4)], {1: 0}, 1)
        assert [plan[-1] for plan in other._plans[1]] == [0]
        for built in (program, pickle.loads(pickle.dumps(program))):
            assert built.relations[1] == sink
            assert [plan[-1] for plan in built._plans[0]] == [0]
            assert [plan[-1] for plan in built._plans[1]] == [1]
        assert run(other).outputs == {(): 4}
        assert run(program).outputs == {(): -5}

    def test_relations_may_come_in_any_iterable(self):
        loose = [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep()),
                 Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())]
        built = [Program(relations=relations, initial_elements=[Element(0, (), 5)],
                         arities={0: 0, 1: 0}, result_identifier=1)
                 for relations in (loose, tuple(loose), iter(loose))]
        for program in built:
            assert program == built[0]
            assert program.relations == tuple(loose)
            assert program._plans == built[0]._plans
            assert run(program).outputs == {(): -5}


class TestProgramValidation:
    def test_unregistered_relation_input(self):
        with pytest.raises(ProgramError, match=r"^relation 0 input 5 unregistered$"):
            tiny_program(
                [],
                [Relation((5,), Operation.NEGATE, (), 1, IndexTransform.keep())],
                {0: 0, 1: 0},
            )

    def test_unregistered_relation_output(self):
        with pytest.raises(ProgramError, match=r"^relation 0 output 5 unregistered$"):
            tiny_program(
                [],
                [Relation((0,), Operation.NEGATE, (), 5, IndexTransform.keep())],
                {0: 0, 1: 0},
            )

    def test_unregistered_result_identifier(self):
        with pytest.raises(ProgramError,
                           match=r"^result identifier has no registered arity$"):
            tiny_program([], [], {0: 0}, result=3)

    def test_transform_arity_mismatch(self):
        with pytest.raises(ProgramError,
                           match=r"^relation 0 produces arity 1 but 1 is registered at 2$"):
            tiny_program(
                [],
                [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.drop(0))],
                {0: 2, 1: 2},  # drop produces arity 1, id 1 registered at 2
            )

    def test_binary_inputs_must_share_arity(self):
        with pytest.raises(ProgramError, match=r"^relation 0 joins arities 2 and 1$"):
            tiny_program(
                [],
                [Relation((0, 2), Operation.MUL_PAIR, (), 1, IndexTransform.keep())],
                {0: 2, 1: 2, 2: 1},
            )

    def test_sum_step_result_arity(self):
        rel = Relation((0, 2), Operation.SUM_STEP, (3, 1),
                       0, IndexTransform.increment_last())
        with pytest.raises(ProgramError, match=r"^SumStep result arity must be one "
                                               r"less than its input$"):
            tiny_program([], [rel], {0: 2, 1: 2, 2: 2})  # result must be arity 1

    def test_sum_step_result_unregistered(self):
        rel = Relation((0, 2), Operation.SUM_STEP, (3, 9),
                       0, IndexTransform.increment_last())
        with pytest.raises(ProgramError,
                           match=r"^SumStep result identifier 9 unregistered$"):
            tiny_program([], [rel], {0: 2, 1: 1, 2: 2})

    @pytest.mark.parametrize("relations", [
        [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.increment_last())],
        [Relation((0, 2), Operation.SUM_STEP, (3, 1), 0, IndexTransform.increment_last())],
    ])
    def test_increment_last_needs_an_index(self, relations):
        # rejected when built, not with an IndexError in run()
        with pytest.raises(ProgramError, match=r"^IncrementLast needs at least one index$"):
            tiny_program([Element(0, (), 5)], relations, {0: 0, 1: 0, 2: 0})

    def test_initial_element_arity(self):
        with pytest.raises(ProgramError, match=r"^initial element Element\(identifier=0, "
                                               r"indices=\(1,\), value=5\) has arity 1, "
                                               r"expected 0$"):
            tiny_program([Element(0, (1,), 5)], [], {0: 0, 1: 0})

    def test_initial_element_value_range(self):
        with pytest.raises(ProgramError, match=r"^initial value 9223372036854775808 "
                                               r"outside 64-bit range$"):
            tiny_program([Element(0, (), 1 << 63)], [], {0: 0, 1: 0})

    def test_initial_element_negative_index(self):
        with pytest.raises(ProgramError, match=r"^initial indices must be non-negative$"):
            tiny_program([Element(0, (-1,), 5)], [], {0: 1, 1: 1})

    # Each of these built, and run() and simulate() then raised a bare
    # TypeError (indices in a list) or ran on it (2.5 ran to an output of
    # 10.0, True as 1, an index of 1.5 too), or the build raised a bare
    # TypeError or AttributeError; only the result identifier "2" was
    # refused, with the same text.
    @pytest.mark.parametrize("fields, message", [
        (dict(initial_elements=[Element(0, [1], 3)]),
         "initial element Element(identifier=0, indices=[1], value=3) must hold "
         "plain ints, its indices in a tuple"),
        *[(dict(initial_elements=[elem]),
           f"initial element {elem} must hold plain ints, its indices in a tuple")
          for elem in (Element(0, (1,), 2.5), Element(0, (1,), True),
                       Element(0, (1.5,), 3), Element(0, (True,), 3),
                       Element(1.0, (1,), 3), Element([0], (1,), 3), Element(0, None, 3),
                       Element(0, ("a",), 3), Element(0, (1,), "3"))],
        (dict(initial_elements=[(0, (1,), 3)]),
         "initial element (0, (1,), 3) is not an Element"),
        (dict(initial_elements=[[0, (1,), 3]]),
         "initial element [0, (1,), 3] is not an Element"),
        *[(dict(arities=arities), "arities must map plain ints to plain ints")
          for arities in ({0: 1, 1: 1, 2: "1"}, {0: 1, 1: 1, 2: 1.0},
                          {0: 1, 1: True, 2: 1}, {0: 1, 1: 1, 2: 1, "3": 0})],
        *[(dict(result_identifier=result), "result identifier has no registered arity")
          for result in (2.0, True, [2], "2")],
        (dict(relations=[("not", "a", "relation")]), "relation 0 is not a Relation"),
        (dict(relations=None), "cannot read the program's fields: "
         "'NoneType' object is not iterable"),
        (dict(initial_elements=5), "cannot read the program's fields: "
         "'int' object is not iterable"),
        (dict(arities=[0, 1]), "cannot read the program's fields: "
         "cannot convert dictionary update sequence element #0 to a sequence"),
        (dict(names=None), "cannot read the program's fields: "
         "'NoneType' object is not iterable"),
        # negative identifiers, which Relation refuses: each built, and
        # run() and simulate() ran on it
        (dict(relations=[], initial_elements=[Element(-1, (), 5)], arities={-1: 0},
              result_identifier=-1), "identifiers must be non-negative"),
        (dict(relations=[], initial_elements=[], arities={0: 0, -2: 1},
              result_identifier=0), "identifiers must be non-negative"),
        # names that are not strings: each built, and run() and simulate()
        # raised a bare TypeError as they named a parked operand
        *[(dict(initial_elements=[Element(0, (0,), 6)], names={0: name}),
           "names must be strings") for name in (5, None, b"x")],
        (dict(arities={0: 1, 1: 1, 2: 1, -2: 1}, names={0: 5}),
         "identifiers must be non-negative"),
    ])
    def test_malformed_parts_fail_at_build(self, fields, message):
        program = single_join_program([(6, 7)])
        parts = dict(relations=program.relations, initial_elements=program.initial_elements,
                     arities=program.arities, result_identifier=2, names={})
        parts.update(fields)
        with pytest.raises(ProgramError, match=f"^{re.escape(message)}$"):
            Program(**parts)

    # Each case has two or more faults (unregistered identifiers 5 and 7,
    # an arity of -1, a part that is not a plain int), and the message
    # names the one whose check fires first: arities, then the result
    # identifier, then each relation in rid order and each check of a
    # relation in turn, then each initial element and each check of an
    # element in turn, the plain-int checks last, and a negative
    # identifier last of all.
    @pytest.mark.parametrize("initial, relations, arities, result, message", [
        ([], [], {0: -1}, 3, "arities must be non-negative"),
        ([], [Relation((5,), Operation.NEGATE, (), 1, IndexTransform.keep())],
         {0: 0}, 3, "result identifier has no registered arity"),
        ([], [Relation((0, 2), Operation.MUL_PAIR, (), 5, IndexTransform.keep())],
         {0: 2, 1: 2, 2: 1}, 1, "relation 0 joins arities 2 and 1"),
        ([], [Relation((5, 7), Operation.MUL_PAIR, (), 1, IndexTransform.keep())],
         {0: 0, 1: 0}, 1, "relation 0 input 5 unregistered"),
        ([], [Relation((0,), Operation.NEGATE, (), 5, IndexTransform.keep()),
              Relation((7,), Operation.SINK, (), 7, IndexTransform.keep())],
         {0: 0, 1: 0}, 1, "relation 0 output 5 unregistered"),
        ([], [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep()),
              Relation((7,), Operation.SINK, (), 7, IndexTransform.keep()),
              Relation((0,), Operation.NEGATE, (), 5, IndexTransform.keep())],
         {0: 0, 1: 0}, 1, "relation 1 input 7 unregistered"),
        ([], [Relation((0, 2), Operation.SUM_STEP, (3, 9), 1,
                       IndexTransform.increment_last())],
         {0: 2, 1: 3, 2: 2}, 1, "relation 0 produces arity 2 but 1 is registered at 3"),
        ([Element(0, (0,), 5)],
         [Relation((5,), Operation.NEGATE, (), 1, IndexTransform.keep())],
         {0: 0, 1: 0}, 1, "relation 0 input 5 unregistered"),
        ([Element(0, (), 2.5), Element(7, (), 5)], [], {0: 0, 1: 0}, 1,
         "initial element Element(identifier=0, indices=(), value=2.5) must hold "
         "plain ints, its indices in a tuple"),
        ([Element(0, [-1], 1 << 63)], [], {0: 1, 1: 0}, 1,
         "initial value 9223372036854775808 outside 64-bit range"),
        ([], [Relation((5,), Operation.NEGATE, (), 1, IndexTransform.keep())],
         {0: -1, 1: 0.5}, 7, "arities must be non-negative"),
        ([Element(0, (-1,), 1 << 63), Element(7, (), 5)], [], {0: 0, 1: 0}, 1,
         "initial element Element(identifier=0, indices=(-1,), "
         "value=9223372036854775808) has arity 1, expected 0"),
        ([Element(0, (-1,), 1 << 63)], [], {0: 1, 1: 0}, 1,
         "initial value 9223372036854775808 outside 64-bit range"),
        ([], [], {-1: 0, 0: 0}, 5, "result identifier has no registered arity"),
        ([], [Relation((5,), Operation.NEGATE, (), 1, IndexTransform.keep())],
         {-1: 0, 0: 0, 1: 0}, 1, "relation 0 input 5 unregistered"),
        ([Element(-1, (), 5), Element(0, (1,), 5)], [], {-1: 0, 0: 0, 1: 0}, 1,
         "initial element Element(identifier=0, indices=(1,), value=5) has arity 1, "
         "expected 0"),
        ([Element(-1, (), 5)], [], {-1: 0, 0: 0, 1: 0, 2: 0.5}, 1,
         "arities must map plain ints to plain ints"),
        ([Element(7, (), 5), Element(0, (1,), 5)], [], {0: 0}, 0,
         "initial element identifier 7 unregistered"),
    ])
    def test_first_failing_check_names_the_error(self, initial, relations, arities,
                                                 result, message):
        with pytest.raises(ProgramError, match=f"^{re.escape(message)}$"):
            tiny_program(initial, relations, arities, result=result)


class TestDemos:
    def test_negate_run(self):
        result = run(build_negate_demo())
        assert result.outputs == {(): -5}
        assert result.elements_processed == 2
        assert result.elements_created == 2

    def test_square_run(self):
        result = run(build_square_demo())
        assert result.outputs == {(): 25}
        assert result.elements_processed == 2

    def test_negate_first_step(self):
        ex = Execution(build_negate_demo())
        assert ex.step() is True
        assert ex.elements_processed == 1
        assert list(ex.queue) == [Element(1, (), -5)]

    def test_step_on_empty_queue(self):
        ex = Execution(build_negate_demo())
        while ex.step():
            pass
        assert ex.step() is False
        assert ex.elements_processed == 2


class TestMatmulExamples:
    def test_n1_takes_seven_steps(self):
        program = matmul_program(Matrix.from_rows([[3]]), Matrix.from_rows([[4]]))
        ex = Execution(program)
        steps = 0
        while ex.step():
            steps += 1
        assert steps == 7
        assert ex.outputs == {(0, 0): 12}

    def test_n2_worked_example(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[5, 6], [7, 8]])
        result = run(matmul_program(a, b))
        assert result.outputs == {
            (0, 0): 19, (0, 1): 22,
            (1, 0): 43, (1, 1): 50,
        }
        assert result.elements_processed == 44


class TestQuiescence:
    def test_conservation(self):
        for program in (
            build_negate_demo(),
            build_square_demo(),
            single_join_program([(2, 3), (4, 5), (6, 7)]),
            fanout_chain_program(3, 4),
            matmul_program(Matrix.identity(3), Matrix.identity(3)),
        ):
            result = run(program)
            assert result.elements_processed == result.elements_created

    def test_lifo_matches_fifo_totals(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[5, 6], [7, 8]])
        fifo = run(matmul_program(a, b))
        lifo = run(matmul_program(a, b), discipline="lifo")
        assert lifo.outputs == fifo.outputs
        assert lifo.elements_processed == fifo.elements_processed
        assert lifo.elements_created == fifo.elements_created
        # only the peak depths are allowed to differ between disciplines

    def test_unknown_discipline(self):
        with pytest.raises(ValueError):
            Execution(build_negate_demo(), discipline="random")

    def test_elements_without_relations_are_discarded(self):
        result = run(fanout_chain_program(2, 3))
        # id 3 elements vanish without error and still count as processed
        assert result.elements_processed == result.elements_created
        assert result.outputs == {
            (i, j): -(3 + i * 3 + j) for i in range(2) for j in range(3)
        }


class TestStepRunEquivalence:
    @pytest.mark.parametrize("make", [
        lambda: matmul_program(Matrix.from_rows([[1, 2], [3, 4]]),
                               Matrix.from_rows([[5, 6], [7, 8]])),
        lambda: single_join_program([(2, 3), (5, 7), (1, 9)], left_first=False),
        lambda: fanout_chain_program(4, 5),
    ])
    def test_same_totals_and_depths(self, make):
        stepped = Execution(make())
        while stepped.step():
            pass
        fast = Execution(make())
        fast_result = fast.run()
        assert stepped.outputs == fast_result.outputs
        assert stepped.elements_processed == fast_result.elements_processed
        assert stepped.elements_created == fast_result.elements_created
        assert stepped.max_queue_depth == fast_result.max_queue_depth
        assert stepped.max_partial_depth == fast_result.max_partial_depth

    def test_mixed_stepping_then_run(self):
        program = single_join_program([(2, 3), (5, 7)])
        ex = Execution(program)
        ex.step()
        ex.step()
        result = ex.run()
        assert result.outputs == {(0,): 6, (1,): 35}
        assert result.elements_processed == result.elements_created == 6

    @pytest.mark.parametrize("steps", [1, 7, 20, 43, 44])
    @pytest.mark.parametrize("discipline", ["fifo", "lifo"])
    def test_steps_then_run_match_one_run(self, discipline, steps):
        program = matmul_program(Matrix.from_rows([[1, 2], [3, 4]]),
                                 Matrix.from_rows([[5, 6], [7, 8]]))
        whole = Execution(program, discipline).run()
        mixed = Execution(program, discipline)
        for _ in range(steps):
            assert mixed.step()
        result = mixed.run()
        assert result == whole
        assert mixed.max_partial_depth == whole.max_partial_depth

    def test_outputs_is_read_only(self):
        # step() and run() fill the one dict that run() returns
        ex = Execution(build_negate_demo())
        outputs = ex.outputs
        with pytest.raises(AttributeError):
            ex.outputs = 5
        assert ex.step() and ex.step()
        assert outputs == {(): -5}
        assert ex.run().outputs is outputs


class TestConfiguredOnce:
    """Every attribute of an Execution is read-only: the settings are
    fixed when the run is set up, and the counters are the run's alone."""

    NAMES = ["program", "on_event", "max_steps", "outputs", "elements_processed",
             "max_queue_depth", "max_partial_depth"]

    def test_no_public_instance_attribute(self):
        assert [k for k in vars(Execution(build_negate_demo())) if not k.startswith("_")] == []

    @pytest.mark.parametrize("name", NAMES)
    def test_assignment_is_refused_and_the_run_unchanged(self, name):
        # on the n = 3 matmul, max_queue_depth = None raised a bare
        # TypeError after 1 element, and max_partial_depth = None one after 19
        program = build_matmul_program(3, 0)
        ex = Execution(program)
        for value in (None, getattr(ex, name)):
            with pytest.raises(AttributeError):
                setattr(ex, name, value)
            assert ex.step()
        assert ex.run() == Execution(program).run()


class TestTrace:
    @pytest.mark.parametrize("execute", [Execution, run])
    def test_hook_is_keyword_only(self, execute):
        with pytest.raises(TypeError):
            execute(build_negate_demo(), "fifo", lambda event: None)

    def test_hook_assigned_after_construction(self):
        # on_event is fixed at construction; a hook that forwards its events
        # takes step()'s to one target and run()'s to another
        stepped, ran = [], []
        target = stepped.append
        ex = Execution(single_join_program([(2, 3)]), on_event=lambda event: target(event[0]))
        ex.step()
        ex.step()
        target = ran.append
        ex.run()
        assert stepped == ["pop", "pop", "apply", "create"]
        assert ran == ["pop", "apply", "output"]

    def test_event_order_for_negate(self):
        events = []
        run(build_negate_demo(), on_event=events.append)
        kinds = [e[0] for e in events]
        assert kinds == ["pop", "apply", "create", "pop", "apply", "output"]
        assert events[0][1] == Element(0, (), 5)
        assert events[2][1] == Element(1, (), -5)
        assert events[5][1:] == ((), -5)

    def test_replicate_creates_in_index_order(self):
        program = tiny_program(
            [Element(0, (5,), 7)],
            [Relation((0,), Operation.REPLICATE, (3,), 1,
                      IndexTransform.insert_varied(1, 3))],
            {0: 1, 1: 2},
        )
        events = []
        Execution(program, on_event=events.append).step()
        assert [e[1] for e in events if e[0] == "create"] == [
            Element(1, (5, 0), 7), Element(1, (5, 1), 7), Element(1, (5, 2), 7)]

    def test_join_operands_traced_left_then_right(self):
        # index (1,): the right operand arrives first
        program = single_join_program([(2, 3), (4, 5)], left_first=False)
        mul, sink = program.relations
        events = []
        run(program, on_event=events.append)
        l0, r0, l1, r1 = (Element(0, (0,), 2), Element(1, (0,), 3),
                          Element(0, (1,), 4), Element(1, (1,), 5))
        assert events == [
            ("pop", l0), ("pop", r0), ("apply", mul, (l0, r0), 0),
            ("create", Element(2, (0,), 6)),
            ("pop", r1), ("pop", l1), ("apply", mul, (l1, r1), 0),
            ("create", Element(2, (1,), 20)),
            ("pop", Element(2, (0,), 6)), ("apply", sink, Element(2, (0,), 6), 1),
            ("output", (0,), 6),
            ("pop", Element(2, (1,), 20)), ("apply", sink, Element(2, (1,), 20), 1),
            ("output", (1,), 20),
        ]


    def test_equal_relations_traced_apart_by_rid(self):
        # two equal Negate relations: each applies once, under its own rid
        negate = Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep())
        program = tiny_program([Element(0, (0,), 3)], [negate, negate],
                               {0: 1, 1: 1}, result=0)
        applied = []
        run(program, on_event=lambda event: event[0] == "apply" and applied.append(event[1:]))
        assert applied == [(negate, Element(0, (0,), 3), 0),
                           (negate, Element(0, (0,), 3), 1)]


class TestErrors:
    def test_join_deadlock(self):
        relations = [
            Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
            Relation((2,), Operation.SINK, (), 2, IndexTransform.keep()),
        ]
        program = Program(
            relations=relations,
            initial_elements=[Element(0, (0,), 3)],  # right operand never arrives
            arities={0: 1, 1: 1, 2: 1},
            result_identifier=2,
        )
        with pytest.raises(JoinDeadlockError):
            run(program)

    def test_join_deadlock_on_step_path(self):
        relations = [
            Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
        ]
        program = Program(
            relations=relations,
            initial_elements=[Element(0, (0,), 3)],
            arities={0: 1, 1: 1, 2: 1},
            result_identifier=2,
        )
        ex = Execution(program)
        while ex.step():
            pass
        with pytest.raises(JoinDeadlockError):
            ex.run()

    def _duplicate_operand_program(self):
        relations = [
            Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
            Relation((2,), Operation.SINK, (), 2, IndexTransform.keep()),
        ]
        return Program(
            relations=relations,
            initial_elements=[Element(0, (0,), 3), Element(0, (0,), 4)],
            arities={0: 1, 1: 1, 2: 1},
            result_identifier=2,
        )

    def test_duplicate_operand_fast_path(self):
        with pytest.raises(DuplicateOperandError):
            run(self._duplicate_operand_program())

    def test_duplicate_operand_step_path(self):
        ex = Execution(self._duplicate_operand_program())
        with pytest.raises(DuplicateOperandError):
            while ex.step():
                pass

    def _duplicate_output_program(self):
        # both initial elements collapse onto result indices ()
        relations = [
            Relation((0,), Operation.NEGATE, (), 1, IndexTransform.drop(0)),
            Relation((1,), Operation.SINK, (), 1, IndexTransform.keep()),
        ]
        return Program(
            relations=relations,
            initial_elements=[Element(0, (0,), 3), Element(0, (1,), 4)],
            arities={0: 1, 1: 0},
            result_identifier=1,
        )

    def test_duplicate_output_fast_path(self):
        with pytest.raises(DuplicateOutputError):
            run(self._duplicate_output_program())

    def test_duplicate_output_step_path(self):
        ex = Execution(self._duplicate_output_program())
        with pytest.raises(DuplicateOutputError):
            while ex.step():
                pass

    def test_overflow_propagates_from_fast_path(self):
        relations = [
            Relation((0,), Operation.SQUARE, (), 1, IndexTransform.keep()),
            Relation((1,), Operation.SINK, (), 1, IndexTransform.keep()),
        ]
        program = Program(
            relations=relations,
            initial_elements=[Element(0, (), 1 << 32)],
            arities={0: 0, 1: 0},
            result_identifier=1,
        )
        with pytest.raises(IntegerOverflowError):
            run(program)


class TestDepthTracking:
    def test_queue_depth_at_least_initial(self):
        program = matmul_program(Matrix.identity(4), Matrix.identity(4))
        result = run(program)
        assert result.max_queue_depth >= len(program.initial_elements)

    def test_partial_depth_bounded_for_matmul(self):
        for n in (1, 2, 3, 4):
            result = run(matmul_program(Matrix.identity(n), Matrix.identity(n)))
            assert 0 < result.max_partial_depth <= n ** 3 + n ** 2


def _collapsing_program(*values):
    """Every initial element negates onto result indices (), so the
    second result raises DuplicateOutputError."""
    return tiny_program(
        [Element(0, (i,), v) for i, v in enumerate(values)],
        [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.drop(0)),
         Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())],
        {0: 1, 1: 0},
    )


def _two_join_program(initial):
    """Two independent MulPair joins, (0, 1) -> 4 and (2, 3) -> 5."""
    return tiny_program(
        initial,
        [Relation((0, 1), Operation.MUL_PAIR, (), 4, IndexTransform.keep()),
         Relation((2, 3), Operation.MUL_PAIR, (), 5, IndexTransform.keep()),
         Relation((4,), Operation.SINK, (), 4, IndexTransform.keep())],
        {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1},
        result=4,
    )


class TestGcScope:
    @pytest.fixture(autouse=True)
    def restore_gc(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_gc_as_found(self, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        run(matmul_program(Matrix.identity(3), Matrix.identity(3)))
        assert gc.isenabled() is enabled

    def test_gc_restored_when_fast_path_raises(self):
        gc.enable()
        with pytest.raises(DuplicateOutputError):
            run(_collapsing_program(3, 4))
        assert gc.isenabled()

    def test_gc_restored_when_the_step_limit_raises(self):
        gc.enable()
        with pytest.raises(SimulationLimitError):
            run(_cyclic_program(), max_steps=10)
        assert gc.isenabled()

    def test_gc_off_inside_the_loop(self):
        seen = []
        gc.enable()
        run(build_negate_demo(), on_event=lambda event: seen.append(gc.isenabled()))
        assert seen and not any(seen)
        assert gc.isenabled()


class TestFastPathLeavesElements:
    def test_deadlock_on_created_operand_names_it(self):
        # the NEGATE output parks in the join and never meets a partner
        program = tiny_program(
            [Element(0, (0,), 3)],
            [Relation((0,), Operation.NEGATE, (), 2, IndexTransform.keep()),
             Relation((2, 1), Operation.MUL_PAIR, (), 3, IndexTransform.keep()),
             Relation((3,), Operation.SINK, (), 3, IndexTransform.keep())],
            {0: 1, 1: 1, 2: 1, 3: 1},
            result=3,
            names={2: "neg"},
        )
        ex = Execution(program)
        with pytest.raises(JoinDeadlockError, match=r"first neg\(0\) = -3"):
            ex.run()
        assert ex.partials == (Element(2, (0,), -3),)
        assert all(type(e) is Element for e in ex.partials)

    def test_queue_holds_elements_after_a_raise(self):
        program = _collapsing_program(3, 4, 5)
        stepped = Execution(program)
        with pytest.raises(DuplicateOutputError):
            while stepped.step():
                pass
        fast = Execution(program)
        with pytest.raises(DuplicateOutputError):
            fast.run()
        assert list(fast.queue) == list(stepped.queue) == [Element(1, (), -5)]
        assert all(type(e) is Element for e in fast.queue)
        assert fast.elements_processed == stepped.elements_processed == 5
        assert fast.elements_created == stepped.elements_created == 6

    def test_deadlock_reports_operands_in_relation_and_index_order(self):
        # id 2 arrives first but parks in the second join
        initial = [Element(2, (0,), 1), Element(0, (0,), 2), Element(2, (1,), 3)]
        for discipline in ("fifo", "lifo"):
            stepped = Execution(_two_join_program(initial), discipline)
            while stepped.step():
                pass
            with pytest.raises(JoinDeadlockError) as from_step:
                stepped.run()
            fast = Execution(_two_join_program(initial), discipline)
            with pytest.raises(JoinDeadlockError, match=r"^quiescent with 3 unmatched "
                               r"operand\(s\), first id0\(0\) = 2$") as from_run:
                fast.run()
            assert str(from_run.value) == str(from_step.value)
            assert fast.partials == stepped.partials == (
                initial[1], initial[0], initial[2])

    def test_operands_parked_by_step_sort_with_the_rest(self):
        # step() parks id 2 in the second join, then run() parks id 0 at
        # (1,) and at (0,) in the first
        initial = [Element(2, (0,), 1), Element(0, (1,), 2), Element(0, (0,), 3)]
        ex = Execution(_two_join_program(initial))
        ex.step()
        with pytest.raises(JoinDeadlockError, match=r"first id0\(0\) = 3"):
            ex.run()
        assert ex.partials == tuple(initial[::-1])


def _parking_cycle_program(initial):
    """NEGATE 0 -> 0 cycles forever beside a MulPair join (1, 2) -> 3."""
    return tiny_program(
        initial,
        [Relation((0,), Operation.NEGATE, (), 0, IndexTransform.keep()),
         Relation((1, 2), Operation.MUL_PAIR, (), 3, IndexTransform.keep()),
         Relation((3,), Operation.SINK, (), 3, IndexTransform.keep())],
        {0: 0, 1: 1, 2: 1, 3: 1},
        result=3,
    )


def _duplicate_then_park_program():
    """id 2 parks, id 0 parks, then a second id 0 at the same index is a
    duplicate, with one element still queued."""
    return _two_join_program(
        [Element(2, (0,), 1), Element(0, (0,), 2), Element(0, (0,), 3),
         Element(3, (0,), 5)])


class TestViewsAndReplay:
    # Arrival order differs from rid order and from index order.
    ARRIVALS = [Element(2, (1,), 1), Element(0, (1,), 2), Element(2, (0,), 3),
                Element(1, (9,), 7), Element(0, (0,), 4)]

    def test_pending_after_mixed_step_and_run(self):
        a = self.ARRIVALS
        ex = Execution(_two_join_program(a + [Element(3, (1,), 5)]))
        ex.step()
        assert ex.partials == tuple(a[:1])
        ex.step()
        ex.step()
        assert ex.partials == (a[1], a[2], a[0])
        with pytest.raises(JoinDeadlockError, match=r"^quiescent with 4 unmatched "
                           r"operand\(s\), first id0\(0\) = 4$"):
            ex.run()
        # id 3 at (1,) joined id 2 at (1,), the first to arrive
        assert ex.partials == (a[4], a[1], a[3], a[2])
        assert len(ex.partials) == 4
        assert ex.max_partial_depth == 5

    @pytest.mark.parametrize("path", ["run", "step"])
    def test_pending_after_a_duplicate_operand(self, path):
        ex = Execution(_duplicate_then_park_program())
        with pytest.raises(DuplicateOperandError):
            ex.run() if path == "run" else _step_all(ex)
        # the operand put back after the duplicate keeps its place
        assert ex.partials == (Element(0, (0,), 2), Element(2, (0,), 1))
        assert ex.elements_processed == 3

    @pytest.mark.parametrize("path", ["run", "step"])
    def test_pending_after_the_step_limit(self, path):
        initial = [Element(2, (1,), 5), Element(0, (), 1), Element(1, (0,), 6)]
        ex = Execution(_parking_cycle_program(initial), max_steps=10)
        with pytest.raises(SimulationLimitError):
            ex.run() if path == "run" else _step_all(ex)
        assert ex.partials == (Element(1, (0,), 6), Element(2, (1,), 5))

    def test_pending_lists_this_runs_operands_after_a_trace_hook_raises(self):
        # the hook fails on the pop of id 1, so id 0 stays parked beside id 2
        def hook(event):
            if event == ("pop", Element(1, (0,), 5)):
                raise RuntimeError("hook failed")

        initial = [Element(2, (0,), 1), Element(0, (0,), 6), Element(1, (0,), 5)]
        ex = Execution(_two_join_program(initial), on_event=hook)
        with pytest.raises(RuntimeError):
            ex.run()
        assert len(ex.partials) == 2
        assert ex.partials == (initial[1], initial[0])

    @pytest.mark.parametrize("program, error, max_steps", [
        (_collapsing_program(3, 4, 5), DuplicateOutputError, None),
        (_duplicate_then_park_program(), DuplicateOperandError, None),
        (_parking_cycle_program([Element(1, (0,), 1), Element(0, (), INT64_MIN)]),
         IntegerOverflowError, None),
        (_parking_cycle_program([Element(0, (), 1), Element(1, (0,), 1)]),
         SimulationLimitError, 7),
        (_two_join_program([Element(0, (0,), 1)]), JoinDeadlockError, None),
    ], ids=["output", "operand", "overflow", "limit", "deadlock"])
    @pytest.mark.parametrize("path", ["run", "step"])
    def test_created_count_after_a_raise(self, program, error, max_steps, path):
        creates = []
        ex = Execution(program, on_event=lambda event: creates.append(event[0] == "create"),
                       max_steps=max_steps or engine.DEFAULT_STEP_LIMIT)
        with pytest.raises(error):
            if path == "step":
                _step_all(ex)
            ex.run()
        assert ex.elements_created == len(program.initial_elements) + sum(creates)
        assert ex.elements_created == ex.elements_processed + len(ex.queue)

    @pytest.mark.parametrize("name", ["queue", "partials", "elements_created",
                                      "max_steps"])
    def test_views_are_read_only(self, name):
        ex = Execution(build_negate_demo())
        with pytest.raises(AttributeError):
            setattr(ex, name, getattr(ex, name))
        assert ex.queue == (Element(0, (), 5),)


class TestFifoMatmulDepths:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_closed_form_peaks_on_both_paths(self, n):
        program = matmul_program(Matrix.identity(n), Matrix.identity(n))
        fast = run(program)
        assert fast.max_queue_depth == 2 * n ** 3 + n ** 2
        assert fast.max_partial_depth == n ** 3 + n ** 2
        stepped = Execution(program)
        while stepped.step():
            pass
        assert stepped.max_queue_depth == fast.max_queue_depth
        assert stepped.max_partial_depth == fast.max_partial_depth


def _cyclic_program():
    """NEGATE 0 -> 0 on one seed: every element makes the next, forever."""
    return tiny_program(
        [Element(0, (), 1)],
        [Relation((0,), Operation.NEGATE, (), 0, IndexTransform.keep())],
        {0: 0},
        result=0,
    )


def _step_all(execution):
    while execution.step():
        pass


class TestStepBudget:
    def test_error_class_is_shared(self):
        assert aridem.SimulationLimitError is aridem.core.SimulationLimitError

    @pytest.mark.parametrize("execute", [
        lambda p: run(p, max_steps=10),
        lambda p: run(p, on_event=lambda event: None, max_steps=10),
        lambda p: _step_all(Execution(p, max_steps=10)),
        lambda p: simulate(p, MachineConfig(workers=2), max_events=10),
    ], ids=["run", "traced", "step", "simulate"])
    def test_cyclic_program_stops(self, execute):
        with pytest.raises(SimulationLimitError, match=r"^exceeded 10 (steps|events)$"):
            execute(_cyclic_program())

    @pytest.mark.parametrize("path", ["run", "step"])
    def test_state_after_the_limit(self, path):
        ex = Execution(_cyclic_program(), max_steps=10)
        with pytest.raises(SimulationLimitError):
            ex.run() if path == "run" else _step_all(ex)
        assert ex.elements_processed == 10
        assert ex.elements_created == 11
        assert list(ex.queue) == [Element(0, (), 1)]
        assert type(ex.queue[0]) is Element

    @pytest.mark.parametrize("on_event", [None, lambda event: None])
    def test_budget_is_inclusive(self, on_event):
        # the negate demo processes exactly two elements
        assert run(build_negate_demo(), on_event=on_event, max_steps=2).outputs == {(): -5}
        with pytest.raises(SimulationLimitError, match=r"^exceeded 1 steps$"):
            run(build_negate_demo(), on_event=on_event, max_steps=1)

    @pytest.mark.parametrize("budget", [2.5, True, False, "10", None, -1])
    @pytest.mark.parametrize("make", [
        lambda p, budget: Execution(p, max_steps=budget),
        lambda p, budget: run(p, max_steps=budget),
        lambda p, budget: run(p, on_event=lambda event: None, max_steps=budget),
    ], ids=["Execution", "run", "traced"])
    def test_budget_checked_when_the_run_is_set_up(self, make, budget):
        # 2.5 used to raise a bare TypeError mid-run, True ran one step
        # and -1 raised SimulationLimitError
        with pytest.raises(ValueError,
                           match=f"^max_steps must be a non-negative int, "
                                 f"not {re.escape(repr(budget))}$"):
            make(build_negate_demo(), budget)

    @pytest.mark.parametrize("program, name", [
        (None, "NoneType"), ("negate", "str"), (build_negate_demo().relations, "tuple"),
    ], ids=["none", "str", "relations"])
    @pytest.mark.parametrize("make", [
        lambda p: Execution(p),
        lambda p: run(p),
        lambda p: run(p, on_event=lambda event: None),
    ], ids=["Execution", "run", "traced"])
    def test_program_checked_when_the_run_is_set_up(self, make, program, name):
        # each raised a bare AttributeError
        with pytest.raises(ValueError, match=f"^program must be a Program, not {name}$"):
            make(program)

    @pytest.mark.parametrize("on_event, name", [
        (5, "int"), ("print", "str"), ([], "list"),
    ], ids=["int", "str", "list"])
    @pytest.mark.parametrize("make", [
        lambda p, on_event: Execution(p, on_event=on_event),
        lambda p, on_event: Execution(p, on_event=on_event).step(),
        lambda p, on_event: run(p, on_event=on_event),
    ], ids=["Execution", "step", "run"])
    def test_hook_checked_when_the_run_is_set_up(self, make, on_event, name):
        # each raised a bare TypeError, "object is not callable", at the
        # first event
        with pytest.raises(ValueError,
                           match=f"^on_event must be callable or None, not {name}$"):
            make(build_negate_demo(), on_event)

    def test_hook_checked_after_the_program(self):
        with pytest.raises(ValueError, match="^program must be a Program, not NoneType$"):
            Execution(None, on_event=5)

    def test_zero_budget_allowed(self):
        ex = Execution(build_negate_demo(), max_steps=0)
        with pytest.raises(SimulationLimitError, match=r"^exceeded 0 steps$"):
            ex.step()
        assert ex.elements_processed == 0

    def test_budget_is_read_only(self):
        ex = Execution(build_negate_demo(), max_steps=5)
        with pytest.raises(AttributeError):
            ex.max_steps = 2.5
        assert ex.max_steps == 5
        assert ex.run().outputs == {(): -5}

    def test_program_is_read_only(self):
        # a swapped program paired the old queue and plans with the new
        # program: run() and reading queue raised a bare KeyError
        ex = Execution(build_matmul_program(2, 0))
        with pytest.raises(AttributeError):
            ex.program = build_negate_demo()
        assert len(ex.program.relations) == 5
        assert len(ex.queue) == 12
        assert ex.run().outputs == run(build_matmul_program(2, 0)).outputs

    def test_steps_count_against_run(self):
        ex = Execution(_cyclic_program(), max_steps=5)
        ex.step()
        ex.step()
        with pytest.raises(SimulationLimitError, match=r"^exceeded 5 steps$"):
            ex.run()
        assert ex.elements_processed == 5


class TestCompiledOnce:
    def test_one_compile_serves_every_executor(self, monkeypatch):
        compiled = []
        original = engine._compile_plans

        def counting(program):
            compiled.append(program)
            return original(program)

        monkeypatch.setattr(engine, "_compile_plans", counting)
        program = matmul_program(Matrix.identity(2), Matrix.identity(2))
        assert len(compiled) == 1 and compiled[0] is program
        run(program)
        run(program, discipline="lifo", on_event=lambda event: None)
        Execution(program).step()
        simulate(program, MachineConfig(workers=3))
        assert len(compiled) == 1

    def test_loops_keep_no_cell_variables(self):
        """A closure in either loop, such as a comprehension on CPython
        3.11, makes the locals it reads cells: every element would then
        store and load them through the cell, hook or no hook."""
        assert Execution._drain.__code__.co_cellvars == ()
        assert aridem.machine._simulate.__code__.co_cellvars == ()

    @pytest.mark.parametrize("n, peaked", [(1, set()), (2, {"A", "B"}), (5, {"A", "B"})])
    def test_matmul_tests_the_queue_peak_on_a_and_b_only(self, n, peaked):
        # only the Replicates of A and B make more than one element a pop
        program = build_matmul_program(n, 0)
        assert {program.identifier_name(ident) for ident, plans in program._plans.items()
                if (engine._OP_PEAK,) in plans} == peaked

    def test_every_opcode_is_named_in_both_loops(self):
        """A code that a loop does not name falls into its Negate/Square
        else; a code that a comparison or an else serves is named in a
        comment there."""
        codes = [name for name in vars(engine) if name.startswith("_OP_")]
        assert len({getattr(engine, name) for name in codes}) == len(codes) == 7
        for loop in (Execution._drain, aridem.machine._simulate):
            source = inspect.getsource(loop)
            assert [name for name in codes if not re.search(rf"\b{name}\b", source)] == []

    def test_program_pickles(self):
        program = fanout_chain_program(2, 3)
        assert run(pickle.loads(pickle.dumps(program))) == run(program)

    def test_plans_follow_relation_order_for_every_input(self):
        program = tiny_program(
            [],
            [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep()),
             Relation((0,), Operation.SQUARE, (), 2, IndexTransform.keep()),
             Relation((1, 2), Operation.MUL_PAIR, (), 3, IndexTransform.keep())],
            {0: 0, 1: 0, 2: 0, 3: 0},
        )
        plans = program._plans
        # every plan ends with its relation's rid, its position; id 0, one
        # pop of which makes two elements, ends with the peak plan
        assert plans[0][-1] == (engine._OP_PEAK,)
        assert [plan[-1] for plan in plans[0][:-1]] == [0, 1]
        assert [plan[-1] for plan in plans[1]] == [2]
        assert [plan[-1] for plan in plans[2]] == [2]
        assert plans[3] == ()
        # the one join, by rid, and its slot count: 0, for a dict store
        assert program._binary == {2: 0}
