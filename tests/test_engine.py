import gc

import pytest

from aridem import (
    DuplicateOperandError,
    DuplicateOutputError,
    Element,
    Execution,
    IndexTransform,
    IntegerOverflowError,
    JoinDeadlockError,
    Matrix,
    Operation,
    Program,
    ProgramError,
    Relation,
    RelationStore,
    build_negate_demo,
    build_square_demo,
    matmul_program,
    run,
)
from conftest import fanout_chain_program, single_join_program


def tiny_program(initial, relations, arities, result=1):
    store = RelationStore()
    for rel in relations:
        store.add(rel)
    return Program(relations=store, initial_elements=initial,
                   arities=arities, result_identifier=result)


class TestProgramValidation:
    def test_unregistered_relation_input(self):
        with pytest.raises(ProgramError):
            tiny_program(
                [],
                [Relation((5,), Operation.NEGATE, (), 1, IndexTransform.keep())],
                {0: 0, 1: 0},
            )

    def test_unregistered_relation_output(self):
        with pytest.raises(ProgramError):
            tiny_program(
                [],
                [Relation((0,), Operation.NEGATE, (), 5, IndexTransform.keep())],
                {0: 0, 1: 0},
            )

    def test_unregistered_result_identifier(self):
        with pytest.raises(ProgramError):
            tiny_program([], [], {0: 0}, result=3)

    def test_transform_arity_mismatch(self):
        with pytest.raises(ProgramError):
            tiny_program(
                [],
                [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.drop(0))],
                {0: 2, 1: 2},  # drop produces arity 1, id 1 registered at 2
            )

    def test_binary_inputs_must_share_arity(self):
        with pytest.raises(ProgramError):
            tiny_program(
                [],
                [Relation((0, 2), Operation.MUL_PAIR, (), 1, IndexTransform.keep())],
                {0: 2, 1: 2, 2: 1},
            )

    def test_sum_step_result_arity(self):
        rel = Relation((0, 2), Operation.SUM_STEP, (3, 1),
                       0, IndexTransform.increment_last())
        with pytest.raises(ProgramError):
            tiny_program([], [rel], {0: 2, 1: 2, 2: 2})  # result must be arity 1

    def test_sum_step_result_unregistered(self):
        rel = Relation((0, 2), Operation.SUM_STEP, (3, 9),
                       0, IndexTransform.increment_last())
        with pytest.raises(ProgramError):
            tiny_program([], [rel], {0: 2, 1: 1, 2: 2})

    @pytest.mark.parametrize("relations", [
        [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.increment_last())],
        [Relation((0, 2), Operation.SUM_STEP, (3, 1), 0, IndexTransform.increment_last())],
    ])
    def test_increment_last_needs_an_index(self, relations):
        # rejected when built, not with an IndexError in run()
        with pytest.raises(ProgramError, match="IncrementLast needs at least one index"):
            tiny_program([Element(0, (), 5)], relations, {0: 0, 1: 0, 2: 0})

    def test_initial_element_arity(self):
        with pytest.raises(ProgramError):
            tiny_program([Element(0, (1,), 5)], [], {0: 0, 1: 0})

    def test_initial_element_value_range(self):
        with pytest.raises(ProgramError):
            tiny_program([Element(0, (), 1 << 63)], [], {0: 0, 1: 0})

    def test_initial_element_negative_index(self):
        with pytest.raises(ProgramError):
            tiny_program([Element(0, (-1,), 5)], [], {0: 1, 1: 1})


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
        assert stepped.partials.max_size == fast_result.max_partial_depth

    def test_mixed_stepping_then_run(self):
        program = single_join_program([(2, 3), (5, 7)])
        ex = Execution(program)
        ex.step()
        ex.step()
        result = ex.run()
        assert result.outputs == {(0,): 6, (1,): 35}
        assert result.elements_processed == result.elements_created == 6


class TestTrace:
    def test_event_order_for_negate(self):
        events = []
        run(build_negate_demo(), trace=lambda kind, *args: events.append((kind,) + args))
        kinds = [e[0] for e in events]
        assert kinds == ["pop", "apply", "create", "pop", "apply", "output"]
        assert events[0][1] == Element(0, (), 5)
        assert events[2][1] == Element(1, (), -5)
        assert events[5][1:] == ((), -5)


class TestErrors:
    def test_join_deadlock(self):
        store = RelationStore()
        store.add(Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()))
        store.add(Relation((2,), Operation.SINK, (), 2, IndexTransform.keep()))
        program = Program(
            relations=store,
            initial_elements=[Element(0, (0,), 3)],  # right operand never arrives
            arities={0: 1, 1: 1, 2: 1},
            result_identifier=2,
        )
        with pytest.raises(JoinDeadlockError):
            run(program)

    def test_join_deadlock_on_step_path(self):
        store = RelationStore()
        store.add(Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()))
        program = Program(
            relations=store,
            initial_elements=[Element(0, (0,), 3)],
            arities={0: 1, 1: 1, 2: 1},
            result_identifier=2,
        )
        ex = Execution(program)
        while ex.step():
            pass
        with pytest.raises(JoinDeadlockError):
            ex._finish()

    def _duplicate_operand_program(self):
        store = RelationStore()
        store.add(Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()))
        store.add(Relation((2,), Operation.SINK, (), 2, IndexTransform.keep()))
        return Program(
            relations=store,
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
        store = RelationStore()
        store.add(Relation((0,), Operation.NEGATE, (), 1, IndexTransform.drop(0)))
        store.add(Relation((1,), Operation.SINK, (), 1, IndexTransform.keep()))
        return Program(
            relations=store,
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
        store = RelationStore()
        store.add(Relation((0,), Operation.SQUARE, (), 1, IndexTransform.keep()))
        store.add(Relation((1,), Operation.SINK, (), 1, IndexTransform.keep()))
        program = Program(
            relations=store,
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

    def test_gc_off_inside_the_loop(self):
        seen = []

        class Outputs(dict):
            def __setitem__(self, key, value):
                seen.append(gc.isenabled())
                super().__setitem__(key, value)

        gc.enable()
        ex = Execution(build_negate_demo())
        ex.outputs = Outputs()
        ex.run()
        assert seen == [False]
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
        )
        program.names = {2: "neg"}
        ex = Execution(program)
        with pytest.raises(JoinDeadlockError, match=r"first neg\(0\) = -3"):
            ex.run()
        assert ex.partials.pending() == [Element(2, (0,), -3)]
        assert all(type(e) is Element for e in ex.partials.pending())

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

    def test_deadlock_reports_operands_in_arrival_order(self):
        initial = [Element(2, (0,), 1), Element(0, (0,), 2), Element(2, (1,), 3)]
        stepped = Execution(_two_join_program(initial))
        while stepped.step():
            pass
        with pytest.raises(JoinDeadlockError) as from_step:
            stepped._finish()
        fast = Execution(_two_join_program(initial))
        with pytest.raises(JoinDeadlockError) as from_run:
            fast.run()
        assert str(from_run.value) == str(from_step.value)
        assert fast.partials.pending() == stepped.partials.pending() == initial

    def test_operands_parked_by_step_stay_first(self):
        # id 2 parks in the second join before run() parks id 0 in the first
        initial = [Element(2, (0,), 1), Element(0, (0,), 2)]
        ex = Execution(_two_join_program(initial))
        ex.step()
        with pytest.raises(JoinDeadlockError, match=r"first id2\(0\) = 1"):
            ex.run()
        assert ex.partials.pending() == initial


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
        assert stepped.partials.max_size == fast.max_partial_depth
