import gc
import re

import pytest

from aridem import (
    CostModel,
    DuplicateOperandError,
    DuplicateOutputError,
    Execution,
    IntegerOverflowError,
    JoinDeadlockError,
    MachineConfig,
    Matrix,
    Metrics,
    SimulationLimitError,
    build_matmul_program,
    build_negate_demo,
    matmul_element_count,
    matmul_program,
    run,
    simulate,
    validate_metrics,
    worker_busy_profile,
)
from aridem.core import (
    INT64_MAX,
    INT64_MIN,
    Element,
    IndexTransform,
    Operation,
    Relation,
    RelationStore,
)
from aridem.engine import Program
from aridem.machine import MAX_WORKERS
from conftest import single_join_program, uniform_unary_program

GRID = (1, 2, 4, 8, 16)


class TestConfigValidation:
    def test_workers_positive(self):
        with pytest.raises(ValueError, match="^workers must be a positive int, not 0$"):
            MachineConfig(workers=0)

    @pytest.mark.parametrize("workers", [2.0, True, False, "2", None])
    def test_workers_plain_int(self, workers):
        # a float count used to fail mid-run with a bare TypeError, and
        # True simulated one worker
        with pytest.raises(ValueError, match=f"^workers must be a positive int, "
                                             f"not {re.escape(repr(workers))}$"):
            MachineConfig(workers=workers)

    def test_workers_at_most_the_cap(self):
        # a billion workers ended a run in a bare MemoryError
        assert MachineConfig(workers=MAX_WORKERS).workers == MAX_WORKERS
        with pytest.raises(ValueError, match=f"^workers must be at most {MAX_WORKERS}, "
                                             f"not 1000000000$"):
            MachineConfig(workers=1_000_000_000)

    def test_dispatch_policy_names(self):
        with pytest.raises(ValueError):
            MachineConfig(workers=2, dispatch="fastest")

    def test_costs_non_negative(self):
        with pytest.raises(ValueError, match="^t_proc must be a non-negative int, not -1$"):
            CostModel(t_proc=-1)

    @pytest.mark.parametrize("name", ["t_proc", "t_msg", "t_master"])
    @pytest.mark.parametrize("value", [1.0, True, False, "1"])
    def test_costs_plain_int(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative int, "
                                             f"not {re.escape(repr(value))}$"):
            CostModel(**{name: value})

    def test_costs_not_all_zero(self):
        with pytest.raises(ValueError):
            CostModel(t_proc=0, t_msg=0, t_master=0)

    @pytest.mark.parametrize("budget", [2.5, True, False, "10", None, -1])
    def test_event_budget_checked_before_the_run(self, budget):
        # True and 2.5 used to run and stop with "exceeded True events",
        # and -1 with SimulationLimitError
        events = []
        with pytest.raises(ValueError,
                           match=f"^max_events must be a non-negative int, "
                                 f"not {re.escape(repr(budget))}$"):
            simulate(build_negate_demo(), MachineConfig(workers=1),
                     max_events=budget, on_event=events.append)
        assert events == []

    @pytest.mark.parametrize("args, text", [
        ((None, MachineConfig(workers=1)), "program must be a Program, not NoneType"),
        ((build_negate_demo(), 2), "machine must be a MachineConfig, not int"),
        ((build_negate_demo(), None), "machine must be a MachineConfig, not NoneType"),
        ((build_negate_demo(), MachineConfig(workers=1), (10, 10, 1)),
         "costs must be a CostModel, not tuple"),
        ((build_negate_demo(), MachineConfig(workers=1), None),
         "costs must be a CostModel, not NoneType"),
    ], ids=["program", "machine-int", "machine-none", "costs-tuple", "costs-none"])
    def test_arguments_checked_before_the_run(self, args, text):
        # each raised a bare AttributeError
        events = []
        with pytest.raises(ValueError, match=f"^{text}$"):
            simulate(*args, on_event=events.append)
        assert events == []

    @pytest.mark.parametrize("on_event, name", [(5, "int"), ("print", "str")],
                             ids=["int", "str"])
    def test_hook_checked_before_the_run(self, on_event, name):
        # each raised a bare TypeError, "object is not callable", at the
        # first event
        with pytest.raises(ValueError,
                           match=f"^on_event must be callable or None, not {name}$"):
            simulate(build_negate_demo(), MachineConfig(workers=1), on_event=on_event)

    def test_hook_checked_after_the_costs(self):
        with pytest.raises(ValueError, match="^costs must be a CostModel, not NoneType$"):
            simulate(build_negate_demo(), MachineConfig(workers=1), None, on_event=5)

    @pytest.mark.parametrize("check", [validate_metrics, worker_busy_profile])
    @pytest.mark.parametrize("metrics, name", [
        (None, "NoneType"), ({"sim_time": 1}, "dict"),
    ], ids=["none", "dict"])
    def test_metrics_must_be_metrics(self, check, metrics, name):
        # each raised a bare AttributeError
        with pytest.raises(ValueError, match=f"^metrics must be a Metrics, not {name}$"):
            check(metrics)

    def test_event_budget_zero_allowed(self):
        with pytest.raises(SimulationLimitError, match=r"^exceeded 0 events$"):
            simulate(build_negate_demo(), MachineConfig(workers=1), max_events=0)


class TestNegateSchedule:
    def test_hand_traced_times(self):
        # dispatch 0 -> finish 11 -> arrival 21 -> dispatch -> finish 32 -> arrival 42
        m = simulate(build_negate_demo(), MachineConfig(workers=1))
        assert m.messages == 4
        assert m.sim_time == 42
        assert m.elements_processed == 2
        assert m.idle_time_total == 42 - 2
        assert m.outputs == {(): -5}

    def test_serial_chain_ignores_extra_workers(self):
        for P in (2, 3, 16):
            m = simulate(build_negate_demo(), MachineConfig(workers=P))
            assert m.messages == 4
            assert m.sim_time == 42
        # the sink's zero-output unit still returns one completion message


class TestAgainstEngine:
    @pytest.mark.parametrize("P", GRID)
    def test_outputs_equal_sequential_run(self, P):
        program = build_matmul_program(5, seed=13)
        sequential = run(build_matmul_program(5, seed=13))
        m = simulate(program, MachineConfig(workers=P))
        assert m.outputs == sequential.outputs
        assert m.elements_processed == sequential.elements_processed

    def test_single_worker_matches_engine_count(self):
        for n in (1, 2, 4):
            m = simulate(build_matmul_program(n, seed=2), MachineConfig(workers=1))
            assert m.elements_processed == matmul_element_count(n)


class TestPInvariance:
    @pytest.mark.parametrize("n", (4, 8))
    def test_work_and_messages(self, n):
        runs = [simulate(build_matmul_program(n, seed=5), MachineConfig(workers=P))
                for P in GRID]
        assert len({m.elements_processed for m in runs}) == 1
        assert len({m.messages for m in runs}) == 1
        assert len({m.result_checksum for m in runs}) == 1


class TestDeterminism:
    def test_bit_identical_metrics(self):
        config = MachineConfig(workers=4)
        a = simulate(build_matmul_program(6, seed=9), config)
        b = simulate(build_matmul_program(6, seed=9), config)
        assert a == b

    def test_roundrobin_preserves_totals(self):
        idle = simulate(build_matmul_program(6, seed=4), MachineConfig(workers=3))
        rr = simulate(build_matmul_program(6, seed=4),
                      MachineConfig(workers=3, dispatch="roundrobin"))
        assert rr.outputs == idle.outputs
        assert rr.elements_processed == idle.elements_processed
        assert rr.messages == idle.messages


class TestTimingProperties:
    def test_speedup_strictly_decreasing(self):
        times = [simulate(build_matmul_program(16, seed=0),
                          MachineConfig(workers=P)).sim_time for P in GRID]
        assert all(later < earlier for earlier, later in zip(times, times[1:]))

    def test_sim_time_bounded_below_by_critical_chain(self):
        # replicate -> multiply -> n sum steps -> sink, each a full round trip
        n, costs = 6, CostModel()
        depth = n + 3
        for P in (4, 64):
            m = simulate(build_matmul_program(n, seed=1), MachineConfig(workers=P), costs)
            assert m.sim_time >= depth * (costs.t_proc + 2 * costs.t_msg)

    def test_makespan_linear_in_n_even_with_spare_workers(self):
        # the sum chain forces at least n sequential units however many
        # workers exist
        n, costs = 4, CostModel()
        m = simulate(build_matmul_program(n, seed=0),
                     MachineConfig(workers=64), costs)
        assert m.sim_time >= n * costs.t_proc

    def test_sim_time_at_least_busy_over_p(self):
        for P in (2, 8):
            m = simulate(build_matmul_program(6, seed=3), MachineConfig(workers=P))
            assert P * m.sim_time >= sum(m.per_worker_busy)
            assert m.idle_time_total == P * m.sim_time - sum(m.per_worker_busy)

    def test_master_charge_slows_dispatch(self):
        fast = simulate(build_matmul_program(4, seed=0), MachineConfig(workers=4),
                        CostModel(t_proc=1, t_msg=10, t_master=0))
        slow = simulate(build_matmul_program(4, seed=0), MachineConfig(workers=4),
                        CostModel(t_proc=1, t_msg=10, t_master=3))
        assert slow.sim_time > fast.sim_time
        assert slow.messages == fast.messages

    def test_zero_message_cost_still_orders_events(self):
        m = simulate(build_matmul_program(3, seed=0), MachineConfig(workers=2),
                     CostModel(t_proc=1, t_msg=0, t_master=0))
        assert m.outputs == run(build_matmul_program(3, seed=0)).outputs


def _busier(m):
    """Worker 0 busy twice the run longer, idle time lowered to match."""
    m.per_worker_busy[0] += 2 * m.sim_time
    m.idle_time_total -= 2 * m.sim_time


class TestAccounting:
    def test_per_worker_sums(self):
        for P in (1, 3, 8):
            m = simulate(build_matmul_program(5, seed=7), MachineConfig(workers=P))
            assert len(m.per_worker_processed) == P
            assert sum(m.per_worker_processed) == m.elements_processed
            validate_metrics(m)

    def test_checksum_is_mod_2_32(self):
        m = simulate(build_matmul_program(4, seed=0), MachineConfig(workers=2))
        assert m.result_checksum == sum(m.outputs.values()) % (1 << 32)

    def test_validate_metrics_catches_bad_records(self):
        m = simulate(build_negate_demo(), MachineConfig(workers=1))
        broken = Metrics(
            elements_processed=m.elements_processed,
            operands_processed=m.operands_processed + 1,
            messages=m.messages,
            sim_time=m.sim_time,
            idle_time_total=m.idle_time_total,
            per_worker_processed=m.per_worker_processed,
            per_worker_busy=m.per_worker_busy,
            result_checksum=m.result_checksum,
            outputs=m.outputs,
        )
        with pytest.raises(ValueError):
            validate_metrics(broken)

    @pytest.mark.parametrize("tamper, text", [
        (lambda m: setattr(m, "messages", -1), "counters must be non-negative"),
        (lambda m: m.per_worker_busy.pop(),
         "per-worker lists must be non-empty and equal length"),
        (lambda m: setattr(m, "idle_time_total", m.idle_time_total + 1),
         "idle time does not match the busy-time accounting"),
        (_busier, "workers cannot be busy longer than the run"),
        (lambda m: setattr(m, "result_checksum", 1 << 32), "checksum out of range"),
        (lambda m: setattr(m, "result_checksum", m.result_checksum ^ 1),
         "checksum does not match outputs"),
    ], ids=["negative", "lists", "idle", "busy", "checksum-range", "checksum"])
    def test_validate_metrics_names_each_fault(self, tamper, text):
        m = validate_metrics(simulate(build_matmul_program(3, seed=0), MachineConfig(workers=2)))
        tamper(m)
        with pytest.raises(ValueError, match=f"^{text}$"):
            validate_metrics(m)

    def test_per_worker_sum_above_the_total_is_caught(self):
        m = simulate(single_join_program([(2, 3)]), MachineConfig(workers=2))
        m.operands_processed -= 1
        with pytest.raises(ValueError, match="do not sum to the total"):
            validate_metrics(m)

    def test_shared_and_dead_end_inputs_add_up(self):
        # id 0 feeds two relations: one popped element, two unit operands
        program = _program(
            [Element(0, (), 3)],
            [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep()),
             Relation((0,), Operation.SQUARE, (), 2, IndexTransform.keep()),
             Relation((1,), Operation.SINK, (), 1, IndexTransform.keep()),
             Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
            {0: 0, 1: 0, 2: 0}, result=1)
        m = validate_metrics(simulate(program, MachineConfig(workers=2)))
        assert m.elements_processed == 3
        assert m.operands_processed == 4
        assert m.per_worker_processed == [2, 2]
        assert m.outputs == {(): -3}

    def test_join_units_count_two_operands(self):
        m = simulate(single_join_program([(2, 3), (4, 5)]), MachineConfig(workers=3))
        validate_metrics(m)
        # 4 seeds and 2 products popped; 2 joins and 2 sinks ran
        assert (m.elements_processed, m.operands_processed) == (6, 6)
        assert m.messages == 8


class TestNoIdleWhileWork:
    def test_event_trace_audit(self):
        events = []
        simulate(build_matmul_program(3, seed=0), MachineConfig(workers=2),
                 on_event=events.append)
        states = [e for e in events if e[0] == "idle_state"]
        assert states
        for _, _, queued, idle_workers, pending_units in states:
            assert (queued == 0 and pending_units == 0) or idle_workers == 0

    def test_dispatch_events_present(self):
        events = []
        simulate(build_negate_demo(), MachineConfig(workers=1),
                 on_event=events.append)
        kinds = [e[0] for e in events if e[0] != "idle_state"]
        assert kinds == ["dispatch", "finish", "arrival", "dispatch",
                         "finish", "arrival"]


class TestImbalance:
    def test_single_worker_is_exactly_one(self):
        m = simulate(build_matmul_program(4, seed=0), MachineConfig(workers=1))
        assert worker_busy_profile(m) == 1.0

    def test_matmul_window(self):
        m = simulate(build_matmul_program(16, seed=0), MachineConfig(workers=4))
        assert 1.0 <= worker_busy_profile(m) <= 1.5

    def test_approaches_one_for_uniform_load(self):
        ratios = []
        for count in (64, 512, 4096):
            m = simulate(uniform_unary_program(count), MachineConfig(workers=4))
            ratios.append(worker_busy_profile(m))
        assert all(r >= 1.0 for r in ratios)
        assert ratios[-1] <= min(ratios) and ratios[-1] < 1.02

    def test_zero_processed_is_an_error(self):
        empty = Metrics(
            elements_processed=0, operands_processed=0, messages=0, sim_time=0,
            idle_time_total=0,
            per_worker_processed=[0], per_worker_busy=[0],
            result_checksum=0, outputs={},
        )
        with pytest.raises(ValueError):
            worker_busy_profile(empty)

    def test_zero_busy_reports_balanced(self):
        m = simulate(build_negate_demo(), MachineConfig(workers=2),
                     CostModel(t_proc=0, t_msg=1, t_master=0))
        assert worker_busy_profile(m) == 1.0


class TestFailureModes:
    def test_join_deadlock(self):
        store = RelationStore()
        store.add(Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()))
        program = Program(
            relations=store,
            initial_elements=[Element(0, (0,), 3)],
            arities={0: 1, 1: 1, 2: 1},
            result_identifier=2,
        )
        with pytest.raises(JoinDeadlockError):
            simulate(program, MachineConfig(workers=2))

    def test_event_budget(self):
        with pytest.raises(SimulationLimitError, match=r"^exceeded 10 events$"):
            simulate(build_matmul_program(4, seed=0), MachineConfig(workers=2),
                     max_events=10)

    def test_outputs_survive_partial_matching_orders(self):
        program = single_join_program([(3, 4), (5, 6), (7, 8)], left_first=False)
        m = simulate(program, MachineConfig(workers=2))
        assert m.outputs == {(0,): 12, (1,): 30, (2,): 56}


def test_empty_program_runs_to_nothing():
    store = RelationStore()
    program = Program(relations=store, initial_elements=[],
                      arities={0: 0}, result_identifier=0)
    m = simulate(program, MachineConfig(workers=2))
    assert m.sim_time == 0
    assert m.messages == 0
    assert m.elements_processed == 0


def test_lifo_engine_depths_can_differ():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[5, 6], [7, 8]])
    fifo = run(matmul_program(a, b))
    lifo = run(matmul_program(a, b), discipline="lifo")
    assert fifo.outputs == lifo.outputs
    # depths are allowed to differ; just check both are sane
    assert fifo.max_queue_depth > 0 and lifo.max_queue_depth > 0


def _program(initial, relations, arities, result, names=None):
    store = RelationStore()
    for rel in relations:
        store.add(rel)
    return Program(relations=store, initial_elements=initial,
                   arities=arities, result_identifier=result, names=names or {})


def _unary_program(operation, value):
    """One seed element at arity 0 through operation, sunk as the result."""
    return _program(
        [Element(0, (), value)],
        [Relation((0,), operation, (), 1, IndexTransform.keep()),
         Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())],
        {0: 0, 1: 0}, result=1)


def _join_program(operation, left, right):
    """One join of id 0 (left) and id 1 (right) at index (0,), sunk as id 2."""
    if operation is Operation.MUL_PAIR:
        relations = [Relation((0, 1), operation, (), 2, IndexTransform.keep())]
        arities = {0: 1, 1: 1, 2: 1}
    else:
        relations = [Relation((0, 1), operation, (5, 2), 0,
                              IndexTransform.increment_last())]
        arities = {0: 1, 1: 1, 2: 0}
    return _program(
        [Element(0, (0,), left), Element(1, (0,), right)],
        relations + [Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
        arities, result=2)


def _created_operands_program(names=None):
    """Three NEGATE units: id 0 is created one hop after the start and
    parks in the second relation; id 2 is created two hops after the
    start and parks in the first."""
    return _program(
        [Element(6, (0,), 7), Element(7, (1,), 3)],
        [Relation((2, 3), Operation.MUL_PAIR, (), 5, IndexTransform.keep()),
         Relation((0, 1), Operation.MUL_PAIR, (), 4, IndexTransform.keep()),
         Relation((4,), Operation.SINK, (), 4, IndexTransform.keep()),
         Relation((6,), Operation.NEGATE, (), 0, IndexTransform.keep()),
         Relation((7,), Operation.NEGATE, (), 8, IndexTransform.keep()),
         Relation((8,), Operation.NEGATE, (), 2, IndexTransform.keep())],
        {i: 1 for i in range(9)}, result=4, names=names)


def _two_join_program(initial):
    """Two independent MulPair joins, (0, 1) -> 4 and (2, 3) -> 5."""
    return _program(
        initial,
        [Relation((0, 1), Operation.MUL_PAIR, (), 4, IndexTransform.keep()),
         Relation((2, 3), Operation.MUL_PAIR, (), 5, IndexTransform.keep()),
         Relation((4,), Operation.SINK, (), 4, IndexTransform.keep())],
        {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}, result=4)


def _stepped(program):
    """step() to quiescence, then run(), which reports a deadlock."""
    execution = Execution(program)
    while execution.step():
        pass
    return execution.run()


class TestErrorMessages:
    """step(), a traced run() and simulate() raise the same error classes
    and texts as run()."""

    CONFIGS = [MachineConfig(workers=p, dispatch=d)
               for p in (1, 3) for d in ("idle", "roundrobin")]

    def check(self, program, error, message, machine_message=None):
        for execute in (run, _stepped, lambda p: run(p, on_event=lambda event: None)):
            with pytest.raises(error) as from_engine:
                execute(program)
            assert type(from_engine.value) is error
            assert str(from_engine.value) == message
        for config in self.CONFIGS:
            with pytest.raises(error) as from_machine:
                simulate(program, config)
            assert type(from_machine.value) is error
            assert str(from_machine.value) == (machine_message or message)

    def test_duplicate_operand(self):
        program = _program(
            [Element(0, (0,), 3), Element(0, (0,), 4)],
            [Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
             Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
            {0: 1, 1: 1, 2: 1}, result=2)
        self.check(program, DuplicateOperandError,
                   "two elements for slot 0 of relation 0 at indices (0,)")

    def test_duplicate_running_sum_operand(self):
        program = _program(
            [Element(1, (0,), 3), Element(1, (0,), 4)],
            [Relation((0, 1), Operation.SUM_STEP, (5, 2), 0,
                      IndexTransform.increment_last()),
             Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
            {0: 1, 1: 1, 2: 0}, result=2)
        self.check(program, DuplicateOperandError,
                   "two elements for slot 1 of relation 0 at indices (0,)")

    @pytest.mark.parametrize("operation, value, message", [
        (Operation.NEGATE, INT64_MIN,
         "Negate produced 9223372036854775808, outside 64-bit range"),
        (Operation.SQUARE, 1 << 32,
         "Square produced 18446744073709551616, outside 64-bit range"),
    ])
    def test_unary_overflow(self, operation, value, message):
        self.check(_unary_program(operation, value), IntegerOverflowError, message)

    @pytest.mark.parametrize("operation, left, right, message", [
        (Operation.MUL_PAIR, 1 << 40, -(1 << 30),
         "MulPair produced -1180591620717411303424, outside 64-bit range"),
        (Operation.SUM_STEP, INT64_MAX, 1,
         "SumStep produced 9223372036854775808, outside 64-bit range"),
    ])
    def test_join_overflow(self, operation, left, right, message):
        self.check(_join_program(operation, left, right), IntegerOverflowError, message)

    def test_duplicate_output(self):
        program = _program(
            [Element(0, (0,), 3), Element(0, (1,), 4)],
            [Relation((0,), Operation.NEGATE, (), 1, IndexTransform.drop(0)),
             Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())],
            {0: 1, 1: 0}, result=1)
        self.check(program, DuplicateOutputError, "result indices () produced twice")

    def test_deadlock_names_the_lowest_relation_and_index_first(self):
        # id 2 arrives first but parks in the second relation, and id 0
        # parks at (1,) before (0,)
        initial = [Element(2, (0,), 1), Element(0, (1,), 2), Element(0, (0,), 5)]
        self.check(_two_join_program(initial), JoinDeadlockError,
                   "quiescent with 3 unmatched operand(s), first id0(0) = 5",
                   "machine quiescent with 3 unmatched operand(s), first id0(0) = 5")

    def test_deadlock_names_a_created_operand(self):
        self.check(_created_operands_program({2: "twice"}), JoinDeadlockError,
                   "quiescent with 2 unmatched operand(s), first twice(1) = 3",
                   "machine quiescent with 2 unmatched operand(s), first twice(1) = 3")

    def test_deadlock_raises_after_the_runs_own_events(self):
        events = []
        with pytest.raises(JoinDeadlockError, match=r"first id2\(1\) = 3$"):
            simulate(_created_operands_program(), MachineConfig(workers=2),
                     on_event=events.append)
        kinds = [e[0] for e in events if e[0] != "idle_state"]
        assert kinds == ["dispatch", "dispatch", "finish", "finish", "arrival",
                         "arrival", "dispatch", "finish", "arrival"]


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
    def test_simulate_leaves_gc_as_found(self, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        simulate(build_matmul_program(3, seed=0), MachineConfig(workers=2))
        assert gc.isenabled() is enabled

    def test_gc_restored_when_simulate_raises(self):
        gc.enable()
        with pytest.raises(SimulationLimitError):
            simulate(build_matmul_program(3, seed=0), MachineConfig(workers=2),
                     max_events=5)
        assert gc.isenabled()

    def test_gc_off_inside_the_loop(self):
        seen = []
        gc.enable()
        simulate(build_negate_demo(), MachineConfig(workers=1),
                 on_event=lambda event: seen.append(gc.isenabled()))
        assert seen and not any(seen)
        assert gc.isenabled()
