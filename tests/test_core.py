"""The core types and their build-time checks, and the reference
semantics in reference.py that the executors are checked against."""

import re

import pytest

import aridem
from aridem import (
    INT64_MAX,
    INT64_MIN,
    DuplicateOperandError,
    Element,
    IndexTransform,
    IntegerOverflowError,
    Operation,
    Program,
    ProgramError,
    Relation,
    RelationStore,
    TransformKind,
    build_negate_demo,
    run,
)
from reference import (
    PartialStore,
    apply_relation,
    apply_transform,
    first_overflows,
    operand_slot,
)


def negate_relation(src=0, dst=1, transform=None):
    return Relation((src,), Operation.NEGATE, (), dst,
                    transform or IndexTransform.keep())


def build_one(transform, in_arity, out_arity):
    """A Program whose one relation takes transform from identifier 0,
    registered at in_arity, to identifier 1, registered at out_arity."""
    if transform.kind is TransformKind.INSERT_VARIED:
        rel = Relation((0,), Operation.REPLICATE, (transform.count,), 1, transform)
    else:
        rel = negate_relation(0, 1, transform)
    return Program([rel], [], {0: in_arity, 1: out_arity}, 1)


def built_arity(transform, in_arity):
    """The one output arity at which a Program build accepts transform on
    in_arity indices; a build at any other arity fails."""
    built = []
    for out_arity in range(in_arity + 3):
        try:
            build_one(transform, in_arity, out_arity)
        except ProgramError as error:
            assert str(error).startswith("relation 0 produces arity ")
        else:
            built.append(out_arity)
    (arity,) = built
    return arity


class TestIndexTransform:
    def test_keep(self):
        t = IndexTransform.keep()
        assert apply_transform(t, (1, 2, 3)) == [(1, 2, 3)]
        assert built_arity(t, 3) == 3

    def test_drop(self):
        t = IndexTransform.drop(1)
        assert apply_transform(t, (4, 5, 6)) == [(4, 6)]
        assert built_arity(t, 3) == 2

    def test_drop_out_of_range(self):
        with pytest.raises(ProgramError, match=r"^cannot drop index 2 from arity 2$"):
            build_one(IndexTransform.drop(2), 2, 1)

    def test_insert_varied(self):
        t = IndexTransform.insert_varied(1, 3)
        assert apply_transform(t, (0, 2)) == [(0, 0, 2), (0, 1, 2), (0, 2, 2)]
        assert built_arity(t, 2) == 3

    def test_insert_at_end(self):
        t = IndexTransform.insert_varied(2, 2)
        assert apply_transform(t, (7, 8)) == [(7, 8, 0), (7, 8, 1)]

    def test_insert_beyond_arity(self):
        with pytest.raises(ProgramError,
                           match=r"^cannot insert at position 3 into arity 2$"):
            build_one(IndexTransform.insert_varied(3, 2), 2, 3)

    def test_insert_needs_positive_count(self):
        with pytest.raises(ProgramError):
            IndexTransform.insert_varied(0, 0)

    def test_increment_last(self):
        t = IndexTransform.increment_last()
        assert apply_transform(t, (3, 9)) == [(3, 10)]
        assert built_arity(t, 2) == 2

    def test_increment_last_needs_indices(self):
        with pytest.raises(ProgramError):
            apply_transform(IndexTransform.increment_last(), ())
        with pytest.raises(ProgramError, match="^IncrementLast needs at least one index$"):
            build_one(IndexTransform.increment_last(), 0, 0)

    def test_truncate(self):
        t = IndexTransform.truncate_to(1)
        assert apply_transform(t, (5, 6, 7)) == [(5,)]
        assert built_arity(t, 3) == 1
        assert apply_transform(IndexTransform.truncate_to(0), (1,)) == [()]

    def test_truncate_beyond_arity(self):
        with pytest.raises(ProgramError, match=r"^cannot truncate arity 2 to 3$"):
            build_one(IndexTransform.truncate_to(3), 2, 3)

    def test_negative_position_rejected(self):
        with pytest.raises(ProgramError):
            IndexTransform.drop(-1)

    # Each of these built before, and run() then raised a bare TypeError
    # on the slice, mid-run.
    @pytest.mark.parametrize("make", [
        lambda: IndexTransform.drop(0.5),
        lambda: IndexTransform.truncate_to(1.0),
        lambda: IndexTransform.drop(True),
        lambda: IndexTransform.insert_varied(0, 2.0),
        lambda: IndexTransform.drop("1"),
    ], ids=["drop-float", "truncate-float", "drop-bool", "insert-count-float",
            "drop-str"])
    def test_position_and_count_must_be_plain_ints(self, make):
        with pytest.raises(ProgramError,
                           match=r"^transform position and count must be plain ints$"):
            make()

    def test_kind_must_be_a_transform_kind(self):
        with pytest.raises(ProgramError, match=r"^transform kind 'drop' is not a "
                                               r"TransformKind$"):
            IndexTransform("drop", 1)
        with pytest.raises(ProgramError, match="is not a TransformKind"):
            IndexTransform(Operation.NEGATE)

    def test_older_checks_fire_first(self):
        with pytest.raises(ProgramError, match=r"^transform position and count must be "
                                               r"non-negative$"):
            IndexTransform.drop(-1.5)
        with pytest.raises(ProgramError, match=r"^InsertVaried needs a positive count$"):
            IndexTransform.insert_varied(0, 0.5)


class TestRelationValidation:
    def test_binary_needs_two_distinct_inputs(self):
        with pytest.raises(ProgramError):
            Relation((0,), Operation.MUL_PAIR, (), 1, IndexTransform.keep())
        with pytest.raises(ProgramError):
            Relation((0, 0), Operation.MUL_PAIR, (), 1, IndexTransform.keep())

    def test_unary_takes_one_input(self):
        with pytest.raises(ProgramError):
            Relation((0, 1), Operation.NEGATE, (), 2, IndexTransform.keep())

    def test_replicate_parameter_matches_transform(self):
        Relation((0,), Operation.REPLICATE, (4,), 1, IndexTransform.insert_varied(0, 4))
        with pytest.raises(ProgramError):
            Relation((0,), Operation.REPLICATE, (4,), 1, IndexTransform.insert_varied(0, 3))
        with pytest.raises(ProgramError):
            Relation((0,), Operation.REPLICATE, (), 1, IndexTransform.insert_varied(0, 2))
        with pytest.raises(ProgramError):
            Relation((0,), Operation.REPLICATE, (0,), 1, IndexTransform.insert_varied(0, 0))

    def test_replicate_requires_insert_transform(self):
        with pytest.raises(ProgramError):
            Relation((0,), Operation.REPLICATE, (2,), 1, IndexTransform.keep())

    def test_sum_step_parameters(self):
        Relation((0, 1), Operation.SUM_STEP, (3, 2), 0, IndexTransform.increment_last())
        with pytest.raises(ProgramError):
            Relation((0, 1), Operation.SUM_STEP, (3,), 0, IndexTransform.increment_last())
        with pytest.raises(ProgramError):
            Relation((0, 1), Operation.SUM_STEP, (0, 2), 0, IndexTransform.increment_last())
        with pytest.raises(ProgramError):
            Relation((0, 1), Operation.SUM_STEP, (3, 2), 0, IndexTransform.keep())

    def test_simple_ops_take_no_parameters(self):
        for op in (Operation.NEGATE, Operation.SQUARE, Operation.SINK):
            with pytest.raises(ProgramError):
                Relation((0,), op, (1,), 1, IndexTransform.keep())

    @pytest.mark.parametrize("operation, inputs", [
        (Operation.NEGATE, (0,)), (Operation.SQUARE, (0,)), (Operation.SINK, (0,)),
        (Operation.MUL_PAIR, (0, 1)),
    ], ids=["negate", "square", "sink", "mul-pair"])
    def test_insert_varied_only_for_replicate(self, operation, inputs):
        with pytest.raises(ProgramError,
                           match=f"^{operation.name} cannot use an InsertVaried transform$"):
            Relation(inputs, operation, (), 2, IndexTransform.insert_varied(0, 2))

    def test_negative_identifier_rejected(self):
        with pytest.raises(ProgramError):
            Relation((-1,), Operation.NEGATE, (), 1, IndexTransform.keep())

    def test_lists_refused(self):
        # A program compiles its plans from its relations once, when it is
        # built; a list kept in a relation could be edited afterwards, and
        # the relation would no longer describe those plans.
        with pytest.raises(ProgramError, match="must be tuples"):
            Relation([0], Operation.NEGATE, (), 1, IndexTransform.keep())
        with pytest.raises(ProgramError, match="must be tuples"):
            Relation((0,), Operation.REPLICATE, [2], 1, IndexTransform.insert_varied(0, 2))

    # Each of these built before: the float limit made run() deadlock, as
    # the running sum's last index never equals 2.5, and the float fan-out
    # ran.
    @pytest.mark.parametrize("args", [
        ((0, 1), Operation.SUM_STEP, (2.5, 3), 0, IndexTransform.increment_last()),
        ((0, 1), Operation.SUM_STEP, (3, 2.0), 0, IndexTransform.increment_last()),
        ((0,), Operation.REPLICATE, (2.0,), 1, IndexTransform.insert_varied(0, 2)),
        ((True,), Operation.NEGATE, (), 1, IndexTransform.keep()),
        ((0, 1.0), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
        ((0,), Operation.NEGATE, (), True, IndexTransform.keep()),
        ((0,), Operation.NEGATE, (), 1.0, IndexTransform.keep()),
        (("0",), Operation.NEGATE, (), 1, IndexTransform.keep()),
        ((0,), Operation.NEGATE, (), None, IndexTransform.keep()),
        ((0, 1), Operation.SUM_STEP, (None, 3), 0, IndexTransform.increment_last()),
    ], ids=["float-limit", "float-result-id", "float-fan-out", "bool-input",
            "float-input", "bool-output", "float-output", "str-input", "none-output",
            "none-limit"])
    def test_items_must_be_plain_ints(self, args):
        with pytest.raises(ProgramError,
                           match=r"^identifiers and parameters must be plain ints$"):
            Relation(*args)

    @pytest.mark.parametrize("args, message", [
        (((2.5,), Operation.MUL_PAIR, (), 1, IndexTransform.keep()),
         "MUL_PAIR takes exactly two input identifiers"),
        (((-1.5,), Operation.NEGATE, (), 1, IndexTransform.keep()),
         "identifiers must be non-negative"),
        (((0,), Operation.REPLICATE, (0.5,), 1, IndexTransform.insert_varied(0, 2)),
         "Replicate takes one positive parameter"),
        (((0, 1), Operation.SUM_STEP, (2.5, 3), 0, IndexTransform.keep()),
         "SumStep requires an IncrementLast transform"),
        (((0,), Operation.NEGATE, (1.0,), True, IndexTransform.keep()),
         "NEGATE takes no parameters"),
        # an operation or transform of the wrong type is checked later
        (([0], "bogus", (), 1, None), "input identifiers and parameters must be tuples"),
        (((-1,), "bogus", (), 1, None), "identifiers must be non-negative"),
        (((0, 1), Operation.NEGATE, (), 2, None),
         "NEGATE takes exactly one input identifier"),
        (((0,), Operation.MUL_PAIR, (), 2, "keep"),
         "MUL_PAIR takes exactly two input identifiers"),
    ])
    def test_older_checks_fire_first(self, args, message):
        # an input the shape checks refused keeps their text
        with pytest.raises(ProgramError, match=f"^{re.escape(message)}$"):
            Relation(*args)

    # Each of these built and failed only when its Program was built, last
    # of all its checks, or raised a bare AttributeError when it was made.
    @pytest.mark.parametrize("args, message", [
        (((0,), "bogus", (), 1, IndexTransform.keep()), "unknown operation 'bogus'"),
        (((0, 1), "bogus", (), 1, IndexTransform.keep()), "unknown operation 'bogus'"),
        (((0,), "other", (1,), 1, IndexTransform.keep()), "unknown operation 'other'"),
        (((0,), TransformKind.KEEP, (), 1, IndexTransform.keep()),
         "unknown operation <TransformKind.KEEP: 1>"),
        (((0,), Operation.NEGATE, (), 1, None),
         "transform None is not an IndexTransform"),
        (((0,), Operation.SINK, (1,), 1, "keep"),
         "transform 'keep' is not an IndexTransform"),
        (((0,), Operation.REPLICATE, (2,), 1, TransformKind.INSERT_VARIED),
         "transform <TransformKind.INSERT_VARIED: 3> is not an IndexTransform"),
    ], ids=["bogus", "bogus-two-inputs", "other-with-parameter", "transform-kind",
            "no-transform", "str-transform", "kind-as-transform"])
    def test_operation_and_transform_must_have_their_types(self, args, message):
        with pytest.raises(ProgramError, match=f"^{re.escape(message)}$"):
            Relation(*args)

    def test_operand_slot(self):
        rel = Relation((5, 9), Operation.MUL_PAIR, (), 1, IndexTransform.keep())
        assert operand_slot(3, rel, 5) == 0
        assert operand_slot(3, rel, 9) == 1
        with pytest.raises(ProgramError,
                           match=r"^identifier 7 is not an operand of relation 3$"):
            operand_slot(3, rel, 7)


class TestRelationStore:
    """The one use the package still has for the class, the one
    bench/progen.py makes: add each relation in turn, then pass the store
    as a Program's relations. Every other test builds from a plain list."""

    @staticmethod
    def built(relations, initial, arities):
        store = RelationStore()
        for rel in relations:
            store.add(rel)
        return Program(relations=store, initial_elements=initial, arities=arities,
                       result_identifier=1)

    def test_rid_assignment_and_order(self):
        # a relation's rid is its position in the store, as in a list
        relations = [negate_relation(0, 1),
                     Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())]
        program = self.built(relations, [Element(0, (), 5)], {0: 0, 1: 0})
        listed = Program(relations, [Element(0, (), 5)], {0: 0, 1: 0}, 1)
        assert program == listed
        assert program.relations == tuple(relations)
        assert program._plans == listed._plans
        assert [plan[-1] for plan in program._plans[0]] == [0]
        assert [plan[-1] for plan in program._plans[1]] == [1]
        assert run(program) == run(listed)

    def test_added_relation_keeps_its_rid(self):
        # relation 1 of a built program, added to a new store, is relation 0
        # of a program built from that store, and still relation 1 of its own
        program = build_negate_demo()
        sink = program.relations[1]
        other = self.built([sink], [Element(1, (), 4)], {1: 0})
        assert other.relations == (sink,)
        assert [plan[-1] for plan in other._plans[1]] == [0]
        assert [plan[-1] for plan in program._plans[1]] == [1]
        assert run(other).outputs == {(): 4}
        assert run(program).outputs == {(): -5}


class TestPartialStore:
    def setup_method(self):
        self.rel = Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep())

    def test_first_arrival_waits(self):
        store = PartialStore()
        assert store.offer(0, self.rel, Element(0, (0, 0), 3)) is None
        assert len(store) == 1

    def test_second_arrival_pairs_in_input_order(self):
        store = PartialStore()
        left = Element(0, (1,), 3)
        right = Element(1, (1,), 4)
        store.offer(0, self.rel, right)
        assert store.offer(0, self.rel, left) == (left, right)
        assert len(store) == 0

    def test_pair_removal_shrinks_store_by_one(self):
        store = PartialStore()
        store.offer(0, self.rel, Element(0, (0,), 1))
        store.offer(0, self.rel, Element(0, (1,), 2))
        assert len(store) == 2
        store.offer(0, self.rel, Element(1, (1,), 5))
        assert len(store) == 1
        assert store.max_size == 2

    def test_different_indices_do_not_match(self):
        store = PartialStore()
        store.offer(0, self.rel, Element(0, (0,), 1))
        assert store.offer(0, self.rel, Element(1, (1,), 2)) is None
        assert len(store) == 2

    def test_duplicate_slot_rejected(self):
        store = PartialStore()
        store.offer(0, self.rel, Element(0, (0,), 1))
        with pytest.raises(DuplicateOperandError):
            store.offer(0, self.rel, Element(0, (0,), 9))

    def test_size_tracks_stored_minus_matched(self):
        store = PartialStore()
        stored = matched = 0
        for i in range(10):
            if store.offer(0, self.rel, Element(0, (i,), i)) is None:
                stored += 1
            assert len(store) == stored - matched
        for i in range(0, 10, 2):
            if store.offer(0, self.rel, Element(1, (i,), i)) is not None:
                matched += 1
            assert len(store) == stored - matched
        assert matched == 5

    def test_non_operand_rejected(self):
        with pytest.raises(ProgramError,
                           match=r"^identifier 2 is not an operand of relation 4$"):
            PartialStore().offer(4, self.rel, Element(2, (0,), 1))

    def test_pending_lists_waiting_elements(self):
        store = PartialStore()
        e = Element(0, (7,), 1)
        store.offer(0, self.rel, e)
        assert store.pending() == [e]


class TestApplyRelation:
    def test_negate(self):
        out = apply_relation(negate_relation(), Element(0, (), 5))
        assert out == [Element(1, (), -5)]

    def test_square(self):
        rel = Relation((0,), Operation.SQUARE, (), 1, IndexTransform.keep())
        assert apply_relation(rel, Element(0, (), 5)) == [Element(1, (), 25)]

    def test_replicate_fan_out(self):
        rel = Relation((0,), Operation.REPLICATE, (3,), 1,
                       IndexTransform.insert_varied(1, 3))
        out = apply_relation(rel, Element(0, (0, 2), 7))
        assert out == [
            Element(1, (0, 0, 2), 7),
            Element(1, (0, 1, 2), 7),
            Element(1, (0, 2, 2), 7),
        ]

    def test_mul_pair(self):
        rel = Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep())
        out = apply_relation(rel, (Element(0, (1, 2), 6), Element(1, (1, 2), 7)))
        assert out == [Element(2, (1, 2), 42)]

    def test_sum_step_advances_last_index(self):
        rel = Relation((0, 1), Operation.SUM_STEP, (4, 9), 0,
                       IndexTransform.increment_last())
        out = apply_relation(rel, (Element(0, (2, 0), 10), Element(1, (2, 0), 5)))
        assert out == [Element(0, (2, 1), 15)]

    def test_sum_step_switches_to_result_at_limit(self):
        rel = Relation((0, 1), Operation.SUM_STEP, (4, 9), 0,
                       IndexTransform.increment_last())
        out = apply_relation(rel, (Element(0, (2, 3), 10), Element(1, (2, 3), 5)))
        assert out == [Element(9, (2,), 15)]

    def test_sink_returns_nothing(self):
        rel = Relation((0,), Operation.SINK, (), 0, IndexTransform.keep())
        assert apply_relation(rel, Element(0, (1,), 5)) == []

    def test_fan_out_conservation(self):
        # Replicate(n) returns exactly n elements; everything else 0 or 1.
        rep = Relation((0,), Operation.REPLICATE, (5,), 1,
                       IndexTransform.insert_varied(0, 5))
        assert len(apply_relation(rep, Element(0, (1,), 2))) == 5
        assert len(apply_relation(negate_relation(), Element(0, (), 1))) == 1

    def test_wrong_identifier_rejected(self):
        with pytest.raises(ProgramError):
            apply_relation(negate_relation(), Element(3, (), 5))

    def test_binary_operand_order_enforced(self):
        rel = Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep())
        with pytest.raises(ProgramError):
            apply_relation(rel, (Element(1, (0,), 2), Element(0, (0,), 3)))

    def test_binary_index_mismatch_rejected(self):
        rel = Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep())
        with pytest.raises(ProgramError):
            apply_relation(rel, (Element(0, (0,), 2), Element(1, (1,), 3)))

    def test_purity(self):
        rel = negate_relation()
        operand = Element(0, (2,), 11)
        assert apply_relation(rel, operand) == apply_relation(rel, operand)


class TestOverflow:
    def test_negate_min_overflows(self):
        with pytest.raises(IntegerOverflowError):
            apply_relation(negate_relation(), Element(0, (), INT64_MIN))

    def test_negate_max_is_fine(self):
        out = apply_relation(negate_relation(), Element(0, (), INT64_MAX))
        assert out[0].value == -INT64_MAX

    def test_square_overflows(self):
        rel = Relation((0,), Operation.SQUARE, (), 1, IndexTransform.keep())
        with pytest.raises(IntegerOverflowError):
            apply_relation(rel, Element(0, (), 1 << 32))

    def test_mul_overflows(self):
        rel = Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep())
        with pytest.raises(IntegerOverflowError):
            apply_relation(rel, (Element(0, (0,), 1 << 33), Element(1, (0,), 1 << 33)))

    def test_sum_overflows(self):
        rel = Relation((0, 1), Operation.SUM_STEP, (9, 3), 0,
                       IndexTransform.increment_last())
        with pytest.raises(IntegerOverflowError):
            apply_relation(rel, (Element(0, (0,), INT64_MAX), Element(1, (0,), 1)))


class TestFirstOverflows:
    @staticmethod
    def chain(values):
        """Square 0 into 1, negate 1 into 2, and sink 2."""
        relations = [
            Relation((0,), Operation.SQUARE, (), 1, IndexTransform.keep()),
            Relation((1,), Operation.NEGATE, (), 2, IndexTransform.keep()),
            Relation((2,), Operation.SINK, (), 2, IndexTransform.keep()),
        ]
        return Program(relations=relations,
                       initial_elements=[Element(0, (i,), v) for i, v in enumerate(values)],
                       arities={0: 1, 1: 1, 2: 1}, result_identifier=2)

    def test_in_range_program_lists_nothing(self):
        assert first_overflows(self.chain([3, -4])) == set()

    def test_each_first_overflow_and_nothing_downstream(self):
        # the negations of the two squares are out of range as well, but
        # no run reaches them
        big = 1 << 32
        program = self.chain([big, 3, -big - 1])
        assert first_overflows(program) == {
            f"Square produced {big * big}, outside 64-bit range",
            f"Square produced {(big + 1) ** 2}, outside 64-bit range",
        }
        with pytest.raises(IntegerOverflowError) as error:
            run(program)
        assert str(error.value) in first_overflows(program)

    def test_an_operand_left_parked_does_not_hide_them(self):
        relations = [
            Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
            Relation((2,), Operation.SINK, (), 2, IndexTransform.keep()),
        ]
        program = Program(relations=relations,
                          initial_elements=[Element(0, (0,), 1 << 33),
                                            Element(1, (0,), 1 << 33),
                                            Element(0, (1,), 1)],
                          arities={0: 1, 1: 1, 2: 1}, result_identifier=2)
        assert first_overflows(program) == {
            f"MulPair produced {1 << 66}, outside 64-bit range"}


def test_public_surface():
    assert sorted(aridem.__all__) == [
        "CostModel", "CountModel", "DuplicateOperandError", "DuplicateOutputError",
        "ELEMENT_COUNT_MODEL", "Element", "ElementModelError", "Execution",
        "INSTRUCTION_COUNT_MODEL", "INT64_MAX", "INT64_MIN", "IndexTransform",
        "IntegerOverflowError", "JoinDeadlockError", "MATMUL_NAMES", "MachineConfig",
        "Matrix", "Metrics", "Operation", "Program", "ProgramError", "REFERENCE_TABLES",
        "Relation", "RelationStore", "RunResult", "SimulationLimitError",
        "TransformKind", "build_matmul_program", "build_negate_demo",
        "build_square_demo", "fit_count_model", "generate_matrix",
        "matmul_element_count", "matmul_oracle", "matmul_program", "ratio_report",
        "run", "simulate", "simulate_instruction_model", "validate_metrics",
        "worker_busy_profile",
    ]
    for name in aridem.__all__:
        assert hasattr(aridem, name), name
    # the reference semantics live in the tests, the two count wrappers
    # gave way to CountModel.count, Lcg64 was folded into generate_matrix,
    # and the rest are used inside the package only
    for name in ("BINARY_OPERATIONS", "PartialStore", "apply_relation", "Lcg64",
                 "ReferenceTables", "MM_LEFT", "MM_RIGHT", "MM_LEFT_REP", "MM_RIGHT_REP",
                 "MM_PRODUCT", "MM_PARTIAL", "MM_RESULT", "instruction_count",
                 "element_count_reference"):
        assert not hasattr(aridem, name), name


def test_element_describe():
    assert Element(0, (), 5).describe({0: "b"}) == "b = 5"
    assert Element(1, (2, 3), -4).describe({1: "C"}) == "C(2,3) = -4"
    assert Element(7, (), 1).describe() == "id7 = 1"
