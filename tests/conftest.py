"""Shared program builders for the test suite."""

from aridem import (
    Element,
    IndexTransform,
    Operation,
    Program,
    Relation,
)


def single_join_program(pairs, left_first=True):
    """One MulPair join: left (id 0) times right (id 1), sunk at id 2.

    pairs is a list of (x, y) values; element i carries index (i,).
    left_first interleaves arrival order when False.
    """
    relations = [
        Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
        Relation((2,), Operation.SINK, (), 2, IndexTransform.keep()),
    ]
    initial = []
    for i, (x, y) in enumerate(pairs):
        left = Element(0, (i,), x)
        right = Element(1, (i,), y)
        if left_first or i % 2 == 0:
            initial += [left, right]
        else:
            initial += [right, left]
    return Program(
        relations=relations,
        initial_elements=initial,
        arities={0: 1, 1: 1, 2: 1},
        result_identifier=2,
    )


def fanout_chain_program(rows, cols, value=3):
    """One identifier feeding two relations, plus Drop and Truncate paths.

    id 0 (arity 2) negates into the sunk result id 1 and, separately,
    squares into id 2 with the column index dropped; id 2 truncates away
    its remaining index into id 3, which no relation consumes.
    """
    relations = [
        Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep()),
        Relation((0,), Operation.SQUARE, (), 2, IndexTransform.drop(1)),
        Relation((1,), Operation.SINK, (), 1, IndexTransform.keep()),
        Relation((2,), Operation.NEGATE, (), 3, IndexTransform.truncate_to(0)),
    ]
    initial = [
        Element(0, (i, j), value + i * cols + j)
        for i in range(rows)
        for j in range(cols)
    ]
    return Program(
        relations=relations,
        initial_elements=initial,
        arities={0: 2, 1: 2, 2: 1, 3: 0},
        result_identifier=1,
    )


def uniform_unary_program(count):
    """count independent single-step elements, for load-balance tests."""
    relations = [
        Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep()),
        Relation((1,), Operation.SINK, (), 1, IndexTransform.keep()),
    ]
    return Program(
        relations=relations,
        initial_elements=[Element(0, (i,), i + 1) for i in range(count)],
        arities={0: 1, 1: 1},
        result_identifier=1,
    )
