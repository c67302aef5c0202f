"""Ready-made element programs and their deterministic inputs.

The matmul encoding is the workhorse: an n x n product built purely from
Replicate / MulPair / SumStep relations. Entry counts are exact and
closed-form, which is what the benchmark comparisons lean on.
"""

from __future__ import annotations

from functools import partial
from itertools import chain, product, repeat

from .core import Element, IndexTransform, Operation, Relation, _Frozen, _int_arg, _of_type
from .engine import Program

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_U64 = (1 << 64) - 1
_STREAM_MIX = 0x9E3779B97F4A7C15

# Identifier layout of the matmul encoding.
_MM_LEFT = 0        # A entries, indices (row, inner)
_MM_RIGHT = 1       # B entries, indices (column, inner), value b[inner][column]
_MM_LEFT_REP = 2    # A replicated across result columns, indices (i, j, k)
_MM_RIGHT_REP = 3   # B replicated across result rows, indices (i, j, k)
_MM_PRODUCT = 4     # one a_ik * b_kj term, indices (i, j, k)
_MM_PARTIAL = 5     # running sum over k, indices (i, j, next k)
_MM_RESULT = 6      # finished c_ij, indices (i, j)

MATMUL_NAMES = {
    _MM_LEFT: "A",
    _MM_RIGHT: "B",
    _MM_LEFT_REP: "A_rep",
    _MM_RIGHT_REP: "B_rep",
    _MM_PRODUCT: "product",
    _MM_PARTIAL: "partial_sum",
    _MM_RESULT: "C",
}


class Matrix(_Frozen):
    """Dense square integer matrix, row-major entries."""

    _fields = ("n", "entries")

    def __init__(self, n: int, entries: tuple[int, ...]) -> None:
        _int_arg("matrix size", n, 1)
        if type(entries) is not tuple:  # or the frozen value is unhashable
            raise ValueError(f"matrix entries must be a tuple, not {type(entries).__name__}")
        if len(entries) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(entries)}")
        if not {int}.issuperset(map(type, entries)):  # a float or a bool, say
            bad = next(v for v in entries if type(v) is not int)
            raise ValueError(f"matrix entries must be plain ints, not {bad!r}")
        self.__dict__.update(n=n, entries=entries)

    def at(self, row: int, col: int) -> int:
        n = self.n
        if type(row) is not int or type(col) is not int:  # True reads row 1
            raise ValueError(f"cell ({row!r}, {col!r}) must be named by plain ints")
        if not (0 <= row < n and 0 <= col < n):  # or another cell's entry is read
            raise IndexError(f"cell ({row}, {col}) is outside the {n} x {n} matrix")
        return self.entries[row * n + col]

    def rows(self) -> list[list[int]]:
        n = self.n
        return [list(self.entries[i * n : (i + 1) * n]) for i in range(n)]

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        """The square matrix of rows, a list or tuple of lists or tuples."""
        _of_type("rows", rows, (list, tuple), "a list or tuple")
        for i, row in enumerate(rows):
            _of_type(f"rows[{i}]", row, (list, tuple), "a list or tuple")
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix rows must form a square")
        return cls(n, tuple(v for row in rows for v in row))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        _int_arg("matrix size", n, 1)
        return cls(n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def generate_matrix(n: int, seed: int, stream_tag: int) -> Matrix:
    """Deterministic digit matrix; stream_tag separates A from B per seed.

    The digits are drawn from a 64-bit linear congruential generator
    (PCG-XSH multiplier and increment) started at seed ^ (stream_tag *
    _STREAM_MIX), each (state >> 33) % 10 of the next state, row-major.
    """
    _int_arg("matrix size", n, 1)
    _int_arg("seed", seed)
    _int_arg("stream tag", stream_tag)
    state = (seed ^ (stream_tag * _STREAM_MIX)) & _U64
    digits = []
    for _ in range(n * n):
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) & _U64
        digits.append((state >> 33) % 10)
    return Matrix(n, tuple(digits))


def _unary_demo(operation: Operation, value: int, names: dict[int, str]) -> Program:
    """Apply operation to one input element, then sink the result."""
    return Program(
        relations=[Relation((0,), operation, (), 1, IndexTransform.keep()),
                   Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())],
        initial_elements=[Element(0, (), value)],
        arities={0: 0, 1: 0},
        result_identifier=1,
        names=names,
    )


def build_negate_demo(value: int = 5) -> Program:
    """Two relations: negate one input element, then sink the result."""
    return _unary_demo(Operation.NEGATE, value, {0: "b", 1: "a"})


def build_square_demo(length: int = 5) -> Program:
    """Square a side length into an area, then sink it."""
    return _unary_demo(Operation.SQUARE, length, {0: "length", 1: "square_area"})


def matmul_program(a: Matrix, b: Matrix) -> Program:
    """Element program computing C = A @ B for two n x n matrices.

    A entries carry indices (i, k); B entries carry (j, k) with value
    b[k][j] so that inserting the varied result-row index at position 0
    lines both replicas up on (i, j, k). Each (i, j) starts a zero-valued
    running sum at k = 0; SumStep folds product terms in k order and
    hands the total to the result identifier once k reaches n. An a or
    b that is not a Matrix, or a b of another size, raises ValueError.
    """
    _of_type("a", a, Matrix)
    _of_type("b", b, Matrix)
    n = a.n
    if b.n != n:
        raise ValueError(f"matrix sizes differ: {n} vs {b.n}")

    relations = [
        Relation((_MM_LEFT,), Operation.REPLICATE, (n,), _MM_LEFT_REP,
                 IndexTransform.insert_varied(1, n)),
        Relation((_MM_RIGHT,), Operation.REPLICATE, (n,), _MM_RIGHT_REP,
                 IndexTransform.insert_varied(0, n)),
        Relation((_MM_LEFT_REP, _MM_RIGHT_REP), Operation.MUL_PAIR, (),
                 _MM_PRODUCT, IndexTransform.keep()),
        Relation((_MM_PARTIAL, _MM_PRODUCT), Operation.SUM_STEP, (n, _MM_RESULT),
                 _MM_PARTIAL, IndexTransform.increment_last()),
        Relation((_MM_RESULT,), Operation.SINK, (), _MM_RESULT, IndexTransform.keep()),
    ]

    # (i, k) for A and (j, k) for B, row-major; B's value b[k][j] walks
    # column j. Each Element is made as Element._make makes it, by
    # tuple.__new__, with no Python call per element.
    pairs = list(product(range(n), repeat=2))
    columns = chain.from_iterable(b.entries[j::n] for j in range(n))
    made = partial(tuple.__new__, Element)
    initial = [*map(made, zip(repeat(_MM_LEFT), pairs, a.entries)),
               *map(made, zip(repeat(_MM_RIGHT), pairs, columns)),
               *map(made, zip(repeat(_MM_PARTIAL), [(i, j, 0) for i, j in pairs], repeat(0)))]

    return Program(
        relations=relations,
        initial_elements=initial,
        arities={_MM_LEFT: 2, _MM_RIGHT: 2, _MM_LEFT_REP: 3, _MM_RIGHT_REP: 3,
                 _MM_PRODUCT: 3, _MM_PARTIAL: 3, _MM_RESULT: 2},
        result_identifier=_MM_RESULT,
        names=dict(MATMUL_NAMES),
    )


def build_matmul_program(n: int, seed: int) -> Program:
    """Matmul program over two seeded digit matrices."""
    a = generate_matrix(n, seed, 0)
    b = generate_matrix(n, seed, 1)
    return matmul_program(a, b)


def matmul_element_count(n: int) -> int:
    """Exact number of elements processed by the matmul encoding.

    2n^2 inputs + n^2 sum seeds + 2n^3 replicas + n^3 products +
    n^3 running sums (which include the n^2 sunk results).
    """
    _int_arg("matrix size", n, 1)
    return 4 * n ** 3 + 3 * n ** 2
