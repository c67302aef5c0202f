"""Instruction-model baseline and published reference numbers.

The comparison between the element machine and a conventional
master/slave instruction machine runs on two polynomial count models of
the form i*n^3 + j*n^2, fitted exactly from the published matmul totals,
plus the published wall-clock grids kept here verbatim for regression
checks.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from operator import mul
from types import MappingProxyType

from .core import INT64_MAX, INT64_MIN, _Frozen, _int_arg, _of_type, _overflow
from .machine import CostModel, Metrics
from .programs import Matrix, generate_matrix


class CountModel(_Frozen):
    """Operation count of the form cubic*n^3 + quadratic*n^2."""

    _fields = ("cubic", "quadratic")

    def __init__(self, cubic: int, quadratic: int) -> None:
        _int_arg("cubic term", cubic, 1)
        _int_arg("quadratic term", quadratic, 0)
        self.__dict__.update(cubic=cubic, quadratic=quadratic)

    def count(self, n: int) -> int:
        _int_arg("matrix size", n, 1)
        return self.cubic * n ** 3 + self.quadratic * n ** 2


# Exact fits of the published matmul totals (see fit_count_model).
INSTRUCTION_COUNT_MODEL = CountModel(40, 107)
ELEMENT_COUNT_MODEL = CountModel(14, 10)


class ReferenceTables(_Frozen):
    """Published measurements: totals by n, wall-clock ms by (n, processors),
    each kept as a read-only copy, the grids' rows too, as Program keeps
    its arities."""

    _fields = ("sizes", "instruction_counts", "element_counts", "instruction_model_ms",
               "element_model_ms")

    def __init__(self, sizes: tuple[int, ...], instruction_counts: dict[int, int],
                 element_counts: dict[int, int],
                 instruction_model_ms: dict[int, dict[int, float]],
                 element_model_ms: dict[int, dict[int, float]]) -> None:
        grids = [MappingProxyType({n: MappingProxyType(dict(row)) for n, row in grid.items()})
                 for grid in (instruction_model_ms, element_model_ms)]
        self.__dict__.update(sizes=tuple(sizes),
                             instruction_counts=MappingProxyType(dict(instruction_counts)),
                             element_counts=MappingProxyType(dict(element_counts)),
                             instruction_model_ms=grids[0], element_model_ms=grids[1])

    def __reduce__(self):
        # pickle and copy rebuild the read-only copies from plain dicts
        grids = [{n: dict(row) for n, row in grid.items()}
                 for grid in (self.instruction_model_ms, self.element_model_ms)]
        return (ReferenceTables, (self.sizes, dict(self.instruction_counts),
                                  dict(self.element_counts), *grids))


REFERENCE_TABLES = ReferenceTables(
    sizes=(40, 60, 80, 100),
    instruction_counts={
        40: 2_731_200,
        60: 9_025_200,
        80: 21_164_800,
        100: 41_070_000,
    },
    element_counts={
        40: 912_000,
        60: 3_060_000,
        80: 7_232_000,
        100: 14_100_000,
    },
    instruction_model_ms={
        40: {2: 4.72, 4: 2.56, 8: 3.409, 16: 3.2113},
        60: {2: 10.058, 4: 6.466, 8: 10.8121, 16: 7.774},
        80: {2: 20.794, 4: 9.016, 8: 14.717, 16: 16.559},
        100: {2: 73.357, 4: 15.62, 8: 21.03, 16: 24.272},
    },
    element_model_ms={
        40: {2: 88.733, 4: 70.086, 8: 324.738, 16: 25.423},
        60: {2: 826.578, 4: 315.925, 8: 607.044, 16: 292.929},
        80: {2: 1280.438, 4: 379.082, 8: 209.524, 16: 255.179},
        100: {2: 5515.629, 4: 3591.148, 8: 1461.293, 16: 1095.009},
    },
)


def fit_count_model(points: dict[int, int]) -> CountModel:
    """Solve i*n^3 + j*n^2 = total exactly from two (n, total) points.

    Raises ValueError if points is not a mapping, a size not a positive
    int or a total not a plain int, there are fewer than two points, the
    solution is not integral, or any remaining point disagrees with the
    fit. The two smallest sizes are distinct positive ints, so the
    system's determinant n1**2 * n2**2 * (n1 - n2) is never 0.
    """
    _of_type("points", points, Mapping, "a mapping")
    for n, total in points.items():
        _int_arg("matrix size", n, 1)
        _int_arg("total", total)
    if len(points) < 2:
        raise ValueError("need at least two points")
    items = sorted(points.items())
    (n1, t1), (n2, t2) = items[0], items[1]
    det = n1 ** 3 * n2 ** 2 - n2 ** 3 * n1 ** 2
    cubic = Fraction(t1 * n2 ** 2 - t2 * n1 ** 2, det)
    quadratic = Fraction(n1 ** 3 * t2 - n2 ** 3 * t1, det)
    if cubic.denominator != 1 or quadratic.denominator != 1:
        raise ValueError(f"fit is not integral: {cubic}, {quadratic}")
    model = CountModel(int(cubic), int(quadratic))
    for n, total in items[2:]:
        if model.count(n) != total:
            raise ValueError(f"point n={n} disagrees with fit {model}")
    return model


def ratio_report(n: int) -> Fraction:
    """Exact instructions-per-element ratio (40n + 107) / (14n + 10); a
    size that is not a positive int raises count()'s ValueError."""
    return Fraction(INSTRUCTION_COUNT_MODEL.count(n), ELEMENT_COUNT_MODEL.count(n))


def matmul_oracle(a: Matrix, b: Matrix) -> Matrix:
    """Plain integer matrix product, the correctness reference.

    Each cell is the exact dot product of a row of a and a column of b;
    a cell outside the 64-bit range raises IntegerOverflowError, and an a
    or b that is not a Matrix ValueError.
    """
    _of_type("a", a, Matrix)
    _of_type("b", b, Matrix)
    if a.n != b.n:
        raise ValueError(f"matrix sizes differ: {a.n} vs {b.n}")
    n = a.n
    rows = [a.entries[i * n:(i + 1) * n] for i in range(n)]
    columns = [b.entries[j::n] for j in range(n)]
    out = []
    for i, row in enumerate(rows):
        for j, column in enumerate(columns):
            acc = sum(map(mul, row, column))
            if acc > INT64_MAX or acc < INT64_MIN:
                raise _overflow(f"product cell ({i}, {j})", acc)
            out.append(acc)
    return Matrix(n, tuple(out))


@lru_cache(maxsize=1)
def _seeded_outputs(n: int, seed: int) -> MappingProxyType:
    """The product of the seeded n x n matrices, read-only, keyed (i, j).

    A sweep asks for it at every worker count of one size in a row, so
    one entry serves them all.
    """
    product = matmul_oracle(generate_matrix(n, seed, 0), generate_matrix(n, seed, 1))
    return MappingProxyType({(i, j): product.at(i, j) for i in range(n) for j in range(n)})


def simulate_instruction_model(n: int, workers: int,
                               costs: CostModel = CostModel(),
                               seed: int = 0) -> Metrics:
    """Master/slave instruction machine on the same matmul workload.

    The master broadcasts B and a block of ceil(n / workers) rows of A to
    every slave (remainder rows trail off, so late slaves may sit empty),
    each slave computes its block, and one message returns it: three
    messages per slave, total 3 * workers. Slave s spends its share of
    INSTRUCTION_COUNT_MODEL's count, one instruction per t_proc tick, and
    finishes at 3 * t_msg + work_s * t_proc; the run takes the longest
    slave's finish time. Outputs are the true product for the seeded
    matrices, so checksums line up with the element machine. ValueError
    refuses a size or slave count that is not a positive int, a seed
    that is not a plain int and costs that are not a CostModel.
    """
    _int_arg("matrix size", n, 1)
    _int_arg("slave count", workers, 1)
    _int_arg("seed", seed)
    _of_type("costs", costs, CostModel)

    block = -(-n // workers)  # ceil
    rows = [max(0, min(block, n - block * s)) for s in range(workers)]
    model = INSTRUCTION_COUNT_MODEL
    work = [model.cubic * n * n * r + model.quadratic * n * r for r in rows]
    busy = [w * costs.t_proc for w in work]
    sim_time = 3 * costs.t_msg + max(busy)

    outputs = dict(_seeded_outputs(n, seed))  # every record owns its outputs

    return Metrics(
        elements_processed=model.count(n),
        operands_processed=model.count(n),
        messages=3 * workers,
        sim_time=sim_time,
        idle_time_total=workers * sim_time - sum(busy),
        per_worker_processed=work,
        per_worker_busy=busy,
        result_checksum=sum(outputs.values()) % (1 << 32),
        outputs=outputs,
    )
