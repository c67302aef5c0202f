"""Seeded generator of small well-formed element programs that are not matmul.

A spec is plain data: relations as (inputs, operation name, parameters,
output, (transform kind name, position, count)), seed elements as
(identifier, indices, value), registered arities, and the result
identifier. The generator evaluates every relation as it adds it, so each
spec also carries the outputs and the element count that any correct
executor must report. build() turns a spec into a Program through the
public Relation / RelationStore / Program API.

Programs use NEGATE, SQUARE, REPLICATE fan-out, MUL_PAIR joins, DROP and
TRUNCATE transforms, identifiers consumed by several relations, and
dead-end identifiers that nothing consumes.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

# Values stay far inside int64 so no generated program can overflow.
VALUE_LIMIT = 1 << 40
MAX_ARITY = 3


@dataclass(frozen=True)
class Spec:
    relations: tuple
    initial: tuple
    arities: dict
    result: int
    outputs: dict
    elements: int


def _transformed(kind: str, position: int, count: int, indices: tuple) -> list[tuple]:
    if kind == "KEEP":
        return [indices]
    if kind == "DROP":
        return [indices[:position] + indices[position + 1:]]
    if kind == "TRUNCATE":
        return [indices[:count]]
    if kind == "INCREMENT_LAST":
        return [indices[:-1] + (indices[-1] + 1,)]
    return [indices[:position] + (j,) + indices[position:] for j in range(count)]


def random_spec(rng: random.Random) -> Spec:
    """One small program; every choice comes from rng."""
    arity = rng.randint(1, 2)
    dims = [rng.randint(1, 4) for _ in range(arity)]
    elems = {0: [(idx, rng.randint(-9, 9))
                 for idx in itertools.product(*(range(d) for d in dims))]}
    arities = {0: arity}
    distinct = [0]  # identifiers whose index lists never repeat
    relations: list[tuple] = []

    def unary(src: int, op: str, transform: tuple, clean: bool) -> int:
        out = len(arities)
        kind, position, count = transform
        params = (count,) if op == "REPLICATE" else ()
        produced = []
        for idx, value in elems[src]:
            value = -value if op == "NEGATE" else value * value if op == "SQUARE" else value
            produced.extend((i, value) for i in _transformed(kind, position, count, idx))
        relations.append(((src,), op, params, out, transform))
        elems[out] = produced
        arities[out] = _arity(arities[src], transform)
        if clean:
            distinct.append(out)
        return out

    def safe_square(src: int) -> str:
        return "SQUARE" if _peak(elems[src]) ** 2 < VALUE_LIMIT else "NEGATE"

    for _ in range(rng.randint(2, 6)):
        src = rng.choice(distinct)
        a = arities[src]
        shape = rng.choice(("map", "map", "replicate", "drop", "truncate", "join"))
        if shape == "replicate" and a < MAX_ARITY:
            unary(src, "REPLICATE",
                  ("INSERT_VARIED", rng.randint(0, a), rng.randint(1, 3)), True)
        elif shape in ("drop", "truncate") and a >= 1:
            op = rng.choice(("NEGATE", safe_square(src)))
            transform = (("DROP", rng.randrange(a), 0) if shape == "drop"
                         else ("TRUNCATE", 0, rng.randrange(a)))
            # Dropping indices can repeat an index list, so this identifier
            # may only dead-end or feed a sink that records nothing.
            out = unary(src, op, transform, False)
            if rng.random() < 0.5:
                relations.append(((out,), "SINK", (), out, ("KEEP", 0, 0)))
        elif shape == "join" and _peak(elems[src]) ** 2 < VALUE_LIMIT:
            cube = _peak(elems[src]) ** 3 < VALUE_LIMIT
            left = unary(src, "NEGATE", ("KEEP", 0, 0), True)
            right = unary(src, "SQUARE" if cube else "NEGATE", ("KEEP", 0, 0), True)
            out = len(arities)
            right_values = dict(elems[right])
            elems[out] = [(idx, v * right_values[idx]) for idx, v in elems[left]]
            arities[out] = a
            relations.append(((left, right), "MUL_PAIR", (), out, ("KEEP", 0, 0)))
            distinct.append(out)
        else:
            transform = ("INCREMENT_LAST", 0, 0) if a and rng.random() < 0.5 else ("KEEP", 0, 0)
            unary(src, rng.choice(("NEGATE", safe_square(src))), transform, True)

    result = rng.choice(distinct[1:] or distinct)
    relations.append(((result,), "SINK", (), result, ("KEEP", 0, 0)))
    return Spec(
        relations=tuple(relations),
        initial=tuple((0, idx, v) for idx, v in elems[0]),
        arities=arities,
        result=result,
        outputs=dict(elems[result]),
        elements=sum(len(e) for e in elems.values()),
    )


def _peak(elements: list) -> int:
    return max((abs(v) for _, v in elements), default=0)


def _arity(in_arity: int, transform: tuple) -> int:
    kind, _, count = transform
    if kind == "DROP":
        return in_arity - 1
    if kind == "TRUNCATE":
        return count
    if kind == "INSERT_VARIED":
        return in_arity + 1
    return in_arity


def build(aridem, spec: Spec):
    """The Program a spec describes, built through the public API."""
    store = aridem.RelationStore()
    for inputs, op, params, out, (kind, position, count) in spec.relations:
        transform = aridem.IndexTransform(aridem.TransformKind[kind], position, count)
        store.add(aridem.Relation(inputs, aridem.Operation[op], params, out, transform))
    return aridem.Program(
        relations=store,
        initial_elements=[aridem.Element(i, idx, v) for i, idx, v in spec.initial],
        arities=dict(spec.arities),
        result_identifier=spec.result,
    )
