"""Walk through the element model one deduction at a time.

An element is (identifier, indices, value). A relation consumes elements
of its input identifier(s) and deduces new ones. Execution is a loop:
pop an element, apply every relation that wants it, push what came out.
"""

from aridem import (
    Element,
    Execution,
    IndexTransform,
    Operation,
    Program,
    Relation,
    build_negate_demo,
)

print("=== negate: the smallest possible program ===")
program = build_negate_demo()
print(f"initial element: {program.initial_elements[0].describe(program.names)}")
for rid, rel in enumerate(program.relations):
    inputs = "/".join(program.identifier_name(i) for i in rel.input_identifiers)
    print(f"relation {rid}: {rel.operation.name} on {inputs}"
          f" -> {program.identifier_name(rel.output_identifier)}")

print("\nstepping to quiescence:")
ex = Execution(program, on_event=lambda e: print(f"  {e[0]}: {e[1:]}"))
while ex.step():
    pass
print(f"outputs: {ex.outputs}")
print(f"processed {ex.elements_processed}, created {ex.elements_created}")

print("\n=== a binary join: multiply two streams pairwise ===")
# MulPair fires once both operands with the same index list have arrived.
# Whichever shows up first waits in the partial store.
pairs = Program(
    relations=[Relation((0, 1), Operation.MUL_PAIR, (), 2, IndexTransform.keep()),
               Relation((2,), Operation.SINK, (), 2, IndexTransform.keep())],
    initial_elements=[
        Element(0, (0,), 6), Element(0, (1,), 7),
        Element(1, (1,), 10), Element(1, (0,), 10),
    ],
    arities={0: 1, 1: 1, 2: 1},
    result_identifier=2,
    names={0: "x", 1: "y", 2: "xy"},
)
ex = Execution(pairs)
while ex.step():
    peak = ex.max_partial_depth
    print(f"  after step {ex.elements_processed}: "
          f"{len(ex.partials)} waiting (peak {peak})")
print(f"outputs: {ex.outputs}")

print("\n=== fan-out: Replicate turns one element into n ===")
fan_out = Program(
    relations=[Relation((0,), Operation.REPLICATE, (3,), 1,
                        IndexTransform.insert_varied(0, 3)),
               Relation((1,), Operation.SINK, (), 1, IndexTransform.keep())],
    initial_elements=[Element(0, (5,), 42)],
    arities={0: 1, 1: 2},
    result_identifier=1,
)


def show_created(event):
    if event[0] == "create":
        print(f"  {event[1]}")


Execution(fan_out, on_event=show_created).run()
