"""The value classes: constructors, reprs, equality, hashing,
immutability and copies.

Each class is built by keyword, and its repr is pinned as a literal, so
the behaviour stays the same whichever way the class is written.
"""

import copy
import dataclasses
import importlib
import inspect
import pickle
import pkgutil
import re
from pathlib import Path

import pytest

import aridem
from aridem import (
    CostModel,
    CountModel,
    IndexTransform,
    MachineConfig,
    Matrix,
    Metrics,
    Operation,
    Program,
    ProgramError,
    Relation,
    RunResult,
    TransformKind,
    build_matmul_program,
    build_negate_demo,
    run,
)
from aridem.baseline import ReferenceTables

KEEP_REPR = "IndexTransform(kind=<TransformKind.KEEP: 1>, position=0, count=0)"


def negate_relation(**changes):
    fields = dict(input_identifiers=(0,), operation=Operation.NEGATE, parameters=(),
                  output_identifier=1, index_transform=IndexTransform.keep())
    fields.update(changes)
    return Relation(**fields)


def metrics(**changes):
    fields = dict(elements_processed=2, messages=4, sim_time=42, per_worker_processed=[2],
                  per_worker_busy=[2], outputs={(): -5})
    fields.update(changes)
    return Metrics(**fields)


def run_result(**changes):
    fields = dict(outputs={(): -5}, elements_processed=2, elements_created=2,
                  max_queue_depth=1, max_partial_depth=0)
    fields.update(changes)
    return RunResult(**fields)


def tables(**changes):
    fields = dict(sizes=(40,), instruction_counts={40: 2}, element_counts={40: 3},
                  instruction_model_ms={40: {2: 1.5}}, element_model_ms={40: {2: 2.5}})
    fields.update(changes)
    return ReferenceTables(**fields)


# (build by keyword, its repr, a build that differs in one field); Program
# is checked on its own below, as it is unhashable
CASES = {
    "IndexTransform": (
        lambda: IndexTransform(kind=TransformKind.DROP, position=1),
        "IndexTransform(kind=<TransformKind.DROP: 2>, position=1, count=0)",
        lambda: IndexTransform(kind=TransformKind.DROP, position=2),
    ),
    "Relation": (
        negate_relation,
        "Relation(input_identifiers=(0,), operation=<Operation.NEGATE: 1>, "
        f"parameters=(), output_identifier=1, index_transform={KEEP_REPR})",
        lambda: negate_relation(output_identifier=2),
    ),
    "MachineConfig": (
        lambda: MachineConfig(workers=2),
        "MachineConfig(workers=2, dispatch='idle')",
        lambda: MachineConfig(workers=2, dispatch="roundrobin"),
    ),
    "CostModel": (
        lambda: CostModel(t_proc=1, t_msg=10),
        "CostModel(t_proc=1, t_msg=10, t_master=0)",
        lambda: CostModel(t_proc=1, t_msg=10, t_master=1),
    ),
    "Metrics": (
        metrics,
        "Metrics(elements_processed=2, messages=4, sim_time=42, per_worker_processed=[2], "
        "per_worker_busy=[2], outputs={(): -5})",
        lambda: metrics(per_worker_busy=[3]),
    ),
    "RunResult": (
        run_result,
        "RunResult(outputs={(): -5}, elements_processed=2, elements_created=2, "
        "max_queue_depth=1, max_partial_depth=0)",
        lambda: run_result(max_partial_depth=1),
    ),
    "Matrix": (
        lambda: Matrix(n=1, entries=(3,)),
        "Matrix(n=1, entries=(3,))",
        lambda: Matrix(n=1, entries=(4,)),
    ),
    "CountModel": (
        lambda: CountModel(cubic=1, quadratic=2),
        "CountModel(cubic=1, quadratic=2)",
        lambda: CountModel(cubic=1, quadratic=3),
    ),
    "ReferenceTables": (
        tables,
        "ReferenceTables(sizes=(40,), instruction_counts=mappingproxy({40: 2}), "
        "element_counts=mappingproxy({40: 3}), "
        "instruction_model_ms=mappingproxy({40: mappingproxy({2: 1.5})}), "
        "element_model_ms=mappingproxy({40: mappingproxy({2: 2.5})}))",
        lambda: tables(element_counts={40: 4}),
    ),
}

# the fields of each frozen class, the compiled plans too
FIELDS = {
    "IndexTransform": ("kind", "position", "count"),
    "Relation": ("input_identifiers", "operation", "parameters", "output_identifier",
                 "index_transform"),
    "Program": ("relations", "initial_elements", "arities", "result_identifier",
                "names", "_plans", "_binary", "_places", "_keys"),
    "MachineConfig": ("workers", "dispatch"),
    "CostModel": ("t_proc", "t_msg", "t_master"),
    "Matrix": ("n", "entries"),
    "CountModel": ("cubic", "quadratic"),
    "ReferenceTables": ("sizes", "instruction_counts", "element_counts",
                        "instruction_model_ms", "element_model_ms"),
}

NEGATE_DEMO_REPR = (
    "Program(relations=(Relation(input_identifiers=(0,), operation=<Operation.NEGATE: 1>, "
    f"parameters=(), output_identifier=1, index_transform={KEEP_REPR}), "
    "Relation(input_identifiers=(1,), operation=<Operation.SINK: 6>, parameters=(), "
    f"output_identifier=1, index_transform={KEEP_REPR})), "
    "initial_elements=(Element(identifier=0, indices=(), value=5),), "
    "arities=mappingproxy({0: 0, 1: 0}), result_identifier=1, "
    "names=mappingproxy({0: 'b', 1: 'a'}))"
)


def rebuilt(program):
    """A second Program over the same parts."""
    return Program(relations=program.relations, initial_elements=program.initial_elements,
                   arities=program.arities, result_identifier=program.result_identifier,
                   names=program.names)


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    make, text, _ = CASES[name]
    assert repr(make()) == text


def test_program_repr_leaves_out_its_plans():
    assert repr(build_negate_demo()) == NEGATE_DEMO_REPR


def test_stored_relation_is_left_as_it_was():
    rel = negate_relation(input_identifiers=(1,), operation=Operation.SINK)
    before = repr(rel)
    program = Program([negate_relation(), rel], [], {0: 0, 1: 0}, 1)
    assert program.relations[1] is rel
    assert repr(rel) == before == (
        "Relation(input_identifiers=(1,), operation=<Operation.SINK: 6>, parameters=(), "
        f"output_identifier=1, index_transform={KEEP_REPR})")
    assert rel == negate_relation(input_identifiers=(1,), operation=Operation.SINK)


@pytest.mark.parametrize("name", CASES)
def test_equality(name):
    make, _, different = CASES[name]
    assert make() == make()
    assert not make() != make()
    assert make() != different()
    assert make() != CASES["CostModel" if name != "CostModel" else "Matrix"][0]()
    assert make() != object()
    assert make().__eq__((1,)) is NotImplemented


def test_program_equality_leaves_out_its_plans():
    program = build_negate_demo()
    twin = rebuilt(program)
    assert twin._plans is not program._plans
    assert twin == program
    assert program == build_negate_demo()  # equal relations, built anew
    assert program != build_negate_demo(value=6)
    assert program != rebuilt(program).relations
    with pytest.raises(TypeError, match="unhashable"):
        hash(program)  # its mappings are read-only, not hashable


@pytest.mark.parametrize("name", ["IndexTransform", "Relation", "MachineConfig",
                                  "CostModel", "Matrix", "CountModel"])
def test_equal_values_hash_equal(name):
    make, _, different = CASES[name]
    assert hash(make()) == hash(make())
    assert len({make(), make(), different()}) == 2


def test_unhashable_values():
    assert Metrics.__hash__ is None and RunResult.__hash__ is None
    with pytest.raises(TypeError, match="unhashable"):
        hash(metrics())
    with pytest.raises(TypeError, match="unhashable"):
        hash(run_result())
    with pytest.raises(TypeError, match="unhashable"):
        hash(tables())  # frozen, but its tables are read-only, not hashable


def frozen_values():
    for name in FIELDS:
        if name == "Program":
            yield name, build_negate_demo()
        else:
            yield name, CASES[name][0]()


@pytest.mark.parametrize("name, value", list(frozen_values()))
def test_assigning_or_deleting_any_field_raises(name, value):
    before = repr(value)
    for field in FIELDS[name]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1
    assert repr(value) == before


def test_metrics_are_mutable_with_a_fresh_outputs_dict():
    m = metrics()
    m.sim_time = 7
    m.outputs[(1,)] = 1
    assert m.sim_time == 7
    before = repr(m)
    with pytest.raises(AttributeError, match="^cannot delete field 'messages'$"):
        del m.messages
    assert repr(m) == before
    first = Metrics(1, 2, 1, [1], [1])
    second = Metrics(1, 2, 1, [1], [1])
    assert first.outputs == {} and first.outputs is not second.outputs


@pytest.mark.parametrize("make", [metrics, run_result], ids=["Metrics", "RunResult"])
def test_stored_fields_can_be_set_but_not_deleted(make):
    value = make()
    before = repr(value)
    for field in value._fields:
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(value, field)
    assert repr(value) == before
    assert value == make()
    for field in value._fields:
        setattr(value, field, 0)
        assert getattr(value, field) == 0
    value.extra = 1
    del value.extra
    assert not hasattr(value, "extra")


@pytest.mark.parametrize("name", ["operands_processed", "idle_time_total", "result_checksum"])
def test_derived_metrics_totals_refuse_assignment(name):
    m = metrics()
    with pytest.raises(AttributeError):
        setattr(m, name, 0)
    with pytest.raises(AttributeError):
        delattr(m, name)
    assert name not in vars(m)


def test_derived_metrics_totals_follow_their_fields():
    m = metrics()
    assert (m.operands_processed, m.idle_time_total, m.result_checksum) == (2, 40, 4294967291)
    m.outputs[(1,)] = 3
    assert m.result_checksum == 4294967294
    m.per_worker_busy[0] += 1
    assert m.idle_time_total == 39
    m.per_worker_processed.append(5)
    assert m.operands_processed == 7


def test_positional_and_keyword_construction_agree():
    assert IndexTransform(TransformKind.DROP, 1) == CASES["IndexTransform"][0]()
    assert IndexTransform(TransformKind.KEEP) == IndexTransform(
        kind=TransformKind.KEEP, position=0, count=0)
    assert Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep()) == negate_relation()
    assert MachineConfig(2) == MachineConfig(workers=2, dispatch="idle")
    assert CostModel() == CostModel(1, 10, 0) == CASES["CostModel"][0]()
    assert Metrics(2, 4, 42, [2], [2], {(): -5}) == metrics()
    assert RunResult({(): -5}, 2, 2, 1, 0) == run_result()
    assert Matrix(1, (3,)) == CASES["Matrix"][0]()
    assert CountModel(1, 2) == CASES["CountModel"][0]()
    assert tables() == ReferenceTables((40,), {40: 2}, {40: 3}, {40: {2: 1.5}},
                                       {40: {2: 2.5}})
    program = build_negate_demo()
    positional = Program(program.relations, program.initial_elements, program.arities,
                         program.result_identifier)
    assert positional.names == {}
    assert positional == Program(relations=program.relations,
                                 initial_elements=program.initial_elements,
                                 arities=program.arities,
                                 result_identifier=program.result_identifier, names={})


PARAMETERS = {
    IndexTransform: ["kind", "position", "count"],
    Relation: ["input_identifiers", "operation", "parameters", "output_identifier",
               "index_transform"],
    Program: ["relations", "initial_elements", "arities", "result_identifier", "names"],
    MachineConfig: ["workers", "dispatch"],
    CostModel: ["t_proc", "t_msg", "t_master"],
    Metrics: ["elements_processed", "messages", "sim_time", "per_worker_processed",
              "per_worker_busy", "outputs"],
    RunResult: ["outputs", "elements_processed", "elements_created", "max_queue_depth",
                "max_partial_depth"],
    Matrix: ["n", "entries"],
    CountModel: ["cubic", "quadratic"],
    ReferenceTables: ["sizes", "instruction_counts", "element_counts",
                      "instruction_model_ms", "element_model_ms"],
}


@pytest.mark.parametrize("cls", PARAMETERS, ids=lambda cls: cls.__name__)
def test_constructor_parameters(cls):
    assert list(inspect.signature(cls).parameters) == PARAMETERS[cls]


@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)),
                                        copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("name", CASES)
def test_round_trips(name, round_trip):
    value = CASES[name][0]()
    back = round_trip(value)
    assert type(back) is type(value)
    assert repr(back) == repr(value)
    assert back == value


@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)),
                                        copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_program_and_stored_relation_round_trips(round_trip):
    program = build_negate_demo()
    back = round_trip(program)
    assert repr(back) == NEGATE_DEMO_REPR
    assert back == program
    assert back._plans == program._plans
    assert run(back).outputs == {(): -5}
    relation = round_trip(program.relations[1])
    assert relation == program.relations[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        relation.output_identifier = 0


@pytest.mark.parametrize("round_trip", [lambda v: pickle.loads(pickle.dumps(v)),
                                        copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("value, field, bad, error", [
    (negate_relation(), "operation", "bogus", "unknown operation 'bogus'"),
    (IndexTransform.keep(), "kind", "bogus", "transform kind 'bogus' is not a TransformKind"),
    (build_negate_demo(), "result_identifier", 9, "result identifier has no registered arity"),
    (MachineConfig(2), "workers", 0, "workers must be a positive int, not 0"),
    (CostModel(), "t_proc", -1, "t_proc must be a non-negative int, not -1"),
    (CountModel(1, 0), "cubic", True, "cubic term must be a positive int, not True"),
    (Matrix(1, (5,)), "entries", [5], "matrix entries must be a tuple, not list"),
], ids=["Relation", "IndexTransform", "Program", "MachineConfig", "CostModel", "CountModel",
        "Matrix"])
def test_round_trips_check_each_field_again(value, field, bad, error, round_trip):
    """A copy is rebuilt through its class, so it refuses a field the class
    refuses. A forged Relation with operation 'bogus', restored with its
    fields written straight in, would build into a Program that runs it
    as Square."""
    forged = object.__new__(type(value))
    forged.__dict__.update(value.__dict__, **{field: bad})
    with pytest.raises((ProgramError, ValueError), match=f"^{re.escape(error)}$"):
        round_trip(forged)


def test_programs_built_alike_are_equal():
    """Two builds of one matmul program are equal, and so are its pickle
    and deepcopy round trips: a program is plain data, relations
    included."""
    program = build_matmul_program(4, 0)
    assert build_matmul_program(4, 0) == program
    assert build_matmul_program(4, 1) != program
    for back in (pickle.loads(pickle.dumps(program)), copy.deepcopy(program)):
        assert back == program
        assert back.relations == program.relations
        assert back._binary == program._binary
    assert len(set(program.relations)) == len(program.relations)


def test_only_run_result_is_a_dataclass():
    """Only RunResult is a dataclass, and only for dataclasses.replace and fields."""
    found = []
    for info in pkgutil.iter_modules(aridem.__path__):
        module = importlib.import_module(f"aridem.{info.name}")
        for obj in vars(module).values():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found.append(f"{info.name}.{obj.__qualname__}")
    assert found == ["engine.RunResult"]


def test_run_result_methods_are_written_in_the_package():
    """@dataclass generates no RunResult method: each is compiled from a
    package file, not from source text built at import."""
    package = Path(aridem.__file__).parent
    for method in (RunResult.__init__, RunResult.__repr__, RunResult.__eq__):
        assert Path(method.__code__.co_filename).parent == package


def test_run_result_supports_dataclasses_replace():
    result = run(build_negate_demo())
    changed = dataclasses.replace(result, elements_created=1)
    assert type(changed) is RunResult
    assert changed.elements_created == 1 and result.elements_created == 2
    assert changed == dataclasses.replace(changed)
    assert changed != result
    assert dataclasses.replace(changed, elements_created=2) == result
    names = PARAMETERS[RunResult]
    assert [f.name for f in dataclasses.fields(result)] == names
    assert list(RunResult.__match_args__) == names
    assert dataclasses.asdict(result) == {name: getattr(result, name) for name in names}
