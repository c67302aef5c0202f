"""Golden records for the machine simulator.

machine_golden.json holds the complete Metrics of a fixed set of
simulate() runs, and the full on_event stream of one of them, as the
simulator produced them before its unit expansion moved onto the
engine's compiled plans. Every field is compared exactly, outputs in
insertion order too, so any drift in dispatch order, timing or message
accounting shows here.

To rewrite the file after an intended change to the machine model:

    PYTHONPATH=src python tests/test_machine_golden.py --write
"""

import json
import sys
from pathlib import Path

import pytest

from aridem import (
    CostModel,
    Element,
    IndexTransform,
    MachineConfig,
    Operation,
    Program,
    Relation,
    build_matmul_program,
    simulate,
)
from conftest import fanout_chain_program, single_join_program

GOLDEN_PATH = Path(__file__).with_name("machine_golden.json")

MATMUL_SIZES = (1, 3, 6)
WORKER_COUNTS = (1, 2, 5, 16)
DISPATCH = ("idle", "roundrobin")
COSTS = ((1, 10, 0), (1, 0, 0), (3, 10, 2), (0, 1, 0))
EVENT_CASE = ("matmul", 2, 2, "roundrobin", (3, 10, 2))
# Tie-heavy runs: with t_master = 0 every unit dispatched at one moment
# finishes at one moment, and round-robin's wrap can hand them out in
# falling worker order. The second pinned stream is such a run.
TIE_PROGRAMS = (("matmul", 3), ("matmul", 6), ("fanout_chain", 3))
TIE_WORKER_COUNTS = (3, 7)
TIE_COSTS = ((1, 10, 0), (1, 0, 0), (0, 1, 0))
TIE_EVENT_CASE = ("matmul", 2, 3, "roundrobin", (0, 1, 0))


def side_sink_program(n):
    """Elements of id 0 feed the sunk result, a sink that records nothing
    (its units still cost messages) and a fan-out nothing consumes."""
    relations = [
        Relation((0,), Operation.NEGATE, (), 1, IndexTransform.keep()),
        Relation((1,), Operation.SINK, (), 1, IndexTransform.keep()),
        Relation((0,), Operation.SQUARE, (), 2, IndexTransform.drop(0)),
        Relation((2,), Operation.SINK, (), 2, IndexTransform.keep()),
        Relation((0,), Operation.REPLICATE, (2,), 3,
                 IndexTransform.insert_varied(1, 2)),
    ]
    return Program(relations=relations,
                   initial_elements=[Element(0, (i,), i - 2) for i in range(n)],
                   arities={0: 1, 1: 1, 2: 0, 3: 2}, result_identifier=1)


PROGRAMS = {
    "matmul": lambda n: build_matmul_program(n, seed=n + 11),
    "fanout_chain": lambda n: fanout_chain_program(n, n + 1),
    "single_join": lambda n: single_join_program(
        [(3 * i + 1, 5 - 2 * i) for i in range(n)], left_first=False),
    "side_sink": side_sink_program,
}


def cases():
    """(program, size, workers, dispatch, costs) for every pinned run."""
    for n in MATMUL_SIZES:
        for p in WORKER_COUNTS:
            for d in DISPATCH:
                for c in COSTS:
                    yield ("matmul", n, p, d, c)
    for name, n in (("fanout_chain", 3), ("single_join", 5), ("side_sink", 4)):
        for p in WORKER_COUNTS:
            for d in DISPATCH:
                for c in ((1, 10, 0), (3, 10, 2)):
                    yield (name, n, p, d, c)
    for name, n in TIE_PROGRAMS:
        for p in TIE_WORKER_COUNTS:
            for d in DISPATCH:
                for c in TIE_COSTS:
                    yield (name, n, p, d, c)


def simulate_case(case, on_event=None):
    name, n, workers, dispatch, (t_proc, t_msg, t_master) = case
    return simulate(PROGRAMS[name](n), MachineConfig(workers=workers, dispatch=dispatch),
                    CostModel(t_proc, t_msg, t_master), on_event=on_event)


def record(metrics) -> dict:
    """Every Metrics field as JSON data; outputs keep their insertion order."""
    return {
        "elements_processed": metrics.elements_processed,
        "operands_processed": metrics.operands_processed,
        "messages": metrics.messages,
        "sim_time": metrics.sim_time,
        "idle_time_total": metrics.idle_time_total,
        "per_worker_processed": list(metrics.per_worker_processed),
        "per_worker_busy": list(metrics.per_worker_busy),
        "result_checksum": metrics.result_checksum,
        "outputs": [[list(idx), value] for idx, value in metrics.outputs.items()],
    }


def case_key(case) -> str:
    name, n, workers, dispatch, costs = case
    return f"{name} n={n} P={workers} {dispatch} costs={','.join(map(str, costs))}"


def event_stream(case) -> list:
    events = []
    simulate_case(case, on_event=events.append)
    return [list(event) for event in events]


def golden_records() -> dict:
    return {
        "records": {case_key(c): record(simulate_case(c)) for c in cases()},
        "events": {"case": case_key(EVENT_CASE), "stream": event_stream(EVENT_CASE)},
        "tie_events": {"case": case_key(TIE_EVENT_CASE),
                       "stream": event_stream(TIE_EVENT_CASE)},
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


def test_every_case_is_pinned(golden):
    assert sorted(golden["records"]) == sorted(case_key(c) for c in cases())


@pytest.mark.parametrize("case", list(cases()), ids=case_key)
def test_metrics_match_golden(golden, case):
    assert record(simulate_case(case)) == golden["records"][case_key(case)]


def test_event_stream_matches_golden(golden):
    assert golden["events"]["case"] == case_key(EVENT_CASE)
    assert event_stream(EVENT_CASE) == golden["events"]["stream"]


def test_tie_event_stream_matches_golden(golden):
    assert golden["tie_events"]["case"] == case_key(TIE_EVENT_CASE)
    stream = event_stream(TIE_EVENT_CASE)
    dispatches = [event for event in stream if event[0] == "dispatch"]
    # the case must keep pushing equal-time finishes in falling worker order
    assert any(later[1] == earlier[1] and later[2] < earlier[2]
               for earlier, later in zip(dispatches, dispatches[1:]))
    assert stream == golden["tie_events"]["stream"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_machine_golden.py --write")
    golden_data = golden_records()
    # One record per line, so a drift shows as a readable diff.
    records = [f"{json.dumps(key)}: {json.dumps(value)}"
               for key, value in golden_data["records"].items()]
    with open(GOLDEN_PATH, "w") as handle:
        handle.write('{"events": ' + json.dumps(golden_data["events"]) + ',\n'
                     '"tie_events": ' + json.dumps(golden_data["tie_events"]) + ',\n'
                     '"records": {\n' + ",\n".join(records) + "\n}}\n")
