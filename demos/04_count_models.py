"""Count work instead of guessing at it.

The paper's published totals fit two exact polynomials for an n x n
matmul: 40n^3 + 107n^2 instructions on a conventional CPU, and
14n^3 + 10n^2 elements. Both are exact, so the comparison is a ratio of
integers, not a benchmark. This package's element encoding processes
4n^3 + 3n^2 elements (2,240 at n = 8, below). The published element
count equals 2 * elements_processed + messages of simulate() on that
encoding: an identity observed at every size, worker count, dispatch
policy and cost model tested, not a definition the paper gives.
"""

from fractions import Fraction

from aridem import (
    ELEMENT_COUNT_MODEL,
    INSTRUCTION_COUNT_MODEL,
    CostModel,
    MachineConfig,
    build_matmul_program,
    fit_count_model,
    ratio_report,
    simulate,
    simulate_instruction_model,
)

print("=== the two polynomials ===")
print(f"instructions: {INSTRUCTION_COUNT_MODEL}")
print(f"elements:     {ELEMENT_COUNT_MODEL}")
print(f"{'n':>6} {'instructions':>16} {'elements':>14} {'ratio':>8}")
for n in (10, 40, 60, 80, 100, 1000):
    r = float(ratio_report(n))
    print(f"{n:>6} {INSTRUCTION_COUNT_MODEL.count(n):>16,}"
          f" {ELEMENT_COUNT_MODEL.count(n):>14,} {r:>8.4f}")

limit = Fraction(40, 14)
print(f"\nthe ratio drifts down toward 40/14 = {float(limit):.4f}"
      " and sits in [2.85, 3.0] for n >= 40")

print("\n=== the models are two-point fits, not decrees ===")
pts = {n: INSTRUCTION_COUNT_MODEL.count(n) for n in (40, 100)}
print(f"refit from {sorted(pts.items())}: {fit_count_model(pts)}")

print("\n=== both machines on the same problem ===")
n, workers, seed = 8, 4, 3
program = build_matmul_program(n, seed=seed)
em = simulate(program, MachineConfig(workers=workers), CostModel())
im = simulate_instruction_model(n, workers, seed=seed)
print(f"n={n}, P={workers}, seed={seed}")
print(f"  element model:     processed {em.elements_processed:>6},"
      f" messages {em.messages:>5}, sim_time {em.sim_time}")
print(f"  instruction model: processed {im.elements_processed:>6},"
      f" messages {im.messages:>5}, sim_time {im.sim_time}")
assert em.result_checksum == im.result_checksum
print(f"  identical result checksum {em.result_checksum}")

print("\nthe instruction machine sends 3 messages per worker, full stop;")
print("the element machine pays a message for every hop an element takes.")
