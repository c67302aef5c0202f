import random
from fractions import Fraction

import pytest

from aridem import (
    ELEMENT_COUNT_MODEL,
    INSTRUCTION_COUNT_MODEL,
    REFERENCE_TABLES,
    CostModel,
    CountModel,
    MachineConfig,
    Matrix,
    baseline,
    build_matmul_program,
    fit_count_model,
    generate_matrix,
    matmul_oracle,
    ratio_report,
    simulate,
    simulate_instruction_model,
    validate_metrics,
)

SIZES = (40, 60, 80, 100)


class TestCountModels:
    def test_instruction_totals_match_reference(self):
        for n in SIZES:
            expected = REFERENCE_TABLES.instruction_counts[n]
            assert INSTRUCTION_COUNT_MODEL.count(n) == expected

    def test_element_totals_match_reference(self):
        for n in SIZES:
            assert ELEMENT_COUNT_MODEL.count(n) == REFERENCE_TABLES.element_counts[n]

    def test_specific_values(self):
        assert INSTRUCTION_COUNT_MODEL.count(60) == 9_025_200
        assert ELEMENT_COUNT_MODEL.count(60) == 3_060_000

    def test_count_model_validation(self):
        with pytest.raises(ValueError):
            CountModel(0, 5)
        with pytest.raises(ValueError):
            CountModel(3, -1)

    @pytest.mark.parametrize("args, text", [
        ((1.5, 0), "cubic term must be a positive int, not 1.5"),
        ((True, 0), "cubic term must be a positive int, not True"),
        ((0, 5), "cubic term must be a positive int, not 0"),
        ((3, 0.5), "quadratic term must be a non-negative int, not 0.5"),
        ((3, False), "quadratic term must be a non-negative int, not False"),
        ((3, -1), "quadratic term must be a non-negative int, not -1"),
    ], ids=["cubic-float", "cubic-bool", "cubic-zero", "quadratic-float",
            "quadratic-bool", "quadratic-negative"])
    def test_terms_must_be_plain_ints(self, args, text):
        # 1.5 and True built a model whose count() returned a float or
        # counted with a bool
        with pytest.raises(ValueError) as caught:
            CountModel(*args)
        assert str(caught.value) == text

    def test_pure_cubic_model(self):
        assert CountModel(1, 0).count(10) == 1000

    @pytest.mark.parametrize("n", [2.5, True, 0, -1, "40"])
    def test_count_refuses_a_size_that_is_not_a_positive_int(self, n):
        # 2.5 counted 1293.75
        with pytest.raises(ValueError) as caught:
            INSTRUCTION_COUNT_MODEL.count(n)
        assert str(caught.value) == f"matrix size must be a positive int, not {n!r}"

    def test_smallest_size(self):
        assert ELEMENT_COUNT_MODEL.count(1) == 24


class TestFit:
    def test_rederives_instruction_coefficients(self):
        model = fit_count_model(REFERENCE_TABLES.instruction_counts)
        assert model == CountModel(40, 107)

    def test_rederives_element_coefficients(self):
        model = fit_count_model(REFERENCE_TABLES.element_counts)
        assert model == CountModel(14, 10)

    def test_extra_points_are_cross_checked(self):
        with pytest.raises(ValueError):
            fit_count_model({40: 2_731_200, 60: 9_025_200, 80: 1})

    def test_non_integral_fit_rejected(self):
        with pytest.raises(ValueError):
            fit_count_model({40: 2_731_201, 60: 9_025_200})

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_count_model({40: 2_731_200})

    @pytest.mark.parametrize("points, text", [
        ({40: 2_731_200.0, 60: 9_025_200.0}, "total must be a plain int, not 2731200.0"),
        ({40: 2_731_200, 60: True}, "total must be a plain int, not True"),
        ({True: 117, 2: 748}, "matrix size must be a positive int, not True"),
        ({40.0: 2_731_200, 60: 9_025_200}, "matrix size must be a positive int, not 40.0"),
        ({0: 0, 40: 2_731_200}, "matrix size must be a positive int, not 0"),
        ({-2: 0, 40: 2_731_200}, "matrix size must be a positive int, not -2"),
    ], ids=["total-float", "total-bool", "size-bool", "size-float", "size-zero",
            "size-negative"])
    def test_points_must_be_plain_ints(self, points, text):
        # float totals raised a bare TypeError from Fraction, and a bool
        # size fitted CountModel(cubic=70, quadratic=47)
        with pytest.raises(ValueError) as caught:
            fit_count_model(points)
        assert str(caught.value) == text

    @pytest.mark.parametrize("points, name", [
        ([(40, 2_731_200), (60, 9_025_200)], "list"),
        (((40, 2_731_200), (60, 9_025_200)), "tuple"),
        (None, "NoneType"),
    ], ids=["list", "tuple", "none"])
    def test_points_must_be_a_mapping(self, points, name):
        # a list of pairs raised a bare AttributeError
        with pytest.raises(ValueError) as caught:
            fit_count_model(points)
        assert str(caught.value) == f"points must be a mapping, not {name}"


class TestRatio:
    def test_exact_fractions(self):
        assert ratio_report(40) == Fraction(2_731_200, 912_000)
        assert ratio_report(40) == Fraction(569, 190)

    def test_window_and_direction(self):
        ratios = [ratio_report(n) for n in SIZES]
        assert all(Fraction(285, 100) <= r <= 3 for r in ratios)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_decreasing_over_dense_range(self):
        ratios = [ratio_report(n) for n in range(40, 101)]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_limit_is_ratio_of_leading_coefficients(self):
        floor = Fraction(40, 14)
        for n in (40, 1000, 10 ** 6):
            assert floor < ratio_report(n) <= 3
        assert ratio_report(10 ** 6) - floor < Fraction(1, 10_000)

    @pytest.mark.parametrize("n", [0, -3, 2.5, True, "40"])
    def test_size_must_be_a_positive_int(self, n):
        # 0 raised a bare ZeroDivisionError
        with pytest.raises(ValueError) as caught:
            ratio_report(n)
        assert str(caught.value) == f"matrix size must be a positive int, not {n!r}"


class TestReferenceTables:
    def test_wallclock_grids_complete(self):
        for grid in (REFERENCE_TABLES.instruction_model_ms,
                     REFERENCE_TABLES.element_model_ms):
            assert sorted(grid) == list(SIZES)
            for row in grid.values():
                assert sorted(row) == [2, 4, 8, 16]

    def test_element_model_measured_slower_everywhere(self):
        for n in SIZES:
            for p in (2, 4, 8, 16):
                assert (REFERENCE_TABLES.element_model_ms[n][p]
                        > REFERENCE_TABLES.instruction_model_ms[n][p])

    def test_tables_are_read_only(self):
        # an assignment changed the published totals for the rest of the
        # process, and fit_count_model then found the fit not integral
        tables = (REFERENCE_TABLES.instruction_counts, REFERENCE_TABLES.element_counts,
                  REFERENCE_TABLES.instruction_model_ms, REFERENCE_TABLES.element_model_ms,
                  REFERENCE_TABLES.instruction_model_ms[40],
                  REFERENCE_TABLES.element_model_ms[100])
        for table in tables:
            with pytest.raises(TypeError, match="does not support item assignment"):
                table[40] = 0
        assert fit_count_model(REFERENCE_TABLES.element_counts) == CountModel(14, 10)

    def test_tables_copy_what_they_are_given(self):
        counts, row = {40: 2}, {2: 1.5}
        tables = baseline.ReferenceTables((40,), counts, counts, {40: row}, {40: row})
        counts[40], row[2] = 0, 0.0
        assert tables.instruction_counts == tables.element_counts == {40: 2}
        assert tables.instruction_model_ms == tables.element_model_ms == {40: {2: 1.5}}

    def test_largest_size_row_monotone(self):
        row = REFERENCE_TABLES.element_model_ms[100]
        times = [row[p] for p in (2, 4, 8, 16)]
        assert all(b < a for a, b in zip(times, times[1:]))


class TestOracle:
    def test_hand_example(self):
        a = Matrix.from_rows([[1, 2], [3, 4]])
        b = Matrix.from_rows([[5, 6], [7, 8]])
        assert matmul_oracle(a, b).rows() == [[19, 22], [43, 50]]

    def test_identity(self):
        a = generate_matrix(4, 8, 0)
        assert matmul_oracle(a, Matrix.identity(4)) == a

    def test_zero(self):
        zero = Matrix(3, (0,) * 9)
        a = generate_matrix(3, 8, 0)
        assert matmul_oracle(a, zero) == zero

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            matmul_oracle(Matrix.identity(2), Matrix.identity(3))

    def test_overflow_aborts(self):
        from aridem import IntegerOverflowError

        big = Matrix.from_rows([[1 << 62, 1 << 62], [0, 0]])
        ones = Matrix.from_rows([[1, 1], [1, 1]])
        with pytest.raises(IntegerOverflowError):
            matmul_oracle(big, ones)

    def test_overflow_names_the_cell(self):
        from aridem import IntegerOverflowError

        a = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 1 << 62, 1 << 62]])
        b = Matrix.from_rows([[1, 0, 0], [0, 1, 1], [0, 0, 1]])
        with pytest.raises(IntegerOverflowError, match=r"^product cell \(2, 2\) produced "
                                                       + str(1 << 63)):
            matmul_oracle(a, b)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_triple_loop(self, n):
        rng = random.Random(n)
        a = Matrix(n, tuple(rng.randint(-50, 50) for _ in range(n * n)))
        b = Matrix(n, tuple(rng.randint(-50, 50) for _ in range(n * n)))
        want = [[sum(a.at(i, k) * b.at(k, j) for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert matmul_oracle(a, b).rows() == want


class TestInstructionMachine:
    def test_message_pattern(self):
        for P in (1, 2, 4, 8, 16):
            assert simulate_instruction_model(8, P).messages == 3 * P

    def test_processed_equals_count_model(self):
        for n in (4, 8, 40):
            m = simulate_instruction_model(n, 4)
            assert m.elements_processed == INSTRUCTION_COUNT_MODEL.count(n)
            assert m.operands_processed == INSTRUCTION_COUNT_MODEL.count(n)
            assert sum(m.per_worker_processed) == m.elements_processed

    def test_one_product_per_size_and_seed(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(a.n)
            return matmul_oracle(a, b)

        baseline._seeded_outputs.cache_clear()
        monkeypatch.setattr(baseline, "matmul_oracle", counting)
        records = [simulate_instruction_model(n, P, seed=seed)
                   for n, seed in ((5, 0), (7, 0), (7, 1)) for P in (1, 2, 4)]
        assert calls == [5, 7, 7]
        # every record owns its outputs
        assert len({id(m.outputs) for m in records}) == len(records)
        records[0].outputs.clear()
        assert simulate_instruction_model(5, 3).outputs == records[1].outputs

    def test_sim_time_formula(self):
        costs = CostModel(t_proc=2, t_msg=7, t_master=0)
        m = simulate_instruction_model(6, 4, costs)
        block = 2  # ceil(6 / 4)
        peak = (40 * 36 + 107 * 6) * block * 2
        assert m.sim_time == 3 * 7 + peak

    def test_row_split_with_remainder(self):
        m = simulate_instruction_model(5, 4)
        rows = [w // (40 * 25 + 107 * 5) for w in m.per_worker_processed]
        assert rows == [2, 2, 1, 0]

    def test_more_workers_than_rows(self):
        m = simulate_instruction_model(2, 8)
        assert m.messages == 24
        assert sum(m.per_worker_processed) == INSTRUCTION_COUNT_MODEL.count(2)
        validate_metrics(m)

    def test_outputs_are_true_product(self):
        n, seed = 6, 17
        m = simulate_instruction_model(n, 3, seed=seed)
        want = matmul_oracle(generate_matrix(n, seed, 0), generate_matrix(n, seed, 1))
        assert m.outputs == {(i, j): want.at(i, j) for i in range(n) for j in range(n)}

    def test_checksum_agrees_with_element_machine(self):
        for n, seed in ((4, 0), (4, 5), (8, 3)):
            element = simulate(build_matmul_program(n, seed), MachineConfig(workers=2))
            instruction = simulate_instruction_model(n, 2, seed=seed)
            assert element.result_checksum == instruction.result_checksum

    def test_sim_time_decreases_with_workers(self):
        times = [simulate_instruction_model(40, P).sim_time for P in (1, 2, 4, 8, 16)]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            simulate_instruction_model(0, 2)
        with pytest.raises(ValueError):
            simulate_instruction_model(4, 0)

    @pytest.mark.parametrize("args, text", [
        ((2.5, 2), "matrix size must be a positive int, not 2.5"),
        ((True, 2), "matrix size must be a positive int, not True"),
        ((4, 2.0), "slave count must be a positive int, not 2.0"),
        ((4, True), "slave count must be a positive int, not True"),
        ((4, 2, CostModel(), 1.0), "seed must be a plain int, not 1.0"),
        ((4, 2, CostModel(), False), "seed must be a plain int, not False"),
    ], ids=["size-float", "size-bool", "workers-float", "workers-bool", "seed-float",
            "seed-bool"])
    def test_arguments_must_be_plain_ints(self, args, text):
        # 2.5 raised a bare TypeError and True returned a record
        with pytest.raises(ValueError) as caught:
            simulate_instruction_model(*args)
        assert str(caught.value) == text
