import pytest

from aridem import (
    Element,
    MachineConfig,
    Matrix,
    Operation,
    build_matmul_program,
    build_negate_demo,
    build_square_demo,
    generate_matrix,
    matmul_element_count,
    matmul_oracle,
    matmul_program,
    run,
    simulate,
)
from aridem.programs import (LCG_INCREMENT, LCG_MULTIPLIER, _MM_LEFT, _MM_PARTIAL, _MM_RESULT,
                             _MM_RIGHT)


def lcg_digits(state: int, count: int) -> list[int]:
    """The generator written out: count digits from a 64-bit state."""
    digits = []
    for _ in range(count):
        state = (state * LCG_MULTIPLIER + LCG_INCREMENT) % (1 << 64)
        digits.append((state >> 33) % 10)
    return digits


class TestLcg:
    """The generator behind generate_matrix, read through its entries."""

    def test_frozen_digit_streams(self):
        # pinned outputs of the generator; a change here breaks every seed
        assert generate_matrix(1, 42, 0).entries == (4,)
        assert generate_matrix(2, 42, 0).entries == (4, 6, 8, 3)

    def test_state_advances(self):
        # the first draw from state 0 is the increment's digit
        assert (LCG_MULTIPLIER, LCG_INCREMENT) == (6364136223846793005, 1442695040888963407)
        first = (LCG_INCREMENT >> 33) % 10
        assert generate_matrix(1, 0, 0).entries == (first,)
        assert list(generate_matrix(5, 0, 0).entries) == lcg_digits(0, 25)
        assert list(generate_matrix(5, 123, 0).entries) == lcg_digits(123, 25)

    def test_digits_in_range(self):
        # 1,024 draws hit every digit and nothing else
        assert set(generate_matrix(32, 123456789, 0).entries) == set(range(10))

    @pytest.mark.parametrize("state", [1.5, "1", True, None])
    def test_state_must_be_a_plain_int(self, state):
        # the seed is the generator's starting state
        with pytest.raises(ValueError) as caught:
            generate_matrix(2, state, 0)
        assert str(caught.value) == f"seed must be a plain int, not {state!r}"

    def test_state_wraps_to_64_bits(self):
        assert generate_matrix(6, -1, 0) == generate_matrix(6, (1 << 64) - 1, 0)
        assert generate_matrix(6, 1 << 64, 0) == generate_matrix(6, 0, 0)
        assert generate_matrix(6, -1, 0) != generate_matrix(6, 0, 0)


class TestGenerateMatrix:
    def test_frozen_values(self):
        assert generate_matrix(2, 42, 0).entries == (4, 6, 8, 3)
        assert generate_matrix(2, 42, 1).entries == (2, 0, 1, 0)
        assert generate_matrix(3, 7, 0).entries == (8, 1, 3, 3, 5, 9, 4, 4, 9)
        assert generate_matrix(3, 7, 1).entries == (2, 9, 0, 1, 5, 5, 1, 7, 1)

    def test_deterministic(self):
        assert generate_matrix(5, 11, 0) == generate_matrix(5, 11, 0)

    def test_streams_and_seeds_differ(self):
        assert generate_matrix(4, 11, 0) != generate_matrix(4, 11, 1)
        assert generate_matrix(4, 11, 0) != generate_matrix(4, 12, 0)

    def test_entries_are_digits(self):
        m = generate_matrix(8, 3, 0)
        assert all(0 <= v <= 9 for v in m.entries)

    @pytest.mark.parametrize("args, text", [
        ((2.0, 0, 0), "matrix size must be a positive int, not 2.0"),
        ((2, 0.5, 0), "seed must be a plain int, not 0.5"),
        ((2, True, 0), "seed must be a plain int, not True"),
        ((2, 0, 1.0), "stream tag must be a plain int, not 1.0"),
        ((2, 0, True), "stream tag must be a plain int, not True"),
    ], ids=["size-float", "seed-float", "seed-bool", "tag-float", "tag-bool"])
    def test_arguments_must_be_plain_ints(self, args, text):
        # a float raised a bare TypeError from Lcg64, and True built a matrix
        with pytest.raises(ValueError) as caught:
            generate_matrix(*args)
        assert str(caught.value) == text


class TestMatmulProgramArguments:
    @pytest.mark.parametrize("args, text", [
        ((1, 2), "a must be a Matrix, not int"),
        ((Matrix.identity(2), None), "b must be a Matrix, not NoneType"),
        (((1, 2, 3, 4), Matrix.identity(2)), "a must be a Matrix, not tuple"),
    ], ids=["a-int", "b-none", "a-tuple"])
    def test_arguments_must_be_matrices(self, args, text):
        # each raised a bare AttributeError
        with pytest.raises(ValueError, match=f"^{text}$"):
            matmul_program(*args)


class TestMatrix:
    def test_at_and_rows(self):
        m = Matrix.from_rows([[1, 2], [3, 4]])
        assert m.at(0, 1) == 2
        assert m.at(1, 0) == 3
        assert m.rows() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("row, col", [(0, 2), (1, -1), (2, 0), (-1, 0), (0, -3)])
    def test_at_refuses_a_cell_outside_the_matrix(self, row, col):
        # (0, 2) read 3 and (1, -1) read 2, other cells' entries, and
        # (2, 0) raised a bare IndexError
        with pytest.raises(IndexError) as caught:
            Matrix(2, (1, 2, 3, 4)).at(row, col)
        assert str(caught.value) == f"cell ({row}, {col}) is outside the 2 x 2 matrix"

    @pytest.mark.parametrize("row, col, text", [
        (True, 1, "cell (True, 1) must be named by plain ints"),
        (0.5, 1, "cell (0.5, 1) must be named by plain ints"),
        (0, 1.0, "cell (0, 1.0) must be named by plain ints"),
        ("1", 0, "cell ('1', 0) must be named by plain ints"),
    ], ids=["bool", "float-row", "float-col", "str"])
    def test_at_refuses_a_cell_not_named_by_plain_ints(self, row, col, text):
        # True read cell (1, 1), and 0.5 raised a bare TypeError
        with pytest.raises(ValueError) as caught:
            Matrix(2, (1, 2, 3, 4)).at(row, col)
        assert str(caught.value) == text

    @pytest.mark.parametrize("rows, text", [
        ([[1.5]], "matrix entries must be plain ints, not 1.5"),
        ([[1, 2], [True, 4]], "matrix entries must be plain ints, not True"),
        ([[1, "2"], [3, 4]], "matrix entries must be plain ints, not '2'"),
    ], ids=["float", "bool", "str"])
    def test_entries_must_be_plain_ints(self, rows, text):
        # each built a matrix, and matmul_oracle returned float cells
        with pytest.raises(ValueError) as caught:
            Matrix.from_rows(rows)
        assert str(caught.value) == text

    def test_identity(self):
        assert Matrix.identity(3).rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    @pytest.mark.parametrize("n", [2.5, "3", True, 0, None])
    def test_identity_size_must_be_a_positive_int(self, n):
        # 2.5 and "3" raised a bare TypeError from range
        with pytest.raises(ValueError) as caught:
            Matrix.identity(n)
        assert str(caught.value) == f"matrix size must be a positive int, not {n!r}"

    @pytest.mark.parametrize("rows, text", [
        (5, "rows must be a list or tuple, not int"),
        (None, "rows must be a list or tuple, not NoneType"),
        ("ab", "rows must be a list or tuple, not str"),
        ([1], "rows[0] must be a list or tuple, not int"),
        (([1, 2], 3), "rows[1] must be a list or tuple, not int"),
    ], ids=["int", "none", "str", "int-row", "second-row"])
    def test_from_rows_takes_a_list_or_tuple_of_rows(self, rows, text):
        # 5, None and [1] raised a bare TypeError from len
        with pytest.raises(ValueError) as caught:
            Matrix.from_rows(rows)
        assert str(caught.value) == text

    def test_from_rows_takes_tuples(self):
        assert Matrix.from_rows(((1, 2), [3, 4])) == Matrix(2, (1, 2, 3, 4))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Matrix(2, (1, 2, 3))
        with pytest.raises(ValueError):
            Matrix.from_rows([[1, 2], [3]])
        with pytest.raises(ValueError):
            Matrix(0, ())

    @pytest.mark.parametrize("n", [2.0, True, "2", None])
    def test_size_must_be_a_positive_int(self, n):
        with pytest.raises(ValueError) as caught:
            Matrix(n, (1, 2, 3, 4))
        assert str(caught.value) == f"matrix size must be a positive int, not {n!r}"

    @pytest.mark.parametrize("entries", [[1, 2, 3, 4], range(4), "1234"])
    def test_entries_must_be_a_tuple(self, entries):
        # a list made a "frozen" value that hash() refused and that was
        # unequal to the same entries in a tuple
        with pytest.raises(ValueError, match="^matrix entries must be a tuple, not "):
            Matrix(2, entries)


class TestMatmulStructure:
    def test_initial_element_count(self):
        for n in (1, 2, 5):
            program = build_matmul_program(n, seed=0)
            assert len(program.initial_elements) == 3 * n * n

    def test_left_entries_feed_only_replicate(self):
        program = build_matmul_program(3, seed=0)
        rels = [r for r in program.relations if _MM_LEFT in r.input_identifiers]
        assert len(rels) == 1
        assert rels[0].operation is Operation.REPLICATE

    def test_relation_count(self):
        assert len(build_matmul_program(2, seed=0).relations) == 5

    def test_sum_seeds_start_at_zero(self):
        program = build_matmul_program(2, seed=0)
        seeds = [e for e in program.initial_elements if e.identifier == _MM_PARTIAL]
        assert seeds == [Element(_MM_PARTIAL, (i, j, 0), 0)
                         for i in range(2) for j in range(2)]

    def test_right_entries_carry_transposed_layout(self):
        # B element (j, k) holds b[k][j] so both replicas meet on (i, j, k)
        b = Matrix.from_rows([[1, 2], [3, 4]])
        program = matmul_program(Matrix.identity(2), b)
        rights = {e.indices: e.value for e in program.initial_elements
                  if e.identifier == _MM_RIGHT}
        assert rights == {(0, 0): 1, (0, 1): 3, (1, 0): 2, (1, 1): 4}

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^matrix sizes differ: 2 vs 3$"):
            matmul_program(Matrix.identity(2), Matrix.identity(3))
        with pytest.raises(ValueError, match=r"^matrix size must be a positive int, not 0$"):
            build_matmul_program(0, seed=0)

    @pytest.mark.parametrize("n, seed, text", [
        (2.0, 0, "matrix size must be a positive int, not 2.0"),
        (True, 0, "matrix size must be a positive int, not True"),
        ("2", 0, "matrix size must be a positive int, not '2'"),
        (2, 1.0, "seed must be a plain int, not 1.0"),
        (2, False, "seed must be a plain int, not False"),
        (2, None, "seed must be a plain int, not None"),
    ], ids=["size-float", "size-bool", "size-str", "seed-float", "seed-bool", "seed-none"])
    def test_size_and_seed_must_be_plain_ints(self, n, seed, text):
        # 2.0 raised a bare TypeError, and True failed with the text of
        # a Relation's transform check; the build refuses each argument
        # as generate_matrix does
        for build in (build_matmul_program, lambda n, seed: generate_matrix(n, seed, 0)):
            with pytest.raises(ValueError) as caught:
                build(n, seed)
            assert str(caught.value) == text


class TestMatmulResults:
    def test_identity_times_identity(self):
        result = run(matmul_program(Matrix.identity(4), Matrix.identity(4)))
        assert result.outputs == {(i, j): int(i == j)
                                  for i in range(4) for j in range(4)}

    def test_identity_preserves(self):
        a = generate_matrix(5, 21, 0)
        result = run(matmul_program(a, Matrix.identity(5)))
        assert result.outputs == {(i, j): a.at(i, j)
                                  for i in range(5) for j in range(5)}

    def test_identity_left_passes_right_through(self):
        b = generate_matrix(8, 4, 1)
        result = run(matmul_program(Matrix.identity(8), b))
        assert result.outputs == {(i, j): b.at(i, j)
                                  for i in range(8) for j in range(8)}

    def test_matches_oracle(self):
        for n in (1, 2, 3, 4, 6):
            for seed in (0, 1, 99):
                a = generate_matrix(n, seed, 0)
                b = generate_matrix(n, seed, 1)
                want = matmul_oracle(a, b)
                got = run(matmul_program(a, b)).outputs
                assert got == {(i, j): want.at(i, j)
                               for i in range(n) for j in range(n)}

    def test_seed_changes_outputs(self):
        r0 = run(build_matmul_program(3, seed=0))
        r1 = run(build_matmul_program(3, seed=1))
        assert r0.outputs != r1.outputs

    def test_result_indices_cover_grid(self):
        result = run(build_matmul_program(3, seed=5))
        assert sorted(result.outputs) == [(i, j) for i in range(3) for j in range(3)]


class TestClosedFormCount:
    def test_formula(self):
        assert matmul_element_count(1) == 7
        assert matmul_element_count(2) == 44
        assert matmul_element_count(60) == 874_800

    @pytest.mark.parametrize("n", [2.5, 2.0, True, 0, -1])
    def test_size_must_be_a_positive_int(self, n):
        # 2.5 returned 81.25 and 0 returned 0, where build_matmul_program
        # refuses both
        with pytest.raises(ValueError) as caught:
            matmul_element_count(n)
        assert str(caught.value) == f"matrix size must be a positive int, not {n!r}"

    def test_counter_matches_formula(self):
        for n in range(1, 13):
            result = run(build_matmul_program(n, seed=3))
            assert result.elements_created == matmul_element_count(n)
            assert result.elements_processed == matmul_element_count(n)

    def test_partial_depth_for_natural_order(self):
        # every left replica waits for its right partner, plus n^2 sum seeds
        result = run(build_matmul_program(3, seed=0))
        assert result.max_partial_depth == 3 ** 3 + 3 ** 2

    def test_partial_depth_bound_sweep(self):
        # n^3 replicas waiting at the pair join plus n^2 parked sum seeds;
        # the cubic term alone is not a correct bound (see n=1: peak is 2)
        for n in range(1, 33):
            result = run(build_matmul_program(n, seed=0))
            assert result.max_partial_depth <= n ** 3 + n ** 2, n
        tiny = run(build_matmul_program(1, seed=0))
        assert tiny.max_partial_depth == 2


class TestDemoBuilders:
    def test_negate_metadata(self):
        program = build_negate_demo()
        assert program.names[program.result_identifier] == "a"
        assert program.initial_elements == (Element(0, (), 5),)

    def test_initial_elements_cannot_grow_after_build(self):
        # an element added after validation would reach the executors
        # unchecked; with a tuple the append itself fails
        program = build_negate_demo()
        with pytest.raises(AttributeError):
            program.initial_elements.append(Element(99, (), 1))
        assert run(program).outputs == {(): -5}
        assert simulate(program, MachineConfig(workers=2)).outputs == {(): -5}

    def test_square_custom_length(self):
        assert run(build_square_demo(9)).outputs == {(): 81}
        assert run(build_square_demo(0)).outputs == {(): 0}
        assert run(build_square_demo(-3)).outputs == {(): 9}

    def test_negate_custom_value(self):
        assert run(build_negate_demo(-12)).outputs == {(): 12}

    def test_unary_demos_never_touch_partials(self):
        from aridem import Execution

        ex = Execution(build_negate_demo())
        ex.run()
        assert ex.max_partial_depth == 0
