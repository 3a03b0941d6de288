import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnnbulk.errors import ContractViolation
from gnnbulk.sparse import (
    Graph,
    SparseMatrix,
    add,
    block_diag,
    build_column_extraction,
    column_window,
    compact_columns,
    expand_row_extraction,
    norm_rows_ladies,
    norm_rows_sage,
    rows_subset,
    spgemm,
    vstack,
)

from conftest import assert_valid, dense_oracle, random_sparse, triple_loop_oracle


class TestSparseMatrix:
    def test_invariants_reject_bad_offsets(self):
        with pytest.raises(ContractViolation):
            SparseMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_invariants_reject_unsorted_row(self):
        with pytest.raises(ContractViolation):
            SparseMatrix(1, 4, [0, 2], [2, 1], [1.0, 1.0])

    def test_invariants_reject_duplicate_column(self):
        with pytest.raises(ContractViolation):
            SparseMatrix(1, 4, [0, 2], [1, 1], [1.0, 1.0])

    def test_invariants_reject_out_of_range(self):
        with pytest.raises(ContractViolation):
            SparseMatrix(1, 2, [0, 1], [2], [1.0])

    def test_invariants_reject_nonfinite(self):
        with pytest.raises(ContractViolation):
            SparseMatrix(1, 2, [0, 1], [0], [np.inf])

    def test_column_sorted_across_row_boundary_ok(self):
        m = SparseMatrix(2, 6, [0, 1, 2], [5, 0], [1.0, 1.0])
        assert m.row_cols(0).tolist() == [5]
        assert m.row_cols(1).tolist() == [0]

    def test_arrays_immutable(self):
        m = SparseMatrix.identity(3)
        with pytest.raises(ValueError):
            m.values[0] = 2.0

    def test_from_coo_sums_duplicates(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0])
        assert m.to_dense()[0, 1] == 3.0

    def test_from_coo_first_collapses(self):
        m = SparseMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0], dedup="first")
        assert m.to_dense()[0, 1] == 1.0

    def test_row_slice_round_trip(self):
        rng = np.random.default_rng(0)
        m = random_sparse(rng, 7, 5, 0.4)
        parts = [m.row_slice(0, 3), m.row_slice(3, 7)]
        assert vstack(parts).equals(m)

    def test_graph_requires_square_unit_values(self):
        with pytest.raises(ContractViolation):
            Graph(SparseMatrix.from_dense(np.ones((2, 3))))
        with pytest.raises(ContractViolation):
            Graph(SparseMatrix.from_dense(2.0 * np.eye(2)))


class TestSpgemm:
    def test_identity(self, figure_graph):
        A = figure_graph.adjacency
        assert spgemm(SparseMatrix.identity(6), A).equals(A)

    def test_one_hot_row_selects(self, figure_graph):
        A = figure_graph.adjacency
        e = SparseMatrix(1, 6, [0, 1], [4], [1.0])
        out = spgemm(e, A)
        assert np.array_equal(out.to_dense()[0], A.to_dense()[4])

    def test_random_8x8_vs_triple_loop(self):
        rng = np.random.default_rng(7)
        a = random_sparse(rng, 8, 8, 0.3)
        b = random_sparse(rng, 8, 8, 0.3)
        expect = triple_loop_oracle(a.to_dense(), b.to_dense())
        got = spgemm(a, b)
        assert_valid(got)
        assert np.array_equal(got.to_dense(), expect)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            spgemm(SparseMatrix.identity(3), SparseMatrix.identity(4))

    def test_cancellation_dropped_from_pattern(self):
        left = SparseMatrix.from_dense(np.array([[1.0, 1.0]]))
        right = SparseMatrix.from_dense(np.array([[1.0], [-1.0]]))
        assert spgemm(left, right).nnz == 0

    def test_tiny_products_survive(self):
        # genuine tiny values are mass, not cancellation noise
        one = SparseMatrix.from_dense(np.array([[1.0]]))
        tiny = SparseMatrix.from_dense(np.array([[1e-13]]))
        got = spgemm(tiny, one)
        assert got.nnz == 1 and got.values[0] == 1e-13
        rng = np.random.default_rng(3)
        a = random_sparse(rng, 12, 9, 0.4)
        b = SparseMatrix.from_dense(random_sparse(rng, 9, 7, 0.4).to_dense() * 2.0**-60)
        want = dense_oracle(a, b)
        got = spgemm(a, b)
        assert np.array_equal(got.to_dense(), want)
        assert got.nnz == np.count_nonzero(want)

    def test_matches_dense_oracle_many_sizes(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            m, k, n = rng.integers(1, 65, size=3)
            a = random_sparse(rng, m, k, 0.3)
            b = random_sparse(rng, k, n, 0.3)
            got = spgemm(a, b)
            assert_valid(got)
            assert np.array_equal(got.to_dense(), dense_oracle(a, b))

    def test_einsum_oracle_agrees_with_triple_loop(self):
        # keeps the bulk-test oracle honest on a case small enough to loop
        rng = np.random.default_rng(2)
        a = random_sparse(rng, 6, 7, 0.5)
        b = random_sparse(rng, 7, 5, 0.5)
        assert np.array_equal(
            dense_oracle(a, b), triple_loop_oracle(a.to_dense(), b.to_dense())
        )


class TestNormalization:
    def test_sage_uniform_row(self):
        p = SparseMatrix.from_dense(np.array([[1.0, 1.0, 1.0]]))
        out = norm_rows_sage(p)
        assert np.allclose(out.values, [1 / 3, 1 / 3, 1 / 3])

    def test_sage_weighted_row(self):
        p = SparseMatrix.from_dense(np.array([[2.0, 0.0, 6.0]]))
        out = norm_rows_sage(p)
        assert np.array_equal(out.values, [0.25, 0.75])

    def test_sage_empty_row_stays_empty(self):
        p = SparseMatrix.from_dense(np.array([[0.0, 0.0], [1.0, 3.0]]))
        out = norm_rows_sage(p)
        assert out.row_nnz().tolist() == [0, 2]

    def test_sage_rejects_negative(self):
        p = SparseMatrix.from_dense(np.array([[1.0, -1.0]]))
        with pytest.raises(ContractViolation):
            norm_rows_sage(p)

    def test_ladies_neighbour_counts(self):
        p = SparseMatrix.from_dense(np.array([[1.0, 0.0, 1.0, 1.0, 2.0, 0.0]]))
        out = norm_rows_ladies(p).to_dense()[0]
        assert np.allclose(out, np.array([1, 0, 1, 1, 4, 0]) / 7, atol=1e-12)

    def test_ladies_single_count(self):
        p = SparseMatrix.from_dense(np.array([[0.0, 5.0]]))
        assert norm_rows_ladies(p).values.tolist() == [1.0]

    def test_ladies_three_four(self):
        p = SparseMatrix.from_dense(np.array([[3.0, 4.0]]))
        assert np.allclose(norm_rows_ladies(p).values, [9 / 25, 16 / 25])

    def test_pattern_preserved_and_sums_to_one(self):
        rng = np.random.default_rng(3)
        for norm in (norm_rows_sage, norm_rows_ladies):
            p = random_sparse(rng, 12, 9, 0.35)
            out = norm(p)
            assert np.array_equal(out.row_offsets, p.row_offsets)
            assert np.array_equal(out.col_indices, p.col_indices)
            sums = np.add.reduceat(out.values, out.row_offsets[:-1][p.row_nnz() > 0])
            assert np.all(np.abs(sums - 1.0) <= 1e-9)


class TestStacking:
    def test_vstack_rows_in_order(self):
        a = SparseMatrix.from_dense(np.array([[1.0, 0.0, 2.0]]))
        b = SparseMatrix.from_dense(np.array([[0.0, 3.0, 0.0]]))
        out = vstack([a, b])
        assert out.shape == (2, 3)
        assert np.array_equal(out.to_dense(), np.vstack([a.to_dense(), b.to_dense()]))

    def test_vstack_matches_bulk_seed(self):
        from gnnbulk.sampler import sage_seed_matrix

        batches = [[1, 5], [0, 3], [2, 4]]
        stacked = vstack([sage_seed_matrix([b], 6) for b in batches])
        assert stacked.equals(sage_seed_matrix(batches, 6))

    def test_vstack_empty_needs_width(self):
        out = vstack([], n_cols=4)
        assert out.shape == (0, 4)
        with pytest.raises(ContractViolation):
            vstack([])

    def test_vstack_width_mismatch(self):
        with pytest.raises(ContractViolation):
            vstack([SparseMatrix.empty(1, 3), SparseMatrix.empty(1, 4)])

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=5), st.data())
    def test_vstack_slicing_round_trip(self, heights, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
        blocks = [random_sparse(rng, h, 6, 0.4) for h in heights]
        out = vstack(blocks, n_cols=6)
        start = 0
        for blk in blocks:
            assert out.row_slice(start, start + blk.n_rows).equals(blk)
            start += blk.n_rows

    def test_block_diag_offsets(self):
        a = SparseMatrix.from_dense(np.arange(6, dtype=float).reshape(2, 3))
        b = SparseMatrix.from_dense(np.array([[7.0, 8.0]]))
        out = block_diag([a, b])
        assert out.shape == (3, 5)
        dense = out.to_dense()
        assert np.array_equal(dense[:2, :3], a.to_dense())
        assert np.array_equal(dense[2:, 3:], b.to_dense())
        assert dense[:2, 3:].sum() == 0 and dense[2:, :3].sum() == 0

    def test_block_diag_k_copies(self):
        rng = np.random.default_rng(4)
        blk = random_sparse(rng, 3, 2, 0.6)
        out = block_diag([blk] * 4)
        assert out.shape == (12, 8)

    def test_block_diag_single_unchanged(self):
        rng = np.random.default_rng(5)
        blk = random_sparse(rng, 3, 3, 0.5)
        assert block_diag([blk]).equals(blk)

    def test_block_diag_empty(self):
        assert block_diag([]).shape == (0, 0)


class TestExtractionOps:
    def test_compact_columns_basic(self):
        m = SparseMatrix.from_coo(2, 6, [0, 1], [1, 4], [1.0, 1.0])
        out, col_map = compact_columns(m)
        assert out.shape == (2, 2)
        assert col_map.tolist() == [1, 4]

    def test_compact_columns_identity_when_full(self):
        rng = np.random.default_rng(6)
        m = SparseMatrix.from_dense(rng.random((3, 4)) + 0.5)
        out, col_map = compact_columns(m)
        assert out.equals(m)
        assert col_map.tolist() == [0, 1, 2, 3]

    def test_compact_columns_preserves_nnz_and_recovers_ids(self):
        rng = np.random.default_rng(7)
        m = random_sparse(rng, 6, 20, 0.15)
        out, col_map = compact_columns(m)
        assert out.nnz == m.nnz
        assert np.array_equal(col_map[out.col_indices], m.col_indices)
        assert np.array_equal(out.values, m.values)

    def test_expand_row_extraction_figure(self):
        q = SparseMatrix.from_coo(1, 6, [0, 0], [1, 5], [1.0, 1.0])
        out = expand_row_extraction(q)
        dense = np.zeros((2, 6))
        dense[0, 1] = dense[1, 5] = 1.0
        assert np.array_equal(out.to_dense(), dense)

    def test_expand_single_nonzero(self):
        q = SparseMatrix.from_coo(1, 4, [0], [2], [1.0])
        out = expand_row_extraction(q)
        assert out.shape == (1, 4)
        assert out.row_cols(0).tolist() == [2]

    def test_expand_shape_two_rows_two_each(self):
        q = SparseMatrix.from_coo(2, 9, [0, 0, 1, 1], [1, 3, 4, 8], np.ones(4))
        out = expand_row_extraction(q)
        assert out.shape == (4, 9)
        assert np.all(out.row_nnz() == 1)

    def test_expand_then_multiply_selects_rows(self, figure_graph):
        A = figure_graph.adjacency
        q = SparseMatrix.from_coo(1, 6, [0, 0], [1, 5], [1.0, 1.0])
        out = spgemm(expand_row_extraction(q), A)
        assert np.array_equal(out.to_dense()[0], A.to_dense()[1])
        assert np.array_equal(out.to_dense()[1], A.to_dense()[5])

    def test_column_extraction_basic(self):
        qc = build_column_extraction([0, 4], 6)
        assert qc.shape == (6, 2)
        dense = qc.to_dense()
        assert dense[0, 0] == 1.0 and dense[4, 1] == 1.0
        assert dense.sum() == 2.0

    def test_column_extraction_one_hot(self):
        qc = build_column_extraction([3], 5)
        assert qc.to_dense()[3, 0] == 1.0 and qc.nnz == 1

    def test_column_extraction_rejects_bad_ids(self):
        with pytest.raises(ContractViolation):
            build_column_extraction([0, 0], 4)
        with pytest.raises(ContractViolation):
            build_column_extraction([5], 4)

    def test_row_then_column_extraction_matches_dense(self, figure_graph):
        # batch {1,5} rows, sampled {0,4} columns
        A = figure_graph.adjacency
        q = SparseMatrix.from_coo(1, 6, [0, 0], [1, 5], [1.0, 1.0])
        a_r = spgemm(expand_row_extraction(q), A)
        a_s = spgemm(a_r, build_column_extraction([0, 4], 6))
        expect = triple_loop_oracle(
            A.to_dense()[[1, 5], :], build_column_extraction([0, 4], 6).to_dense()
        )
        assert np.array_equal(a_s.to_dense(), expect)
        assert np.array_equal(a_s.to_dense(), np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestWindowSubsetAdd:
    def test_column_window(self):
        rng = np.random.default_rng(8)
        m = random_sparse(rng, 5, 12, 0.4)
        out = column_window(m, 3, 9)
        assert out.shape == (5, 6)
        assert np.array_equal(out.to_dense(), m.to_dense()[:, 3:9])

    def test_rows_subset(self):
        rng = np.random.default_rng(9)
        m = random_sparse(rng, 8, 5, 0.5)
        out = rows_subset(m, [1, 4, 6])
        dense = np.zeros_like(m.to_dense())
        dense[[1, 4, 6]] = m.to_dense()[[1, 4, 6]]
        assert np.array_equal(out.to_dense(), dense)
        assert out.nnz == int(m.row_nnz()[[1, 4, 6]].sum())

    def test_add_matches_dense(self):
        rng = np.random.default_rng(10)
        a = random_sparse(rng, 6, 6, 0.3)
        b = random_sparse(rng, 6, 6, 0.3)
        assert np.array_equal(add(a, b).to_dense(), a.to_dense() + b.to_dense())

    def test_add_keeps_tiny_drops_exact_cancellation(self):
        left = SparseMatrix.from_dense(np.array([[1e-13, 1.0]]))
        right = SparseMatrix.from_dense(np.array([[0.0, -1.0]]))
        got = add(left, right)
        assert got.row_cols(0).tolist() == [0]
        assert got.values.tolist() == [1e-13]

    def test_add_shape_mismatch(self):
        with pytest.raises(ContractViolation):
            add(SparseMatrix.empty(2, 2), SparseMatrix.empty(2, 3))
