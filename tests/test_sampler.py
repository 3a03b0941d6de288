import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from gnnbulk.errors import ContractViolation
from gnnbulk.sampler import (
    SamplerConfig,
    _race_winners,
    ladies_seed_matrix,
    race_uniforms,
    sage_seed_matrix,
    sample_epoch_bulk,
    sample_frontier,
)
from gnnbulk.sparse import (
    SparseMatrix,
    norm_rows_ladies,
    norm_rows_sage,
    spgemm,
    vstack,
)

from conftest import edge_set, random_graph_min_degree


class TestConfig:
    def test_rejects_bad_counts(self):
        with pytest.raises(ContractViolation):
            SamplerConfig.sage(layers=0, batch_size=2, fanouts=(), seed=0)
        with pytest.raises(ContractViolation):
            SamplerConfig.sage(layers=1, batch_size=0, fanouts=2, seed=0)
        with pytest.raises(ContractViolation):
            SamplerConfig.ladies(layers=1, batch_size=2, sample_num=0, seed=0)
        with pytest.raises(ContractViolation):
            SamplerConfig.sage(layers=2, batch_size=2, fanouts=(3,), seed=0)

    def test_per_layer_fanouts(self):
        cfg = SamplerConfig.sage(layers=3, batch_size=4, fanouts=(15, 10, 5), seed=0)
        assert cfg.fanouts == (15, 10, 5)
        assert cfg.rows_per_batch(1) == 4
        assert cfg.rows_per_batch(2) == 60
        assert cfg.rows_per_batch(3) == 600

    def test_ladies_rows_per_batch_constant(self):
        cfg = SamplerConfig.ladies(layers=3, batch_size=4, sample_num=5, seed=0)
        assert [cfg.rows_per_batch(t) for t in (1, 2, 3)] == [1, 1, 1]


def uniform_at(seed, epoch, layer, row, col, n_cols=64):
    """The counter-keyed uniform of one (row, col) key, drawn alone."""
    P = SparseMatrix(1, n_cols, [0, 1], [col], [1.0])
    return race_uniforms(P, epoch, layer, seed, row_keys=[row])[0]


class TestRowRng:
    """The counter-keyed uniforms behind every draw: one value per
    (seed, epoch, layer, global row, column) key."""

    def test_same_key_same_stream(self):
        a = uniform_at(7, 1, 2, 13, 5)
        assert a == uniform_at(7, 1, 2, 13, 5)
        # the key alone fixes the value, whatever else the matrix holds
        P = SparseMatrix.from_dense(np.ones((3, 8)))
        u = race_uniforms(P, 1, 2, 7, row_keys=[4, 13, 9])
        assert u[1 * 8 + 5] == a
        assert np.all((u > 0) & (u <= 1))

    def test_distinct_keys_differ(self):
        base = uniform_at(7, 1, 2, 13, 5)
        for other in (
            uniform_at(8, 1, 2, 13, 5),
            uniform_at(7, 2, 2, 13, 5),
            uniform_at(7, 1, 3, 13, 5),
            uniform_at(7, 1, 2, 14, 5),
            uniform_at(7, 1, 2, 13, 6),
        ):
            assert other != base

    def test_independent_of_consumption_order(self):
        P = SparseMatrix.from_dense(np.ones((5, 6)))
        forward = race_uniforms(P, 0, 1, 0, row_keys=np.arange(5))
        backward = race_uniforms(P, 0, 1, 0, row_keys=np.arange(5)[::-1])
        assert np.array_equal(
            forward.reshape(5, 6), backward.reshape(5, 6)[::-1]
        )

    def test_uniform_over_consecutive_counters(self):
        # 10^5 consecutive (row, col) counters, 20 equal bins, chi-square at 1%
        rows, cols, bins = 100, 1000, 20
        P = SparseMatrix.from_dense(np.ones((rows, cols)))
        u = race_uniforms(P, epoch=0, layer=1, seed=123)
        counts = np.bincount(np.minimum((u * bins).astype(int), bins - 1), minlength=bins)
        result = stats.chisquare(counts, f_exp=np.full(bins, rows * cols / bins))
        assert result.pvalue > 0.01


class TestSeedMatrices:
    def test_sage_single_batch(self):
        q = sage_seed_matrix([[1, 5]], 6)
        assert q.shape == (2, 6)
        assert q.row_cols(0).tolist() == [1]
        assert q.row_cols(1).tolist() == [5]

    def test_sage_two_batches_stack(self):
        q = sage_seed_matrix([[1, 5], [0, 2]], 6)
        assert q.shape == (4, 6)
        assert q.row_cols(2).tolist() == [0]

    def test_sage_empty(self):
        assert sage_seed_matrix([], 6).shape == (0, 6)

    def test_sage_rejects_out_of_range(self):
        with pytest.raises(ContractViolation):
            sage_seed_matrix([[6]], 6)

    def test_ladies_single_batch(self):
        q = ladies_seed_matrix([[1, 5]], 6)
        assert q.shape == (1, 6)
        assert q.row_cols(0).tolist() == [1, 5]

    def test_ladies_b1_equals_sage(self):
        batches = [[3], [1], [4]]
        assert ladies_seed_matrix(batches, 6).equals(sage_seed_matrix(batches, 6))

    def test_ladies_shape_k3_b2(self):
        q = ladies_seed_matrix([[0, 1], [2, 3], [4, 5]], 6)
        assert q.shape == (3, 6)
        assert np.all(q.row_nnz() == 2)


def one_row(weights):
    weights = np.asarray(weights, dtype=float)
    m = len(weights)
    return SparseMatrix(1, m, [0, m], np.arange(m), weights)


class TestInverseTransformSampling:
    """sample_frontier's exponential race draws like successive
    inverse-transform draws without replacement."""

    def test_forced_single(self):
        out = sample_frontier(one_row([1.0]), 1, epoch=0, layer=1, seed=0)
        assert out.row_cols(0).tolist() == [0]

    def test_exhaustion_takes_all(self):
        out = sample_frontier(one_row([0.25] * 4), 4, epoch=0, layer=1, seed=1)
        assert out.row_cols(0).tolist() == [0, 1, 2, 3]

    def test_empty_distribution(self):
        P = SparseMatrix(3, 4, [0, 0, 2, 2], [1, 3], [0.5, 0.5])
        out = sample_frontier(P, 3, epoch=0, layer=1, seed=2)
        assert out.row_nnz().tolist() == [0, 2, 0]
        assert sample_frontier(SparseMatrix.empty(0, 4), 3, 0, 1, 2).shape == (0, 4)

    def test_rejects_nonpositive(self):
        for bad in (0.0, -0.5):
            with pytest.raises(ContractViolation):
                sample_frontier(one_row([0.5, bad, 0.5]), 1, epoch=0, layer=1, seed=3)

    def test_first_draw_matches_distribution(self):
        # exact first-draw distribution [0.2, 0.3, 0.5], chi-square at 1%
        p = np.array([0.2, 0.3, 0.5])
        trials = 10**5
        P = vstack([one_row(p)] * trials)
        out = sample_frontier(P, 1, epoch=0, layer=1, seed=123, row_keys=np.arange(trials))
        counts = np.bincount(out.col_indices, minlength=3)
        result = stats.chisquare(counts, f_exp=p * trials)
        assert result.pvalue > 0.01

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.integers(1, 15),
        st.integers(0, 2**31),
    )
    def test_distinct_in_range_count(self, m, s, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(m) + 0.05
        out = sample_frontier(one_row(weights / weights.sum()), s, 0, 1, seed + 1)
        picked = out.row_cols(0)
        assert len(picked) == min(s, m)
        assert len(set(picked.tolist())) == len(picked)
        assert all(0 <= i < m for i in picked)


def top_s_oracle(keys, P, s):
    """Brute force: one full lexsort of every key by (row, key, column),
    then the first min(s, nnz) positions of each row, ascending."""
    rows = np.repeat(np.arange(P.n_rows), P.row_nnz())
    order = np.lexsort((P.col_indices, keys, rows))
    rank = np.empty(P.nnz, dtype=np.int64)
    rank[order] = np.arange(P.nnz) - P.row_offsets[rows[order]]
    return np.flatnonzero(rank < s)


@st.composite
def weighted_rows(draw):
    """Matrices mixing empty rows, rows with at most s entries and hub rows
    far above s; weights equal, spread, or dominated by one entry."""
    s = draw(st.integers(1, 12))
    n_cols = 400
    lengths = draw(
        st.lists(
            st.one_of(st.just(0), st.integers(1, s), st.integers(s + 1, n_cols)),
            max_size=8,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    shape = draw(st.sampled_from(["equal", "spread", "dominated"]))
    offsets = np.concatenate([[0], np.cumsum(lengths, dtype=np.int64)])
    cols = [np.sort(rng.choice(n_cols, size=m, replace=False)) for m in lengths]
    vals = []
    for m in lengths:
        w = np.ones(m) if shape == "equal" else rng.random(m) + 1e-3
        if shape == "dominated" and m:
            w[rng.integers(m)] = 1e4
        vals.append(w / w.sum() if m else w)
    P = SparseMatrix(
        len(lengths), n_cols, offsets,
        np.concatenate(cols + [np.zeros(0, dtype=np.int64)]),
        np.concatenate(vals + [np.zeros(0)]),
    )
    return P, s, rng


class TestRaceExactness:
    """The filtered, padded selection equals a full sort of the same keys."""

    @settings(max_examples=150, deadline=None)
    @given(weighted_rows(), st.integers(0, 2**31))
    def test_matches_full_lexsort_top_s(self, case, seed):
        P, s, _ = case
        keys = -np.log(race_uniforms(P, 0, 1, seed)) / P.values
        want = top_s_oracle(keys, P, s)
        got = sample_frontier(P, s, epoch=0, layer=1, seed=seed)
        assert np.array_equal(got.col_indices, P.col_indices[want])
        assert np.array_equal(got.row_nnz(), np.minimum(P.row_nnz(), s))

    @settings(max_examples=100, deadline=None)
    @given(weighted_rows())
    def test_ties_and_infinities_go_to_the_lower_column(self, case):
        # keys from a handful of values, inf among them, so rows tie often
        P, s, rng = case
        keys = rng.choice([0.0, 0.5, 1.0, 2.0, np.inf], size=P.nnz)
        assert np.array_equal(_race_winners(keys, P, s), top_s_oracle(keys, P, s))


class TestSampleFrontier:
    def test_exhaustion_keeps_pattern(self):
        p = norm_rows_sage(
            SparseMatrix.from_dense(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
        )
        q = sample_frontier(p, 5, epoch=0, layer=1, seed=0)
        assert np.array_equal(q.col_indices, p.col_indices)
        assert np.array_equal(q.row_offsets, p.row_offsets)
        assert np.all(q.values == 1.0)

    def test_figure_graph_sampling(self, figure_graph):
        q = sage_seed_matrix([[1, 5]], 6)
        p = norm_rows_sage(spgemm(q, figure_graph.adjacency))
        out = sample_frontier(p, 2, epoch=0, layer=1, seed=42)
        assert out.row_nnz().tolist() == [2, 2]
        for r, v in ((0, 1), (1, 5)):
            for c in out.row_cols(r):
                assert figure_graph.has_edge(v, int(c))

    def test_marginals_lifted_over_rows(self, figure_graph):
        # vertex 5 has 3 neighbours {2,3,4}; drawing 2 without replacement
        # includes each with probability 2/3
        q = sage_seed_matrix([[5]], 6)
        p = norm_rows_sage(spgemm(q, figure_graph.adjacency))
        trials = 2 * 10**4
        counts = {2: 0, 3: 0, 4: 0}
        for t in range(trials):
            out = sample_frontier(p, 2, epoch=t, layer=1, seed=9)
            for c in out.row_cols(0):
                counts[int(c)] += 1
        observed = np.array([counts[2], counts[3], counts[4]])
        result = stats.chisquare(observed, f_exp=np.full(3, 2 * trials / 3))
        assert result.pvalue > 0.01

    def test_empty_rows_stay_empty(self):
        p = SparseMatrix.empty(3, 4)
        q = sample_frontier(p, 2, epoch=0, layer=1, seed=0)
        assert q.nnz == 0 and q.shape == (3, 4)


class TestEpochBulk:
    def test_figure_sage_one_layer(self, figure_graph):
        cfg = SamplerConfig.sage(layers=1, batch_size=2, fanouts=2, seed=3)
        ep = sample_epoch_bulk(figure_graph, cfg, [[1, 5]])
        layer = ep.layers[0]
        assert layer.adjacency.n_rows == 2
        counts = layer.adjacency.row_nnz()
        assert counts[0] == min(2, 2) and counts[1] == min(2, 3)
        edges = edge_set(figure_graph)
        for b in range(1):
            rows = layer.row_vertices[b]
            cols = layer.col_vertices[b]
            blk = layer.adjacency
            for r in range(blk.n_rows):
                for c in blk.row_cols(r):
                    assert (int(rows[r]), int(cols[int(c)])) in edges

    def test_figure_ladies_support(self, figure_graph):
        cfg = SamplerConfig.ladies(layers=1, batch_size=2, sample_num=2, seed=3)
        ep = sample_epoch_bulk(figure_graph, cfg, [[1, 5]])
        sampled = ep.layers[0].sampled_vertices[0]
        # only vertices in the aggregated neighbourhood {0,2,3,4} are eligible
        assert set(sampled.tolist()) <= {0, 2, 3, 4}
        assert len(sampled) == 2

    def test_bulk_equals_per_batch_runs(self):
        rng = np.random.default_rng(11)
        G = random_graph_min_degree(rng, 60, 4)
        for make in (
            lambda: SamplerConfig.sage(2, 3, (3, 2), bulk_count=4, seed=21),
            lambda: SamplerConfig.ladies(2, 3, 3, bulk_count=4, seed=21),
        ):
            cfg = make()
            batches = [rng.permutation(60)[:3] for _ in range(4)]
            bulk = sample_epoch_bulk(G, cfg, batches, epoch=2)
            for i, batch in enumerate(batches):
                single = sample_epoch_bulk(G, cfg, [batch], epoch=2, batch_offset=i)
                for lb, ls in zip(bulk.layers, single.layers):
                    assert np.array_equal(
                        lb.sampled_vertices[i], ls.sampled_vertices[0]
                    )
                    assert np.array_equal(lb.col_vertices[i], ls.col_vertices[0])
                    assert np.array_equal(lb.row_vertices[i], ls.row_vertices[0])

    def test_chunking_invariance(self):
        rng = np.random.default_rng(12)
        G = random_graph_min_degree(rng, 50, 4)
        cfg = SamplerConfig.sage(2, 2, (2, 2), bulk_count=6, seed=5)
        batches = [rng.permutation(50)[:2] for _ in range(6)]
        whole = sample_epoch_bulk(G, cfg, batches, epoch=0)
        for k in (1, 2, 3):
            pieces = [
                sample_epoch_bulk(G, cfg, batches[i : i + k], epoch=0, batch_offset=i)
                for i in range(0, 6, k)
            ]
            got = [v for ep in pieces for v in ep.layers[-1].sampled_vertices]
            want = list(whole.layers[-1].sampled_vertices)
            assert len(got) == len(want)
            for a, b in zip(want, got):
                assert np.array_equal(a, b)

    def test_every_sampled_edge_in_graph(self):
        rng = np.random.default_rng(13)
        G = random_graph_min_degree(rng, 80, 5, extra_density=0.01)
        edges = edge_set(G)
        for cfg in (
            SamplerConfig.sage(2, 4, (3, 2), bulk_count=3, seed=1),
            SamplerConfig.ladies(2, 4, 4, bulk_count=3, seed=1),
        ):
            batches = [rng.permutation(80)[:4] for _ in range(3)]
            ep = sample_epoch_bulk(G, cfg, batches)
            for layer in ep.layers:
                starts = np.cumsum([0] + layer.batch_row_counts())
                for b in range(3):
                    rows = layer.row_vertices[b]
                    cols = layer.col_vertices[b]
                    blk = layer.adjacency.row_slice(int(starts[b]), int(starts[b + 1]))
                    base = 0
                    if layer.adjacency.n_cols == sum(len(c) for c in layer.col_vertices):
                        base = int(sum(len(layer.col_vertices[x]) for x in range(b)))
                    for r in range(blk.n_rows):
                        for c in blk.row_cols(r):
                            assert (int(rows[r]), int(cols[int(c) - base])) in edges

    def test_sage_fanout_bound_and_equality_at_high_degree(self):
        rng = np.random.default_rng(14)
        G = random_graph_min_degree(rng, 64, 6)
        cfg = SamplerConfig.sage(1, 4, 4, seed=8)
        ep = sample_epoch_bulk(G, cfg, [rng.permutation(64)[:4]])
        counts = ep.layers[0].frontier.row_nnz()
        assert np.all(counts == 4)  # every degree >= 6 >= fanout

    def test_sage_dimension_law(self):
        rng = np.random.default_rng(15)
        G = random_graph_min_degree(rng, 100, 6)
        cfg = SamplerConfig.sage(2, 3, (3, 2), bulk_count=2, seed=4)
        batches = [rng.permutation(100)[:3] for _ in range(2)]
        ep = sample_epoch_bulk(G, cfg, batches)
        assert ep.layers[0].frontier.n_rows == 2 * 3
        assert ep.layers[0].frontier_size() == 2 * 3 * 3
        assert ep.layers[1].frontier.n_rows == 2 * 3 * 3
        assert ep.layers[1].frontier_size() == 2 * 3 * 3 * 2

    def test_ladies_stack_shape(self):
        rng = np.random.default_rng(16)
        G = random_graph_min_degree(rng, 100, 8)
        cfg = SamplerConfig.ladies(1, 4, 6, bulk_count=3, seed=4)
        batches = [rng.permutation(100)[:4] for _ in range(3)]
        ep = sample_epoch_bulk(G, cfg, batches)
        assert ep.layers[0].adjacency.shape == (3 * 4, 6)

    def test_low_degree_clamps_without_padding(self, figure_graph):
        cfg = SamplerConfig.sage(1, 2, 5, seed=0)
        ep = sample_epoch_bulk(figure_graph, cfg, [[0, 5]])
        counts = ep.layers[0].frontier.row_nnz()
        assert counts.tolist() == [1, 3]  # deg(0)=1, deg(5)=3, never padded

    def test_sage_extraction_width_bounded_by_bs(self, figure_graph):
        cfg = SamplerConfig.sage(1, 2, 2, seed=0)
        ep = sample_epoch_bulk(figure_graph, cfg, [[1, 5]])
        layer = ep.layers[0]
        assert layer.adjacency.n_cols <= 2 * 2  # b*s, fewer when picks collide
        assert layer.adjacency.n_cols == len(np.unique(layer.frontier.col_indices))

    def test_deepest_frontier_accessor(self, figure_graph):
        cfg = SamplerConfig.sage(2, 2, (2, 2), seed=1)
        ep = sample_epoch_bulk(figure_graph, cfg, [[1, 5]])
        assert np.array_equal(
            ep.deepest_frontier(0), ep.layers[-1].sampled_vertices[0]
        )

    def test_ladies_first_draw_marginal_matches_probabilities(self, figure_graph):
        # first draw of the layer-wise sampler follows the probability row
        # [1/7, 0, 1/7, 1/7, 4/7, 0] for the batch {1, 5}
        q = ladies_seed_matrix([[1, 5]], 6)
        p = norm_rows_ladies(spgemm(q, figure_graph.adjacency))
        trials = 10**5
        draws = sample_frontier(
            vstack([p] * trials), 1, epoch=0, layer=1, seed=77,
            row_keys=np.arange(trials),
        )
        counts = np.bincount(draws.col_indices, minlength=6)
        expect = np.array([1, 0, 1, 1, 4, 0]) / 7 * trials
        support = expect > 0
        assert counts[~support].sum() == 0
        from scipy import stats

        assert stats.chisquare(counts[support], f_exp=expect[support]).pvalue > 0.01
