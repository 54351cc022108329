import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

from conftest import as_record, as_scipy, one_block
from synthetic import encoded_set

from halattn import linalg
from halattn.cooc import build_cooc, concat_pair
from halattn.linalg import (
    ConvergenceError,
    CsrMatrix,
    EmbeddingTable,
    LinalgError,
    SvdResult,
    _cgs2,
    _one_sided_jacobi,
    _times,
    _times_t,
    add_csr_product,
    csr_sum,
    embed,
    truncated_svd,
)


def random_sparse(rng, rows, cols, density=0.3):
    dense = rng.standard_normal((rows, cols))
    dense[rng.random((rows, cols)) > density] = 0.0
    return sp.csr_matrix(dense), dense


def decaying_matrix(rng, m, n, ratio=0.7, floor=1e-3):
    """Random matrix with geometric spectral decay plus a full-rank floor."""
    r = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, r)))
    v, _ = np.linalg.qr(rng.standard_normal((n, r)))
    s = 10.0 * ratio ** np.arange(r) + floor
    return (u * s) @ v.T


def lapack_singular_values(g):
    return np.linalg.svd(g, compute_uv=False)


class TestCgs2:
    def test_drops_duplicate_and_zero_columns(self, rng):
        x = rng.standard_normal((60, 20))
        # a zero column, a duplicate within its panel, a scaled duplicate in a later panel
        extra = np.column_stack([np.zeros(60), x[:, 1], 2.0 * x[:, 4]])
        basis = np.insert(x, [3, 5, 17], extra, axis=1)
        q = _cgs2(basis)
        assert q.shape == (60, 20)
        np.testing.assert_allclose(q.T @ q, np.eye(20), rtol=0, atol=1e-12)
        # same span: projecting the input onto the basis gives the input back
        np.testing.assert_allclose(q @ (q.T @ basis), basis, rtol=0, atol=1e-12)

    def test_ill_conditioned_stays_orthonormal(self, rng):
        # condition number 1e10: one Gram-Schmidt pass would lose orthogonality
        u, _ = np.linalg.qr(rng.standard_normal((200, 45)))
        v, _ = np.linalg.qr(rng.standard_normal((45, 45)))
        basis = (u * np.logspace(0, -10, 45)) @ v.T
        q = _cgs2(basis)
        assert q.shape == (200, 45)
        np.testing.assert_allclose(q.T @ q, np.eye(45), rtol=0, atol=1e-12)
        np.testing.assert_allclose(q @ (q.T @ basis), basis, rtol=0, atol=1e-12)

    def test_near_dependence_inside_a_later_panel(self, rng):
        # in the second panel, columns 10-13 each add 1e-10 noise to the one
        # before: the residuals sit above _DROP_TOL, and after normalization
        # each must be orthogonal to the first panel and to the others
        x = rng.standard_normal((300, 16))
        for j in range(10, 14):
            x[:, j] = x[:, j - 1] + 1e-10 * rng.standard_normal(300)
        q = _cgs2(x)
        assert q.shape == (300, 16)
        np.testing.assert_allclose(q.T @ q, np.eye(16), rtol=0, atol=1e-12)
        np.testing.assert_allclose(q @ (q.T @ x), x, rtol=0, atol=1e-12)


class TestOneSidedJacobi:
    def test_against_lapack(self, rng):
        g = rng.standard_normal((12, 6))
        u, s, v = _one_sided_jacobi(g)
        order = np.argsort(-s)
        np.testing.assert_allclose(
            np.sort(s)[::-1], np.linalg.svd(g, compute_uv=False), rtol=1e-12
        )
        np.testing.assert_allclose(u[:, order] * s[order] @ v[:, order].T, g, atol=1e-10)

    def test_equal_norm_columns_rotate(self):
        # zeta == 0 case: correlated columns of identical norm
        g = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1e-3]])
        u, s, v = _one_sided_jacobi(g)
        np.testing.assert_allclose(
            np.sort(s)[::-1], np.linalg.svd(g, compute_uv=False), rtol=1e-12
        )

    def test_exactly_equal_norms_rotate(self):
        # r is exact here and both columns have norm 5, so zeta is exactly 0
        g = np.array([[5.0, 3.0], [0.0, 4.0], [0.0, 0.0]])
        u, s, v = _one_sided_jacobi(g)
        np.testing.assert_allclose(np.sort(s)[::-1], lapack_singular_values(g), rtol=1e-12)

    def test_odd_column_count(self, rng):
        g = rng.standard_normal((20, 7))
        u, s, v = _one_sided_jacobi(g)
        assert u.shape == (20, 7) and s.shape == (7,) and v.shape == (7, 7)
        np.testing.assert_allclose(np.sort(s)[::-1], lapack_singular_values(g), rtol=1e-12)
        np.testing.assert_allclose((u * s) @ v.T, g, atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(7), atol=1e-12)

    def test_zero_column(self, rng):
        g = rng.standard_normal((15, 6))
        g[:, 2] = 0.0
        u, s, v = _one_sided_jacobi(g)
        oracle = lapack_singular_values(g)
        assert s[2] == 0.0 and oracle[-1] < 1e-12 * oracle[0]
        assert np.all(u[:, 2] == 0.0)
        np.testing.assert_allclose(np.sort(s)[::-1][:5], oracle[:5], rtol=1e-12)
        np.testing.assert_allclose((u * s) @ v.T, g, atol=1e-10)
        np.testing.assert_allclose(v.T @ v, np.eye(6), atol=1e-12)

    def test_sweep_budget_exhausted(self, rng):
        g = rng.standard_normal((30, 10)) + 3.0  # strongly correlated columns
        with pytest.raises(ConvergenceError, match="within 1 sweeps") as info:
            _one_sided_jacobi(g, max_sweeps=1)
        # the message names the worst remaining |apq|/sqrt(app*aqq)
        worst = float(re.search(r"last sweep (\S+) >", str(info.value)).group(1))
        assert 1e-12 < worst <= 1.0
        with pytest.raises(ConvergenceError, match="within 0 sweeps"):
            _one_sided_jacobi(g, max_sweeps=0)

    def test_non_finite_input_never_converges(self, rng):
        g = rng.standard_normal((8, 4))
        g[0, 0] = np.nan
        with pytest.raises(ConvergenceError, match="last sweep nan"):
            _one_sided_jacobi(g)

    def test_tall_production_shape(self, rng):
        g = rng.standard_normal((4000, 110))
        u, s, v = _one_sided_jacobi(g)
        np.testing.assert_allclose(np.sort(s)[::-1], lapack_singular_values(g), rtol=1e-12)
        np.testing.assert_allclose((u * s) @ v.T, g, atol=1e-10)


class TestTruncatedSvd:
    def test_diagonal(self):
        sparse = sp.csr_matrix(np.diag([5.0, 3.0, 1.0]))
        result = truncated_svd(one_block(sparse), k=2, oversample=1, power_iters=2, seed=0)
        np.testing.assert_allclose(result.singular_values, [5.0, 3.0], rtol=1e-12)

    def test_rank_one(self, rng):
        a = rng.standard_normal(12)
        b = rng.standard_normal(9)
        sparse = sp.csr_matrix(np.outer(a, b))
        result = truncated_svd(one_block(sparse), k=1, oversample=5, power_iters=1, seed=1)
        sigma = np.linalg.norm(a) * np.linalg.norm(b)
        np.testing.assert_allclose(result.singular_values[0], sigma, rtol=1e-10)
        recon = (result.u * result.singular_values) @ result.vt
        assert np.abs(recon - np.outer(a, b)).max() < 1e-10

    def test_random_matrix_against_dense_oracle(self, rng):
        dense = decaying_matrix(rng, 50, 80)
        sparse = sp.csr_matrix(dense)
        result = truncated_svd(one_block(sparse), k=10, oversample=10, power_iters=2, seed=2)
        oracle = np.linalg.svd(dense, compute_uv=False)
        np.testing.assert_allclose(result.singular_values, oracle[:10], rtol=1e-6)
        recon = (result.u * result.singular_values) @ result.vt
        optimal = np.sqrt((oracle[10:] ** 2).sum())
        assert np.linalg.norm(dense - recon) <= 1.05 * optimal

    def test_orthonormality_and_monotone_spectrum(self, rng):
        dense = decaying_matrix(rng, 40, 60, ratio=0.85)
        result = truncated_svd(one_block(sp.csr_matrix(dense)), k=8, seed=3)
        result.validate()  # orthonormality within 1e-8, non-increasing spectrum
        s = result.singular_values
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0)

    def test_seed_determinism_bitwise(self, rng):
        dense = decaying_matrix(rng, 30, 45)
        sparse = sp.csr_matrix(dense)
        first = truncated_svd(one_block(sparse), k=5, seed=42)
        second = truncated_svd(one_block(sparse), k=5, seed=42)
        assert np.array_equal(first.u, second.u)
        assert np.array_equal(first.singular_values, second.singular_values)
        assert np.array_equal(first.vt, second.vt)

    def test_different_seeds_differ(self, rng):
        dense = decaying_matrix(rng, 30, 45)
        sparse = sp.csr_matrix(dense)
        first = truncated_svd(one_block(sparse), k=5, seed=1)
        second = truncated_svd(one_block(sparse), k=5, seed=2)
        assert not np.array_equal(first.u, second.u)
        # but the factorization itself agrees
        np.testing.assert_allclose(
            first.singular_values, second.singular_values, rtol=1e-9
        )

    def test_production_shape_against_dense_oracle(self):
        # rank 105 fits inside k + oversample = 110, so only rounding separates the two
        rng = np.random.default_rng(5)
        left = sp.random(2000, 105, density=0.05, format="csr", rng=rng)
        right = sp.random(105, 4000, density=0.05, format="csr", rng=rng)
        matrix = (left @ right).tocsr()
        result = truncated_svd(one_block(matrix), k=100, oversample=10, power_iters=2, seed=0)
        oracle = lapack_singular_values(matrix.toarray())
        np.testing.assert_allclose(result.singular_values, oracle[:100], rtol=1e-6)

    def test_peak_memory_at_most_one_array_below_holding_b(self):
        # One "array" is 2V x (k + oversample) float64. At most q (V rows), Jacobi's input
        # b.T = A.T @ q and its Q factor are alive at once, 2.5 arrays plus panel-sized
        # scraps. Keeping b alive through the Jacobi sweeps, and u_small beside its column
        # selection, peaked at 4.07 arrays on this pair; the bound is one array below that.
        vocab_size, k, oversample = 1500, 100, 10
        rng = np.random.default_rng(20)
        docs = encoded_set([rng.integers(0, vocab_size, 100) for _ in range(300)])
        blocks = concat_pair(build_cooc(docs, vocab_size, 5))
        tracemalloc.start()
        try:
            truncated_svd(blocks, k=k, oversample=oversample, power_iters=2, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        array = 2 * vocab_size * (k + oversample) * 8
        assert peak <= 3.07 * array, peak / array

    def test_k_out_of_range(self, rng):
        sparse, _ = random_sparse(rng, 10, 12)
        with pytest.raises(LinalgError):
            truncated_svd(one_block(sparse), k=0)
        with pytest.raises(LinalgError):
            truncated_svd(one_block(sparse), k=8, oversample=5)

    @pytest.mark.parametrize("name", ["oversample", "power_iters"])
    def test_negative_oversample_or_power_iters(self, rng, name):
        sparse, _ = random_sparse(rng, 10, 12)
        with pytest.raises(LinalgError, match=f"{name} must be >= 0, got -3"):
            truncated_svd(one_block(sparse), k=2, **{name: -3})

    def test_empty_block_list(self):
        with pytest.raises(LinalgError, match="at least one"):
            truncated_svd([], k=1)

    def test_blocks_of_different_heights(self, rng):
        top, = one_block(random_sparse(rng, 10, 12)[0])
        low, = one_block(random_sparse(rng, 9, 12)[0])
        with pytest.raises(LinalgError, match="one height"):
            truncated_svd([top, low], k=2)

    def test_transposed_block_height_is_its_width(self, rng):
        # a flagged block stands for its transpose: (10 x 12).T is 12 rows high, not 10
        sparse, _ = random_sparse(rng, 10, 12)
        for wrong in ((as_record(sparse), True), (as_record(sparse[:, :11]), True)):
            with pytest.raises(LinalgError, match=r"got \[10, 1[12]\]"):
                truncated_svd([(as_record(sparse), False), wrong], k=2)
        tall, _ = random_sparse(rng, 12, 10)
        assert truncated_svd([(as_record(sparse), False), (as_record(tall), True)], k=2,
                             oversample=1).u.shape == (10, 2)


def ragged_csr(rng):
    """14 x 9 CSR with empty leading and trailing rows and one row holding most
    nonzeros, so that splits by nnz leave some blocks with none. Magnitudes
    spread over 16 decades, so a change in summation order changes the bits."""
    dense = np.zeros((14, 9))
    for row, count in ((2, 3), (3, 9), (5, 1), (9, 4), (11, 2)):
        cols = rng.choice(9, size=count, replace=False)
        dense[row, cols] = rng.standard_normal(count) * 10.0 ** rng.uniform(-8, 8, count)
    return sp.csr_matrix(dense)


WORKER_COUNTS = (1, 2, 3, 40)  # 40 is more than ragged_csr's rows
COLUMN_CUTS = ((), (4,), (0, 3), (1, 5, 8), (9,))  # 0 and 9 leave a block with no columns


def column_blocks(matrix, cuts):
    """The matrix split at the given columns, as CSR blocks, each flagged as itself."""
    bounds = (0, *cuts, matrix.shape[1])
    return [(as_record(matrix[:, lo:hi]), False) for lo, hi in zip(bounds, bounds[1:])]


def spread_csr(rng, size, empty=40):
    """size x size CSR with `empty` zero rows and as many zero columns, signed values over 16
    decades: a change in summation order changes the bits."""
    dense = rng.standard_normal((size, size)) * 10.0 ** rng.uniform(-8, 8, (size, size))
    dense[rng.random((size, size)) > 0.03] = 0.0
    dense[rng.choice(size, empty, replace=False)] = 0.0
    dense[:, rng.choice(size, empty, replace=False)] = 0.0
    return sp.csr_matrix(dense)


class TestRowBlockedProduct:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_equals_the_unblocked_products(self, rng, monkeypatch, workers):
        monkeypatch.setattr(linalg, "_WORKERS", workers)
        matrix = ragged_csr(rng)
        x = rng.standard_normal((9, 5)) * 10.0 ** rng.uniform(-8, 8, (9, 5))
        q = np.asfortranarray(rng.standard_normal((14, 5)))  # _cgs2 returns this layout
        with ThreadPoolExecutor(workers) as pool:
            for cuts in COLUMN_CUTS:
                product = _times(column_blocks(matrix, cuts), x, np.zeros((14, 5)), pool)
                assert np.array_equal(product, matrix @ x), cuts
            transposed = _times([(as_record(matrix.T), False)], q, np.zeros((9, 5)), pool)
            assert np.array_equal(transposed, matrix.T @ q)
            record = as_record(matrix)
            assert np.array_equal(_times([(record, True)], q, np.zeros((9, 5)), pool), transposed)
            assert np.array_equal(_times_t([(record, False)], q, pool), transposed)

    def test_splits_cover_every_row_once_and_leave_some_block_empty(self, rng, monkeypatch):
        matrix, calls, empty_ranges = ragged_csr(rng), [], 0
        def recording(n_row, n_col, n_vecs, indptr, *rest):  # one call per row range
            calls.append((n_row, int(indptr[-1] - indptr[0])))
            csr_matvecs(n_row, n_col, n_vecs, indptr, *rest)
        monkeypatch.setattr(linalg._kernels, "csr_matvecs", recording)
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(linalg, "_WORKERS", workers)
            calls.clear()
            with ThreadPoolExecutor(workers) as pool:
                _times([(as_record(matrix), False)], np.ones((9, 2)), np.zeros((14, 2)), pool)
            assert len(calls) <= workers
            assert sum(rows for rows, _ in calls) == 14
            assert sum(nnz for _, nnz in calls) == matrix.nnz
            empty_ranges += sum(nnz == 0 for _, nnz in calls)
        assert empty_ranges > 0

    def test_writes_only_the_rows_of_out_it_is_given(self, rng, monkeypatch):
        # row ranges and CSC alike add into the view they are given, and nowhere else
        monkeypatch.setattr(linalg, "_WORKERS", 3)
        matrix = ragged_csr(rng)
        x = rng.standard_normal((9, 4))
        for blocks in (column_blocks(matrix, (4,)), [(as_record(matrix.T), True)]):
            out = np.full((20, 4), 2.0)
            out[3:17] = 0.0
            with ThreadPoolExecutor(3) as pool:
                _times(blocks, x, out[3:17], pool)
            assert np.array_equal(out[3:17], matrix @ x)
            assert np.all(out[:3] == 2.0) and np.all(out[17:] == 2.0)

    def test_refuses_an_out_it_cannot_write_in_place(self, rng):
        matrix = ragged_csr(rng)
        out = np.zeros((14, 3), order="F")
        with pytest.raises(AssertionError, match="would copy out"):
            add_csr_product(matrix.indptr, matrix.indices, matrix.data, np.ones((9, 3)), out)
        assert not out.any()

    @pytest.mark.parametrize("workers", (1, 2))
    def test_pair_blocks_equal_the_joined_matrix(self, monkeypatch, workers):
        monkeypatch.setattr(linalg, "_WORKERS", workers)
        rng = np.random.default_rng(13)
        docs = encoded_set([rng.integers(0, 120, rng.integers(2, 40)) for _ in range(150)])
        pair = build_cooc(docs, 120, 4)
        joined = sp.hstack([as_scipy(pair.left), as_scipy(pair.left).T], format="csr")
        blocked = truncated_svd(concat_pair(pair), k=10, seed=6)
        direct = truncated_svd(one_block(joined), k=10, seed=6)
        assert np.array_equal(blocked.u, direct.u)
        assert np.array_equal(blocked.singular_values, direct.singular_values)
        assert np.array_equal(blocked.vt, direct.vt)

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("n_vecs", (1, 42, 310))
    def test_flagged_pair_products_equal_the_joined_csr_bitwise(self, monkeypatch, workers,
                                                                n_vecs):
        # right is exactly left.T: through (left, False) and (left, True), A @ x and A.T @ y
        # have the bits of the products of the joined CSR [left | left.T] and its transpose's
        monkeypatch.setattr(linalg, "_WORKERS", workers)
        rng = np.random.default_rng(n_vecs)
        left = spread_csr(rng, 400)
        assert (left.getnnz(axis=0) == 0).sum() >= 40 and (left.getnnz(axis=1) == 0).sum() >= 40
        joined = sp.hstack([left, left.T]).tocsr()
        x = rng.standard_normal((800, n_vecs)) * 10.0 ** rng.uniform(-8, 8, (800, n_vecs))
        y = np.asfortranarray(rng.standard_normal((400, n_vecs)))  # _cgs2 returns this layout
        record = as_record(left)
        blocks = [(record, False), (record, True)]
        with ThreadPoolExecutor(workers) as pool:
            assert np.array_equal(_times(blocks, x, np.zeros((400, n_vecs)), pool), joined @ x)
            assert np.array_equal(_times_t(blocks, y, pool), joined.T.tocsr() @ y)

    def test_svd_bits_do_not_depend_on_worker_count(self, monkeypatch):
        rng = np.random.default_rng(9)
        matrix = sp.random(300, 500, density=0.05, format="csr", rng=rng)
        results = []
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(linalg, "_WORKERS", workers)
            results.append(truncated_svd(one_block(matrix), k=12, seed=4))
        for other in results[1:]:
            assert np.array_equal(other.u, results[0].u)
            assert np.array_equal(other.singular_values, results[0].singular_values)
            assert np.array_equal(other.vt, results[0].vt)

    def test_no_thread_outlives_a_call(self, rng, monkeypatch):
        monkeypatch.setattr(linalg, "_WORKERS", 2)
        before = threading.active_count()
        truncated_svd(one_block(sp.csr_matrix(decaying_matrix(rng, 30, 45))), k=5, seed=0)
        assert threading.active_count() == before
        rank_two = sp.csr_matrix(np.outer(rng.standard_normal(30), rng.standard_normal(45))
                                 + np.outer(rng.standard_normal(30), rng.standard_normal(45)))
        with pytest.raises(LinalgError, match="rank"):
            truncated_svd(one_block(rank_two), k=4, oversample=2, seed=0)
        assert threading.active_count() == before


def buffer_size(x: np.ndarray) -> int:
    """The entries of the array that x is a view of, through every level of views."""
    while isinstance(x.base, np.ndarray):
        x = x.base
    return x.size


class TestCsrRecord:
    """The package's CSR record, and its sum by scipy's kernel, against scipy's CSR type."""

    @pytest.mark.parametrize("shape, last, expected", [
        ((3, 4), 5, np.int32), ((3, 2**31), 5, np.int64), ((3, 4), 2**31, np.int64)],
        ids=["fits", "too-many-columns", "offset-too-large"])
    def test_index_dtype_is_scipys(self, shape, last, expected):
        record = CsrMatrix(np.array([0, 1, 2, last]), np.array([0, 1, 3]), np.ones(3), *shape)
        assert record.row_offsets.dtype == record.col_indices.dtype == expected
        kept = np.array([0, 1, 3], np.int32)
        assert CsrMatrix(np.arange(4, dtype=np.int32), kept, np.ones(3), 3, 4).col_indices is kept

    @pytest.mark.parametrize("cancel", [0.0, 0.5, 1.0], ids=["none", "half", "all"])
    def test_sum_equals_scipys_add_bitwise(self, cancel):
        # values over 16 decades and entries that cancel to an exact zero, which the kernel
        # drops: a result under half its buffers is copied out, as scipy prunes it
        rng = np.random.default_rng(int(cancel * 10))
        a = spread_csr(rng, 120, empty=10)
        b = spread_csr(rng, 120, empty=10)
        b = b + sp.csr_matrix((-a.data * (rng.random(a.nnz) < cancel), a.indices, a.indptr),
                              shape=a.shape)
        b.eliminate_zeros()
        ours, theirs = csr_sum(as_record(a), as_record(b)), a + b
        assert ours.nnz < (a.nnz + b.nnz) // 2 if cancel == 1.0 else ours.nnz > 0
        for mine, scipys in ((ours.row_offsets, theirs.indptr), (ours.col_indices, theirs.indices),
                             (ours.values, theirs.data)):
            assert mine.dtype == scipys.dtype and np.array_equal(mine, scipys)
            assert buffer_size(mine) == buffer_size(scipys)  # copied out, or a view of the buffer

    def test_sum_of_different_shapes_refused(self):
        # the kernel would read past the smaller matrix's row offsets
        with pytest.raises(LinalgError, match="cannot add a 2 x 3 matrix to a 3 x 3 one"):
            csr_sum(as_record(np.eye(3)), as_record(np.ones((2, 3))))


class TestEmbed:
    def test_identity_scaling(self):
        result = SvdResult(
            u=np.eye(2), singular_values=np.array([3.0, 2.0]), vt=np.eye(2)
        )
        table = embed(result)
        assert table.vectors.tolist() == [[3.0, 0.0], [0.0, 2.0]]

    def test_row_norms_are_sigma_weighted(self, rng):
        dense = decaying_matrix(rng, 25, 40)
        result = truncated_svd(one_block(sp.csr_matrix(dense)), k=6, seed=0)
        table = embed(result)
        expected = np.linalg.norm(result.u * result.singular_values, axis=1)
        np.testing.assert_allclose(
            np.linalg.norm(table.vectors, axis=1), expected, rtol=1e-6
        )

    def test_shape_and_dtype(self, rng):
        dense = decaying_matrix(rng, 30, 50)
        table = embed(truncated_svd(one_block(sp.csr_matrix(dense)), k=7, seed=0))
        assert table.vectors.shape == (30, 7)
        assert table.size == 30 and table.dim == 7
        assert table.vectors.dtype == np.float32

    def test_normalize_toggle(self, rng):
        dense = decaying_matrix(rng, 20, 30)
        result = truncated_svd(one_block(sp.csr_matrix(dense)), k=4, seed=0)
        table = embed(result, normalize=True)
        np.testing.assert_allclose(
            np.linalg.norm(table.vectors, axis=1), 1.0, rtol=1e-5
        )

    def test_gather_promotes_to_float64(self, rng):
        table = EmbeddingTable(vectors=rng.standard_normal((5, 3)).astype(np.float32))
        out = table.gather(np.array([[0, 1], [2, 4]]))
        assert out.dtype == np.float64
        assert out.shape == (2, 2, 3)
