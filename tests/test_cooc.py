import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import as_record, as_scipy
from halattn.corpus import EncodedSet
from halattn.cooc import CoocError, CoocPair, build_cooc, concat_pair, hal_weight
from halattn.linalg import CsrMatrix
from synthetic import encoded_set


def brute_force_pair(docs, vocab_size, window):
    """Independent oracle: direct double loop over token positions."""
    left = np.zeros((vocab_size, vocab_size))
    right = np.zeros((vocab_size, vocab_size))
    for doc in docs:
        ids = doc.ids[: doc.real_length]
        for i in range(len(ids)):
            for j in range(max(0, i - window), i):
                w = 1.0 / (i - j)
                left[ids[i], ids[j]] += w
                right[ids[j], ids[i]] += w
    return left, right


def merged_once_left(corpus, vocab_size, window):
    """Reference: every distance's pair keys merged in one global sort.

    Each distance's keys are counted by np.unique over the concatenated real
    tokens; all distances' keys are then sorted together again and their 1/d
    weighted counts scattered into zeros by np.add.at, in ascending d.
    """
    flat = corpus.ids[corpus.mask].astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(corpus.lengths)[:-1]))
    start_of = np.repeat(starts, corpus.lengths)
    positions = np.arange(flat.size, dtype=np.int64)
    keys, weighted = [], []
    for d in range(1, window + 1):
        valid = positions - d >= start_of
        k, counts = np.unique(flat[valid] * vocab_size + flat[positions[valid] - d],
                              return_counts=True)
        keys.append(k)
        weighted.append(counts.astype(np.float64) * hal_weight(d, window))
    unique_keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    totals = np.zeros(unique_keys.shape[0], dtype=np.float64)
    np.add.at(totals, inverse, np.concatenate(weighted))
    offsets = np.searchsorted(unique_keys // vocab_size, np.arange(vocab_size + 1))
    return sp.csr_matrix((totals, unique_keys % vocab_size, offsets),
                         shape=(vocab_size, vocab_size))


def assert_same_csr(record, matrix):
    """The package's CSR record holds a scipy CSR matrix's arrays: same dtypes, same bits."""
    for ours, theirs in (("row_offsets", "indptr"), ("col_indices", "indices"),
                         ("values", "data")):
        x, y = getattr(record, ours), getattr(matrix, theirs)
        assert x.dtype == y.dtype, ours
        assert np.array_equal(x, y), ours


@st.composite
def padded_corpora(draw):
    """(EncodedSet, vocab_size, window): 1..8 documents over ids [0, V), right-padded by
    0..3 slots, with a window from 1 to 2 past the row length."""
    vocab_size = draw(st.integers(1, 9))
    docs = draw(st.lists(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=12),
                         min_size=1, max_size=8))
    seq_len = max(map(len, docs)) + draw(st.integers(0, 3))
    return encoded_set(docs, seq_len=seq_len), vocab_size, draw(st.integers(1, seq_len + 2))


def zipf_corpus(n_docs, seq_len, vocab_size, seed):
    """Seeded Zipfian ids (rank r drawn with weight 1/r), lengths from seq_len/2 to seq_len."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, vocab_size + 1)
    ids = rng.choice(vocab_size, size=(n_docs, seq_len), p=weights / weights.sum())
    lengths = rng.integers(seq_len // 2, seq_len + 1, n_docs)
    ids[np.arange(seq_len) >= lengths[:, None]] = 0
    return EncodedSet(ids=ids.astype(np.int32), lengths=lengths, labels=np.zeros(n_docs, np.int64))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHalWeight:
    def test_adjacent(self):
        assert hal_weight(1, 5) == 1.0

    def test_window_boundary(self):
        assert hal_weight(5, 5) == 0.2

    def test_outside_window(self):
        assert hal_weight(6, 5) == 0.0

    def test_zero_distance(self):
        assert hal_weight(0, 5) == 0.0

    @given(st.integers(0, 50), st.integers(1, 20))
    def test_matches_definition(self, d, window):
        expected = 1.0 / d if 0 < d <= window else 0.0
        assert hal_weight(d, window) == expected


class TestBuildCooc:
    def test_abc_hand_enumeration(self):
        pair = build_cooc(encoded_set([[0, 1, 2]]), vocab_size=3, window=2)
        left = as_scipy(pair.left).toarray()
        right = as_scipy(pair.left).T.toarray()
        expected_left = np.zeros((3, 3))
        expected_left[1, 0] = 1.0
        expected_left[2, 1] = 1.0
        expected_left[2, 0] = 0.5
        assert np.array_equal(left, expected_left)
        assert np.array_equal(right, expected_left.T)

    def test_repeated_token_self_cooccurrence(self):
        pair = build_cooc(encoded_set([[0, 0]]), vocab_size=1, window=1)
        assert as_scipy(pair.left).toarray()[0, 0] == 1.0
        assert as_scipy(pair.left).T.toarray()[0, 0] == 1.0

    def test_one_token_docs_give_empty_matrices(self):
        pair = build_cooc(encoded_set([[0], [1]]), vocab_size=2, window=3)
        assert pair.left.nnz == 0
        assert as_scipy(pair.left).T.nnz == 0

    def test_windows_do_not_cross_documents(self):
        joined = build_cooc(encoded_set([[0, 1, 0, 1]]), 2, 3)
        split_docs = build_cooc(encoded_set([[0, 1], [0, 1]]), 2, 3)
        assert as_scipy(joined.left).toarray().sum() > as_scipy(split_docs.left).toarray().sum()
        expected = np.zeros((2, 2))
        expected[1, 0] = 2.0  # one adjacent pair per document
        assert np.array_equal(as_scipy(split_docs.left).toarray(), expected)

    def test_padding_contributes_nothing(self):
        padded = build_cooc(encoded_set([[1, 1]], seq_len=6), 2, 5)
        tight = build_cooc(encoded_set([[1, 1]]), 2, 5)
        assert np.array_equal(as_scipy(padded.left).toarray(), as_scipy(tight.left).toarray())

    def test_out_of_range_id_names_document(self):
        with pytest.raises(CoocError, match="document 1"):
            build_cooc(encoded_set([[0], [5]]), vocab_size=2, window=2)

    def test_empty_corpus_rejected(self):
        with pytest.raises(CoocError):
            build_cooc(encoded_set([]), 2, 2)

    @given(
        st.lists(
            st.lists(st.integers(0, 5), min_size=1, max_size=12),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, docs_ids, window):
        docs = encoded_set(docs_ids)
        pair = build_cooc(docs, vocab_size=6, window=window)
        left, right = brute_force_pair(docs, 6, window)
        np.testing.assert_allclose(as_scipy(pair.left).toarray(), left, rtol=0, atol=1e-12)
        np.testing.assert_allclose(as_scipy(pair.left).T.toarray(), right, rtol=0, atol=1e-12)

    @given(
        st.lists(
            st.lists(st.integers(0, 7), min_size=1, max_size=15),
            min_size=1,
            max_size=6,
        ),
        st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_transpose_duality_bitwise(self, docs_ids, window):
        pair = build_cooc(encoded_set(docs_ids), 8, window)
        assert np.array_equal(as_scipy(pair.left).T.toarray(), as_scipy(pair.left).toarray().T)

    def test_order_invariance_bitwise(self):
        rng = np.random.default_rng(3)
        docs = encoded_set([rng.integers(0, 9, rng.integers(2, 20)) for _ in range(25)])
        forward = build_cooc(docs, 9, 4)
        backward = build_cooc(docs[::-1], 9, 4)
        for a, b in ((as_scipy(forward.left), as_scipy(backward.left)),
                     (as_scipy(forward.left).T.tocsr(), as_scipy(backward.left).T.tocsr())):
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    @given(padded_corpora())
    @example((encoded_set([[0, 1, 2]]), 3, 3))  # window == T
    @example((encoded_set([[2, 0, 2]]), 3, 7))  # window > T
    @example((encoded_set([[0], [1]], seq_len=1), 2, 2))  # T == 1
    @example((encoded_set([[1], [0, 4, 4], [4]]), 5, 2))  # length-1 documents, id V - 1
    @example((encoded_set([[0, 1], [1, 1]], seq_len=5), 2, 4))  # distances 2..4 have no pairs
    @settings(max_examples=200, deadline=None)
    def test_matches_one_global_merge_bitwise(self, case):
        docs, vocab_size, window = case
        assert_same_csr(build_cooc(docs, vocab_size, window).left,
                        merged_once_left(docs, vocab_size, window))

    def test_peak_memory_at_most_half_of_one_global_merge(self):
        docs = zipf_corpus(1500, 200, 2000, seed=0)
        assert_same_csr(build_cooc(docs, 2000, 5).left, merged_once_left(docs, 2000, 5))
        ours = traced_peak(build_cooc, docs, 2000, 5)
        reference = traced_peak(merged_once_left, docs, 2000, 5)
        assert ours <= reference / 2, (ours, reference)

    def test_64_bit_keys_match_one_global_merge_bitwise(self):
        # vocab_size**2 > 2**31 - 1, so keys are int64: ids near the top would overflow int32
        vocab_size = 46341
        rng = np.random.default_rng(9)
        ids = np.r_[np.arange(20), np.arange(vocab_size - 20, vocab_size)]
        docs = encoded_set([rng.choice(ids, rng.integers(2, 40)) for _ in range(30)])
        assert_same_csr(build_cooc(docs, vocab_size, 4).left,
                        merged_once_left(docs, vocab_size, 4))

    def test_mass_conservation_closed_form(self):
        rng = np.random.default_rng(5)
        window = 4
        lengths = [13] * 10  # fixed-length corpus for the closed form
        docs = encoded_set([rng.integers(0, 6, n) for n in lengths])
        pair = build_cooc(docs, 6, window)
        expected = sum(
            max(0, n - d) * (1.0 / d) for n in lengths for d in range(1, window + 1)
        )
        assert pair.left.values.sum() == pytest.approx(expected, rel=1e-12)
        assert as_scipy(pair.left).T.data.sum() == pytest.approx(expected, rel=1e-12)

    def test_csr_invariants(self):
        rng = np.random.default_rng(11)
        docs = encoded_set([rng.integers(0, 12, rng.integers(2, 30)) for _ in range(20)])
        left = build_cooc(docs, 12, 5).left
        assert (left.rows, left.cols) == (12, 12)
        assert left.row_offsets[-1] == left.col_indices.size == left.values.size
        assert as_scipy(left).has_canonical_format and np.all(left.values > 0)

    def test_window_below_one_rejected(self):
        with pytest.raises(CoocError, match="window must be >= 1, got 0"):
            build_cooc(encoded_set([[0, 1, 0]]), 2, 0)


class TestCoocPairChecks:
    """A CoocPair checks its matrix when it is made, so every path that makes one does."""

    DENSE = np.array([[0.0, 1.0, 0.5], [2.0, 0.0, 0.0], [0.25, 1.5, 3.0]])

    def test_offsets_ending_early_refused_not_pruned(self):
        left = as_record(self.DENSE)
        indices, data = left.col_indices.copy(), left.values.copy()
        left.row_offsets[-1] = 5  # the sixth stored entry lies past the last row's end
        with pytest.raises(CoocError, match="row offsets end at 5, not at 6 entries"):
            CoocPair(left=left, window=2)
        assert np.array_equal(left.col_indices, indices) and np.array_equal(left.values, data)

    @pytest.mark.parametrize("columns", [[2, 1], [1, 1]], ids=["descending", "duplicate"])
    def test_columns_edited_after_a_check_refused(self, columns):
        # each check reads the arrays afresh: nothing is cached from an earlier one
        left = as_record(self.DENSE)
        CoocPair(left=left, window=2)
        left.col_indices[:2] = columns  # row 0's two entries
        with pytest.raises(CoocError, match="strictly increasing"):
            CoocPair(left=left, window=2)

    def test_empty_rows_and_columns_falling_across_rows_accepted(self):
        # indptr [0, 0, 2, 3, 3]: empty first and last rows; row 2 starts below row 1's end
        left = as_record(np.array([[0.0, 0, 0, 0], [1, 0, 2, 0], [0.5, 0, 0, 0], [0, 0, 0, 0]]))
        assert CoocPair(left=left, window=2).left.nnz == 3

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.row_offsets.__setitem__(0, 1), "row offsets must start at 0, not at 1"),
        (lambda m: dataclasses.replace(m, row_offsets=np.r_[m.row_offsets, 6]),
         "needs 1-D arrays and 4 row offsets"),
        (lambda m: dataclasses.replace(m, col_indices=m.col_indices.reshape(2, 3)),
         r"needs 1-D arrays and 4 row offsets, not shapes \(4,\), \(2, 3\)"),
    ], ids=["offsets-start-above-0", "offsets-too-long", "indices-2-d"])
    def test_rules_of_scipys_full_check_refused(self, edit, message):
        left = as_record(self.DENSE)
        with pytest.raises(CoocError, match=message):
            CoocPair(left=edit(left) or left, window=2)

    def test_window_and_shape_refused(self):
        with pytest.raises(CoocError, match="window must be >= 1, got 0"):
            CoocPair(left=as_record(self.DENSE), window=0)
        with pytest.raises(CoocError, match="square"):
            CoocPair(left=as_record(self.DENSE[:2]), window=2)


class TestConcatRow:
    def test_concat_pair_matches_rows(self):
        pair = build_cooc(encoded_set([[0, 1, 2]]), vocab_size=3, window=2)
        (left, plain), (left_again, transposed) = concat_pair(pair)
        assert left is pair.left and left_again is pair.left  # shared, not copied
        assert (plain, transposed) == (False, True)
        assert isinstance(left, CsrMatrix) and as_scipy(left).has_canonical_format
        joined = sp.hstack([as_scipy(left), as_scipy(left_again).T], format="csr").toarray()
        dense = as_scipy(pair.left).toarray()
        assert np.array_equal(joined, np.hstack([dense, dense.T]))

    def test_concat_pair_copies_nothing(self):
        rng = np.random.default_rng(4)
        pair = build_cooc(encoded_set([rng.integers(0, 300, 60) for _ in range(100)]), 300, 4)
        assert pair.left.values.nbytes > 64 * 1024
        assert traced_peak(concat_pair, pair) < 1024  # no copy of left, transposed or not
