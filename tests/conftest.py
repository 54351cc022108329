import os
import sys

import numpy as np
import pytest
import scipy.sparse as sp

from halattn.linalg import CsrMatrix

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def imdb_root():
    """Path to an aclImdb-layout dataset, or None when not configured."""
    path = os.environ.get("HALATTN_IMDB")
    if not path:
        return None
    return path


requires_imdb = pytest.mark.skipif(
    imdb_root() is None,
    reason="full-scale run needs HALATTN_IMDB pointing at an aclImdb directory",
)


def as_record(matrix):
    """A scipy sparse matrix as the package's CSR record, over the same arrays when it is CSR."""
    m = sp.csr_matrix(matrix)
    return CsrMatrix(m.indptr, m.indices, m.data, *m.shape)


def as_scipy(record):
    """The package's CSR record as a scipy CSR matrix over the same arrays."""
    return sp.csr_matrix((record.values, record.col_indices, record.row_offsets),
                         shape=(record.rows, record.cols))


def one_block(matrix) -> list:
    """A scipy sparse matrix as truncated_svd's column blocks: one block, flagged as itself."""
    return [(as_record(matrix), False)]
