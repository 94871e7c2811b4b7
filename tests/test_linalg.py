from hypothesis import given, settings
from hypothesis import strategies as st

from bettibounds.linalg import rank_mod_p, rank_sparse_mod_p

PRIMES = (3, 32003, 2**31 - 1)


@st.composite
def _matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    rows = draw(st.integers(0, 8))
    cols = draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.sampled_from([1, -1, p, p - 1]), st.integers(-2 * p, 2 * p))
    A = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    # force some all-zero rows and columns
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=3)):
        if i < rows:
            A[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=3)):
        if j < cols:
            for row in A:
                row[j] = 0
    return p, rows, cols, A


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_sparse_rank_equals_dense_rank(case):
    p, rows, cols, A = case
    dense = rank_mod_p(A, p)
    by_rows = [{j: A[i][j] for j in range(cols)} for i in range(rows)]
    by_cols = [{i: A[i][j] for i in range(rows) if A[i][j]} for j in range(cols)]
    assert rank_sparse_mod_p(by_rows, p) == dense
    assert rank_sparse_mod_p(by_cols, p) == dense
