import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from bettibounds.linalg import rank_mod_p

PRIMES = (3, 32003, 2**31 - 1)


def _dense_rank(A, p):
    """Reference rank: textbook Gaussian elimination on a list of rows."""
    M = [[x % p for x in row] for row in A]
    rank = 0
    for c in range(len(M[0]) if M else 0):
        piv = next((r for r in range(rank, len(M)) if M[r][c]), None)
        if piv is None:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = pow(M[rank][c], -1, p)
        for r in range(rank + 1, len(M)):
            f = M[r][c] * inv % p
            M[r] = [(x - f * y) % p for x, y in zip(M[r], M[rank])]
        rank += 1
    return rank


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
    dense = _dense_rank(A, p)
    by_rows = [{j: A[i][j] for j in range(cols)} for i in range(rows)]
    by_cols = [{i: A[i][j] for i in range(rows) if A[i][j]} for j in range(cols)]
    assert rank_mod_p(by_rows, p) == dense
    assert rank_mod_p(by_cols, p) == dense


def test_package_imports_without_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, bettibounds, bettibounds.cli; sys.exit('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "numpy was imported"
