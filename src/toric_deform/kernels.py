"""Matrix rank kernels: exact over the rationals, and modulo one prime.

``matrix_rank`` is the exact rank over Q, by fraction-free (Bareiss)
elimination on Python ints. ``rank_mod_p`` is the rank over the field
F_p for the prime ``PRIME``, by int64 numpy row reduction. For an integer
matrix A, rank_p(A) <= rank_Q(A) always: a nonzero minor mod p is a
nonzero minor over Z. So rank mod p is a lower bound on the exact rank,
which ``cohomology.span_check`` turns into a proof when it is sharp.
"""

from __future__ import annotations

import numpy as np

# perfbench/run.py reports this flag on its environment line; numba is no
# longer used by the package, so it is always False.
_HAVE_NUMBA = False

# A prime below 2^31: reduced entries are below 2^31, so each product of
# two is below 2^62, and subtracting one from a reduced entry cannot wrap
# int64.
PRIME = 2147483629


def _rank_exact(rows: list[list[int]]) -> int:
    """Fraction-free elimination on Python ints; exact for any input."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    prev = 1
    row = 0
    for col in range(n):
        if row >= m:
            break
        piv_row = next((r for r in range(row, m) if a[r][col] != 0), -1)
        if piv_row < 0:
            continue
        if piv_row != row:
            a[row], a[piv_row] = a[piv_row], a[row]
        piv = a[row][col]
        # factor == 0 rows are rescaled too; skipping them breaks the
        # exact-division invariant at later pivots
        for r in range(row + 1, m):
            factor = a[r][col]
            ar, apv = a[r], a[row]
            for j in range(col + 1, n):
                num = piv * ar[j] - factor * apv[j]
                assert num % prev == 0  # Bareiss exact-division invariant
                ar[j] = num // prev
            ar[col] = 0
        prev = piv
        row += 1
    return row


def _as_row_lists(mat) -> list[list[int]]:
    if isinstance(mat, np.ndarray):
        return [list(r) for r in mat.tolist()] if mat.ndim == 2 else []
    return [list(r) for r in mat]


def matrix_rank(mat) -> int:
    """Rank over the rationals of an integer matrix (rows or 2-D array)."""
    rows = _as_row_lists(mat)
    if not rows or not rows[0]:
        return 0
    return _rank_exact(rows)


def rank_mod_p(mat) -> int:
    """Rank over F_p, p = ``PRIME``, of an integer matrix (rows or 2-D array).

    Entries are reduced mod p as Python ints, so any integer input is
    exact. The result is a lower bound on the rank r over Q, and equals r
    unless p divides every r x r minor.
    """
    rows = _as_row_lists(mat)
    if not rows or not rows[0]:
        return 0
    a = np.array([[int(x) % PRIME for x in r] for r in rows], dtype=np.int64)
    if a.shape[0] < a.shape[1]:
        a = np.ascontiguousarray(a.T)  # one pivot step per column: keep the short side
    m, n = a.shape
    row = 0
    for col in range(n):
        if row == m:
            break
        nonzero = np.flatnonzero(a[row:, col])
        if nonzero.size == 0:
            continue
        piv = row + int(nonzero[0])
        if piv != row:
            a[[row, piv]] = a[[piv, row]]
        below = row + 1 + np.flatnonzero(a[row + 1 :, col])
        if below.size:
            inv = pow(int(a[row, col]), -1, PRIME)
            pivot_row = a[row, col:] * inv % PRIME
            a[below, col:] = (a[below, col:] - a[below, col, None] * pivot_row) % PRIME
        row += 1
    return row
