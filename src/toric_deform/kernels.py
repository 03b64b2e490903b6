"""Matrix rank kernels: exact over the rationals, and modulo one prime.

``bareiss`` is the package's one forward fraction-free elimination on
Python ints: it returns the rank and the signed last pivot, from which
``matrix_rank`` (the exact rank over Q) and ``intlin.determinant`` read
their answers. ``rank_mod_p`` is the rank over the field F_p for the
prime ``PRIME``, by sparse elimination on dicts of Python ints. Both
take a matrix as a sequence of equal-length integer rows. For an integer
matrix A, rank_p(A) <= rank_Q(A) always: a nonzero minor mod p is a
nonzero minor over Z. So rank mod p is a lower bound on the exact rank,
which ``cohomology.span_check`` turns into a proof when it is sharp.
"""

from __future__ import annotations

# perfbench/run.py reports this flag on its environment line; numba is no
# longer used by the package, so it is always False.
_HAVE_NUMBA = False

# A prime below 2^31.
PRIME = 2147483629


def bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Forward fraction-free elimination (Bareiss) on Python ints.

    Returns (rank, signed last pivot). Each pivot is, up to the sign of
    the row swaps made so far, a minor of the input, so for a square
    matrix of full rank the signed last pivot is its determinant. Exact
    for any input; an empty matrix gives (0, 1).
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    prev = 1
    sign = 1
    row = 0
    for col in range(n):
        if row >= m:
            break
        piv_row = next((r for r in range(row, m) if a[r][col] != 0), -1)
        if piv_row < 0:
            continue
        if piv_row != row:
            a[row], a[piv_row] = a[piv_row], a[row]
            sign = -sign
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
    return row, sign * prev


def matrix_rank(rows) -> int:
    """Rank over the rationals of an integer matrix given as rows."""
    return bareiss(rows)[0]


def rank_mod_p(rows) -> int:
    """Rank over F_p, p = ``PRIME``, of an integer matrix given as rows.

    Each row is reduced mod p to a sparse dict {column: entry} of Python
    ints, so any integer input is exact. Rows are eliminated one at a
    time against the pivot rows kept so far, each normalised to 1 at its
    leading column: a row loses its leading entry to the pivot row of that
    column, which leaves only columns to its right, until it is zero or
    leads at a new column. Only nonzero entries are ever touched, and the
    scan stops once every column has a pivot. The result is a lower bound
    on the rank r over Q, and equals r unless p divides every r x r minor.
    """
    pivots: dict[int, dict[int, int]] = {}
    width = len(rows[0]) if len(rows) else 0
    for row in rows:
        if len(pivots) == width:
            break
        vec = {c: x % PRIME for c, x in enumerate(row) if x % PRIME}
        while vec:
            col = min(vec)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(vec[col], -1, PRIME)
                pivots[col] = {c: x * inv % PRIME for c, x in vec.items()}
                break
            f = vec[col]
            for c, x in pivot.items():
                y = (vec.get(c, 0) - f * x) % PRIME
                if y:
                    vec[c] = y
                else:
                    vec.pop(c, None)
    return len(pivots)
