"""Matrix rank kernels: exact over the rationals, and modulo one prime.

``eliminate`` is the package's one fraction-free elimination (rank,
determinant, unimodular solve, cone inverses) on Python ints: it returns
the rank, the signed last pivot and the reduced rows, from which
``matrix_rank`` (the exact rank over Q), ``intlin.determinant``,
``intlin.unimodular_solve`` and ``fan.Fan.cone_inverses`` read their
answers; it takes a matrix as a sequence of equal-length integer rows.
``rank_mod_p`` is the rank over the field F_p for the prime ``PRIME``,
by elimination on sparse rows {column: entry} of a known width, the form
``cohomology`` builds its stalk constraints in. For an integer matrix A,
rank_p(A) <= rank_Q(A) always: a nonzero minor mod p is a nonzero minor
over Z. So rank mod p is a lower bound on the exact rank, which
``cohomology.span_check`` turns into a proof when it is sharp.
"""

from __future__ import annotations

from itertools import repeat
from operator import floordiv, mod

# perfbench/run.py reports this flag on its environment line; numba is no
# longer used by the package, so it is always False.
_HAVE_NUMBA = False

# A prime below 2^31.
PRIME = 2147483629


def eliminate(rows) -> tuple[int, int, list[list[int]]]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) on Python ints.

    Returns (rank, signed last pivot, reduced rows). Step k takes the
    first column nonzero at or below row k, and as pivot the first entry
    +-1 there, or else the first nonzero one, swapped into row k; a pivot
    row holding -1 is negated. Every other row is scaled by the pivot,
    loses its multiple of the pivot row and is divided by the previous
    pivot, exactly (checked), because each entry is then a (k+1)-minor of
    the input after its swaps and negations; negating a pivot row is
    negating that input row up front, as the minors so far do not hold
    it. While every pivot is +1 a step is x - f*y, and rows with f = 0
    are left alone. So the signed last pivot of a square matrix of full
    rank is its determinant; an empty matrix gives (0, 1, []). In the
    reduced rows the pivot rows come first, each zero left of its pivot,
    every pivot column is zero off its pivot, every pivot equals the last
    one, and the rows past the rank are zero.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    prev = 1
    sign = 1
    row = 0
    for col in range(n):
        if row >= m:
            break
        p = None
        for i in range(row, m):
            v = a[i][col]
            if v == 1 or v == -1:
                p = i
                break
            if v and p is None:
                p = i
        if p is None:
            continue
        prow = a[p]
        if p != row:
            a[p] = a[row]
            sign = -sign
        if prow[col] == -1:
            prow = [-x for x in prow]
            sign = -sign
        a[row] = prow
        piv = prow[col]
        if piv == prev == 1:
            for i, r in enumerate(a):
                f = r[col]
                if f and i != row:
                    a[i] = [x - f * y for x, y in zip(r, prow)]
        else:
            for i, r in enumerate(a):
                if i != row:
                    f = r[col]
                    num = [piv * x - f * y for x, y in zip(r, prow)]
                    assert not any(map(mod, num, repeat(prev)))  # Bareiss exact division
                    a[i] = list(map(floordiv, num, repeat(prev)))
        prev = piv
        row += 1
    return row, sign * prev, a


def matrix_rank(rows) -> int:
    """Rank over the rationals of an integer matrix given as rows."""
    return eliminate(rows)[0]


def rank_mod_p(rows, width: int) -> int:
    """Rank over F_p, p = ``PRIME``, of an integer matrix of the given
    width, given as sparse rows {column: entry}.

    Each row is reduced mod p, so any integer input is exact. Rows are
    eliminated one at a time against the pivot rows kept so far, each
    normalised to 1 at its leading column: a row loses its leading entry
    to the pivot row of that column, which leaves only columns to its
    right, until it is zero or leads at a new column. Only nonzero
    entries are ever touched, and the scan stops once every column has a
    pivot. The result is a lower bound on the rank r over Q, and equals r
    unless p divides every r x r minor.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(pivots) == width:
            break
        vec = {c: x % PRIME for c, x in row.items() if x % PRIME}
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
