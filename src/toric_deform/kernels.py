"""Exact rational-rank kernel with a jitted fast path.

Rank over the rationals of an integer matrix is the single hot operation of
the package (it runs once or twice per degree in every cohomology sweep).
Two interchangeable implementations are provided:

* a numba ``@njit`` kernel on ``int64`` using fraction-free (Bareiss)
  elimination, with explicit overflow guards on every product; any guard
  trip makes the kernel return a sentinel and the caller falls back,
* a pure arbitrary-precision path on Python ints (always exact).

The environment variable ``TORIC_DEFORM_BACKEND`` selects the path:
``auto`` (default: jitted first, exact fallback), ``numba`` (same as auto),
or ``python`` (exact path only). Results are identical by construction.
"""

from __future__ import annotations

import os

import numpy as np

ENV_BACKEND = "TORIC_DEFORM_BACKEND"

# Inputs are pre-screened so every Bareiss product stays below 2^61 when the
# guards pass; together two products stay below 2^62 and their difference
# cannot wrap int64.
_GUARD = np.int64(1) << np.int64(61)
# Inputs above this bound go straight to the exact path.
_SAFE_INPUT = int(np.int64(1) << np.int64(40))

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap


@njit("int64(int64[:, ::1])", cache=True)
def _rank_bareiss_i64(a):  # pragma: no cover - exercised via matrix_rank
    m, n = a.shape
    prev = np.int64(1)
    row = 0
    for col in range(n):
        if row >= m:
            break
        piv_row = -1
        for r in range(row, m):
            if a[r, col] != 0:
                piv_row = r
                break
        if piv_row < 0:
            continue
        if piv_row != row:
            for j in range(n):
                tmp = a[row, j]
                a[row, j] = a[piv_row, j]
                a[piv_row, j] = tmp
        piv = a[row, col]
        apiv = -piv if piv < 0 else piv
        # every row below is updated, including factor == 0 rows: the
        # rescaling by piv/prev is what keeps later divisions exact
        for r in range(row + 1, m):
            factor = a[r, col]
            afac = -factor if factor < 0 else factor
            for j in range(col + 1, n):
                x = a[r, j]
                y = a[row, j]
                ax = -x if x < 0 else x
                ay = -y if y < 0 else y
                if ax != 0 and apiv > _GUARD // ax:
                    return np.int64(-1)
                if ay != 0 and afac > _GUARD // ay:
                    return np.int64(-1)
                a[r, j] = (piv * x - factor * y) // prev
            a[r, col] = 0
        prev = piv
        row += 1
    return np.int64(row)


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
    """Rank over the rationals of an integer matrix (rows or 2-D array).

    Dispatches per ``TORIC_DEFORM_BACKEND``; every answer is exact because
    the fast path either completes without overflow or defers.
    """
    rows = _as_row_lists(mat)
    if not rows or not rows[0]:
        return 0
    backend = os.environ.get(ENV_BACKEND, "auto").lower()
    if backend not in ("python",) and _HAVE_NUMBA:
        try:
            a = np.array(rows, dtype=np.int64)
        except (OverflowError, ValueError):
            a = None
        if a is not None and (a.size == 0 or int(np.abs(a).max()) <= _SAFE_INPUT):
            r = int(_rank_bareiss_i64(np.ascontiguousarray(a)))
            if r >= 0:
                return r
    return _rank_exact(rows)
