"""Exact integer linear algebra on arbitrary-precision numpy object arrays.

Everything downstream (fans, cohomology, deformations, lifting) reduces to
the primitives here: Hermite and Smith normal forms with unimodular
transforms, saturated kernel bases, cokernel presentations, exact linear
solves, one-line nonnegative solving, and small Fourier-Motzkin utilities
for bounded lattice-point enumeration. No floating point anywhere.

Each exact job has one engine. Kernels come from one Hermite normal form
with its transform (``kernel_basis``); the same HNF proves a cokernel
free when its pivots are all 1 (``free_cokernel``), and only a cokernel
it cannot settle goes to the Smith form of ``cokernel_map``. A square
matrix expected to be unimodular (a smooth cone) needs no Smith form
either: ``unimodular_solve`` runs one fraction-free Gauss-Jordan
elimination on [b | r], which also decides whether det b = +-1, and is
the one way to invert. ``Solver``, one Smith factorisation reused by
every right-hand side, is only for matrices with no known unimodular
minor (``scroll path`` and Riemann-Roch use it today); ``solve_int`` and
``solve_nonneg_line`` are one-shot wrappers over ``Solver.solve`` and
``Solver.nonneg_lines``. ``least_on_lines`` picks the least nonnegative
point on lines of solutions, whichever engine found them. Ranks and
determinants read the one forward Bareiss elimination,
``kernels.bareiss``. ``FourierMotzkin`` is the one Fourier-Motzkin
elimination; it works on Python ints, since its inputs are integral and
every eliminated row is an integer combination of integral rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import bareiss, matrix_rank


def ivec(entries) -> np.ndarray:
    """1-D integer vector with arbitrary-precision entries."""
    values = [int(x) for x in entries]
    v = np.empty(len(values), dtype=object)
    v[:] = values
    return v


def imat(rows, cols: int | None = None) -> np.ndarray:
    """2-D integer matrix with arbitrary-precision entries.

    Args:
        rows: iterable of equal-length row iterables.
        cols: column count, required when ``rows`` is empty.
    """
    rows = [[int(x) for x in r] for r in rows]
    if not rows:
        if cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        return np.empty((0, cols), dtype=object)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows")
    return _objects(rows, len(rows), width)


def identity(n: int) -> np.ndarray:
    """n x n identity with Python int entries."""
    return np.eye(n, dtype=object)


def rational_rank(a) -> int:
    """Rank of an integer matrix over the rationals (exact)."""
    a = np.asarray(a, dtype=object)
    if a.ndim != 2:
        raise ValueError("rank needs a 2-D matrix")
    return matrix_rank(a)


def determinant(a) -> int:
    """Exact determinant of a square integer matrix.

    The signed last pivot of ``kernels.bareiss``, or 0 when the rank falls
    short.
    """
    a = np.asarray(a, dtype=object)
    n, ncols = a.shape
    if n != ncols:
        raise ValueError("determinant of a non-square matrix")
    rank, pivot = bareiss(a.tolist())
    return pivot if rank == n else 0


def hermite_normal_form(a) -> tuple[np.ndarray, np.ndarray]:
    """Row-style Hermite normal form.

    Works on rows as lists of Python ints; U is the product of the row
    operations made on H.

    Returns:
        (H, U) with U unimodular, U @ a = H, pivots positive, entries above
        each pivot reduced into [0, pivot), zero rows last.
    """
    a = np.asarray(a, dtype=object)
    m, n = a.shape
    h = [[int(x) for x in r] for r in a.tolist()]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    row = 0
    for col in range(n):
        if row >= m:
            break
        # Clear below (row, col) by gcd-style row operations.
        while True:
            nz = [r for r in range(row, m) if h[r][col] != 0]
            if not nz:
                break
            piv_row = min(nz, key=lambda r: abs(h[r][col]))
            h[row], h[piv_row] = h[piv_row], h[row]
            u[row], u[piv_row] = u[piv_row], u[row]
            hp, up = h[row], u[row]
            done = True
            for r in range(row + 1, m):
                if h[r][col] != 0:
                    q = h[r][col] // hp[col]
                    h[r] = [x - q * y for x, y in zip(h[r], hp)]
                    u[r] = [x - q * y for x, y in zip(u[r], up)]
                    if h[r][col] != 0:
                        done = False
            if done:
                break
        if h[row][col] == 0:
            continue
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            u[row] = [-x for x in u[row]]
        hp, up = h[row], u[row]
        for r in range(row):
            q = h[r][col] // hp[col]  # floor: reduces into [0, pivot)
            if q != 0:
                h[r] = [x - q * y for x, y in zip(h[r], hp)]
                u[r] = [x - q * y for x, y in zip(u[r], up)]
        row += 1
    return _objects(h, m, n), _objects(u, m, m)


def _objects(rows: list[list[int]], m: int, n: int) -> np.ndarray:
    """m x n object array of the given Python-int rows."""
    out = np.empty((m, n), dtype=object)
    if m and n:
        out[:] = rows
    return out


@dataclass(frozen=True)
class SNFResult:
    """Smith decomposition U @ A @ V = S with U, V unimodular."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def diagonal(self) -> list[int]:
        k = min(self.s.shape)
        return [int(self.s[i, i]) for i in range(k)]


def smith_normal_form(a) -> SNFResult:
    """Smith normal form with transforms; diagonal entries divide successors."""
    a = np.asarray(a, dtype=object)
    s = imat([list(r) for r in a], cols=a.shape[1])
    m, n = s.shape
    u = identity(m)
    v = identity(n)
    for t in range(min(m, n)):
        while True:
            # Move a minimal-magnitude nonzero of the trailing block to (t, t).
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    if s[i, j] != 0 and (best is None or abs(s[i, j]) < abs(s[best[0], best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != t:
                s[[t, bi]] = s[[bi, t]]
                u[[t, bi]] = u[[bi, t]]
            if bj != t:
                s[:, [t, bj]] = s[:, [bj, t]]
                v[:, [t, bj]] = v[:, [bj, t]]
            piv = s[t, t]
            dirty = False
            for r in range(t + 1, m):
                if s[r, t] != 0:
                    q = s[r, t] // piv
                    s[r] = s[r] - q * s[t]
                    u[r] = u[r] - q * u[t]
                    if s[r, t] != 0:
                        dirty = True
            for c in range(t + 1, n):
                if s[t, c] != 0:
                    q = s[t, c] // piv
                    s[:, c] = s[:, c] - q * s[:, t]
                    v[:, c] = v[:, c] - q * v[:, t]
                    if s[t, c] != 0:
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the trailing block by the pivot.
            witness = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if s[i, j] % piv != 0:
                        witness = i
                        break
                if witness is not None:
                    break
            if witness is None:
                break
            s[t] = s[t] + s[witness]
            u[t] = u[t] + u[witness]
        if s[t, t] < 0:
            s[t] = -s[t]
            u[t] = -u[t]
    return SNFResult(u=u, s=s, v=v)


def _hnf_kernel(a) -> tuple[list[np.ndarray], np.ndarray]:
    """(kernel_basis(a), H): one HNF U @ a^T = H serves both.

    The rows of U at the zero rows of H are a basis of the kernel over Z,
    because U is unimodular (H. Cohen, GTM 138, 1993, 2.4.3). That basis
    is canonicalized by a second, row-style HNF. H comes back with its
    zero rows dropped.
    """
    a = np.asarray(a, dtype=object)
    n = a.shape[1]
    h, u = hermite_normal_form(a.T)
    rank = sum(1 for row in h if any(row))  # zero rows come last
    if rank == n:
        return [], h[:rank]
    basis, _ = hermite_normal_form(u[rank:])
    return list(basis), h[:rank]


def kernel_basis(a) -> list[np.ndarray]:
    """Basis of the saturated integer kernel lattice {x : a @ x = 0}.

    Read from one Hermite normal form with its transform (_hnf_kernel),
    then canonicalized by row-style HNF, so results are deterministic and
    primitive as a lattice basis.
    """
    return _hnf_kernel(a)[0]


def cokernel_map(a) -> tuple[np.ndarray, list[int]]:
    """Presentation of coker(a) = Z^m / column-span(a).

    Returns:
        (grading, invariants): ``grading`` stacks a basis of the free part
        (HNF-canonical rows) over one row per finite invariant factor > 1;
        ``invariants`` lists those torsion orders in divisibility order.
        ``grading @ a`` has zero rows on the free block and rows divisible
        by the matching invariant on the torsion block.
    """
    a = np.asarray(a, dtype=object)
    m, n = a.shape
    snf = smith_normal_form(a)
    diag = [int(snf.s[i, i]) if i < min(m, n) else 0 for i in range(m)]
    free_rows = [i for i in range(m) if diag[i] == 0]
    torsion_rows = [i for i in range(m) if abs(diag[i]) > 1]
    free = imat([list(snf.u[i]) for i in free_rows], cols=m)
    if len(free_rows):
        free, _ = hermite_normal_form(free)
    torsion = imat([list(snf.u[i]) for i in torsion_rows], cols=m)
    grading = np.vstack([free, torsion]) if torsion.shape[0] else free
    invariants = [abs(diag[i]) for i in torsion_rows]
    return grading, invariants


def free_cokernel(a) -> np.ndarray:
    """The grading of coker(a) = Z^m / column-span(a), which must be free.

    U @ a = H (one HNF, shared with kernel_basis(a^T)) maps coker(a) onto
    Z^m / column-span(H). When every pivot of H is 1, the pivot columns
    of its nonzero rows are unitriangular, so their span is all of Z^rank
    and coker(a) is free of rank m - rank. Its grading is then the HNF
    basis of the left kernel of a, with no Smith form. Only when some
    pivot is larger does ``cokernel_map`` decide.

    Raises:
        ValueError: coker(a) has torsion.
    """
    a = np.asarray(a, dtype=object)
    basis, h = _hnf_kernel(a.T)
    if all(next(x for x in row if x) == 1 for row in h):
        return imat(basis, cols=a.shape[0])
    grading, invariants = cokernel_map(a)
    if invariants:
        raise ValueError(f"cokernel has torsion {invariants}")
    return grading


class Solver:
    """One Smith factorisation of ``a``, shared by every solve against it.

    U @ a @ V = S turns a @ x = b into S @ y = U @ b with x = V @ y, so
    each right-hand side costs two matrix-vector products and a division
    per invariant factor instead of a new Smith form.
    """

    def __init__(self, a):
        self.a = np.asarray(a, dtype=object)
        self.snf = smith_normal_form(self.a)
        m, n = self.a.shape
        self._diag = [int(self.snf.s[i, i]) if i < min(m, n) else 0 for i in range(m)]

    def solve(self, b) -> np.ndarray | None:
        """Some integer solution x of a @ x = b, or None if there is none."""
        c = self.snf.u @ np.asarray(b, dtype=object)
        y = ivec([0] * self.a.shape[1])
        for i, d in enumerate(self._diag):
            if d == 0:
                if c[i] != 0:
                    return None
            elif c[i] % d != 0:
                return None
            else:
                y[i] = c[i] // d
        return self.snf.v @ y

    def nonneg_lines(self, e, k) -> list[tuple[int, ...] | None]:
        """Nonnegative integer solutions of a @ x = e[:, j] on the lines x0_j + t*k.

        All columns share two matrix products: U @ e gives the Smith
        coordinates, V @ y the particular solutions x0. ``least_on_lines``
        then picks the point on each line.

        Args:
            e: m x N right-hand sides, one per column; k: generator of
                ker(a) (zero vector if trivial).

        Returns:
            Per column, the solution as a tuple of ints, or None when that
            column has no nonnegative integer solution.

        Raises:
            ValueError: "no rational solution" naming the first column
                that is not in im(a) over Q; k not in ker(a).
        """
        e = np.asarray(e, dtype=object)
        k = np.asarray(k, dtype=object)
        if not all(x == 0 for x in self.a @ k):
            raise ValueError("k is not in the kernel of a")
        n_cols = e.shape[1]
        c = self.snf.u @ e
        y = np.zeros((self.a.shape[1], n_cols), dtype=object)
        ok = np.ones(n_cols, dtype=bool)
        for i, d in enumerate(self._diag):
            if d == 0:
                bad = np.flatnonzero(c[i] != 0)
                if bad.size:
                    raise ValueError(f"no rational solution for column {bad[0]}")
            elif d == 1:
                y[i] = c[i]
            else:
                ok &= c[i] % d == 0
                y[i] = c[i] // d
        return least_on_lines(self.a, e, k, self.snf.v @ y, ok)


def least_on_lines(a, e, k, x0, ok) -> list[tuple[int, ...] | None]:
    """The least nonnegative point on each line x0[:, j] + t*k, t in Z.

    ``x0`` holds integer solutions of a @ x = e column by column, ``k``
    generates ker(a), and ``ok`` is False on the columns already known to
    have no integer solution. Each line keeps one t: the least feasible
    one, the largest of the lower bounds from the entries where k > 0;
    with no such entry, the least of the upper bounds from those where
    k < 0; with neither (k = 0), t = 0. The point does not depend on which
    solution x0 names on the line. The columns that succeed are checked
    in one product: x >= 0 and a @ x = e.
    """
    n_cols = e.shape[1]
    kc = k.reshape(-1, 1)
    pos, neg = k > 0, k < 0
    ok = ok & (x0[k == 0] >= 0).all(axis=0)
    lo = (-(x0[pos] // kc[pos])).max(axis=0) if pos.any() else None
    hi = (x0[neg] // -kc[neg]).min(axis=0) if neg.any() else None
    if lo is None:
        t = np.zeros(n_cols, dtype=object) if hi is None else hi
    else:
        t = lo
        if hi is not None:
            ok &= lo <= hi
    x = x0 + kc * t
    assert (x[:, ok] >= 0).all() and (a @ x[:, ok] == e[:, ok]).all()
    return [tuple(col) if good else None for col, good in zip(x.T.tolist(), ok)]


def unimodular_solve(b, r) -> np.ndarray | None:
    """X with b @ X = r for a square b of determinant +-1; else None.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) on [b | r]. Step k scales every other row by the pivot, clears
    column k and divides by the previous pivot; the division is exact
    because each entry is then a (k+1)-minor of the row-swapped [b | r].
    The last step leaves [d*I | d*X] with d = +-det b, so when |d| = 1
    X is read off directly. A cleared column is dropped from every row
    at once, since only the diagonal of the left block (all d) remains.
    Returns None when b is not square or det b is not +-1 (singular or
    of larger absolute value).
    """
    b = np.asarray(b, dtype=object)
    r = np.asarray(r, dtype=object)
    n, n_cols = b.shape
    if n != n_cols:
        return None
    rows = [bi + ri for bi, ri in zip(b.tolist(), r.tolist())]
    prev = 1
    for col in range(n):
        # rows hold columns col.. of [b | r]; the pivot column is the first
        p = next((i for i in range(col, n) if rows[i][0]), None)
        if p is None:
            return None
        rows[col], rows[p] = rows[p], rows[col]
        piv, *tail = rows[col]
        for i in range(n):
            if i == col:
                rows[i] = tail
                continue
            f, *rest = rows[i]
            if f == 0 and piv == prev:
                rows[i] = rest
            else:
                rows[i] = [(piv * x - f * y) // prev for x, y in zip(rest, tail)]
        prev = piv
    if abs(prev) != 1:
        return None
    if prev == -1:
        rows = [[-x for x in row] for row in rows]
    return np.array(rows, dtype=object).reshape(n, r.shape[1])


def solve_int(a, b) -> np.ndarray | None:
    """Some integer solution x of a @ x = b, or None if there is none."""
    return Solver(a).solve(b)


def solve_nonneg_line(a, e, k) -> np.ndarray | None:
    """One-shot Solver(a).nonneg_lines on the single column e, as a vector."""
    x = Solver(a).nonneg_lines(np.asarray(e, dtype=object).reshape(-1, 1), k)[0]
    return None if x is None else ivec(x)


def lattice_equal(rows_a, rows_b) -> bool:
    """Whether two row lists generate the same integer lattice."""
    rows_a = np.asarray(rows_a, dtype=object)
    rows_b = np.asarray(rows_b, dtype=object)
    if rows_a.shape[1] != rows_b.shape[1]:
        return False
    ha, _ = hermite_normal_form(rows_a)
    hb, _ = hermite_normal_form(rows_b)
    ha = [list(r) for r in ha if any(x != 0 for x in r)]
    hb = [list(r) for r in hb if any(x != 0 for x in r)]
    return ha == hb


class FourierMotzkin:
    """Exact Fourier-Motzkin elimination, grown one row at a time.

    The package's one FM engine. Rows read coeffs @ x >= rhs over Python
    ints. A pushed row is combined at once with every row of opposite
    sign already on its level, as s*row_p + t*row_n with s, t > 0
    integers, so level v always holds the elimination of x_v..x_{n-1}
    from the rows pushed so far, every row stays integral, and each step
    pays only for its own row. Rows are divided by the gcd of their
    entries and kept once per level; neither changes the rational
    polyhedron. ``mark`` and ``undo`` take the system back to an earlier
    state, which the chamber search uses step by step; the one-shot
    ``rational_polyhedron_nonempty`` and ``polyhedron_lattice_points``
    push a whole system and read ``feasible`` or ``lattice_points``.
    """

    def __init__(self, n: int):
        self.n = n
        # per level v: rows over x_0..x_{v-1} with a positive, negative
        # coefficient at x_{v-1}; rows with zero there pass straight down
        self._signed: list[tuple[list, list]] = [([], []) for _ in range(n + 1)]
        self._seen: list[set] = [set() for _ in range(n + 1)]
        self._log: list[tuple[int, int, tuple]] = []
        self._violated = 0  # rows 0 >= rhs with rhs > 0

    def push(self, coeffs: tuple[int, ...], rhs: int) -> None:
        """Add the row coeffs @ x >= rhs (Python ints) and all it eliminates to."""
        signed, seen, log = self._signed, self._seen, self._log
        todo = [(self.n, coeffs, rhs)]
        while todo:
            v, c, r = todo.pop()
            g = math.gcd(*c, r)
            if g > 1:
                c = tuple(x // g for x in c)
                r //= g
            row = (c, r)
            if row in seen[v]:
                continue
            seen[v].add(row)
            cv = c[v - 1] if v else 0
            if v == 0:
                self._violated += r > 0
            elif cv == 0:
                todo.append((v - 1, c, r))
            else:
                t = abs(cv)
                pos, neg = signed[v]
                for c2, r2 in neg if cv > 0 else pos:
                    s = abs(c2[v - 1])
                    todo.append((v - 1, tuple(s * a + t * b for a, b in zip(c, c2)), s * r + t * r2))
                (pos if cv > 0 else neg).append(row)
            log.append((v, cv, row))

    def mark(self) -> int:
        return len(self._log)

    def undo(self, mark: int) -> None:
        """Drop every row added since ``mark()`` returned ``mark``."""
        while len(self._log) > mark:
            v, cv, row = self._log.pop()
            self._seen[v].discard(row)
            if cv:
                self._signed[v][cv < 0].pop()
            elif v == 0:
                self._violated -= row[1] > 0

    def feasible(self) -> bool:
        """Whether the rows pushed so far have a rational solution."""
        return self._violated == 0

    def lattice_points(self) -> list[tuple[int, ...]]:
        """The integer points of the rows pushed so far, in lexicographic order.

        x_v runs between the bounds that the positive and negative rows of
        level v + 1 give at the prefix x_0..x_{v-1}; a prefix chosen this
        way satisfies every row of the lower levels, so the rows with a
        zero coefficient at x_v hold already.

        Raises:
            ValueError: when a level reached has no row on one side
                ("polyhedron is unbounded").
        """
        if not self.feasible():
            return []
        n, signed = self.n, self._signed
        points: list[tuple[int, ...]] = []

        def rec(prefix: list[int]) -> None:
            v = len(prefix)
            if v == n:
                points.append(tuple(prefix))
                return
            pos, neg = signed[v + 1]
            if not pos or not neg:
                raise ValueError("polyhedron is unbounded")

            def rest(c, r):  # rhs minus the prefix's part of the row
                return r - sum(x * y for x, y in zip(c, prefix))

            # x_v >= rest / c on pos rows (ceiling), <= rest / c on neg ones
            lo = max(-(-rest(c, r) // c[v]) for c, r in pos)
            hi = min(rest(c, r) // c[v] for c, r in neg)
            for t in range(lo, hi + 1):
                rec(prefix + [t])

        rec([])
        return points


def _fm_system(a, b) -> FourierMotzkin:
    """One engine holding the rows a @ x >= b."""
    a = [tuple(map(int, r)) for r in np.asarray(a, dtype=object)]
    fm = FourierMotzkin(len(a[0]) if a else 0)
    for row, rhs in zip(a, b):
        fm.push(row, int(rhs))
    return fm


def rational_polyhedron_nonempty(a, b) -> bool:
    """Whether {x in Q^n : a @ x >= b} is nonempty (exact FM elimination)."""
    return _fm_system(a, b).feasible()


def polyhedron_lattice_points(a, b) -> list[tuple[int, ...]]:
    """All integer points of the bounded polyhedron {x : a @ x >= b}.

    Raises:
        ValueError: when the feasible region is unbounded.
    """
    if not len(a):
        raise ValueError("polyhedron is unbounded")
    return _fm_system(a, b).lattice_points()
