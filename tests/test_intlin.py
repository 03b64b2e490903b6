"""Exact integer linear algebra: normal forms, kernels, solves, enumeration.

Oracles: brute-force enumeration for small solve/point problems, fractions
based Gaussian elimination for rank, vertex enumeration for rational
feasibility, sympy for determinants, ranks and the Smith and Hermite
forms, and defining identities (U @ A = H, U @ A @ V = S) checked
directly on random inputs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from toric_deform import intlin
from toric_deform.intlin import (
    SNFResult,
    cokernel_map,
    determinant,
    free_cokernel,
    hermite_normal_form,
    identity,
    kernel_basis,
    polyhedron_lattice_points,
    rational_polyhedron_nonempty,
    smith_normal_form,
    solve_int,
    solve_nonneg_line,
    unimodular_solve,
)
from toric_deform.kernels import matrix_rank

from helpers import rank_oracle


def imat(rows, cols=None) -> np.ndarray:
    """The rows as a numpy object matrix, for the products of the oracles.

    intlin takes any sequence of integer rows, these included, and returns
    lists; cols is the column count of a matrix with no rows.
    """
    rows = [[int(x) for x in r] for r in rows]
    out = np.empty((len(rows), len(rows[0]) if rows else cols), dtype=object)
    if out.size:
        out[:] = rows
    return out


def ivec(entries) -> np.ndarray:
    """The entries as a numpy object vector."""
    out = np.empty(len(entries), dtype=object)
    out[:] = [int(x) for x in entries]
    return out


matrices = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


unit_heavy_entries = st.sampled_from((-1, -1, -1, 0, 0, 0, 1, 1, 1, 2, -3, 5))

# Determinant +-1 and no entry +-1: an elimination that reaches one of these
# blocks after unit pivots takes a non-unit pivot and then a unit one.
NON_UNIT_SL2 = (((2, 3), (3, 5)), ((3, -2), (4, -3)), ((3, 5), (4, 7)))


@st.composite
def unit_heavy_matrices(draw, square=False):
    """Matrices up to 7 x 7 with entries mostly -1, 0, 1, a few larger.

    Their eliminations take unit pivots, negate -1 pivot rows and swap
    rows. Half of them are block diagonal diag(A, H, B), H from
    NON_UNIT_SL2, so unit, non-unit and unit pivots follow each other.
    A block's last row is a combination of two of its rows half the time,
    so many are rank-deficient.
    """
    def block(low, high):
        m = draw(st.integers(low, high))
        n = m if square else draw(st.integers(low, high))
        rows = draw(st.lists(st.lists(unit_heavy_entries, min_size=n, max_size=n), min_size=m, max_size=m))
        if m > 1 and draw(st.booleans()):
            s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            rows[-1] = [s * x + t * y for x, y in zip(rows[0], rows[(m - 1) // 2])]
        return rows, n

    if not draw(st.booleans()):
        return block(1, 6)[0]
    h = [list(row) for row in draw(st.sampled_from(NON_UNIT_SL2))]
    blocks = [block(0, 2), (h, 2), block(0, 3)]
    width = sum(n for _, n in blocks)
    out, left = [], 0
    for rows, n in blocks:
        out += [[0] * left + row + [0] * (width - left - n) for row in rows]
        left += n
    return out


def is_unimodular(u) -> bool:
    return abs(determinant(u)) == 1


class TestProducts:
    """mat_vec and mat_mul give Python ints, which the report writer needs."""

    def test_python_ints_on_tuple_rows(self):
        a = ((1, -2, 3), (0, 4, -5))
        b = ((2, 0), (1, -1), (-3, 7))
        av = intlin.mat_vec(a, (10**20, 1, -1))
        ab = intlin.mat_mul(a, b)
        assert av == [10**20 - 5, 9] and ab == [[-9, 23], [19, -39]]
        assert all(type(v) is int for v in av)
        assert all(type(v) is int for row in ab for v in row)


class TestRankAndDet:
    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_rank_matches_fraction_elimination(self, rows):
        assert matrix_rank(imat(rows)) == rank_oracle(rows)

    def test_rank_big_entries(self):
        a = imat([[10**30, 1], [10**30, 1], [0, 7]])
        assert matrix_rank(a) == 2

    def test_rank_with_rows_untouched_by_early_pivots(self):
        # regression: rows with zero entries in every pivot column so far
        # must still be rescaled, or later divisions go inexact/wrong
        m = [
            [-1, -1, 0, 0, 1, 0, 0, 0],
            [3, 0, -1, 0, 0, 1, 0, 0],
            [-1, 0, 0, 0, 0, 0, 1, 0],
            [3, 0, 0, -1, 0, 0, 0, 1],
            [0, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 1, -1, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 0, -1, 0],
            [0, 0, 0, 0, 0, 1, 0, -1],
        ]
        assert rank_oracle(m) == 6
        assert matrix_rank(imat(m)) == 6

    @given(
        st.lists(
            st.lists(
                st.integers(-9, 9).flatmap(
                    lambda v: st.sampled_from([0, 0, v])  # bias towards zeros
                ),
                min_size=6,
                max_size=6,
            ),
            min_size=6,
            max_size=6,
        )
        | unit_heavy_matrices()
    )
    @settings(max_examples=150, deadline=None)
    def test_sparse_rank_matches_oracle(self, rows):
        assert matrix_rank(imat(rows)) == rank_oracle(rows)

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_det_matches_cofactor_expansion(self, rows):
        def cof(m):
            if len(m) == 1:
                return m[0][0]
            return sum(
                (-1) ** j * m[0][j] * cof([r[:j] + r[j + 1 :] for r in m[1:]])
                for j in range(len(m))
            )

        assert determinant(imat(rows)) == cof(rows)


class TestHermite:
    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_defining_identity(self, rows):
        a = imat(rows)
        h, u = hermite_normal_form(a)
        assert is_unimodular(u)
        assert (imat(u) @ a).tolist() == h

    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_shape_invariants(self, rows):
        h = imat(hermite_normal_form(imat(rows))[0])
        pivots = []
        seen_zero_row = False
        for r in range(h.shape[0]):
            nz = [j for j in range(h.shape[1]) if h[r, j] != 0]
            if not nz:
                seen_zero_row = True
                continue
            assert not seen_zero_row  # zero rows come last
            j = nz[0]
            assert h[r, j] > 0
            if pivots:
                assert j > pivots[-1]
            for rr in range(r):
                assert 0 <= h[rr, j] < h[r, j]
            pivots.append(j)

    def test_canonical_example(self):
        h, u = hermite_normal_form(imat([[2, 4], [3, 5]]))
        assert h == [[1, 1], [0, 2]]
        assert (imat(u) @ imat([[2, 4], [3, 5]])).tolist() == h


class TestSmith:
    @given(matrices)
    @settings(max_examples=120, deadline=None)
    def test_defining_identity_and_chain(self, rows):
        a = imat(rows)
        res = smith_normal_form(a)
        assert isinstance(res, SNFResult)
        assert is_unimodular(res.u) and is_unimodular(res.v)
        assert (imat(res.u) @ a @ imat(res.v)).tolist() == res.s
        for i in range(len(res.s)):
            for j in range(len(res.s[i])):
                if i != j:
                    assert res.s[i][j] == 0
        d = res.diagonal
        assert all(x >= 0 for x in d)
        for i in range(len(d) - 1):
            if d[i + 1] != 0:
                assert d[i] != 0 and d[i + 1] % d[i] == 0
            # a zero may only be followed by zeros
            if d[i] == 0:
                assert d[i + 1] == 0

    def test_torsion_example(self):
        # Z^2 / <(2,0),(0,4)> has invariants 2, 4.
        res = smith_normal_form(imat([[2, 0], [0, 4]]))
        assert res.diagonal == [2, 4]
        res = smith_normal_form(imat([[2, 1], [0, 2]]))
        assert res.diagonal == [1, 4]


@st.composite
def square_matrices(draw):
    """n x n matrices, n <= 5; about half made singular by a repeated combination."""
    n = draw(st.integers(1, 5))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows[-1] = [s * x + t * y for x, y in zip(rows[0], rows[(n - 1) // 2])]
    return rows


class TestAgainstSympy:
    """intlin's Bareiss, Smith and Hermite forms against sympy 1.14 (a test oracle only)."""

    @given(square_matrices() | unit_heavy_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_determinant(self, rows):
        assert determinant(imat(rows)) == sympy.Matrix(rows).det()

    @given(matrices | unit_heavy_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rational_rank(self, rows):
        assert matrix_rank(imat(rows)) == sympy.Matrix(rows).rank()

    @given(matrices)
    @settings(max_examples=120, deadline=None)
    def test_smith_diagonal(self, rows):
        theirs = sympy_snf(sympy.Matrix(rows))
        want = [abs(theirs[i, i]) for i in range(min(theirs.shape))]
        assert smith_normal_form(imat(rows)).diagonal == want

    @given(matrices)
    @settings(max_examples=120, deadline=None)
    def test_hermite_row_lattice(self, rows):
        # the conventions differ entrywise, so compare lattices: the nonzero
        # rows of H and the columns of sympy's HNF of a.T span one lattice
        # exactly when sympy puts both generator sets in the same HNF
        h, _ = hermite_normal_form(imat(rows))
        ours = [[int(x) for x in r] for r in h if any(x != 0 for x in r)]
        theirs = sympy_hnf(sympy.Matrix(rows).T)
        if not ours:
            assert theirs.shape[1] == 0
        else:
            assert sympy_hnf(sympy.Matrix(ours).T) == theirs


class TestKernel:
    @given(matrices)
    @settings(max_examples=120, deadline=None)
    def test_kernel_vectors_lie_in_kernel(self, rows):
        a = imat(rows)
        basis = kernel_basis(a)
        assert len(basis) == a.shape[1] - matrix_rank(a)
        for v in basis:
            assert all(x == 0 for x in a @ ivec(v))
        if basis:
            assert matrix_rank(imat([list(v) for v in basis])) == len(basis)

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_kernel_is_saturated(self, rows):
        # Any integer kernel vector must be an integer combination of the
        # basis, i.e. solvable against the transposed basis matrix.
        a = imat(rows)
        basis = kernel_basis(a)
        if not basis:
            return
        bt = imat([list(v) for v in basis]).T
        for v in basis:
            for scale in (1, 3):
                assert solve_int(bt, [scale * x for x in v]) is not None

    def test_saturation_example(self):
        # ker(2, -4) over Z is generated by (2, 1), not (4, 2).
        (v,) = kernel_basis(imat([[2, -4]]))
        assert list(v) == [2, 1]

    def test_line_kernel_orientation(self):
        # HNF canonicalization pins the sign: positive leading entry.
        for alpha in range(0, 5):
            (v,) = kernel_basis(imat([[-alpha, -1]]))
            assert list(v) == [1, -alpha]


def snf_kernel_oracle(a) -> list[list[int]]:
    """The Smith route to the kernel: columns of V at the zero diagonal, then HNF.

    The shape is read from the transforms: a matrix with no rows reads as
    0 x 0 in intlin.
    """
    snf = smith_normal_form(a)
    m, n = len(snf.u), len(snf.v)
    cols = [j for j in range(n) if j >= min(m, n) or snf.s[j][j] == 0]
    if not cols:
        return []
    h, _ = hermite_normal_form([[row[j] for row in snf.v] for j in cols])
    return h


@st.composite
def kernel_inputs(draw):
    """Zero, wide, tall and rank-deficient integer matrices, with empty shapes."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["random", "zero", "deficient"]))
    if kind == "zero" or m == 0 or n == 0:
        return np.zeros((m, n), dtype=object) if m and n else np.empty((m, n), dtype=object)
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=m, max_size=m))
    if kind == "deficient" and m > 1:
        c = draw(st.integers(-3, 3))
        rows[-1] = [c * x + y for x, y in zip(rows[0], rows[1 % (m - 1)])]
    return imat(rows)


class TestHnfKernel:
    """kernel_basis from one HNF transform, against the Smith route."""

    @given(kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_smith_route(self, a):
        got = [list(v) for v in kernel_basis(a)]
        assert got == snf_kernel_oracle(a)
        assert all(type(x) is int for v in got for x in v)

    @given(kernel_inputs())
    @settings(max_examples=200, deadline=None)
    def test_free_cokernel_is_the_free_block(self, a):
        # cokernel_map's free block, or its torsion as a ValueError; the
        # Smith form runs only when an HNF pivot is above 1
        grading, invariants = cokernel_map(a)
        h, _ = hermite_normal_form(a)
        certified = all(next(x for x in row if x) == 1 for row in h if any(row))
        with mock.patch.object(intlin, "cokernel_map", wraps=cokernel_map) as spy:
            if invariants:
                with pytest.raises(ValueError, match="cokernel has torsion"):
                    free_cokernel(a)
            else:
                assert free_cokernel(a) == grading
        assert spy.call_count == (not certified)

    def test_torsion_and_uncertified_inputs(self):
        for a in ([[2, 0], [0, 3]], [[2], [4]]):
            with pytest.raises(ValueError, match="cokernel has torsion"):
                free_cokernel(imat(a))
        assert free_cokernel(imat([[2], [3]])) == [[3, -2]]
        assert free_cokernel(imat([[1, 0], [0, 1], [1, 1]])) == [[1, 1, -1]]
        # coker of (2 3) is 0, free, but its HNF pivot is 2: the Smith form
        # decides, as it did for every cokernel before
        with mock.patch.object(intlin, "cokernel_map", wraps=cokernel_map) as spy:
            assert free_cokernel(imat([[2, 3]])) == []  # 0 x 1, as rows
        assert spy.call_count == 1

    def test_no_smith_form(self):
        a = imat([[1, 2, 3], [0, 1, 4]])
        with mock.patch.object(intlin, "smith_normal_form", wraps=smith_normal_form) as spy:
            kernel_basis(a)
            free_cokernel(a.T)
        assert spy.call_count == 0


class TestCokernel:
    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_free_block_annihilates_image(self, rows):
        a = imat(rows)
        grading, invariants = cokernel_map(a)
        n_free = len(grading) - len(invariants)
        prod = imat(grading, cols=a.shape[0]) @ a
        for i in range(n_free):
            assert all(x == 0 for x in prod[i])
        for k, d in enumerate(invariants):
            assert all(x % d == 0 for x in prod[n_free + k])
            assert d > 1
        # free rank equals m - rank(a)
        assert n_free == a.shape[0] - matrix_rank(a)
        # invariants in divisibility order
        for i in range(len(invariants) - 1):
            assert invariants[i + 1] % invariants[i] == 0

    def test_torsion_invariants(self):
        grading, invariants = cokernel_map(imat([[2, 0], [0, 3]]))
        assert invariants == [6]
        assert [len(row) for row in grading] == [2]


class TestSolveInt:
    @given(matrices, st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_solution_is_verified(self, rows, bvals):
        a = imat(rows)
        b = ivec((bvals * 4)[: a.shape[0]])
        x = solve_int(a, b)
        if x is not None:
            assert all(v == 0 for v in a @ ivec(x) - b)

    @given(matrices, st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_consistent_systems_are_solved(self, rows, xvals):
        # b constructed in the image must always be solvable.
        a = imat(rows)
        x = ivec((xvals * 4)[: a.shape[1]])
        assert solve_int(a, a @ x) is not None

    def test_integral_obstruction(self):
        assert solve_int(imat([[2]]), ivec([3])) is None
        assert solve_int(imat([[2]]), ivec([4])) is not None

    def test_rational_obstruction(self):
        assert solve_int(imat([[1], [1]]), ivec([1, 2])) is None

    def test_status(self):
        # 2x = 3 has a rational but no integral solution; 0 = 1 has neither
        a = imat([[2, 0], [0, 0]])
        assert solve_int(a, ivec([4, 0])) == [2, 0]
        assert solve_int(a, ivec([3, 0])) is None
        assert solve_int(a, ivec([4, 1])) is None


class TestNonnegLines:
    """solve_nonneg_line on several right-hand sides, one at a time.

    The differential against a brute-force line scan is in
    test_acceptance.test_nonneg_lines_match_line_scan.
    """

    @pytest.mark.parametrize("k", [(1, 1), (-1, -1)])
    def test_kernel_generator_of_either_sign(self, k):
        # x - y = r: the point nearest the origin on the line, whichever
        # way k points (an all-negative k takes the least upper bound)
        rhs = [-3, -1, 0, 2, 5]
        got = [solve_nonneg_line(imat([[1, -1]]), ivec([r]), ivec(k)) for r in rhs]
        assert got == [[max(r, 0), max(-r, 0)] for r in rhs]

    def test_trivial_kernel_and_integrality(self):
        a = imat([[2, 0], [0, 1]])
        rhs = [(4, 1), (3, 1), (2, 0), (-2, 5)]
        got = [solve_nonneg_line(a, ivec(b), ivec([0, 0])) for b in rhs]
        assert got == [[2, 1], None, [1, 0], None]


class TestSolverInverse:
    """Integer inverses come from unimodular_solve(a, I), with no Smith form."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_inverse_of_unimodular(self, data):
        # unit lower times unit upper triangular, rows permuted: unimodular
        n = data.draw(st.integers(1, 4))
        entries = st.integers(-3, 3)
        el, er = imat(identity(n)), imat(identity(n))
        for i in range(n):
            for j in range(i):
                el[i, j] = data.draw(entries)
                er[j, i] = data.draw(entries)
        a = (el @ er)[data.draw(st.permutations(range(n)))]
        with mock.patch.object(intlin, "smith_normal_form", wraps=smith_normal_form) as spy:
            inv = unimodular_solve(a, identity(n))
        assert spy.call_count == 0
        assert (imat(inv) @ a).tolist() == identity(n)
        assert (a @ imat(inv)).tolist() == identity(n)
        assert all(type(x) is int for row in inv for x in row)

    @pytest.mark.parametrize("rows", [
        [[2, 0], [0, 1]],  # determinant 2
        [[1, 2], [2, 4]],  # singular
        [[1, 0, 0], [0, 1, 0]],  # not square, though every invariant factor is 1
        [[1, 0], [0, 1], [0, 0]],
    ])
    def test_no_inverse(self, rows):
        assert unimodular_solve(imat(rows), identity(len(rows))) is None


def unimodular_matrices(n: int):
    """Products of elementary moves on I: add a multiple of a row, swap, negate."""
    move = st.tuples(
        st.sampled_from(["add", "swap", "negate"]),
        st.integers(0, n - 1),
        st.integers(0, n - 1),
        st.integers(-3, 3),
    )

    def build(moves):
        a = imat(identity(n))
        for kind, i, j, c in moves:
            if kind == "add" and i != j:
                a[i] = a[i] + c * a[j]
            elif kind == "swap":
                a[[i, j]] = a[[j, i]]
            elif kind == "negate":
                a[i] = -a[i]
        return a

    return st.lists(move, max_size=12).map(build)


def right_hand_sides(n: int):
    return st.integers(0, 3).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(-20, 20), min_size=k, max_size=k), min_size=n, max_size=n
        ).map(lambda rows: imat(rows, cols=k))
    )


class TestUnimodularSolve:
    """unimodular_solve against the Smith route (solve_int) and sympy."""

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(unimodular_matrices(n), right_hand_sides(n))))
    @settings(max_examples=150, deadline=None)
    def test_unimodular_matches_solver_and_sympy(self, case):
        b, r = case
        x = unimodular_solve(b, r)
        assert x is not None and [len(row) for row in x] == [r.shape[1]] * r.shape[0]
        assert all(type(v) is int for row in x for v in row)
        assert (b @ imat(x, cols=r.shape[1])).tolist() == r.tolist()
        for j in range(r.shape[1]):
            assert solve_int(b, r[:, j]) == [row[j] for row in x]
        assert sympy.Matrix(b.tolist()).inv() * sympy.Matrix(r.tolist()) == sympy.Matrix(x)

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
        | unit_heavy_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_none_exactly_when_det_is_not_a_unit(self, rows):
        b = imat(rows)
        x = unimodular_solve(b, identity(len(rows)))
        det = sympy.Matrix(rows).det()
        if abs(det) == 1:
            assert sympy.Matrix(x) == sympy.Matrix(rows).inv()
        else:
            assert x is None

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(unimodular_matrices(n), right_hand_sides(n))))
    @settings(max_examples=60, deadline=None)
    def test_singular_and_det_two_rejected(self, case):
        b, r = case
        n = b.shape[0]
        doubled = b.copy()
        doubled[0] = 2 * doubled[0]  # det = +-2
        assert unimodular_solve(doubled, r) is None
        if n > 1:
            singular = b.copy()
            singular[n - 1] = singular[0]
            assert unimodular_solve(singular, r) is None
        assert unimodular_solve(0 * b, r) is None

    def test_one_by_one_and_det_minus_one(self):
        assert unimodular_solve(imat([[-1]]), imat([[5, -2]])) == [[-5, 2]]
        assert unimodular_solve(imat([[1]]), imat([[7]])) == [[7]]
        assert unimodular_solve(imat([[3]]), imat([[3]])) is None
        swap = imat([[0, 1], [1, 0]])  # det -1, and a zero first pivot
        assert unimodular_solve(swap, imat([[2], [3]])) == [[3], [2]]
        assert unimodular_solve(imat([[2, 1], [1, 0]]), identity(2)) == [[0, 1], [1, -2]]

    @pytest.mark.parametrize("rows", [
        # no +-1 in the first column: the first step is fraction-free
        [[2, 3], [3, 5]],
        [[3, 2], [4, 3]],
        [[3, -2, 2], [3, -3, 4], [5, -4, 5]],  # no +-1 entry at all
        # every unit pivot is -1, so each pivot row is negated
        [[-1, 2], [1, -3]],
        [[0, -1], [-1, 0]],
        # a non-unit step, then unit steps
        [[2, 3, 1], [3, 5, 2], [0, 0, 1]],
    ])
    def test_pivots_off_the_unit_path(self, rows):
        b = imat(rows)
        r = imat([[i + 1, -2 * i, 7] for i in range(len(rows))])
        x = unimodular_solve(b, r)
        assert x is not None and all(type(v) is int for row in x for v in row)
        for j in range(r.shape[1]):
            assert solve_int(b, r[:, j]) == [row[j] for row in x]
        assert sympy.Matrix(rows).inv() * sympy.Matrix(r.tolist()) == sympy.Matrix(x)

    @pytest.mark.parametrize("rows", [
        # det +-2 after +-1 pivots
        [[1, 0], [0, 2]],
        [[1, 2, 3], [0, -1, 4], [1, 1, 9]],
        # singular after +-1 pivots
        [[1, 2], [2, 4]],
        [[-1, 0, 0], [0, -1, 1], [0, 1, -1]],
    ])
    def test_non_unit_after_unit_pivots(self, rows):
        assert abs(sympy.Matrix(rows).det()) in (0, 2)
        assert unimodular_solve(imat(rows), identity(len(rows))) is None


class TestSolveNonnegLine:
    def fixture(self, seed):
        # Random 2x3 systems with 1-dim kernel keep the brute force cheap.
        import random

        rng = random.Random(seed)
        while True:
            a = imat([[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)])
            basis = kernel_basis(a)
            if len(basis) == 1:
                return a, basis[0]

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_brute_force(self, seed):
        import random

        a, k = self.fixture(seed)
        rng = random.Random(seed + 10_000)
        target = ivec([rng.randint(0, 8) for _ in range(3)])
        e = a @ target
        try:
            got = solve_nonneg_line(a, e, k)
        except ValueError:
            pytest.fail("rationally solvable system reported as unsolvable")
        # target itself is a nonnegative solution, so one must be found
        assert got is not None
        assert all(v == 0 for v in a @ ivec(got) - e)
        assert all(x >= 0 for x in got)
        # minimality: one step back along the line leaves the orthant
        if any(x > 0 for x in k):
            assert any(x < 0 for x in ivec(got) - ivec(k))

    def test_no_nonnegative_point(self):
        # x - y = -1 with kernel (1, 1): solutions (t-1, t), nonneg at t=1.
        a = imat([[1, -1]])
        assert list(solve_nonneg_line(a, ivec([-1]), ivec([1, 1]))) == [0, 1]
        # x + y = -1 never has nonnegative solutions.
        assert solve_nonneg_line(imat([[1, 1]]), ivec([-1]), ivec([1, -1])) is None

    def test_rational_failure_raises(self):
        a = imat([[1, 0], [1, 0]])
        with pytest.raises(ValueError, match="no rational solution"):
            solve_nonneg_line(a, ivec([1, 2]), ivec([0, 1]))

    def test_integral_failure_returns_none(self):
        a = imat([[2, 0]])
        assert solve_nonneg_line(a, ivec([3]), ivec([0, 1])) is None

    def test_rejects_non_kernel_vector(self):
        with pytest.raises(ValueError, match="kernel"):
            solve_nonneg_line(imat([[1, 1]]), ivec([2]), ivec([1, 1]))

    def test_trivial_kernel(self):
        a = identity(2)
        assert list(solve_nonneg_line(a, ivec([3, 4]), ivec([0, 0]))) == [3, 4]
        assert solve_nonneg_line(a, ivec([-1, 0]), ivec([0, 0])) is None


def test_identity_entries_are_python_ints():
    eye = identity(3)
    assert all(type(x) is int for row in eye for x in row)
    assert eye == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


class TestPolyhedra:
    def brute_points(self, a, b, lo=-8, hi=8):
        n = len(a[0])
        pts = []
        for x in itertools.product(range(lo, hi + 1), repeat=n):
            if all(sum(r[i] * x[i] for i in range(n)) >= bb for r, bb in zip(a, b)):
                pts.append(x)
        return pts

    def test_simplex_points(self):
        # x, y >= 0, x + y <= 4
        a = [[1, 0], [0, 1], [-1, -1]]
        b = [0, 0, -4]
        got = sorted(polyhedron_lattice_points(imat(a), ivec(b)))
        assert got == sorted(self.brute_points(a, b))
        assert len(got) == 15

    @pytest.mark.parametrize("seed", range(40))
    def test_random_boxes_match_brute_force(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 3)
        # bounded: box constraints plus random cuts
        a = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
        a += [[-1 if i == j else 0 for i in range(n)] for j in range(n)]
        b = [rng.randint(-4, 0) for _ in range(n)] + [rng.randint(-4, 0) for _ in range(n)]
        for _ in range(2):
            a.append([rng.randint(-2, 2) for _ in range(n)])
            b.append(rng.randint(-5, 2))
        got = sorted(polyhedron_lattice_points(imat(a), ivec(b)))
        assert got == sorted(self.brute_points(a, b))

    def test_unbounded_raises(self):
        with pytest.raises(ValueError, match="unbounded"):
            polyhedron_lattice_points(imat([[1, 0], [0, 1]]), ivec([0, 0]))

    def test_empty_region(self):
        a = imat([[1], [-1]])
        b = ivec([3, -1])  # x >= 3 and x <= 1
        assert polyhedron_lattice_points(a, b) == []
        assert not rational_polyhedron_nonempty(a, b)

    def test_rational_feasibility_vs_integral(self):
        # 2 <= 2x <= 3 has rational points but no integer relevance here;
        # feasibility is about Q-points only.
        a = imat([[2], [-2]])
        b = ivec([3, -3])  # 1.5 exactly
        assert rational_polyhedron_nonempty(a, b)
        assert polyhedron_lattice_points(a, b) == []

    @given(
        st.lists(
            st.tuples(st.lists(st.integers(-3, 3), min_size=2, max_size=2), st.integers(-6, 6)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_rational_feasibility_never_false_negative(self, ineqs):
        a = imat([list(c) for c, _ in ineqs])
        b = ivec([r for _, r in ineqs])
        # witness search over a small rational grid
        witness = False
        for num in itertools.product(range(-6, 7), repeat=2):
            for den in (1, 2, 3):
                x = [Fraction(v, den) for v in num]
                if all(
                    sum(Fraction(int(a[i, j])) * x[j] for j in range(2)) >= int(b[i])
                    for i in range(a.shape[0])
                ):
                    witness = True
                    break
            if witness:
                break
        if witness:
            assert rational_polyhedron_nonempty(a, b)


def _vertex_oracle(a, b) -> bool:
    """Rational feasibility of a bounded {x : a @ x >= b} by its vertices.

    A nonempty bounded polyhedron has a vertex, the unique solution of n
    tight rows with a nonzero determinant; solve each such n-subset by
    Cramer's rule over Fraction and test the point against every row.
    """
    n = len(a[0])
    for rows in itertools.combinations(range(len(a)), n):
        sub = [a[i] for i in rows]
        det = determinant(imat(sub))
        if det == 0:
            continue
        x = []
        for j in range(n):
            swapped = [[b[i] if k == j else a[i][k] for k in range(n)] for i in rows]
            x.append(Fraction(determinant(imat(swapped)), det))
        if all(sum(Fraction(r[k]) * x[k] for k in range(n)) >= rr for r, rr in zip(a, b)):
            return True
    return False


def _boxed_vertex_oracle(a, b, n) -> bool:
    """Rational feasibility of any {x in Q^n : a @ x >= b}, bounded or not.

    A nonempty polyhedron has a point whose coordinates are ratios of
    minors of [a | b] (solve r independent rows of a minimal face, the
    other coordinates 0), so each is at most n! * d^n in absolute value,
    d the largest entry. The box |x_i| <= n! * d^n keeps that point and
    makes the region bounded, and _vertex_oracle decides the rest.
    """
    if not a:
        return True
    d = max(1, *(abs(x) for row in a for x in row), *(abs(x) for x in b))
    box = [[s if k == i else 0 for k in range(n)] for i in range(n) for s in (1, -1)]
    return _vertex_oracle(a + box, b + [-math.factorial(n) * d**n] * (2 * n))


@st.composite
def bounded_systems(draw):
    """Box rows lo_i <= x_i <= hi_i plus up to four random integer cuts."""
    n = draw(st.sampled_from((2, 3)))
    lo = draw(st.lists(st.integers(-3, 1), min_size=n, max_size=n))
    hi = draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n))
    a = [[1 if k == i else 0 for k in range(n)] for i in range(n)]
    a += [[-1 if k == i else 0 for k in range(n)] for i in range(n)]
    b = list(lo) + [-h for h in hi]
    cuts = draw(st.lists(
        st.tuples(st.lists(st.integers(-3, 3), min_size=n, max_size=n), st.integers(-6, 6)),
        max_size=4,
    ))
    for row, rhs in cuts:
        a.append(list(row))
        b.append(rhs)
    return a, b


class TestIntegerFourierMotzkin:
    """The integer-only FM helpers against oracles that share no code with them."""

    @given(bounded_systems())
    @settings(max_examples=200, deadline=None)
    def test_lattice_points_match_box_scan(self, system):
        a, b = system
        n = len(a[0])
        scan = [
            x for x in itertools.product(range(-3, 4), repeat=n)
            if all(sum(r[k] * x[k] for k in range(n)) >= rr for r, rr in zip(a, b))
        ]
        assert polyhedron_lattice_points(imat(a), ivec(b)) == scan

    @given(bounded_systems())
    @settings(max_examples=200, deadline=None)
    def test_rational_feasibility_matches_vertices(self, system):
        a, b = system
        got = rational_polyhedron_nonempty(imat(a), ivec(b))
        assert got == _vertex_oracle(a, b)
        if polyhedron_lattice_points(imat(a), ivec(b)):
            assert got

    @given(bounded_systems(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_incremental_rows_and_undo(self, system, data):
        # rows pushed one at a time decide like the boxed vertex oracle, and
        # undo takes the system back to where it was at the mark
        a, b = system
        k = data.draw(st.integers(0, len(a)))
        fm = intlin.FourierMotzkin(len(a[0]))
        for row, r in zip(a[:k], b[:k]):
            fm.push(tuple(row), r)
        prefix = _boxed_vertex_oracle(a[:k], b[:k], len(a[0]))
        full = _boxed_vertex_oracle(a, b, len(a[0]))
        assert fm.feasible() == prefix
        mark = fm.mark()
        for row, r in zip(a[k:], b[k:]):
            fm.push(tuple(row), r)
        assert fm.feasible() == full
        fm.undo(mark)
        assert fm.feasible() == prefix
        for row, r in reversed(list(zip(a[k:], b[k:]))):
            fm.push(tuple(row), r)
        assert fm.feasible() == full

    def test_rational_point_without_lattice_point(self):
        # 1 <= 3x - 3y <= 2 and 0 <= x, y <= 2: a strip between lattice lines
        a = [[3, -3], [-3, 3], [1, 0], [-1, 0], [0, 1], [0, -1]]
        b = [1, -2, 0, -2, 0, -2]
        assert rational_polyhedron_nonempty(imat(a), ivec(b))
        assert _vertex_oracle(a, b)
        assert polyhedron_lattice_points(imat(a), ivec(b)) == []
