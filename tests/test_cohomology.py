"""Graded Cech cohomology of the tangent sheaf.

Primary oracle: a fully hand-built complex for the four-cone Hirzebruch-2
fan at degree (-1,-1). The section spaces there are, by direct case
analysis (values of the degree on rays (1,0),(0,1),(-1,2),(0,-1) are
-1,-1,-1,+1):

  cones:   {01}: 0   {12}: 0   {23}: line(-1,2)   {03}: line(1,0)
  pairs:   (0,1): line(0,1)   (0,2): full   (0,3): line(1,0)
           (1,2): line(-1,2)  (1,3): full   (2,3): full
  triples: all four are the zero cone -> full

so dim C0 = 2, C1 = 9, C2 = 8; the boundary matrices are written out
below and reduced by fractions, independently of the implementation.

span_check works in the generic stalk instead; it is held against the full
complex (TestSpanCertificate), Ilten's surface formula
(TestSurfaceFormulaOracle) and Kuenneth on products (TestProductsAtScale),
and its per-ray constraint rows against the cone-pair rows they replace
(TestPerRayStalk).
"""

from __future__ import annotations

import itertools
import json
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_deform import cli, cohomology
from toric_deform.cohomology import (
    GradedCechComplex,
    h1_dimension,
    span_check,
    triple_cocycle,
)
from toric_deform.fan import Fan, hirzebruch, product, product_of_lines, projective_space
from toric_deform.kernels import PRIME, matrix_rank, rank_mod_p
from toric_deform.scrolls import ScrollSpec, scroll_fan
from toric_deform.triples import (
    AdmissibleTriple,
    degree_box,
    enumerate_triples,
    h1_closed_form,
    pairing,
    triples_at_degree,
)

from helpers import default_box_bound, dense_rows, rank_oracle, sparse_rows
from test_triples import blown_up_plane  # the tests' own fan builder


# Hand-built boundary matrices for F_2 at degree (-1,-1).
# C0 coordinates: x = coefficient on line(-1,2) at cone {23},
#                 y = coefficient on line(1,0) at cone {03}.
# C1 coordinates, pair blocks in order (0,1),(0,2),(0,3),(1,2),(1,3),(2,3).
F2_D0 = [
    [0, 0],    # (0,1): both endpoint spaces are zero
    [-1, 0],   # (0,2) e1: x * (-1,2) restricted
    [2, 0],    # (0,2) e2
    [0, 1],    # (0,3): y * (1,0) in line(1,0)
    [1, 0],    # (1,2): x * (-1,2) in line(-1,2)
    [0, 1],    # (1,3) e1: y * (1,0)
    [0, 0],    # (1,3) e2
    [1, 1],    # (2,3) e1: y*(1,0) - x*(-1,2)
    [-2, 0],   # (2,3) e2
]
# C1 column order: [g01, g02x, g02y, g03, g12, g13x, g13y, g23x, g23y]
F2_D1 = [
    [0, -1, 0, 0, -1, 0, 0, 0, 0],   # (0,1,2) e1: g12*(-1,2) - g02 + g01*(0,1)
    [1, 0, -1, 0, 2, 0, 0, 0, 0],    # (0,1,2) e2
    [0, 0, 0, -1, 0, 1, 0, 0, 0],    # (0,1,3) e1: g13 - g03*(1,0) + g01*(0,1)
    [1, 0, 0, 0, 0, 0, 1, 0, 0],     # (0,1,3) e2
    [0, 1, 0, -1, 0, 0, 0, 1, 0],    # (0,2,3) e1: g23 - g03*(1,0) + g02
    [0, 0, 1, 0, 0, 0, 0, 0, 1],     # (0,2,3) e2
    [0, 0, 0, 0, -1, -1, 0, 1, 0],   # (1,2,3) e1: g23 - g13 + g12*(-1,2)
    [0, 0, 0, 0, 2, 0, -1, 0, 1],    # (1,2,3) e2
]


def section_basis(fan, cone, m) -> tuple[tuple[int, ...], ...]:
    """The section-space basis of a face at degree m, as the Cech complex
    and the stalk take it."""
    return cohomology._sections_basis(fan, cone, [pairing(m, ray) for ray in fan.rays])


class TestLocalSections:
    def test_zero_cone_is_full_for_any_degree(self):
        f = hirzebruch(2)
        for m in [(0, 0), (-3, 5), (2, -1), (-5, -5)]:
            assert len(section_basis(f, (), m)) == 2

    def test_single_ray_chart(self):
        f = hirzebruch(2)
        # value >= 0 on the one ray -> full; -1 -> line; <= -2 -> zero
        assert len(section_basis(f, (0,), (1, 7))) == 2
        assert section_basis(f, (0,), (-1, 7)) == ((1, 0),)

    def test_f2_line_case(self):
        # cone {2,3} at degree (-1,-1): values -1 on ray 2, +1 on ray 3
        assert section_basis(hirzebruch(2), (2, 3), (-1, -1)) == ((-1, 2),)

    def test_f2_zero_case(self):
        # cone {0,1}: two rays with value -1
        assert len(section_basis(hirzebruch(2), (0, 1), (-1, -1))) == 0

    def test_deep_negative_kills_sections(self):
        # single ray with value -2
        assert len(section_basis(hirzebruch(2), (0,), (-2, 0))) == 0


class TestCechComplexAgainstHandOracle:
    def test_f2_dimensions(self):
        cx = GradedCechComplex(hirzebruch(2), (-1, -1))
        assert (cx.dim0, cx.dim1, cx.dim2) == (2, 9, 8)

    def test_f2_h1_matches_hand_reduction(self):
        expected = (9 - rank_oracle(F2_D1)) - rank_oracle(F2_D0)
        assert expected == 1  # fixes the oracle itself
        assert h1_dimension(hirzebruch(2), (-1, -1)) == 1

    def test_f2_boundary_matrices_exactly(self):
        # the implementation orders blocks the same way the oracle does
        cx = GradedCechComplex(hirzebruch(2), (-1, -1))
        assert cx.d0 == F2_D0
        assert cx.d1 == F2_D1


class TestH1Dimension:
    def test_p2_box_vanishes(self):
        f = projective_space(2)
        for m in itertools.product(range(-3, 4), repeat=2):
            assert h1_dimension(f, m) == 0

    def test_f2_degree_zero(self):
        assert h1_dimension(hirzebruch(2), (0, 0)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_hirzebruch_total(self, n):
        # total graded H^1 has dimension n-1, concentrated in degrees
        # (-alpha, -1), 0 < alpha < n
        f = hirzebruch(n)
        total = 0
        for m in itertools.product(range(-n, n + 1), repeat=2):
            h = h1_dimension(f, m)
            total += h
            if h:
                assert m == (-(-m[0]), -1) and 0 < -m[0] < n
        assert total == n - 1

    def test_p1_cubed_rigid(self):
        f = product_of_lines(3)
        for m in itertools.product(range(-2, 3), repeat=3):
            assert h1_dimension(f, m) == 0

    def test_permutation_invariance(self):
        import random

        rng = random.Random(7)
        base = hirzebruch(3)
        for _ in range(6):
            ray_perm = list(range(4))
            rng.shuffle(ray_perm)
            # ray_perm[new] = old
            inv = {old: new for new, old in enumerate(ray_perm)}
            cones = [tuple(sorted(inv[i] for i in c)) for c in base.max_cones]
            rng.shuffle(cones)
            shuffled = Fan(
                dim=2,
                rays=tuple(base.rays[old] for old in ray_perm),
                max_cones=tuple(cones),
            )
            for m in [(-1, -1), (-2, -1), (0, 0), (1, -2)]:
                assert h1_dimension(shuffled, m) == h1_dimension(base, m)

    def test_lattice_basis_invariance(self):
        # rays U*v, degree m*U^{-1} describe the same variety
        base = hirzebruch(2)
        # U = [[1,1],[0,1]], U^{-1} = [[1,-1],[0,1]]
        rays = tuple((v[0] + v[1], v[1]) for v in base.rays)
        changed = Fan(dim=2, rays=rays, max_cones=base.max_cones)
        for m in [(-1, -1), (-2, -1), (0, 0)]:
            m_changed = (m[0], -m[0] + m[1])
            assert h1_dimension(changed, m_changed) == h1_dimension(base, m)


class TestTripleCocycle:
    def triple(self, n=2, alpha=1, comp=(0,)):
        return AdmissibleTriple(m=(-alpha, -1), rho=1, component=comp)

    @staticmethod
    def difference(x, i, j):
        return tuple(a - b for a, b in zip(x[j], x[i]))

    def test_f2_support(self):
        # C = {ray 0}: cones {01} and {03} touch C, {12} and {23} do not
        x = triple_cocycle(hirzebruch(2), self.triple())
        touching = {0, 3}
        for i, j in itertools.combinations(range(4), 2):
            expect_nonzero = (i in touching) != (j in touching)
            assert any(self.difference(x, i, j)) == expect_nonzero

    def test_entries_are_rho_multiples(self):
        x = triple_cocycle(hirzebruch(2), self.triple())
        assert x[0] == (0, 0)
        assert self.difference(x, 0, 1) == (0, 1)  # alpha = +1 times v_rho = (0,1)
        assert self.difference(x, 1, 0) == (0, -1)

    def test_both_touching_gives_zero(self):
        x = triple_cocycle(hirzebruch(2), self.triple())
        assert self.difference(x, 0, 3) == (0, 0)

    def test_matches_alpha_on_every_pair(self):
        f = hirzebruch(3)
        t = AdmissibleTriple((-2, -1), 1, (0,))
        x = triple_cocycle(f, t)
        touches = [int(0 in c) for c in f.max_cones]
        for i, j in itertools.combinations(range(4), 2):
            alpha = touches[i] - touches[j]
            assert self.difference(x, i, j) == tuple(alpha * v for v in f.rays[1])

    def test_rejects_non_admissible(self):
        # C = {3} but ray 3 has positive value: differences land outside
        # the local section spaces
        bad = AdmissibleTriple(m=(-1, -1), rho=1, component=(3,))
        with pytest.raises(ValueError, match="not a cocycle"):
            triple_cocycle(hirzebruch(2), bad)


class TestSpanCheck:
    def test_f2_both_triples(self):
        f = hirzebruch(2)
        triples = enumerate_triples(f, 3)
        rep = span_check(f, (-1, -1), triples)
        assert rep == {"h1_dim": 1, "span_rank": 1, "spans": True, "certified": True}

    def test_two_cocycles_differ_by_coboundary(self):
        # rank of the pair together is still 1
        f = hirzebruch(2)
        triples = enumerate_triples(f, 3)
        assert len(triples) == 2
        one = span_check(f, (-1, -1), [triples[0]])
        both = span_check(f, (-1, -1), triples)
        assert one["span_rank"] == both["span_rank"] == 1

    def test_vacuous(self):
        assert span_check(hirzebruch(2), (0, 0), []) == {
            "h1_dim": 0,
            "span_rank": 0,
            "spans": True,
            "certified": True,
        }

    def test_f3_two_degrees(self):
        f = hirzebruch(3)
        for alpha in (1, 2):
            m = (-alpha, -1)
            triples = [t for t in enumerate_triples(f, 3) if t.m == m]
            rep = span_check(f, m, triples)
            assert rep["h1_dim"] == 1 and rep["spans"]

    def test_rejects_degree_mismatch(self):
        f = hirzebruch(2)
        t = AdmissibleTriple(m=(-1, -1), rho=1, component=(0,))
        with pytest.raises(ValueError, match="degree"):
            span_check(f, (0, 0), [t])

    def test_broken_constraints_are_caught(self, monkeypatch):
        # F_2 at (-1, -1): rays 0, 1, 2 are negative, and cone (3, 0) carries
        # the line of (1, 0), so its boundary x_3 = (1, 0) meets the link of
        # ray 0 between cones 0 and 3. Constraints that cut every ray's space
        # to zero are violated by that boundary.
        f, m = hirzebruch(2), (-1, -1)
        stalk = cohomology._Stalk(f, m)
        assert stalk.constraints
        assert any(stalk.sections[1:])  # a nonzero boundary on sigma_1..
        monkeypatch.setattr(cohomology, "_annihilator", lambda basis, n: [(1, 0), (0, 1)])
        with pytest.raises(AssertionError, match="construction is broken"):
            span_check(f, m, [])

    def test_broken_first_cone_of_a_star_is_caught(self, monkeypatch):
        # cone 0 = (0, 1) of F_2 at (-1, -1) has two negative rays, so F = 0;
        # claiming all of N there gives boundaries that leave F(rho) at the
        # links (0, j) of rays 0 and 1, where cone 0 is always the first cone
        f, m = hirzebruch(2), (-1, -1)
        sections = cohomology._sections_basis
        first = f.max_cones[0]
        assert sections(f, first, [-1, -1, -1, 1]) == ()

        def broken(fan, cone, values):
            return ((1, 0), (0, 1)) if tuple(cone) == first else sections(fan, cone, values)

        monkeypatch.setattr(cohomology, "_sections_basis", broken)
        with pytest.raises(AssertionError, match="construction is broken"):
            span_check(f, m, [])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_hirzebruch_spans_everywhere(self, n):
        f = hirzebruch(n)
        all_triples = enumerate_triples(f, n + 1)
        degrees = set(itertools.product(range(-n, n + 1), repeat=2))
        degrees |= {t.m for t in all_triples}
        for m in sorted(degrees):
            rep = span_check(f, m, [t for t in all_triples if t.m == m])
            assert rep["spans"], (n, m, rep)


# fan -> half-width of a small degree box checked on top of the degrees
# that carry triples (None: those degrees only, as the box is too costly)
CERTIFICATE_FANS = {
    **{f"F_{n}": (hirzebruch(n), 1) for n in range(6)},
    "S(2,1,0)": (scroll_fan(ScrollSpec((2, 1, 0))), 1),
    "S(3,1,0)": (scroll_fan(ScrollSpec((3, 1, 0))), 1),
    "S(2,0,0,0)": (scroll_fan(ScrollSpec((2, 0, 0, 0))), None),
    "P1xP1xP1": (product_of_lines(3), 1),
    "F_2xF_3": (product(hirzebruch(2), hirzebruch(3)), None),
}


def triples_by_degree(fan, box_bound=None) -> dict:
    """Every triple grouped by degree, plus the empty degrees of a box."""
    by_degree = {m: [] for m in (degree_box(fan, box_bound) if box_bound else [])}
    for t in enumerate_triples(fan):
        by_degree.setdefault(t.m, []).append(t)
    return by_degree


def exact_span_reference(fan, m, triples) -> dict:
    """span_check's answer from the exact Cech complex only: h1_dimension,
    and the exact rank of im d0 plus the stalk cocycles carried into C^1 by
    c_ij = x_j - x_i."""
    complex_ = GradedCechComplex(fan, m)
    h1 = h1_dimension(fan, m)
    rows = [list(col) for col in zip(*complex_.d0)]
    for t in triples:
        x = triple_cocycle(fan, t)
        rows.append([
            c
            for (i, j), space in zip(complex_.sets[1], complex_.sections[1])
            for c in cohomology._coords_in([b - a for a, b in zip(x[i], x[j])], space)
        ])
    span_rank = matrix_rank(rows) - matrix_rank(complex_.d0)
    return {"h1_dim": h1, "span_rank": span_rank, "spans": span_rank == h1}


small_int_matrices = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.lists(
            st.integers(-9, 9).flatmap(lambda v: st.sampled_from([0, v])),
            min_size=n,
            max_size=n,
        ),
        min_size=1,
        max_size=6,
    )
)


class TestSpanCertificate:
    """span_check proves its answer with one rank mod p, or falls back."""

    @pytest.mark.parametrize("key", list(CERTIFICATE_FANS))
    def test_matches_exact_reference(self, key):
        fan, box_bound = CERTIFICATE_FANS[key]
        by_degree = triples_by_degree(fan, box_bound)
        assert by_degree
        for m, triples in by_degree.items():
            expected = {**exact_span_reference(fan, m, triples), "certified": True}
            assert span_check(fan, m, triples) == expected, m

    def test_fallback_gives_the_same_answer(self, monkeypatch):
        cases = [
            (fan, m, triples)
            for fan, box_bound in (CERTIFICATE_FANS[k] for k in ("F_2", "F_3", "S(2,1,0)"))
            for m, triples in triples_by_degree(fan, box_bound).items()
        ]
        certified = [span_check(*case) for case in cases]
        monkeypatch.setattr(cohomology, "rank_mod_p", lambda rows, width: rank_mod_p(rows, width) - 1)
        for case, rep in zip(cases, certified):
            assert rep["certified"]
            assert span_check(*case) == {**rep, "certified": False}, case[1]

    @given(small_int_matrices)
    @settings(max_examples=200, deadline=None)
    def test_rank_mod_p_matches_exact(self, rows):
        # every minor of a 6 x 6 matrix with entries in [-9, 9] is below
        # (9 * 6^(1/2))^6 < p in absolute value, so no minor vanishes mod p
        # unless it vanishes
        assert rank_mod_p(sparse_rows(rows), len(rows[0])) == matrix_rank(rows)
        assert rank_mod_p(sparse_rows(zip(*rows)), len(rows)) == matrix_rank(rows)

    def test_rank_mod_p_reduces_big_entries_exactly(self):
        assert rank_mod_p(sparse_rows([[10**30, 1], [10**30, 1], [0, 7]]), 2) == 2
        assert rank_mod_p(sparse_rows([[-(2**70), 3 * PRIME + 1]]), 2) == 1

    @given(small_int_matrices, st.data())
    @settings(max_examples=100, deadline=None)
    def test_rank_mod_p_reduces_entries_beyond_int64(self, rows, data):
        # adding multiples of p beyond +-2^64 leaves the matrix mod p, and
        # so its rank mod p, unchanged; the exact rank is the oracle
        big = st.integers(2**64 // PRIME + 1, 2**90).flatmap(lambda k: st.sampled_from([k, -k]))
        shifted = [[x + data.draw(big) * PRIME for x in row] for row in rows]
        assert any(abs(x) > 2**64 for row in shifted for x in row)
        width = len(rows[0])
        assert rank_mod_p(sparse_rows(shifted), width) == matrix_rank(rows)
        assert rank_mod_p(sparse_rows(np.array(shifted, dtype=object)), width) == matrix_rank(rows)

    @pytest.mark.parametrize("deficient", [False, True], ids=["full", "deficient"])
    def test_rank_mod_p_on_tall_sparse_input(self, deficient):
        # the pivot search scans each column once and swaps rows; sparse
        # columns leave most rows below a pivot untouched
        rng = random.Random(11)
        cols = [[rng.randint(-3, 3) if rng.random() < 0.05 else 0 for _ in range(300)] for _ in range(40)]
        if deficient:
            for k in range(30, 40):
                cols[k] = [a - 2 * b for a, b in zip(cols[k - 30], cols[k - 29])]
        rows = [list(r) for r in zip(*cols)]
        rank = matrix_rank(rows)
        assert rank == 40 if not deficient else rank < 40
        assert rank_mod_p(sparse_rows(rows), 40) == rank
        assert rank_mod_p(sparse_rows(cols), 300) == rank

    def test_rank_mod_p_can_fall_short(self):
        # det = p: invertible over Q, singular mod p; this is the case the
        # exact fallback of span_check is there for
        mat = [[1, 1], [1, 1 + PRIME]]
        assert matrix_rank(mat) == 2
        assert rank_mod_p(sparse_rows(mat), 2) == 1
        assert rank_mod_p(sparse_rows([[PRIME, 0], [0, 1]]), 2) == 1

    def test_exact_rank_never_sees_d1_on_f2xf3(self, tmp_path, monkeypatch, capsys):
        complexes = []
        constrained = []
        ranked = []

        class Recorded(GradedCechComplex):
            def __init__(self, fan, m):
                super().__init__(fan, m)
                complexes.append(self)

        def spy_p(rows, width):
            constrained.append(rows)
            return rank_mod_p(rows, width)

        def spy(mat):
            ranked.append(mat)
            return matrix_rank(mat)

        monkeypatch.setattr(cohomology, "GradedCechComplex", Recorded)
        monkeypatch.setattr(cohomology, "rank_mod_p", spy_p)
        monkeypatch.setattr(cohomology, "matrix_rank", spy)
        path = tmp_path / "f2xf3.json"
        path.write_text(json.dumps(cli.fan_to_json(CERTIFICATE_FANS["F_2xF_3"][0])))
        assert cli.main(["h1", "--fan", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["total_h1"] == 3
        assert payload["checks"][0] == {"name": "cocycles_span", "ok": True, "witness": None}
        assert payload["timing"]["counters"]["rank_fallbacks"] == 0
        assert complexes == []
        assert len(constrained) == 3 and ranked
        assert not any(mat is c for mat in ranked for c in constrained)


def annihilator_oracle(basis, n) -> list[list[int]]:
    """Rows whose common kernel is the span of basis (empty, one vector, or
    all of V): the 2 x 2 minors v_k e_l - v_l e_k for a line."""
    if len(basis) == n:
        return []
    if not basis:
        return [[int(q == k) for q in range(n)] for k in range(n)]
    (v,) = basis
    return [
        [v[k] if q == l else -v[l] if q == k else 0 for q in range(n)]
        for k, l in itertools.combinations(range(n), 2)
    ]


def pairwise_rows(fan, m) -> list[list[int]]:
    """The cone-pair stalk constraints: for every pair i < j of maximal
    cones, the annihilator of the sections of their common face, applied
    to x_j - x_i, over x_1..x_(s-1)."""
    n, s = fan.dim, len(fan.max_cones)
    rows = []
    for i, j in itertools.combinations(range(s), 2):
        face = set(fan.max_cones[i]) & set(fan.max_cones[j])
        for f in annihilator_oracle(section_basis(fan, face, m), n):
            row = [0] * ((s - 1) * n)
            row[(j - 1) * n : j * n] = f
            if i:
                row[(i - 1) * n : i * n] = [-c for c in f]
            rows.append(row)
    return rows


def flat_rows(vectors) -> list[list[int]]:
    """Stalk vectors (x_0, ..., x_(s-1)) as rows over x_1..x_(s-1)."""
    return [[c for block in x[1:] for c in block] for x in vectors]


def boundary_rows(stalk) -> list[list[int]]:
    """The boundaries of the cohomology module docstring as full rows, read
    from stalk.sections: b in F(sigma_j) gives x_j = b when j >= 1, and
    x_k = -b for every k >= 1 when j = 0."""
    s, n = len(stalk.sections), stalk.fan.dim
    vectors = []
    for j, basis in enumerate(stalk.sections):
        for b in basis:
            if j:
                vectors.append([(0,) * n] * j + [b] + [(0,) * n] * (s - 1 - j))
            else:
                vectors.append([(0,) * n] + [tuple(-c for c in b)] * (s - 1))
    return flat_rows(vectors)


def in_span(vec, basis) -> bool:
    return matrix_rank([*basis, vec]) == matrix_rank(list(basis)) if basis else not any(vec)


class TestPerRayStalk:
    """The per-ray constraint rows of span_check against the cone-pair rows
    they replace."""

    @pytest.mark.parametrize("key", list(CERTIFICATE_FANS))
    def test_same_row_space_as_cone_pairs(self, key):
        fan = CERTIFICATE_FANS[key][0]
        for m in triples_by_degree(fan, 1):
            stalk = cohomology._Stalk(fan, m)
            per_ray = dense_rows(stalk.constraints, stalk.width)
            pairwise = pairwise_rows(fan, m)
            rank = matrix_rank(pairwise)
            assert matrix_rank(per_ray) == rank, m
            assert matrix_rank(pairwise + per_ray) == rank, m

    @staticmethod
    def assert_quotient_ranks(fan, by_degree):
        # _span_ranks reads rank_b and rank_span through the quotient by
        # the boundaries of sigma_1..; the full boundary rows are the oracle
        for m, triples in by_degree.items():
            stalk = cohomology._Stalk(fan, m)
            cocycles = cohomology._checked_cocycles(stalk, triples)
            boundaries = boundary_rows(stalk)
            full = (matrix_rank(boundaries), matrix_rank(boundaries + flat_rows(cocycles)))
            assert cohomology._span_ranks(stalk, cocycles) == full, m

    @pytest.mark.parametrize("key", list(CERTIFICATE_FANS))
    def test_quotient_ranks_match_full_rows(self, key):
        fan = CERTIFICATE_FANS[key][0]
        self.assert_quotient_ranks(fan, triples_by_degree(fan, 1))

    def test_quotient_ranks_on_a_sixfold(self):
        fan = product(product(hirzebruch(2), hirzebruch(3)), hirzebruch(4))
        self.assert_quotient_ranks(fan, triples_by_degree(fan))

    def test_row_count_on_a_sixfold(self):
        fan = product(product(hirzebruch(2), hirzebruch(3)), hirzebruch(4))
        n = fan.dim
        degrees = triples_by_degree(fan)
        assert len(degrees) == 6
        for m in degrees:
            expected = 0
            for rho, ray in enumerate(fan.rays):
                value = sum(a * b for a, b in zip(m, ray))
                codim = 0 if value >= 0 else n - 1 if value == -1 else n
                star = sum(1 for c in fan.max_cones if rho in c)
                expected += (star - 1) * codim
            assert len(cohomology._Stalk(fan, m).constraints) == expected <= 527, m

    def test_rank_mod_p_reads_two_block_sparse_rows(self, monkeypatch):
        # the certified path builds no (s - 1) * n-wide row: every row
        # handed to rank_mod_p holds only nonzero entries, in at most the
        # two n-blocks of its link
        fan = product(product(hirzebruch(2), hirzebruch(3)), hirzebruch(4))
        n, s = fan.dim, len(fan.max_cones)
        handed = []

        def spy(rows, width):
            handed.append((rows, width))
            return rank_mod_p(rows, width)

        monkeypatch.setattr(cohomology, "rank_mod_p", spy)
        for m, triples in triples_by_degree(fan).items():
            assert span_check(fan, m, triples)["certified"], m
        assert len(handed) == 6
        for rows, width in handed:
            assert width == (s - 1) * n and rows
            for row in rows:
                assert type(row) is dict and row and all(row.values())
                assert all(0 <= c < width for c in row)
                assert len({c // n for c in row}) <= 2

    def test_named_pair_is_a_real_witness(self):
        named = 0
        for key in ("F_2", "F_3", "S(2,1,0)", "P1xP1xP1"):
            fan = CERTIFICATE_FANS[key][0]
            for m, triples in triples_by_degree(fan, 1).items():
                admissible = {(t.rho, t.component) for t in triples}
                for rho, ray in enumerate(fan.rays):
                    if sum(a * b for a, b in zip(m, ray)) != -1:
                        continue
                    for c in range(fan.n_rays):
                        if c == rho or (rho, (c,)) in admissible:
                            continue
                        t = AdmissibleTriple(m=m, rho=rho, component=(c,))
                        try:
                            triple_cocycle(fan, t)
                        except ValueError as exc:
                            i, j = map(int, re.search(r"cone pair \((\d+), (\d+)\)", str(exc)).groups())
                        else:
                            continue
                        touches = [int(c in cone) for cone in fan.max_cones]
                        diff = [(touches[i] - touches[j]) * x for x in ray]
                        face = set(fan.max_cones[i]) & set(fan.max_cones[j])
                        assert not in_span(diff, section_basis(fan, face, m)), (key, t, i, j)
                        named += 1
        assert named > 20


class TestClosedFormOracle:
    """The closed form the h1 sweep reports, against Cech at every degree."""

    @pytest.mark.parametrize(
        "fan,bound",
        [(hirzebruch(n), None) for n in range(6)]
        + [
            (scroll_fan(ScrollSpec((2, 1, 0))), 2),
            (scroll_fan(ScrollSpec((3, 1, 0))), 2),
            (projective_space(3), 2),
            (product_of_lines(3), 2),
        ],
        ids=["F_0", "F_1", "F_2", "F_3", "F_4", "F_5",
             "S(2,1,0)", "S(3,1,0)", "P^3", "P1xP1xP1"],
    )
    def test_matches_cech_on_box(self, fan, bound):
        box = degree_box(fan, default_box_bound(fan) if bound is None else bound)
        mismatches = []
        for m in box:
            closed = h1_closed_form(triples_at_degree(fan, m))
            cech = h1_dimension(fan, m)
            if closed != cech:
                mismatches.append((m, closed, cech))
        assert mismatches == []


def run_h1(tmp_path, capsys, fan, *args) -> dict:
    """Exit code and payload of one h1 command on a fan file."""
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(cli.fan_to_json(fan)))
    code = cli.main(["h1", "--fan", str(path), *args])
    return {"exit": code, **json.loads(capsys.readouterr().out)}


def surface_formula(fan: Fan) -> int:
    """Ilten's h^1(T_X) = sum of max(0, b_i - 1), v_(i-1) + v_(i+1) = b_i v_i,
    for a smooth complete surface; the neighbours of a ray are read off its
    two maximal cones."""
    total = 0
    for i, v in enumerate(fan.rays):
        a, c = (fan.rays[k] for cone in fan.max_cones if i in cone for k in cone if k != i)
        s = tuple(x + y for x, y in zip(a, c))
        k = next(q for q, x in enumerate(v) if x != 0)
        b = s[k] // v[k]
        assert s == tuple(b * x for x in v)
        total += max(0, b - 1)
    return total


class TestSurfaceFormulaOracle:
    """The h1 sweep against the surface formula, independent of Cech and of
    the closed form."""

    @pytest.mark.parametrize(
        "fan",
        [hirzebruch(n) for n in range(6)] + [blown_up_plane(r) for r in range(3, 21)],
        ids=[f"F_{n}" for n in range(6)] + [f"blown_up_plane({r})" for r in range(3, 21)],
    )
    def test_sweep_total(self, tmp_path, capsys, fan):
        expected = surface_formula(fan)
        payload = run_h1(tmp_path, capsys, fan)
        assert payload["exit"] == 0
        assert all(c["ok"] for c in payload["checks"])
        assert payload["results"]["total_h1"] == expected
        assert sum(e["h1_dim"] for e in payload["results"]["degrees"]) == expected

    def test_formula_itself(self):
        assert [surface_formula(hirzebruch(n)) for n in range(6)] == [0, 0, 1, 2, 3, 4]
        assert surface_formula(blown_up_plane(20)) == 28


class TestProductsAtScale:
    """Kuenneth: H^1 of a product lives where all blocks of m but one are
    zero, and there it is H^1 of that factor."""

    @pytest.mark.parametrize(
        "factors",
        [
            (scroll_fan(ScrollSpec((3, 1, 0))), hirzebruch(4)),
            (hirzebruch(2), hirzebruch(3), hirzebruch(4)),
        ],
        ids=["S(3,1,0)xF_4", "F_2xF_3xF_4"],
    )
    def test_unbounded_sweep(self, tmp_path, capsys, factors):
        fan = factors[0]
        for f in factors[1:]:
            fan = product(fan, f)
        payload = run_h1(tmp_path, capsys, fan)
        assert payload["exit"] == 0
        assert payload["results"]["total_h1"] == 6
        assert {c["name"]: c["ok"] for c in payload["checks"]} == {
            "cocycles_span": True,
            "support_complete": True,
        }
        assert payload["timing"]["counters"]["rank_fallbacks"] == 0
        assert payload["results"]["degrees"]
        for entry in payload["results"]["degrees"]:
            blocks, start = [], 0
            for f in factors:
                blocks.append(entry["degree"][start : start + f.dim])
                start += f.dim
            (k,) = [q for q, block in enumerate(blocks) if any(block)]
            degree = ",".join(str(x) for x in blocks[k])
            own = run_h1(tmp_path, capsys, factors[k], f"--degree={degree}")
            assert own["exit"] == 0
            assert entry["h1_dim"] == own["results"]["degrees"][0]["h1_dim"], entry["degree"]
