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
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_deform import cli, cohomology
from toric_deform.cohomology import (
    Cocycle,
    GradedCechComplex,
    h1_dimension,
    local_sections,
    span_check,
    triple_cocycle,
)
from toric_deform.fan import Fan, hirzebruch, product, product_of_lines, projective_space
from toric_deform.kernels import PRIME, _rank_exact, matrix_rank, rank_mod_p
from toric_deform.scrolls import ScrollSpec, scroll_fan
from toric_deform.triples import (
    AdmissibleTriple,
    default_bound,
    degree_box,
    enumerate_triples,
    h1_closed_form,
    marker_graph,
    triples_at_degree,
)


def rank_oracle(rows) -> int:
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


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


class TestLocalSections:
    def test_zero_cone_is_full_for_any_degree(self):
        f = hirzebruch(2)
        for m in [(0, 0), (-3, 5), (2, -1), (-5, -5)]:
            assert local_sections(f, (), m).dim == 2

    def test_single_ray_chart(self):
        f = hirzebruch(2)
        # value >= 0 on the one ray -> full; -1 -> line; <= -2 -> zero
        assert local_sections(f, (0,), (1, 7)).dim == 2
        assert local_sections(f, (0,), (-1, 7)).basis == ((1, 0),)

    def test_f2_line_case(self):
        # cone {2,3} at degree (-1,-1): values -1 on ray 2, +1 on ray 3
        ls = local_sections(hirzebruch(2), (2, 3), (-1, -1))
        assert ls.basis == ((-1, 2),)

    def test_f2_zero_case(self):
        # cone {0,1}: two rays with value -1
        assert local_sections(hirzebruch(2), (0, 1), (-1, -1)).dim == 0

    def test_deep_negative_kills_sections(self):
        # single ray with value -2
        assert local_sections(hirzebruch(2), (0,), (-2, 0)).dim == 0


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

    def test_f2_support(self):
        # C = {ray 0}: cones {01} and {03} touch C, {12} and {23} do not
        xi = triple_cocycle(hirzebruch(2), self.triple())
        touching = {0, 3}
        for i, j in itertools.combinations(range(4), 2):
            expect_nonzero = (i in touching) != (j in touching)
            assert (any(x != 0 for x in xi.entry(i, j))) == expect_nonzero

    def test_entries_are_rho_multiples(self):
        xi = triple_cocycle(hirzebruch(2), self.triple())
        assert xi.entry(0, 1) == (0, 1)  # alpha = +1 times v_rho = (0,1)
        assert xi.entry(1, 0) == (0, -1)

    def test_both_touching_gives_zero(self):
        xi = triple_cocycle(hirzebruch(2), self.triple())
        assert xi.entry(0, 3) == (0, 0)

    def test_antisymmetry(self):
        xi = triple_cocycle(hirzebruch(3), AdmissibleTriple((-2, -1), 1, (0,)))
        for i, j in itertools.combinations(range(4), 2):
            assert xi.entry(j, i) == tuple(-x for x in xi.entry(i, j))

    def test_rejects_non_admissible(self):
        # C = {3} but ray 3 has positive value: entries land outside the
        # local section spaces
        bad = AdmissibleTriple(m=(-1, -1), rho=1, component=(3,))
        with pytest.raises(ValueError):
            triple_cocycle(hirzebruch(2), bad)

    def test_isinstance(self):
        assert isinstance(triple_cocycle(hirzebruch(2), self.triple()), Cocycle)


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
    """Triples of the default box grouped by degree, plus empty degrees."""
    by_degree = {m: [] for m in (degree_box(fan, box_bound) if box_bound else [])}
    for t in enumerate_triples(fan, default_bound(fan)):
        by_degree.setdefault(t.m, []).append(t)
    return by_degree


def exact_span_reference(fan, m, triples) -> dict:
    """span_check's answer from exact ranks only: h1_dimension and the
    exact rank of im d0 plus the cocycles."""
    complex_ = GradedCechComplex(fan, m)
    h1 = h1_dimension(fan, m)
    rows = [list(col) for col in zip(*complex_.d0)]
    rows += [cohomology._cocycle_coords(complex_, t) for t in triples]
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
        monkeypatch.setattr(cohomology, "rank_mod_p", lambda mat: rank_mod_p(mat) - 1)
        for case, rep in zip(cases, certified):
            assert rep["certified"]
            assert span_check(*case) == {**rep, "certified": False}, case[1]

    @given(small_int_matrices)
    @settings(max_examples=200, deadline=None)
    def test_rank_mod_p_matches_exact(self, rows):
        # every minor of a 6 x 6 matrix with entries in [-9, 9] is below
        # (9 * 6^(1/2))^6 < p in absolute value, so no minor vanishes mod p
        # unless it vanishes
        assert rank_mod_p(rows) == _rank_exact(rows)
        assert rank_mod_p([list(col) for col in zip(*rows)]) == _rank_exact(rows)

    def test_rank_mod_p_reduces_big_entries_exactly(self):
        assert rank_mod_p([[10**30, 1], [10**30, 1], [0, 7]]) == 2
        assert rank_mod_p([[-(2**70), 3 * PRIME + 1]]) == 1

    def test_rank_mod_p_can_fall_short(self):
        # det = p: invertible over Q, singular mod p; this is the case the
        # exact fallback of span_check is there for
        mat = [[1, 1], [1, 1 + PRIME]]
        assert _rank_exact(mat) == 2
        assert rank_mod_p(mat) == 1
        assert rank_mod_p([[PRIME, 0], [0, 1]]) == 1

    def test_exact_rank_never_sees_d1_on_f2xf3(self, tmp_path, monkeypatch, capsys):
        complexes = []
        ranked = []

        class Recorded(GradedCechComplex):
            def __init__(self, fan, m):
                super().__init__(fan, m)
                complexes.append(self)

        def spy(mat):
            ranked.append(mat)
            return matrix_rank(mat)

        monkeypatch.setattr(cohomology, "GradedCechComplex", Recorded)
        monkeypatch.setattr(cohomology, "matrix_rank", spy)
        path = tmp_path / "f2xf3.json"
        path.write_text(json.dumps(cli.fan_to_json(CERTIFICATE_FANS["F_2xF_3"][0])))
        assert cli.main(["h1", "--fan", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["total_h1"] == 3
        assert payload["checks"][0] == {"name": "cocycles_span", "ok": True, "witness": None}
        assert payload["timing"]["counters"]["rank_fallbacks"] == 0
        assert len(complexes) == 3 and ranked
        assert not any(mat is c.d1 for mat in ranked for c in complexes)


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
        box = degree_box(fan, default_bound(fan) if bound is None else bound)
        mismatches = []
        for m in box:
            closed = h1_closed_form(triples_at_degree(fan, m))
            cech = h1_dimension(fan, m)
            if closed != cech:
                mismatches.append((m, closed, cech))
        assert mismatches == []
