"""Riemann-Roch enumeration, monomial lifting, and the Hilbert basis of nu.

Oracles: Riemann-Roch point sets are re-enumerated by a raw box sweep
against the grading, and by the kernel-lattice route through a Smith-form
solve (riemann_roch_oracle); the closed-form count
sum_{j<=b} (a - nj + 1) pins the Hirzebruch trapezoid; the liftability
lift_polynomial reports for one monomial is cross-checked against a
vectorized brute-force search over all preimages with entries <= 15; the
two Hilbert-basis determinants are hand-expanded for the golden
deformation.
"""

from __future__ import annotations

import contextlib
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_deform import intlin
from toric_deform.deform import build_deformation, eta_map
from toric_deform.fan import Fan, cox_data, hirzebruch, product, product_of_lines, projective_space
from toric_deform.hypersurf import (
    lift_polynomial,
    parse_polynomial,
    render_terms,
    riemann_roch_points,
)
from toric_deform.scrolls import ScrollSpec, one_step, scroll_fan
from toric_deform.triples import enumerate_triples

from helpers import hirzebruch_package, lift_monomial, nu_deletion_determinants, obj


def brute_points(fan: Fan, w, box: int):
    q = obj(cox_data(fan).grading_rows)
    out = []
    for e in itertools.product(range(box + 1), repeat=fan.n_rays):
        cls = tuple(int(x) for x in q @ obj(e))
        if cls == tuple(w):
            out.append(e)
    return sorted(out)


class TestRiemannRoch:
    def test_trapezoid_count(self):
        pts = riemann_roch_points(hirzebruch(2), (5, 2))
        assert len(pts) == 12

    @pytest.mark.parametrize("n,a,b", [(2, 5, 2), (2, 4, 1), (3, 7, 2), (5, 11, 2)])
    def test_count_formula(self, n, a, b):
        pts = riemann_roch_points(hirzebruch(n), (a, b))
        assert len(pts) == sum(a - n * j + 1 for j in range(b + 1))

    @pytest.mark.parametrize("n,a,b", [(2, 5, 2), (3, 7, 2)])
    def test_matches_brute_force(self, n, a, b):
        fan = hirzebruch(n)
        assert riemann_roch_points(fan, (a, b)) == brute_points(fan, (a, b), a)

    @pytest.mark.parametrize("n,a,b", [(2, 5, 2), (3, 7, 2), (5, 11, 2)])
    def test_trapezoid_vertices(self, n, a, b):
        pts = riemann_roch_points(hirzebruch(n), (a, b))
        vertices = [
            (a, b, 0, 0),
            (0, b, a, 0),
            (0, 0, a - b * n, b),
            (a - b * n, 0, 0, b),
        ]
        for v in vertices:
            assert v in pts
        # each vertex is the unique maximizer of a linear functional,
        # hence a vertex of the convex hull of the point set
        functionals = [
            (1, 0, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 1, a + 1),
            (1, 0, 0, a + 1),
        ]
        for v, f in zip(vertices, functionals):
            values = [sum(x * y for x, y in zip(f, p)) for p in pts]
            best = max(values)
            assert values.count(best) == 1
            assert pts[values.index(best)] == v

    def test_zero_class_is_the_origin(self):
        assert riemann_roch_points(hirzebruch(2), (0, 0)) == [(0, 0, 0, 0)]

    def test_infinite_fiber_detected(self):
        # the fiber of (1,) over the half plane is infinite; the fan is
        # not complete, and the gate says so
        half_plane = Fan(
            dim=2,
            rays=((1, 0), (-1, 0), (0, 1)),
            max_cones=((0, 2), (1, 2)),
        )
        with pytest.raises(
            ValueError,
            match=r"^Riemann-Roch enumeration needs a smooth complete fan; this fan is not complete$",
        ):
            riemann_roch_points(half_plane, (1,))

    def test_one_unimodular_solve_per_call(self):
        # the chart of sigma_0 needs no kernel lattice (HNF), no particular
        # solution (Smith form) and no recession system: one unimodular
        # solve, then the lattice points of one bounded system
        spied = ("rational_polyhedron_nonempty", "hermite_normal_form", "smith_normal_form", "unimodular_solve")
        for fan, w in ((hirzebruch(2), (3, 1)), (scroll_fan(ScrollSpec((2, 1, 0))), (1, 1))):
            cox_data(fan)  # the fan's cached Cox data, whose HNF is not this call's
            with contextlib.ExitStack() as stack:
                spies = {
                    name: stack.enter_context(mock.patch.object(intlin, name, wraps=getattr(intlin, name)))
                    for name in spied
                }
                assert riemann_roch_points(fan, w)
            assert {name: spy.call_count for name, spy in spies.items()} == {
                "rational_polyhedron_nonempty": 0,
                "hermite_normal_form": 0,
                "smith_normal_form": 0,
                "unimodular_solve": 1,
            }

    def test_wrong_class_length(self):
        with pytest.raises(ValueError, match="length"):
            riemann_roch_points(hirzebruch(2), (1, 2, 3))

    def test_points_are_homogeneous(self):
        fan = hirzebruch(3)
        q = obj(cox_data(fan).grading_rows)
        for p in riemann_roch_points(fan, (7, 2)):
            assert tuple(int(x) for x in q @ obj(p)) == (7, 2)
            assert all(x >= 0 for x in p)


def riemann_roch_oracle(fan: Fan, w) -> list[tuple[int, ...]]:
    """riemann_roch_points by the kernel-lattice route, with no chart.

    e = x0 + B c, with B a basis of the kernel lattice of the grading Q
    (two HNFs) and x0 one integer solution of Q e = w (one Smith form).
    The fiber is finite when the recession cone {B c >= 0} is 0, which
    one Fourier-Motzkin system decides, and its points are those of
    {B c >= -x0}.
    """
    q = cox_data(fan).grading_rows
    bt = intlin.transpose(intlin.kernel_basis(q))
    total = [sum(col) for col in zip(*bt)]
    if intlin.rational_polyhedron_nonempty(bt + [total], [0] * fan.n_rays + [1]):
        raise ValueError(f"class {tuple(w)} has an infinite fiber")
    x0 = intlin.solve_int(q, list(w))
    if x0 is None:
        return []
    points = intlin.polyhedron_lattice_points(bt, [-x for x in x0])
    return sorted(tuple(x + y for x, y in zip(x0, intlin.mat_vec(bt, c))) for c in points)


RR_FANS = {
    **{f"F_{n}": hirzebruch(n) for n in range(6)},
    **{f"P^{n}": projective_space(n) for n in (1, 2, 3)},
    "P1xP1xP1": product_of_lines(3),
    **{
        f"S({','.join(map(str, a))})": scroll_fan(ScrollSpec(a))
        for a in ((2, 1, 0), (3, 1, 0), (2, 0, 0, 0), (5, 3, 1, 0, 0), (9, 0, 0))
    },
    "F_2xF_3": product(hirzebruch(2), hirzebruch(3)),
}


class TestRiemannRochOracle:
    """The chart of sigma_0 against the kernel-lattice route."""

    @pytest.mark.parametrize("key", list(RR_FANS))
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_kernel_lattice_oracle(self, key, data):
        fan = RR_FANS[key]
        q = cox_data(fan).grading_rows
        if data.draw(st.booleans()):
            # an effective class: that of a small exponent vector
            e = data.draw(st.lists(st.integers(0, 2), min_size=fan.n_rays, max_size=fan.n_rays))
            w = intlin.mat_vec(q, e)
        else:
            w = data.draw(st.lists(st.integers(-3, 4), min_size=len(q), max_size=len(q)))
        assert riemann_roch_points(fan, w) == riemann_roch_oracle(fan, w)


GOLDEN_PARAMS = [(2, 1), (3, 1), (3, 2), (5, 2)]


class TestIsLiftable:
    """lift_polynomial on one monomial x^e of class w = Q @ e."""

    def test_zero_lifts_to_zero(self):
        fan, d = hirzebruch_package(2, 1)
        assert lift_monomial(fan, d, (0, 0, 0, 0)) == (0, 0, 0, 0, 0)

    def test_product_of_first_two_variables(self):
        fan, d = hirzebruch_package(2, 1)
        assert lift_monomial(fan, d, (1, 1, 0, 0)) == (0, 0, 0, 1, 0)

    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_trapezoid_vertex_preimages(self, n, alpha):
        a, b = 3 * n, 2
        fan, d = hirzebruch_package(n, alpha)
        cases = {
            (a, b, 0, 0): (0, a - b * alpha, 0, b, 0),
            (0, b, a, 0): (0, 0, b, 0, a - b * n + b * alpha),
            (0, 0, a - b * n, b): (b, 0, 0, 0, a - b * n),
            (a - b * n, 0, 0, b): (b, a - n * b, 0, 0, 0),
        }
        for e, want in cases.items():
            got = lift_monomial(fan, d, e)
            assert got == want, (e, got, want)
            assert all(int(x) == y for x, y in zip(obj(d.nu) @ obj(got), e))

    def test_second_variable_alone_is_stuck(self):
        # its only preimage line leaves the nonnegative orthant
        fan, d = hirzebruch_package(2, 1)
        assert lift_monomial(fan, d, (0, 1, 0, 0)) is None

    def test_negative_exponent_rejected(self):
        fan, d = hirzebruch_package(2, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            lift_monomial(fan, d, (0, -1, 0, 0))

    @pytest.mark.parametrize("e", [(0, 0, 0), (0, 0, 0, 0, 0), ()], ids=["r-1", "r+1", "0"])
    def test_wrong_length_rejected(self, e):
        # F_2 has 4 rays; both lengths are named before any solve
        fan, d = hirzebruch_package(2, 1)
        with pytest.raises(ValueError, match=rf"has {len(e)} exponents, expected 4"):
            lift_monomial(fan, d, e)

    @pytest.mark.parametrize("n,alpha", [(2, 1), (3, 2)])
    def test_matches_brute_force(self, n, alpha):
        fan, d = hirzebruch_package(n, alpha)
        nu = np.array(d.nu, dtype=np.int64)
        width = nu.shape[1]
        grids = np.meshgrid(*([np.arange(16)] * width), indexing="ij")
        xs = np.stack([g.ravel() for g in grids])
        images = nu @ xs
        rng = np.random.default_rng(7)
        samples = [tuple(int(v) for v in rng.integers(0, 6, size=4)) for _ in range(25)]
        samples += [(0, 1, 0, 0), (0, 0, 0, 0), (1, 1, 0, 0)]
        for e in samples:
            target = np.array(e, dtype=np.int64)[:, None]
            found = bool((images == target).all(axis=0).any())
            got = lift_monomial(fan, d, e)
            assert (got is not None) == found, (e, got)
            if got is not None:
                assert all(int(x) == y for x, y in zip(obj(d.nu) @ obj(got), e))
                assert all(x >= 0 for x in got)

    def test_eta_exponent_compatibility(self):
        for n, alpha in GOLDEN_PARAMS:
            _, d = hirzebruch_package(n, alpha)
            table = eta_map(d)
            labels = d.column_labels[1:]
            rng = np.random.default_rng(n * 10 + alpha)
            for _ in range(10):
                x = [int(v) for v in rng.integers(0, 5, size=len(labels))]
                by_table = [0] * len(d.nu)
                for exp, label in zip(x, labels):
                    for s_label, s_exp in table[label].items():
                        by_table[int(s_label[1:]) - 1] += exp * s_exp
                direct = [int(v) for v in obj(d.nu) @ obj(x)]
                assert by_table == direct


class TestLiftPolynomial:
    def test_cox_data_once_per_fan(self):
        # three lifts and a Riemann-Roch space on one Fan object share one
        # Cox presentation, so its one free_cokernel
        fan, d = hirzebruch_package(3, 1)
        with mock.patch.object(intlin, "free_cokernel", wraps=intlin.free_cokernel) as spy:
            pts = riemann_roch_points(fan, (9, 2))
            for monomials in ((), ((1, pts[0]),), tuple((1, p) for p in pts)):
                lift_polynomial(fan, d, (9, 2), monomials)
        assert spy.call_count == 1

    def test_single_monomial(self):
        fan, d = hirzebruch_package(2, 1)
        res = lift_polynomial(fan, d, (1, 1), ((1, (1, 1, 0, 0)),))
        assert res.all_liftable
        assert res.lifted == ((1, (0, 0, 0, 1, 0)),)
        assert render_terms(res.lifted, d.column_labels[1:]) == "T(3,2)"

    def test_empty_polynomial(self):
        fan, d = hirzebruch_package(2, 1)
        res = lift_polynomial(fan, d, (1, 1), ())
        assert res.all_liftable
        assert res.lifted == ()

    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_whole_riemann_roch_space_lifts(self, n, alpha):
        a, b = 3 * n, 2
        fan, d = hirzebruch_package(n, alpha)
        pts = riemann_roch_points(fan, (a, b))
        monomials = tuple((k + 1, p) for k, p in enumerate(pts))
        res = lift_polynomial(fan, d, (a, b), monomials)
        assert res.all_liftable
        assert [c for c, _ in res.lifted] == [k + 1 for k in range(len(pts))]
        for m in res.monomials:
            img = obj(d.nu) @ obj(m.preimage)
            assert tuple(int(x) for x in img) == m.exponent

    def test_nu_is_factored_once_per_call(self):
        # one elimination on nu without its (3, rho) column per call,
        # however many monomials; no Smith form of nu or of anything else
        fan, d = hirzebruch_package(3, 1)
        pts = riemann_roch_points(fan, (9, 2))
        assert len(pts) > 1
        skip = d.pairs.index((3, d.triple.rho))
        square = np.delete(obj(d.nu), skip, axis=1)
        for monomials in (((1, pts[0]),), tuple((1, p) for p in pts)):
            with mock.patch.object(
                intlin, "smith_normal_form", wraps=intlin.smith_normal_form
            ) as snf, mock.patch.object(
                intlin, "unimodular_solve", wraps=intlin.unimodular_solve
            ) as elim:
                lift_polynomial(fan, d, (9, 2), monomials)
            assert snf.call_count == 0
            assert elim.call_count == 1
            assert np.array_equal(obj(elim.call_args.args[0]), square)
            assert obj(elim.call_args.args[1]).shape == (fan.n_rays, len(monomials))

    def test_first_offending_monomial_wins(self):
        # monomial 1 has the wrong class and monomial 3 the wrong length:
        # input order decides, so monomial 1's class error is reported
        fan, d = hirzebruch_package(2, 1)
        monomials = ((1, (1, 0, 0, 0)), (1, (0, 1, 0, 0)), (1, (1, 0, 0, 0)), (1, (1, 0, 0)))
        with pytest.raises(ValueError, match=r"^monomial 1 has class \(0, 1\), expected \(1, 0\)$"):
            lift_polynomial(fan, d, (1, 0), monomials)
        # with monomial 1 mended the length error of monomial 3 comes next,
        # ahead of the negative entries of monomial 4
        mended = monomials[:1] + ((1, (1, 0, 0, 0)),) + monomials[2:] + ((1, (2, 0, -1, 0)),)
        with pytest.raises(ValueError, match=r"^monomial 3 has 3 exponents, expected 4$"):
            lift_polynomial(fan, d, (1, 0), mended)
        # a negative entry ahead of a wrong class is reported first
        signs = ((1, (2, 0, -1, 0)), (1, (0, 1, 0, 0)))
        with pytest.raises(ValueError, match=r"^exponent vectors must be nonnegative$"):
            lift_polynomial(fan, d, (1, 0), signs)

    def test_class_length_checked(self):
        fan, d = hirzebruch_package(2, 1)
        for monomials in ((), ((1, (1, 0, 0, 0)),)):
            with pytest.raises(ValueError, match=r"^class has length 4, class group rank is 2$"):
                lift_polynomial(fan, d, (1, 0, 0, 7), monomials)

    def test_unliftable_monomial_reported(self):
        fan, d = hirzebruch_package(2, 1)
        res = lift_polynomial(fan, d, (0, 1), ((3, (0, 1, 0, 0)),))
        assert not res.all_liftable
        assert res.lifted is None
        assert res.first_failure == 0
        assert res.monomials[0].preimage is None

    def test_mixed_classes_rejected(self):
        fan, d = hirzebruch_package(2, 1)
        monomials = ((1, (1, 0, 0, 0)), (1, (0, 1, 0, 0)))
        with pytest.raises(ValueError, match="has class"):
            lift_polynomial(fan, d, (1, 0), monomials)

    def test_wrong_exponent_length_rejected(self):
        fan, d = hirzebruch_package(2, 1)
        with pytest.raises(ValueError, match="exponents"):
            lift_polynomial(fan, d, (1, 0), ((1, (1, 0, 0)),))


class TestHilbertBasis:
    def test_golden_determinants(self):
        _, d = hirzebruch_package(2, 1)
        pairs = d.pairs
        sub2 = np.delete(obj(d.nu), pairs.index((2, 1)), axis=1)
        assert sub2.tolist() == [
            [0, 1, 1, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
        ]
        assert intlin.determinant(sub2) == -1
        sub3 = np.delete(obj(d.nu), pairs.index((3, 1)), axis=1)
        assert sub3.tolist() == [
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 1, 1],
            [1, 0, 0, 0],
        ]
        assert intlin.determinant(sub3) == -1
        assert nu_deletion_determinants(d) == [-1, -1]

    def test_holds_for_every_package(self):
        fans = [hirzebruch(2), hirzebruch(3), hirzebruch(4), scroll_fan(ScrollSpec((2, 1, 0)))]
        seen = 0
        for fan in fans:
            for t in enumerate_triples(fan):
                dets = nu_deletion_determinants(build_deformation(fan, t))
                assert [abs(x) for x in dets] == [1, 1], (t, dets)
                seen += 1
        s = ScrollSpec((4, 1, 0))
        mv = one_step(s, 1, 2, 2)
        dets = nu_deletion_determinants(build_deformation(scroll_fan(s), mv.triple))
        assert [abs(x) for x in dets] == [1, 1]
        assert seen >= 8


class TestPolynomialSyntax:
    def test_parse_example(self):
        got = parse_polynomial("2*S1^3*S4 + S2*S3", 4)
        assert got == ((2, (3, 0, 0, 1)), (1, (0, 1, 1, 0)))

    def test_signs_and_constants(self):
        got = parse_polynomial("-S1 + 3 - 2*S2^2", 2)
        assert got == ((-1, (1, 0)), (3, (0, 0)), (-2, (0, 2)))

    def test_repeated_variables_accumulate(self):
        assert parse_polynomial("S1*S1^2", 2) == ((1, (3, 0)),)

    def test_empty_input(self):
        assert parse_polynomial("   ", 3) == ()

    def test_unknown_variable_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_polynomial("S5", 4)
        with pytest.raises(ValueError, match="cannot parse factor"):
            parse_polynomial("Q1", 4)

    def test_zero_terms_dropped(self):
        assert parse_polynomial("0", 3) == ()
        assert parse_polynomial("S1 + 0*S2 - 0", 2) == ((1, (1, 0)),)
        with pytest.raises(ValueError, match="out of range"):
            parse_polynomial("0*S3", 2)

    def test_unicode_digits(self):
        # str.isdecimal reads other scripts' decimal digits, and int() them
        # too; a superscript is no decimal, so its factor is named
        assert parse_polynomial("٢*S1 + S١", 2) == ((2, (1, 0)), (1, (1, 0)))
        with pytest.raises(ValueError, match="cannot parse factor '²'"):
            parse_polynomial("²*S1", 2)
        with pytest.raises(ValueError, match="cannot parse factor"):
            parse_polynomial("S1^²", 2)

    @given(st.lists(st.sampled_from(
        ["S", "1", "2", "3", "0", "^", "*", "+", "-", "Q", "x", "9", "SS", "²", "١", "٢", " "]
    ), max_size=12).map("".join))
    @settings(max_examples=2000, deadline=None)
    def test_returns_or_raises_value_error(self, text):
        try:
            terms = parse_polynomial(text, 3)
        except ValueError:
            return
        assert all(c and len(e) == 3 and min(e) >= 0 for c, e in terms)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_polynomial("2**S1", 4)
        with pytest.raises(ValueError, match="cannot parse"):
            parse_polynomial("S1 + + S2", 4)

    def test_render_round_trip(self):
        labels = ("S1", "S2", "S3", "S4")
        terms = ((2, (3, 0, 0, 1)), (1, (0, 1, 1, 0)), (-1, (0, 0, 0, 0)))
        text = render_terms(terms, labels)
        assert text == "2*S1^3*S4 + S2*S3 - 1"
        assert parse_polynomial(text, 4) == terms

    def test_render_empty(self):
        assert render_terms((), ("S1",)) == "0"

    @given(st.integers(1, 6).flatmap(lambda r: st.tuples(st.just(r), st.lists(st.tuples(
        st.integers(-10**6, 10**6).filter(bool),
        st.tuples(*[st.integers(0, 12)] * r),
    ), min_size=0, max_size=6))))
    @settings(max_examples=300, deadline=None)
    def test_parse_inverts_render(self, case):
        r, terms = case
        terms = tuple(terms)
        labels = [f"S{i + 1}" for i in range(r)]
        assert parse_polynomial(render_terms(terms, labels), r) == terms
