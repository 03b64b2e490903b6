"""One-parameter deformation packages built from admissible triples.

Golden oracle: the Hirzebruch family. For the fan with rays
(1,0),(0,1),(-1,n),(0,-1) and the triple m=(-alpha,-1), rho=1, C={0}
(0 < alpha < n), the block data is known in closed form:

  a = (-alpha, -1, alpha-n, 1)
  columns: T1, T(1,4), T(2,1), T(2,2), T(3,2), T(3,3)
  Ptilde  = [[1,-alpha,-1,0,0],[1,0,0,-1,alpha-n],[0,1,0,0,-1]]
  nu      = [[0,1,0,alpha,0],[0,0,1,1,0],[0,0,n-alpha,0,1],[1,0,0,0,0]]
  trinomial  T1*T(1,4) - T(2,1)^alpha*T(2,2) + T(3,2)*T(3,3)^(n-alpha)

The central-fiber verification is proved to hold for every admissible
triple, so it doubles as a property check across whole enumerations.
"""

from __future__ import annotations

import itertools
from unittest import mock

import dataclasses

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_deform import intlin
from toric_deform.deform import (
    _binomial_character,
    _iota_matrix,
    _nonnegative,
    _pullback_leaves_orthant,
    _roundtrip_check,
    ambient_fan,
    build_deformation,
    build_splitting,
    build_u_index,
    eta_map,
    kernel_binomial,
    verify_central_fiber,
)
from toric_deform.fan import Fan, hirzebruch, product, product_of_lines, validate
from toric_deform.hypersurf import render_terms
from toric_deform.scrolls import ScrollSpec, scroll_fan
from toric_deform.triples import AdmissibleTriple, enumerate_triples

from helpers import hirzebruch_package, obj


def scroll_210_fan() -> Fan:
    """The projectivized bundle fan for twists (2,1,0), written out by hand."""
    return Fan(
        dim=3,
        rays=((1, 0, 0), (-1, 2, 1), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
        max_cones=((0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)),
    )


GOLDEN_PARAMS = [(2, 1), (3, 1), (3, 2), (5, 2)]


class TestGoldenHirzebruch:
    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_column_labels(self, n, alpha):
        _, d = hirzebruch_package(n, alpha)
        assert d.column_labels == (
            "T1",
            "T(1,4)",
            "T(2,1)",
            "T(2,2)",
            "T(3,2)",
            "T(3,3)",
        )

    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_a_values(self, n, alpha):
        _, d = hirzebruch_package(n, alpha)
        assert d.a == (-alpha, -1, alpha - n, 1)

    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_ptilde_matrix(self, n, alpha):
        _, d = hirzebruch_package(n, alpha)
        expected = [
            [1, -alpha, -1, 0, 0],
            [1, 0, 0, -1, alpha - n],
            [0, 1, 0, 0, -1],
        ]
        assert [list(r) for r in d.Ptilde] == expected

    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_full_p_matrix(self, n, alpha):
        _, d = hirzebruch_package(n, alpha)
        expected = [
            [1, 1, -alpha, -1, 0, 0],
            [1, 1, 0, 0, -1, alpha - n],
            [0, 0, 1, 0, 0, -1],
            [1, 0, 0, 0, 0, 0],
        ]
        assert [list(r) for r in d.P] == expected

    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_nu_matrix(self, n, alpha):
        _, d = hirzebruch_package(n, alpha)
        expected = [
            [0, 1, 0, alpha, 0],
            [0, 0, 1, 1, 0],
            [0, 0, n - alpha, 0, 1],
            [1, 0, 0, 0, 0],
        ]
        assert [list(r) for r in d.nu] == expected
        assert [list(r) for r in d.psi] == np.array(expected).T.tolist()

    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_trinomial_exponents(self, n, alpha):
        _, d = hirzebruch_package(n, alpha)
        (c1, t1), (c2, t2), (c3, t3) = d.terms
        assert (c1, c2, c3) == (1, -1, 1)
        assert t1 == (1, 1, 0, 0, 0, 0)
        assert t2 == (0, 0, alpha, 1, 0, 0)
        assert t3 == (0, 0, 0, 0, 1, n - alpha)

    def test_trinomial_rendering(self):
        _, d = hirzebruch_package(2, 1)
        assert render_terms(d.terms, d.column_labels) == (
            "T1*T(1,4) - T(2,1)*T(2,2) + T(3,2)*T(3,3)"
        )
        _, d = hirzebruch_package(5, 2)
        assert render_terms(d.terms, d.column_labels) == (
            "T1*T(1,4) - T(2,1)^2*T(2,2) + T(3,2)*T(3,3)^3"
        )

    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_kernel_binomial(self, n, alpha):
        _, d = hirzebruch_package(n, alpha)
        assert kernel_binomial(d) == [0, alpha, 1, -1, -(n - alpha)]

    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_iota_of_second_ray(self, n, alpha):
        fan, d = hirzebruch_package(n, alpha)
        iota = _iota_matrix(fan, d)
        assert (obj(iota) @ obj([0, 1])).tolist() == [-1, -1, 0, 0]

    def test_diagram_on_fourth_ray(self):
        # both paths around the square, evaluated on the last basis vector
        _, d = hirzebruch_package(2, 1)
        image = obj(d.Ptilde) @ (-obj(d.psi)[:, 3])
        assert image.tolist() == [-1, -1, 0]

    def test_ambient_cone_indices(self):
        _, d = hirzebruch_package(2, 1)
        # cone {2,3} misses C={0}, so the rho column used is the block-2 one
        by_cone = dict(zip(hirzebruch(2).max_cones, d.ambient_cones))
        assert by_cone[(2, 3)] == (
            0,
            d.column_of((1, 3)),
            d.column_of((2, 1)),
            d.column_of((3, 2)),
        )
        # cone {0,1} meets C, so rho contributes through its block-3 column,
        # which ray 1 already provides
        assert by_cone[(0, 1)] == tuple(
            sorted(
                (
                    0,
                    d.column_of((2, 0)),
                    d.column_of((2, 1)),
                    d.column_of((3, 1)),
                )
            )
        )
        for st in d.ambient_cones:
            assert 0 in st
            assert len(st) == 4


class TestUIndexAndSplitting:
    def test_u_partition(self):
        # U1, U2, U3 and U4 (empty), block by block
        pairs = build_u_index((-1, -1, -1, 1), rho=1, component=(0,))
        assert pairs == ((1, 3), (2, 0), (2, 1), (3, 1), (3, 2))

    def test_zero_values_land_in_u4(self):
        pairs = build_u_index((0, -1, 2, 0), rho=1, component=(3,))
        assert pairs == ((1, 2), (2, 1), (3, 1), (4, 0), (4, 3))

    def test_rho_appears_in_both_negative_blocks(self):
        for fan in [hirzebruch(2), hirzebruch(4), scroll_210_fan()]:
            for t in enumerate_triples(fan):
                d = build_deformation(fan, t)
                assert (2, t.rho) in d.pairs
                assert (3, t.rho) in d.pairs

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_splitting_identities(self, n):
        fan = hirzebruch(n)
        m = (-1, -1)
        k_basis, proj = build_splitting(fan, m, rho=1)
        v_rho = obj(fan.rays[1])
        # the section hits the marked ray and projects to zero
        assert obj(m) @ v_rho == -1
        assert all(x == 0 for x in obj(proj) @ v_rho)
        basis = obj(k_basis)
        for ray in fan.rays:
            v = obj(ray)
            value = int(obj(m) @ v)
            recovered = basis.T @ (obj(proj) @ v)
            shifted = v + value * v_rho
            assert recovered.tolist() == shifted.tolist()


def splitting_reference(fan, m, rho):
    """build_splitting the Smith way: kernel of m from V, proj by solve_int."""
    n = fan.dim
    snf = intlin.smith_normal_form([list(m)])
    kb, _ = intlin.hermite_normal_form(obj(snf.v)[:, 1:].T)
    kbt = obj(kb).T
    v_rho = fan.rays[rho]
    cols = [intlin.solve_int(kbt, [int(i == j) + m[j] * v_rho[i] for i in range(n)]) for j in range(n)]
    return kb, obj(cols).T.tolist()


def wide_packages():
    """Every triple of seven fans: those of all_packages, and more."""
    fans = [hirzebruch(2), hirzebruch(3), hirzebruch(4), hirzebruch(5), scroll_210_fan(),
            scroll_fan(ScrollSpec((2, 0, 0, 0))), product(hirzebruch(2), hirzebruch(3))]
    return [(fan, t) for fan in fans for t in enumerate_triples(fan)]


class TestSmithOracles:
    """The Smith-free package against the Smith route it replaced."""

    def test_splitting(self):
        for fan, t in wide_packages():
            k_basis, proj = build_splitting(fan, t.m, t.rho)
            kb, want = splitting_reference(fan, t.m, t.rho)
            assert [list(v) for v in k_basis] == kb, t
            assert [list(r) for r in proj] == want, t
            assert all(type(x) is int for r in proj for x in r)

    def test_broken_first_cone_solves_for_u_the_smith_way(self):
        fan, bad = f3_with_non_unimodular_cone()
        good = build_deformation(fan, bad.triple)
        with mock.patch.object(intlin, "solve_int", wraps=intlin.solve_int) as spy:
            report = verify_central_fiber(fan, bad)
        # one solve on P^T for u; the others are the per-ray membership
        # solves on the non-unimodular P[:, sigma-tilde_0]
        matrices = [c.args[0] for c in spy.call_args_list]
        assert matrices.count(intlin.transpose(bad.P)) == 1
        b0 = [[row[c] for c in bad.ambient_cones[0]] for row in bad.P]
        assert matrices.count(b0) == len(matrices) - 1 >= 1
        want = verify_central_fiber(fan, good)["checks"]["lattice_identification"]
        assert report["checks"]["lattice_identification"] == want == {"ok": True, "witness": None}

    def test_binomial_character_is_the_smith_solution(self):
        for fan, t in wide_packages():
            d = build_deformation(fan, t)
            with mock.patch.object(intlin, "solve_int", wraps=intlin.solve_int) as spy:
                u = _binomial_character(d)
            assert spy.call_count == 0
            want = intlin.solve_int(obj(d.P).T, [0, *kernel_binomial(d)])
            assert u == want, t


class TestBuildValidation:
    def test_rejects_component_union(self):
        fan = hirzebruch(2)
        t = AdmissibleTriple(m=(-1, -1), rho=1, component=(0, 2))
        with pytest.raises(ValueError, match="not a proper connected component"):
            build_deformation(fan, t)

    def test_rejects_vertex_not_in_graph(self):
        fan = hirzebruch(2)
        t = AdmissibleTriple(m=(-1, -1), rho=1, component=(3,))
        with pytest.raises(ValueError, match="not a proper connected component"):
            build_deformation(fan, t)

    def test_rejects_wrong_rho(self):
        fan = hirzebruch(2)
        t = AdmissibleTriple(m=(-1, -1), rho=3, component=(0,))
        with pytest.raises(ValueError, match="expected -1"):
            build_deformation(fan, t)

    def test_rejects_incomplete_fan(self):
        # F_2 without its ray -e2: (-1,-1), ray 1, {0} is still a proper
        # component of the marker graph, but the fan is not complete
        fan = Fan(dim=2, rays=((1, 0), (0, 1), (-1, 2)), max_cones=((0, 1), (1, 2)))
        t = AdmissibleTriple(m=(-1, -1), rho=1, component=(0,))
        with pytest.raises(ValueError, match="^deformation needs a smooth complete fan; this fan is not complete$"):
            build_deformation(fan, t)

    def test_rejects_non_smooth_fan(self):
        # P(1,1,2): the cones on ray 2 have index 2
        fan = Fan(dim=2, rays=((1, 0), (0, 1), (-1, -2)), max_cones=((0, 1), (1, 2), (0, 2)))
        t = AdmissibleTriple(m=(0, 0), rho=0, component=(1,))
        with pytest.raises(ValueError, match="^deformation needs a smooth complete fan; this fan is not smooth$"):
            build_deformation(fan, t)


def all_packages():
    fans = [hirzebruch(2), hirzebruch(3), hirzebruch(4), scroll_210_fan()]
    out = []
    for fan in fans:
        for t in enumerate_triples(fan):
            out.append((fan, build_deformation(fan, t)))
    return out


class TestStructuralInvariants:
    def test_enumerations_are_nonempty(self):
        assert len(all_packages()) >= 8

    def test_matrix_shapes(self):
        for fan, d in all_packages():
            n, r = fan.dim, fan.n_rays
            width = len(d.pairs)
            assert obj(d.P).shape == (n + 2, 1 + width)
            assert obj(d.Ptilde).shape == (n + 1, width)
            assert obj(d.psi).shape == (width, r)
            assert obj(d.nu).shape == (r, width)
            assert width == r + 1  # every ray once, rho twice

    def test_first_column_and_bottom_row(self):
        for fan, d in all_packages():
            n = fan.dim
            first = [0] * (n + 2)
            first[0] = first[1] = first[n + 1] = 1
            assert obj(d.P)[:, 0].tolist() == first
            bottom = [0] * len(d.P[0])
            bottom[0] = 1
            assert list(d.P[n + 1]) == bottom

    def test_binomial_spans_kernel_of_nu(self):
        for _, d in all_packages():
            b = kernel_binomial(d)
            assert all(x == 0 for x in obj(d.nu) @ obj(b))
            rows = intlin.kernel_basis(d.nu)
            assert len(rows) == 1
            got = list(rows[0])
            want = b
            assert got == want or got == [-x for x in want]

    def test_binomial_killed_by_ambient_grading(self):
        for _, d in all_packages():
            assert all(x == 0 for x in obj(d.Qtilde) @ obj(kernel_binomial(d)))

    def test_ambient_grading_is_free(self):
        # Q-tilde, from one HNF, against the Smith form's free block
        wide = wide_packages()
        assert {(f.rays, d.triple) for f, d in all_packages()} <= {(f.rays, t) for f, t in wide}
        for fan, t in wide:
            d = build_deformation(fan, t)
            grading, invariants = intlin.cokernel_map(obj(d.Ptilde).T)
            assert not invariants
            assert grading == [list(r) for r in d.Qtilde], t

    def test_base_variable_has_degree_zero(self):
        # the full exponent-to-class map must kill the first column
        for _, d in all_packages():
            grading, invariants = intlin.cokernel_map(obj(d.P).T)
            assert not invariants
            assert all(row[0] == 0 for row in grading)

    def test_induced_class_group_map_is_iso(self):
        from toric_deform.fan import cox_data

        for fan, d in all_packages():
            q_x = obj(cox_data(fan).grading_rows)
            # well defined: the composite kills relations of the ambient
            assert np.count_nonzero(q_x @ obj(d.nu) @ obj(d.Ptilde).T) == 0
            cl = len(d.Qtilde)
            eye = intlin.identity(cl)
            right = [intlin.solve_int(d.Qtilde, eye[k]) for k in range(cl)]
            assert all(col is not None for col in right)
            r_mat = obj(right).T
            nbar = q_x @ obj(d.nu) @ r_mat
            assert nbar.shape == (q_x.shape[0], cl)
            assert abs(intlin.determinant(nbar)) == 1


class TestEtaMap:
    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_golden_substitutions(self, n, alpha):
        table = eta_map(hirzebruch_package(n, alpha)[1])
        assert table["T1"] is None
        assert table["T(1,4)"] == {"S4": 1}
        assert table["T(2,1)"] == {"S1": 1}
        assert table["T(2,2)"] == {"S2": 1, "S3": n - alpha}
        assert table["T(3,2)"] == {"S1": alpha, "S2": 1}
        assert table["T(3,3)"] == {"S3": 1}

    def test_non_marked_variables_restrict_to_identity(self):
        for _, d in all_packages():
            table = eta_map(d)
            rho = d.triple.rho
            for k, i in d.pairs:
                if i == rho:
                    continue
                assert table[f"T({k},{i + 1})"] == {f"S{i + 1}": 1}

    def test_binomial_terms_have_equal_images(self):
        for _, d in all_packages():
            _, t2 = d.terms[1]
            _, t3 = d.terms[2]
            img2 = obj(d.nu) @ obj(list(t2)[1:])
            img3 = obj(d.nu) @ obj(list(t3)[1:])
            assert img2.tolist() == img3.tolist()


class TestCentralFiber:
    @pytest.mark.parametrize("n,alpha", GOLDEN_PARAMS)
    def test_golden_cases_verify(self, n, alpha):
        fan = hirzebruch(n)
        report = verify_central_fiber(*hirzebruch_package(n, alpha))
        assert report["passes"], report
        assert set(report["checks"]) == {
            "cone_membership",
            "lattice_identification",
            "diagram_commutes",
            "cox_cone_mapping",
            "fiber_fan_roundtrip",
        }

    def test_every_enumerated_triple_verifies(self):
        for fan, d in all_packages():
            report = verify_central_fiber(fan, d)
            assert report["passes"], (d.triple, report)

    @pytest.mark.parametrize("fan_builder,triple", [
        (lambda: hirzebruch(2), AdmissibleTriple(m=(-1, -1), rho=1, component=(0,))),
        (scroll_210_fan, None),
    ])
    def test_each_cone_matrix_is_factored_once(self, fan_builder, triple):
        fan = fan_builder()
        d = build_deformation(fan, triple or enumerate_triples(fan)[0])
        with mock.patch.object(
            intlin, "smith_normal_form", wraps=intlin.smith_normal_form
        ) as snf, mock.patch.object(
            intlin, "hermite_normal_form", wraps=intlin.hermite_normal_form
        ) as hnf, mock.patch.object(
            intlin, "unimodular_solve", wraps=intlin.unimodular_solve
        ) as elim:
            report = verify_central_fiber(fan, d)
        assert report["passes"]
        # one elimination per P[:, sigma-tilde], and one more on the
        # transpose of the first for lattice_identification's u; the
        # lattice itself is settled by one determinant, so no HNF and no
        # Smith form is taken at all, and a valid package decides the
        # round trip without Fourier-Motzkin
        cones = len(fan.max_cones)
        assert elim.call_count == cones + 1
        assert all(obj(c.args[0]).shape == (fan.dim + 2,) * 2 for c in elim.call_args_list)
        first = obj(d.P)[:, list(d.ambient_cones[0])]
        assert np.array_equal(obj(elim.call_args_list[-1].args[0]), first.T)
        assert (snf.call_count, hnf.call_count) == (0, 0)
        assert report["work"] == {"cone_factorisations": cones, "fm_systems": 0}

    def test_product_of_lines_has_no_triples(self):
        fan = product_of_lines(3)
        assert enumerate_triples(fan) == []


def nonzero_hnf_rows(rows) -> list[list[int]]:
    h, _ = intlin.hermite_normal_form(rows)
    return [r for r in h if any(r)]


def lattice_identification_oracle(fan, d) -> dict:
    """lattice_identification the HNF way: the kernel of [u; e_(n+1)] and
    the columns of iota have the same nonzero HNF rows."""
    n = fan.dim
    u = _binomial_character(d)
    if u is None:
        return {"ok": False, "witness": {"reason": "binomial character does not lift"}}
    e_last = [0] * (n + 2)
    e_last[n + 1] = 1
    n0 = intlin.kernel_basis([u, e_last])
    iota_t = intlin.transpose(_iota_matrix(fan, d))
    same = len(n0) == n and nonzero_hnf_rows(n0) == nonzero_hnf_rows(iota_t)
    return {"ok": same, "witness": None if same else {"u": u}}


def lattice_corruptions(d):
    """(kind, package) for each corruption of a valid package.

    A proj entry moved by +-1 or +-2, a proj row doubled, a P entry moved
    by +-1, and the sigma-tilde rotated. Two more corrupt the binomial
    difference b, which moves u: b = 0 gives u = 0, so L has rank n + 1,
    and b plus a proj row of P adds that row's unit vector to u, so
    iota(N) leaves L while det [m; proj] stays +-1.
    """
    proj = [list(r) for r in d.proj]

    def with_proj(rows):
        return dataclasses.replace(d, proj=tuple(map(tuple, rows)))

    for i, j in itertools.product(range(len(proj)), range(len(proj[0]))):
        for delta in (-2, -1, 1, 2):
            rows = [list(r) for r in proj]
            rows[i][j] += delta
            yield "proj_entry", with_proj(rows)
    for i in range(len(proj)):
        rows = [list(r) for r in proj]
        rows[i] = [2 * x for x in rows[i]]
        yield "proj_row_doubled", with_proj(rows)
    for i, j in itertools.product(range(len(d.P)), range(len(d.P[0]))):
        for delta in (-1, 1):
            p = [list(r) for r in d.P]
            p[i][j] += delta
            yield "P_entry", dataclasses.replace(d, P=tuple(map(tuple, p)))
    yield "rotated", dataclasses.replace(d, ambient_cones=d.ambient_cones[1:] + d.ambient_cones[:1])
    (c1, t1), (c2, t2), (c3, t3) = d.terms

    def with_term2(t):
        return dataclasses.replace(d, terms=((c1, t1), (c2, t), (c3, t3)))

    yield "binomial_zero", with_term2(t3)
    for row in d.P[2:-1]:
        yield "binomial_plus_proj_row", with_term2(tuple(x + y for x, y in zip(t2, row)))


class TestLatticeIdentification:
    """One determinant against the HNF comparison it replaced."""

    def test_valid_packages_take_no_normal_form(self):
        for fan, d in all_packages():
            with mock.patch.object(
                intlin, "smith_normal_form", wraps=intlin.smith_normal_form
            ) as snf, mock.patch.object(
                intlin, "hermite_normal_form", wraps=intlin.hermite_normal_form
            ) as hnf, mock.patch.object(
                intlin, "unimodular_solve", wraps=intlin.unimodular_solve
            ) as elim:
                report = verify_central_fiber(fan, d)
            assert report["passes"], d.triple
            assert (snf.call_count, hnf.call_count) == (0, 0), d.triple
            assert elim.call_count == len(fan.max_cones) + 1, d.triple

    def test_verdict_and_witness_match_the_hnf_oracle(self):
        failing: dict[str, int] = {}
        for fan, d in all_packages():
            check = verify_central_fiber(fan, d)["checks"]["lattice_identification"]
            assert check == lattice_identification_oracle(fan, d) == {"ok": True, "witness": None}
            for kind, bad in lattice_corruptions(d):
                check = verify_central_fiber(fan, bad)["checks"]["lattice_identification"]
                assert check == lattice_identification_oracle(fan, bad), (kind, d.triple)
                failing[kind] = failing.get(kind, 0) + (not check["ok"])
        # rotating the sigma-tilde leaves P, and so u, alone
        assert failing.pop("rotated") == 0
        assert all(failing.values()) and len(failing) == 5, failing


def escapes_by_fm(pull, dual_row) -> bool:
    """Whether {v : pull @ v >= 0, dual_row @ v <= -1} is nonempty (FM)."""
    rows = [[int(x) for x in r] for r in pull] + [[-int(x) for x in dual_row]]
    rhs = [0] * len(pull) + [1]
    return intlin.rational_polyhedron_nonempty(rows, rhs)


def fm_roundtrip_reference(fan, d):
    """fiber_fan_roundtrip's witness decided the long way, as a test oracle.

    sympy inverts each P[:, sigma-tilde] and each cone matrix; the pulled
    back inequalities B^-1 @ iota and the dual basis of sigma then go to
    Fourier-Motzkin in N-coordinates, one system per functional.
    """
    iota = sympy.Matrix(obj(_iota_matrix(fan, d)).tolist())
    for ci, (sigma, cols) in enumerate(zip(fan.max_cones, d.ambient_cones)):
        b = sympy.Matrix(obj(d.P)[:, list(cols)].tolist())
        if not b.is_square or abs(b.det()) != 1:
            return {"cone": ci, "reason": "non-unimodular"}
        pull = (b.inv() * iota).tolist()
        dual = sympy.Matrix(obj(fan.cone_matrix(sigma)).tolist()).inv()
        for i in range(fan.dim):
            if escapes_by_fm(pull, dual.row(i)):
                return {"cone": ci, "functional": i}
    return None


def unimodular(data, n):
    """A unimodular n x n integer matrix drawn by hypothesis."""
    el, er = sympy.eye(n), sympy.eye(n)
    for i in range(n):
        for j in range(i):
            el[i, j] = data.draw(st.integers(-2, 2))
            er[j, i] = data.draw(st.integers(-2, 2))
    return (el * er).permute_rows(data.draw(st.permutations(range(n))))


class TestRoundTripLemma:
    """The unit-row criterion and its fallback against Fourier-Motzkin.

    X_sigma decides, per functional i, whether {w : X w >= 0} leaves the
    orthant through w_i < 0. In the N-coordinates v = V w of the cone
    sigma this is the system {X D v >= 0, D_i v <= -1}, D = V^-1; a random
    unimodular D stands for the inverse of the cone matrix.
    """

    @staticmethod
    def draw_x(data, low):
        n = data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(1, n + 3))
        entries = st.integers(low, 3)
        return [[data.draw(entries) for _ in range(n)] for _ in range(rows)]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_unit_row_criterion_on_nonnegative_x(self, data):
        # _roundtrip_check decides a nonnegative X by the unit-row scan,
        # with no Fourier-Motzkin system; its witness is the first i by FM
        x = self.draw_x(data, 0)
        n = len(x[0])
        d = unimodular(data, n)
        pull = (sympy.Matrix(x) * d).tolist()
        escapes = []
        for i in range(n):
            got = escapes_by_fm(x, [int(k == i) for k in range(n)])
            assert got == escapes_by_fm(pull, d.row(i))
            escapes.append(got)
        work = {"fm_systems": 0}
        bad = next((i for i, e in enumerate(escapes) if e), None)
        witness = None if bad is None else {"cone": 0, "functional": bad}
        want = {"ok": bad is None, "witness": witness}
        assert _roundtrip_check([x], work, _nonnegative([x])) == want
        assert work["fm_systems"] == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_fallback_on_x_with_a_negative_entry(self, data):
        x = self.draw_x(data, -2)
        n = len(x[0])
        x[data.draw(st.integers(0, len(x) - 1))][data.draw(st.integers(0, n - 1))] = -1
        d = unimodular(data, n)
        pull = (sympy.Matrix(x) * d).tolist()
        for i in range(n):
            work = {"fm_systems": 0}
            assert _pullback_leaves_orthant(x, i, work) == escapes_by_fm(pull, d.row(i))
            assert work["fm_systems"] == 1


def roundtrip_reference(coords, work):
    """_roundtrip_check decided one (cone, functional) at a time by
    Fourier-Motzkin, counting in ``work`` the systems of the X with a
    negative entry, the only ones _roundtrip_check hands to FM."""
    for ci, x in enumerate(coords):
        if x is None:
            return {"ok": False, "witness": {"cone": ci, "reason": "non-unimodular"}}
        n = len(x[0])
        for i in range(n):
            work["fm_systems"] += min(map(min, x)) < 0
            if escapes_by_fm(x, [int(k == i) for k in range(n)]):
                return {"ok": False, "witness": {"cone": ci, "functional": i}}
    return {"ok": True, "witness": None}


class TestRoundtripCheck:
    """The per-cone unit-row scan against the per-functional reference."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_functional_reference(self, data):
        n = data.draw(st.integers(1, 3))
        coords = []
        for _ in range(data.draw(st.integers(1, 4))):
            kind = data.draw(st.sampled_from(["nonnegative", "negative", "none"]))
            if kind == "none":
                coords.append(None)
                continue
            entries = st.sampled_from([0, 0, 0, 1, 2])
            x = [[data.draw(entries) for _ in range(n)] for _ in range(n + 2)]
            if kind == "negative":
                x[data.draw(st.integers(0, n + 1))][data.draw(st.integers(0, n - 1))] = -1
            coords.append(x)
        work, ref_work = {"fm_systems": 0}, {"fm_systems": 0}
        want = roundtrip_reference(coords, ref_work)
        assert _roundtrip_check(coords, work, _nonnegative(coords)) == want
        assert work == ref_work


def f3_with_non_unimodular_cone():
    """F_3's first package with column 3 of its first sigma-tilde replaced by column 5.

    The swapped column matrix has determinant 2, so that cone is no
    longer unimodular; columns 3 and 5 stay in other cones.
    """
    fan = hirzebruch(3)
    d = build_deformation(fan, enumerate_triples(fan)[0])
    first = tuple(sorted(set(d.ambient_cones[0]) - {3} | {5}))
    assert abs(intlin.determinant(obj(d.P)[:, list(first)])) == 2
    return fan, dataclasses.replace(d, ambient_cones=(first,) + d.ambient_cones[1:])


class TestCorruptedPackages:
    def test_non_unimodular_cone_is_a_witness(self):
        fan, bad = f3_with_non_unimodular_cone()
        report = verify_central_fiber(fan, bad)
        witness = {"cone": 0, "reason": "non-unimodular"}
        assert report["checks"]["fiber_fan_roundtrip"] == {"ok": False, "witness": witness}
        assert fm_roundtrip_reference(fan, bad) == witness
        assert not report["passes"]
        # the ambient fan is still built; validate is the independent oracle
        assert not validate(ambient_fan(bad))["smooth"]

    @pytest.mark.parametrize("fan_builder", [lambda: hirzebruch(3), scroll_210_fan])
    def test_negative_coordinates_fall_back_to_fm(self, fan_builder):
        # rotating the sigma-tilde pairs each sigma with a wrong ambient cone
        fan = fan_builder()
        for t in enumerate_triples(fan):
            d = build_deformation(fan, t)
            bad = dataclasses.replace(d, ambient_cones=d.ambient_cones[1:] + d.ambient_cones[:1])
            report = verify_central_fiber(fan, bad)
            assert not report["checks"]["cone_membership"]["ok"]
            assert report["work"]["fm_systems"] > 0
            want = fm_roundtrip_reference(fan, bad)
            assert want is not None
            assert report["checks"]["fiber_fan_roundtrip"] == {"ok": False, "witness": want}

    def test_valid_packages_agree_with_the_reference(self):
        for fan, d in all_packages():
            assert fm_roundtrip_reference(fan, d) is None
            assert verify_central_fiber(fan, d)["work"]["fm_systems"] == 0


class TestAmbientFan:
    def test_hirzebruch_ambient_shape(self):
        _, d = hirzebruch_package(2, 1)
        af = ambient_fan(d)
        assert af.dim == 4
        assert af.n_rays == 6
        assert len(af.max_cones) == 4
        assert all(len(c) == 4 for c in af.max_cones)
        assert validate(af)["smooth"]

    def test_ambient_rays_are_p_columns(self):
        for _, d in all_packages():
            af = ambient_fan(d)
            for j in range(len(d.P[0])):
                assert tuple(int(x) for x in obj(d.P)[:, j]) == af.rays[j]

    def test_ambient_fans_are_smooth(self):
        for _, d in all_packages():
            assert validate(ambient_fan(d))["smooth"]
