"""Fan construction, validation and Cox data.

Derived oracle for completeness in rank 2: a fan assembled from angularly
sorted primitive rays with all adjacent cones is complete by construction;
removing one maximal cone must break it. In rank 3 and 4 a brute-force
oracle refutes completeness from the lattice points of a box.
"""

from __future__ import annotations

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toric_deform import cli, intlin
from toric_deform import fan as fan_module
from toric_deform.cohomology import span_check
from toric_deform.fan import (
    CoxData,
    Fan,
    cox_data,
    hirzebruch,
    product,
    product_of_lines,
    projective_space,
    require_smooth_complete,
    validate,
)
from toric_deform.hypersurf import riemann_roch_points
from toric_deform.scrolls import ScrollSpec, scroll_fan
from toric_deform.triples import chamber_support, marker_graph


def p2_fan() -> Fan:
    return Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (1, 2), (2, 0)))


class TestFanStructure:
    def test_rejects_non_primitive_ray(self):
        with pytest.raises(ValueError, match="non-primitive ray 1"):
            Fan(dim=2, rays=((1, 0), (0, 2)), max_cones=((0, 1),))

    def test_rejects_zero_ray(self):
        with pytest.raises(ValueError, match="ray 0 is zero"):
            Fan(dim=2, rays=((0, 0), (1, 0)), max_cones=((0, 1),))

    @pytest.mark.parametrize("ray, message", [
        ((0, 0), "ray 1 is zero"),
        ((2, 4), "non-primitive ray 1"),
        ((-2, 0), "non-primitive ray 1"),
    ])
    def test_ray_messages(self, ray, message):
        with pytest.raises(ValueError) as info:
            Fan(dim=2, rays=((1, 0), ray, (0, 1)), max_cones=((0, 1), (1, 2)))
        assert str(info.value) == message

    def test_rejects_duplicate_ray(self):
        with pytest.raises(ValueError, match="duplicate ray"):
            Fan(dim=2, rays=((1, 0), (1, 0)), max_cones=((0, 1),))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError, match="cone 0 references missing ray 5"):
            Fan(dim=2, rays=((1, 0), (0, 1)), max_cones=((0, 5),))

    def test_rejects_wrong_ray_length(self):
        with pytest.raises(ValueError, match="ray 1"):
            Fan(dim=2, rays=((1, 0), (0, 1, 0)), max_cones=((0, 1),))

    def test_rejects_unused_ray(self):
        with pytest.raises(ValueError, match="ray 2 not used"):
            Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1),))

    def test_rejects_empty_cone(self):
        with pytest.raises(ValueError, match="cone 1 is empty"):
            Fan(dim=1, rays=((1,), (-1,)), max_cones=((0, 1), ()))

    @pytest.mark.parametrize("dim", [0, -1])
    def test_rejects_dimension_below_one(self, dim):
        with pytest.raises(ValueError, match=f"^fan dimension must be at least 1, got {dim}$"):
            Fan(dim=dim, rays=(), max_cones=())

    def test_cone_indices_sorted(self):
        f = Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((1, 0), (2, 1), (0, 2)))
        assert f.max_cones == ((0, 1), (1, 2), (0, 2))


class TestValidate:
    def test_p2(self):
        assert validate(p2_fan()) == {"smooth": True, "complete": True, "simplicial": True}

    def test_f2(self):
        assert validate(hirzebruch(2)) == {
            "smooth": True,
            "complete": True,
            "simplicial": True,
        }

    def test_p2_missing_cone_incomplete(self):
        f = Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (2, 0)))
        assert validate(f)["complete"] is False

    def test_non_smooth_cone(self):
        f = Fan(
            dim=2,
            rays=((1, 0), (0, 1), (-1, -2)),
            max_cones=((0, 1), (1, 2), (2, 0)),
        )
        rep = validate(f)
        assert rep["smooth"] is False
        assert rep["complete"] is True

    def test_non_simplicial_reports_index(self):
        f = Fan(dim=2, rays=((1, 0), (0, 1), (-1, 0)), max_cones=((0, 1), (1, 2), (0, 2)))
        with pytest.raises(ValueError, match="cone 2 is not simplicial"):
            validate(f)

    def test_too_many_rays_in_cone(self):
        f = Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1, 2),))
        with pytest.raises(ValueError, match="cone 0"):
            validate(f)

    def test_messages(self):
        # P(1,1,2): complete and simplicial, one cone of determinant 2
        p112 = Fan(dim=2, rays=((1, 0), (0, 1), (-1, -2)), max_cones=((0, 1), (1, 2), (2, 0)))
        with pytest.raises(ValueError, match=r"^h1 needs a smooth complete fan; this fan is not smooth$"):
            require_smooth_complete(p112, "h1")
        # a flat cone of two opposite rays in dimension 2
        flat = Fan(dim=2, rays=((1, 0), (0, 1), (-1, 0)), max_cones=((0, 1), (0, 2)))
        with pytest.raises(ValueError, match=r"^cone 1 is not simplicial$"):
            validate(flat)
        incomplete_f2 = Fan(dim=2, rays=((1, 0), (0, 1), (-1, 2)), max_cones=((0, 1), (1, 2)))
        assert validate(incomplete_f2) == {"smooth": True, "complete": False, "simplicial": True}
        with pytest.raises(ValueError, match=r"^h1 needs a smooth complete fan; this fan is not complete$"):
            require_smooth_complete(incomplete_f2, "h1")

    def test_first_offending_cone_wins(self):
        rays = ((1, 0), (0, 1), (-1, 0))
        with pytest.raises(ValueError, match=r"^cone 0 has 3 rays in dimension 2$"):
            validate(Fan(dim=2, rays=rays, max_cones=((0, 1, 2), (0, 2))))
        with pytest.raises(ValueError, match=r"^cone 0 is not simplicial$"):
            validate(Fan(dim=2, rays=rays, max_cones=((0, 2), (0, 1, 2))))

    def test_cones_with_fewer_rays(self):
        # in dimension 3: a flat 2-ray cone, and a 2-ray cone of index 2
        flat = Fan(dim=3, rays=((1, 0, 0), (-1, 0, 0), (0, 0, 1)), max_cones=((0, 2), (0, 1)))
        with pytest.raises(ValueError, match=r"^cone 1 is not simplicial$"):
            validate(flat)
        wide = Fan(dim=3, rays=((1, 0, 0), (1, 2, 0)), max_cones=((0, 1),))
        assert validate(wide) == {"smooth": False, "complete": False, "simplicial": True}

    def test_one_determinant_per_full_cone(self, monkeypatch):
        calls = {"matrix_rank": 0, "smith_normal_form": 0, "eliminate": 0}
        for name in calls:
            # fan calls matrix_rank and eliminate by its own names, the Smith
            # form through intlin
            module = intlin if name == "smith_normal_form" else fan_module
            original = getattr(module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        f = product(hirzebruch(2), hirzebruch(3))
        assert validate(f) == {"smooth": True, "complete": True, "simplicial": True}
        assert calls == {"matrix_rank": 0, "smith_normal_form": 0, "eliminate": 16}

    def test_p1(self):
        f = Fan(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,)))
        assert validate(f) == {"smooth": True, "complete": True, "simplicial": True}

    def test_half_line_incomplete(self):
        f = Fan(dim=1, rays=((1,),), max_cones=((0,),))
        assert validate(f)["complete"] is False

    def test_affine_plane_incomplete(self):
        f = Fan(dim=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))
        assert validate(f)["complete"] is False

    def test_products_and_projective_spaces(self):
        for f in (projective_space(2), projective_space(3), product_of_lines(2), product_of_lines(3)):
            assert validate(f) == {"smooth": True, "complete": True, "simplicial": True}

    def test_product_builder(self):
        f = product(hirzebruch(2), projective_space(1))
        assert f.dim == 3
        assert f.rays == ((1, 0, 0), (0, 1, 0), (-1, 2, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
        assert f.max_cones[:2] == ((0, 1, 5), (0, 1, 4))
        assert len(f.max_cones) == 8
        assert validate(f) == {"smooth": True, "complete": True, "simplicial": True}
        assert validate(product(hirzebruch(2), hirzebruch(3)))["complete"]
        # P^1 x P^1 is product_of_lines(2) up to the order of its cones
        assert set(product(projective_space(1), projective_space(1)).max_cones) == set(
            product_of_lines(2).max_cones
        )


INCOMPLETE_F2 = Fan(dim=2, rays=((1, 0), (0, 1), (-1, 2)), max_cones=((0, 1), (1, 2)))
P112 = Fan(dim=2, rays=((1, 0), (0, 1), (-1, -2)), max_cones=((0, 1), (1, 2), (2, 0)))


class TestLibraryGates:
    """validate's verdict is cached per Fan object, and every library entry
    that needs a smooth complete fan checks for one."""

    def test_verdict_is_a_fresh_dict(self):
        f = hirzebruch(2)
        rep = validate(f)
        rep["complete"] = False
        assert validate(f) == {"smooth": True, "complete": True, "simplicial": True}

    @pytest.mark.parametrize("fan, lacks", [(INCOMPLETE_F2, "complete"), (P112, "smooth")])
    def test_entries_raise_the_gate(self, fan, lacks):
        calls = [
            ("span_check", lambda: span_check(fan, (-1, -1), [])),
            ("triple enumeration", lambda: chamber_support(fan)),
            ("Riemann-Roch enumeration", lambda: riemann_roch_points(fan, (1,))),
        ]
        for what, call in calls:
            with pytest.raises(ValueError, match=rf"^{what} needs a smooth complete fan; this fan is not {lacks}$"):
                call()

    def test_completeness_runs_once_per_h1(self, tmp_path, monkeypatch, capsys):
        # the h1 command gates once and span_check once per degree, all on
        # one Fan object
        runs = []
        complete = fan_module._complete

        def spy(fan):
            runs.append(fan)
            return complete(fan)

        monkeypatch.setattr(fan_module, "_complete", spy)
        path = tmp_path / "f2xf3.json"
        path.write_text(json.dumps(cli.fan_to_json(product(hirzebruch(2), hirzebruch(3)))))
        assert cli.main(["h1", "--fan", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["timing"]["counters"]["cech_degrees"] == 3
        assert len(runs) == 1


def primitive_rays_2d():
    cand = st.tuples(st.integers(-5, 5), st.integers(-5, 5)).filter(
        lambda v: v != (0, 0) and math.gcd(abs(v[0]), abs(v[1])) == 1
    )
    return st.sets(cand, min_size=3, max_size=8)


def assemble_2d_fan(ray_set):
    """Complete 2d fan from angularly sorted rays (oracle construction)."""
    rays = sorted(ray_set, key=lambda v: math.atan2(v[1], v[0]))
    n = len(rays)
    cones = []
    for i in range(n):
        a, b = rays[i], rays[(i + 1) % n]
        if a[0] * b[1] - a[1] * b[0] <= 0:
            return None  # angular gap of pi or more; not a complete fan
        cones.append(tuple(sorted((i, (i + 1) % n))))
    return Fan(dim=2, rays=tuple(rays), max_cones=tuple(cones))


class TestCompleteness2D:
    @given(primitive_rays_2d())
    @settings(max_examples=120, deadline=None)
    def test_assembled_fans_are_complete(self, ray_set):
        f = assemble_2d_fan(ray_set)
        if f is None:
            return
        rep = validate(f)
        assert rep["complete"] is True
        # unimodularity of every cone decides smoothness
        expected_smooth = all(
            abs(intlin.determinant(f.cone_matrix(c))) == 1 for c in f.max_cones
        )
        assert rep["smooth"] is expected_smooth

    @given(primitive_rays_2d())
    @settings(max_examples=60, deadline=None)
    def test_dropping_a_cone_breaks_completeness(self, ray_set):
        f = assemble_2d_fan(ray_set)
        if f is None:
            return
        used = {i for c in f.max_cones[1:] for i in c}
        if used != set(range(f.n_rays)):
            return
        g = Fan(dim=2, rays=f.rays, max_cones=f.max_cones[1:])
        assert validate(g)["complete"] is False


def moved_ray(f: Fan, index: int, ray) -> Fan:
    """f with ray index replaced by ray, keeping the maximal cones."""
    rays = list(f.rays)
    rays[index] = tuple(ray)
    return Fan(dim=f.dim, rays=tuple(rays), max_cones=f.max_cones)


# P1 x P1 x P1 with ray 4 moved from (0, 0, 1) to (1, 1, -1): every facet
# still lies in exactly two cones and the cones stay connected, but cones
# overlap: (2, 2, -1) lies in the interiors of both (0, 2, 4) and (0, 2, 5)
OVERLAPPING_P1_CUBED = moved_ray(product_of_lines(3), 4, (1, 1, -1))

# 8 rays in the plane z = 0 whose consecutive pairs (each of determinant 1)
# wind twice around the z-axis, coned over the apexes (0, 0, 1) and
# (0, 0, -1): smooth, facet paired, oppositely oriented and connected, yet
# every generic point lies in two cones
_WINDING = ((1, 0, 0), (-2, 1, 0), (-1, 0, 0), (-1, -1, 0), (-1, -2, 0), (0, -1, 0), (1, 1, 0), (-2, -1, 0))
DOUBLE_COVER = Fan(
    dim=3,
    rays=(*_WINDING, (0, 0, 1), (0, 0, -1)),
    max_cones=tuple((j, (j + 1) % 8, apex) for apex in (8, 9) for j in range(8)),
)

BUILDER_FANS = {
    "P1xP1xP1": product_of_lines(3),
    "P1^4": product_of_lines(4),
    "P^3": projective_space(3),
    "P^4": projective_space(4),
    "S(2,1,0)": scroll_fan(ScrollSpec((2, 1, 0))),
    "S(1,0,0)": scroll_fan(ScrollSpec((1, 0, 0))),
    "S(3,0,0,0)": scroll_fan(ScrollSpec((3, 0, 0, 0))),
    "F_1xP^1": product(hirzebruch(1), projective_space(1)),
    "F_2xF_3": product(hirzebruch(2), hirzebruch(3)),
}


def refutes_completeness(f: Fan, box: int = 3) -> bool:
    """Brute-force oracle: True when the lattice points of [-box, box]^n show
    that f is not a complete fan.

    It refutes when some nonzero point lies in no closed maximal cone, or
    some point lies in the interiors of two. A cone's coordinates of x are
    adj(V) x / det V, with the adjugate and determinant from sympy; the
    entries of adj(V) x stay far below 2^63 here, so int64 is exact.
    """
    points = np.array([p for p in itertools.product(range(-box, box + 1), repeat=f.dim) if any(p)])
    covered = np.zeros(len(points), dtype=bool)
    inside = np.zeros(len(points), dtype=int)
    for c in f.max_cones:
        v = sympy.Matrix(f.cone_matrix(c))
        sign = 1 if v.det() > 0 else -1
        coords = sign * (points @ np.array(v.adjugate().tolist(), dtype=np.int64).T)
        covered |= (coords >= 0).all(axis=1)
        inside += (coords > 0).all(axis=1)
    return not covered.all() or bool((inside > 1).any())


class TestCompletenessExact:
    """One completeness test for every dimension: oriented facet pairing
    plus a covering count at a symbolic generic point."""

    def test_overlapping_cones_are_not_complete(self):
        assert refutes_completeness(OVERLAPPING_P1_CUBED)
        assert validate(OVERLAPPING_P1_CUBED) == {"smooth": True, "complete": False, "simplicial": True}
        with pytest.raises(ValueError, match=r"^h1 needs a smooth complete fan; this fan is not complete$"):
            require_smooth_complete(OVERLAPPING_P1_CUBED, "h1")

    def test_double_cover_is_not_complete(self):
        assert refutes_completeness(DOUBLE_COVER)
        assert validate(DOUBLE_COVER) == {"smooth": True, "complete": False, "simplicial": True}

    def test_empty_fan_is_not_complete(self):
        assert validate(Fan(dim=2, rays=(), max_cones=())) == {
            "smooth": True,
            "complete": False,
            "simplicial": True,
        }

    @pytest.mark.parametrize("key", BUILDER_FANS)
    def test_builder_fans_are_complete(self, key):
        f = BUILDER_FANS[key]
        assert not refutes_completeness(f)
        assert validate(f) == {"smooth": True, "complete": True, "simplicial": True}

    @given(st.sampled_from(sorted(BUILDER_FANS)), st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_moved_ray(self, key, data):
        # one direction only: a refutation from the box forces complete False,
        # while a gap the box misses decides nothing
        f = BUILDER_FANS[key]
        index = data.draw(st.integers(0, f.n_rays - 1))
        ray = data.draw(st.tuples(*[st.integers(-2, 2)] * f.dim))
        assume(any(ray) and math.gcd(*ray) == 1 and ray not in f.rays)
        g = moved_ray(f, index, ray)
        assume(all(intlin.determinant(g.cone_matrix(c)) for c in g.max_cones))
        if refutes_completeness(g):
            assert validate(g)["complete"] is False


class TestConeInverses:
    def test_read_from_one_elimination(self):
        # P(1,1,2): cone (0, 2) has determinant -2, a pivot that is not +-1
        f = Fan(dim=2, rays=((1, 0), (0, 1), (-1, -2)), max_cones=((0, 1), (1, 2), (0, 2)))
        for c, (det, d, y) in zip(f.max_cones, f.cone_inverses):
            v = f.cone_matrix(c)
            assert det == intlin.determinant(v)
            assert intlin.mat_mul(y, v) == [[d, 0], [0, d]]
        assert f.cone_inverses[2] == (-2, -2, [[-2, 1], [0, 1]])
        assert f.cone_inverses is f.cone_inverses

    def test_singular_and_lower_dimensional_cones(self):
        f = Fan(dim=2, rays=((1, 0), (0, 1), (-1, 0)), max_cones=((0, 1), (0, 2), (1,)))
        assert f.cone_inverses == ((1, 1, [[1, 0], [0, 1]]), (0, 0, None), None)


class TestRayAdjacency:
    def test_rays_sharing_a_cone(self):
        assert hirzebruch(2).ray_adjacency == (
            frozenset({1, 3}), frozenset({0, 2}), frozenset({1, 3}), frozenset({0, 2}),
        )

    def test_built_once_per_fan(self):
        # marker graphs and the chamber search read the one cached tuple
        f = hirzebruch(2)
        prop = vars(Fan)["ray_adjacency"]
        with mock.patch.object(prop, "func", wraps=prop.func) as spy:
            for _ in range(3):
                marker_graph(f, (-1, -1), 1)
            chamber_support(f)
        assert spy.call_count == 1


class TestCoxData:
    def test_hirzebruch_grading(self):
        for n in (1, 2, 3, 5):
            data = cox_data(hirzebruch(n))
            assert isinstance(data, CoxData)
            assert data.grading_rows == ((1, 0, 1, n), (0, 1, 0, 1))
            assert data.cl_rank == 2

    def test_p1_grading(self):
        f = Fan(dim=1, rays=((1,), (-1,)), max_cones=((0,), (1,)))
        data = cox_data(f)
        assert data.grading_rows == ((1, 1),)
        assert data.cl_rank == 1

    def test_single_ray_in_the_plane(self):
        # the cone on (1, 0) in N = Z^2: Cl = Z^1 / Z = 0, so no grading rows
        data = cox_data(Fan(dim=2, rays=((1, 0),), max_cones=((0,),)))
        assert data.grading.shape == (0, 1)
        assert data.grading_rows == ()
        assert data.cl_rank == 0

    @pytest.mark.parametrize("fan", [hirzebruch(2), Fan(dim=2, rays=((1, 0),), max_cones=((0,),))])
    def test_grading_array_is_the_rows(self, fan):
        # the numpy object array perfbench reads, built from the rows on
        # first access
        data = cox_data(fan)
        assert data.grading.shape == (data.cl_rank, fan.n_rays)
        assert data.grading.tolist() == [list(r) for r in data.grading_rows]
        assert [int(x) for x in data.grading.sum(axis=1)] == [sum(r) for r in data.grading_rows]
        assert data.grading is data.grading

    def test_p2_times_a1(self):
        # rays of P^2 inside N = Z^3 span a rank-2 sublattice: Cl = Z
        f = Fan(
            dim=3,
            rays=((1, 0, 0), (0, 1, 0), (-1, -1, 0)),
            max_cones=((0, 1), (1, 2), (2, 0)),
        )
        data = cox_data(f)
        assert data.grading_rows == ((1, 1, 1),)
        assert data.cl_rank == 1

    def test_irrelevant_components(self):
        data = cox_data(hirzebruch(2))
        assert data.irrelevant_components == ((2, 3), (0, 3), (0, 1), (1, 2))

    def test_ray_map_columns(self):
        f = p2_fan()
        p = cox_data(f).ray_map
        assert [len(row) for row in p] == [3, 3]
        for j, r in enumerate(f.rays):
            assert tuple(row[j] for row in p) == r

    def test_rejects_non_smooth(self):
        f = Fan(
            dim=2,
            rays=((1, 0), (0, 1), (-1, -2)),
            max_cones=((0, 1), (1, 2), (2, 0)),
        )
        with pytest.raises(ValueError, match="not unimodular"):
            cox_data(f)

    @given(primitive_rays_2d())
    @settings(max_examples=60, deadline=None)
    def test_grading_annihilates_rays(self, ray_set):
        f = assemble_2d_fan(ray_set)
        if f is None or not validate(f)["smooth"]:
            return
        data = cox_data(f)
        # grading is cl_rank x r, ray_map.T is r x n
        prod = np.array(data.grading_rows, dtype=object) @ np.array(data.ray_map, dtype=object).T
        assert all(x == 0 for x in np.ravel(prod))
        assert data.cl_rank == f.n_rays - f.dim
        assert [len(row) for row in data.grading_rows] == [f.n_rays] * data.cl_rank


SMITH_ORACLE_FANS = [
    *(hirzebruch(n) for n in range(6)),
    *(projective_space(n) for n in range(1, 5)),
    *(product_of_lines(n) for n in range(1, 4)),
    product(hirzebruch(2), hirzebruch(3)),
    product(projective_space(2), hirzebruch(1)),
    # not spanning N: a saturated plane, and one ray
    Fan(dim=3, rays=((1, 0, 0), (0, 1, 0), (-1, -1, 0)), max_cones=((0, 1), (1, 2), (2, 0))),
    Fan(dim=2, rays=((1, 0),), max_cones=((0,),)),
]


class TestCoxDataAgainstSmith:
    """The HNF grading of cox_data equals the Smith-form free block."""

    @pytest.mark.parametrize("fan", SMITH_ORACLE_FANS)
    def test_grading_is_cokernel_map_free_block(self, fan):
        grading, invariants = intlin.cokernel_map(intlin.transpose(fan.ray_matrix()))
        assert not invariants
        with mock.patch.object(intlin, "cokernel_map", wraps=intlin.cokernel_map) as spy:
            got = cox_data(fan).grading_rows
        assert [list(r) for r in got] == grading
        assert spy.call_count == 0

    @given(primitive_rays_2d())
    @settings(max_examples=40, deadline=None)
    def test_random_surfaces(self, ray_set):
        f = assemble_2d_fan(ray_set)
        if f is None or not validate(f)["smooth"]:
            return
        grading, _ = intlin.cokernel_map(intlin.transpose(f.ray_matrix()))
        assert [list(r) for r in cox_data(f).grading_rows] == grading

    def test_torsion_still_found(self):
        # rays (1, 0) and (1, 2) in separate cones: each cone is unimodular,
        # but they span an index-2 sublattice, so Cl has torsion Z/2
        f = Fan(dim=2, rays=((1, 0), (1, 2)), max_cones=((0,), (1,)))
        with pytest.raises(ValueError, match=r"\Aclass group has torsion \[2\]\Z"):
            cox_data(f)
