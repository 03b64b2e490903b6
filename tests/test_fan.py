"""Fan construction, validation and Cox data.

Derived oracle for completeness in rank 2: a fan assembled from angularly
sorted primitive rays with all adjacent cones is complete by construction;
removing one maximal cone must break it.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_deform import intlin
from toric_deform.fan import (
    CoxData,
    Fan,
    cone_containing,
    cox_data,
    hirzebruch,
    product,
    product_of_lines,
    projective_space,
    validate,
)
from toric_deform.triples import require_smooth_complete


def p2_fan() -> Fan:
    return Fan(dim=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (1, 2), (2, 0)))


class TestFanStructure:
    def test_rejects_non_primitive_ray(self):
        with pytest.raises(ValueError, match="non-primitive ray 1"):
            Fan(dim=2, rays=((1, 0), (0, 2)), max_cones=((0, 1),))

    def test_rejects_zero_ray(self):
        with pytest.raises(ValueError, match="ray 0 is zero"):
            Fan(dim=2, rays=((0, 0), (1, 0)), max_cones=((0, 1),))

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
        calls = {"rational_rank": 0, "smith_normal_form": 0, "determinant": 0}
        for name in calls:
            original = getattr(intlin, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(intlin, name, counted)
        f = product(hirzebruch(2), hirzebruch(3))
        assert validate(f) == {"smooth": True, "complete": True, "simplicial": True}
        assert calls == {"rational_rank": 0, "smith_normal_form": 0, "determinant": 16}

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
        with pytest.raises(ValueError, match="class group has torsion"):
            cox_data(f)


class TestConeContaining:
    def test_f2_adjacent_pair(self):
        assert cone_containing(hirzebruch(2), {1, 2}) == (1, 2)

    def test_f2_opposite_pair(self):
        assert cone_containing(hirzebruch(2), {1, 3}) is None

    def test_p2_every_pair(self):
        f = p2_fan()
        for i in range(3):
            for j in range(i + 1, 3):
                assert cone_containing(f, {i, j}) is not None

    def test_monotone(self):
        f = hirzebruch(3)
        for c in f.max_cones:
            got = cone_containing(f, set(c))
            assert got is not None
            for i in c:
                assert cone_containing(f, {i}) is not None
