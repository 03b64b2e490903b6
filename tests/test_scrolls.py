"""Scroll fans, rigidity, and deformation paths.

Oracles: the scroll grading [[1,1,-a_1..-a_n],[0,0,1..1]] pins the fan
construction via Gale duality; the Hirzebruch fans pin the n = 2 case;
the move trinomial T1*T(1,l) - T(2,k)*T(2,1)^d - like shape and the four
irrelevant-ideal primes are written out by hand for fixed small twists.
Rigidity is cross-checked against triple enumeration and the vanishing
of all first cohomology, which are independent code paths.
"""

from __future__ import annotations

import itertools

import pytest

from toric_deform import intlin
from toric_deform.cohomology import h1_dimension
from toric_deform.deform import build_deformation, verify_central_fiber
from toric_deform.fan import Fan, cox_data, hirzebruch, product_of_lines, validate
from toric_deform.scrolls import (
    ScrollSpec,
    fiber_ray,
    is_rigid,
    normalize,
    one_step,
    path_to_rigid,
    rigid_model,
    scroll_fan,
)
from toric_deform.triples import degree_box, enumerate_triples

from helpers import brute_minimal_hitting_sets, default_box_bound


def same_fan_up_to_relabel(f: Fan, g: Fan) -> bool:
    if f.dim != g.dim or set(f.rays) != set(g.rays):
        return False
    to_g = {ray: k for k, ray in enumerate(g.rays)}
    relabeled = {
        tuple(sorted(to_g[f.rays[i]] for i in cone)) for cone in f.max_cones
    }
    return relabeled == set(g.max_cones)


class TestScrollFan:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_hirzebruch(self, n):
        assert same_fan_up_to_relabel(
            scroll_fan(ScrollSpec((n, 0))), hirzebruch(n)
        )

    def test_zero_twists_give_product_of_lines(self):
        assert same_fan_up_to_relabel(
            scroll_fan(ScrollSpec((0, 0))), product_of_lines(2)
        )

    def test_one_zero_is_the_plane_blowup(self):
        fan = scroll_fan(ScrollSpec((1, 0)))
        assert set(fan.rays) == {(1, 0), (-1, 1), (0, 1), (0, -1)}
        rep = validate(fan)
        assert rep["smooth"] and rep["complete"]

    @pytest.mark.parametrize(
        "a", [(0, 0), (2, 0), (3, 1, 0), (2, 2, 1), (4, 1, 0, 2), (1, 0, 0, 0, 3)]
    )
    def test_always_smooth_and_complete(self, a):
        rep = validate(scroll_fan(ScrollSpec(a)))
        assert rep["smooth"] and rep["complete"]

    @pytest.mark.parametrize("a", [(2, 0), (3, 1, 0), (4, 1, 0, 2)])
    def test_grading_is_the_twist_matrix(self, a):
        fan = scroll_fan(ScrollSpec(a))
        n = len(a)
        expected = [
            [1, 1] + [-x for x in a],
            [0, 0] + [1] * n,
        ]
        got, _ = intlin.hermite_normal_form(cox_data(fan).grading_rows)
        want, _ = intlin.hermite_normal_form(expected)
        assert [r for r in got if any(r)] == [r for r in want if any(r)]

    @pytest.mark.parametrize("a", [(2, 0), (3, 1, 0), (2, 2, 1, 0)])
    def test_irrelevant_structure(self, a):
        fan = scroll_fan(ScrollSpec(a))
        n = len(a)
        cox = cox_data(fan)
        expected = {
            tuple(sorted((b, f))) for b in (0, 1) for f in range(2, n + 2)
        }
        assert set(cox.irrelevant_components) == expected
        # the minimal primes are the base pair and the full fiber set
        complements = [set(c) for c in cox.irrelevant_components]
        minimal = brute_minimal_hitting_sets(complements, n + 2)
        assert minimal == ((0, 1), tuple(range(2, n + 2)))

    def test_number_of_cones(self):
        for a in [(0, 0), (3, 1, 0), (1, 1, 1, 1)]:
            fan = scroll_fan(ScrollSpec(a))
            assert len(fan.max_cones) == 2 * len(a)
            assert all(len(c) == len(a) for c in fan.max_cones)


class TestNormalizeAndRigid:
    def test_normalize_examples(self):
        assert normalize(ScrollSpec((3, 1, 2))).a == (2, 1, 0)
        assert normalize(ScrollSpec((5, 5))).a == (0, 0)
        assert normalize(ScrollSpec((0, 1))).a == (1, 0)

    def test_normalize_is_idempotent(self):
        for a in [(3, 1, 2), (5, 5), (0, 1), (-2, 4, 0)]:
            once = normalize(ScrollSpec(a))
            assert normalize(once) == once

    def test_rigid_examples(self):
        assert is_rigid(ScrollSpec((1, 1, 0)))
        assert not is_rigid(ScrollSpec((2, 0)))
        assert is_rigid(ScrollSpec((7, 6, 6)))

    def test_too_short_spec_rejected(self):
        with pytest.raises(ValueError, match="at least 2 twists"):
            ScrollSpec((3,))


class TestOneStep:
    def test_classic_two_twist_move(self):
        mv = one_step(ScrollSpec((2, 0)), 1, 2, 1)
        assert mv.to_spec.a == (1, 1)
        assert normalize(mv.to_spec).a == (0, 0)

    def test_three_twist_move(self):
        mv = one_step(ScrollSpec((3, 1, 0)), 1, 3, 1)
        assert mv.to_spec.a == (2, 1, 1)

    def test_step_size_bounded_by_gap(self):
        with pytest.raises(ValueError, match="between 1 and 1"):
            one_step(ScrollSpec((2, 0)), 1, 2, 2)

    def test_small_gap_rejected(self):
        with pytest.raises(ValueError, match="gap of at least 2"):
            one_step(ScrollSpec((1, 0)), 1, 2, 1)
        with pytest.raises(ValueError, match="gap of at least 2"):
            one_step(ScrollSpec((0, 2)), 1, 2, 1)

    def test_bad_positions_rejected(self):
        with pytest.raises(ValueError, match="must differ"):
            one_step(ScrollSpec((2, 0)), 1, 1, 1)
        with pytest.raises(ValueError, match="positions must lie"):
            one_step(ScrollSpec((2, 0)), 1, 3, 1)

    @pytest.mark.parametrize(
        "a,i,j,dprime",
        [((2, 0), 1, 2, 1), ((3, 0), 1, 2, 1), ((3, 0), 1, 2, 2), ((3, 1, 0), 1, 3, 1), ((4, 1, 0, 2), 1, 3, 2)],
    )
    def test_move_triple_values(self, a, i, j, dprime):
        s = ScrollSpec(a)
        mv = one_step(s, i, j, dprime)
        fan = scroll_fan(s)
        gap = a[i - 1] - a[j - 1]
        values = {
            0: -dprime,
            1: dprime - gap,
            fiber_ray(s, i): -1,
            fiber_ray(s, j): 1,
        }
        for ray_idx in range(fan.n_rays):
            got = sum(x * y for x, y in zip(mv.triple.m, fan.rays[ray_idx]))
            assert got == values.get(ray_idx, 0)
        assert mv.triple.rho == fiber_ray(s, i)
        assert mv.triple.component == (0,)

    @pytest.mark.parametrize(
        "a,i,j,dprime",
        [((2, 0), 1, 2, 1), ((3, 0), 1, 2, 2), ((3, 1, 0), 1, 3, 1)],
    )
    def test_move_trinomial_shape(self, a, i, j, dprime):
        s = ScrollSpec(a)
        mv = one_step(s, i, j, dprime)
        fan = scroll_fan(s)
        d = build_deformation(fan, mv.triple)
        gap = a[i - 1] - a[j - 1]
        rho = fiber_ray(s, i)
        expected = {
            "T1": {0: 1, d.column_of((1, fiber_ray(s, j))): 1},
            "U2": {d.column_of((2, 0)): dprime, d.column_of((2, rho)): 1},
            "U3": {d.column_of((3, 1)): gap - dprime, d.column_of((3, rho)): 1},
        }
        for term, want in zip(d.trinomial.terms, expected.values()):
            _, exps = term
            assert {k: e for k, e in enumerate(exps) if e} == want

    def test_move_deformation_verifies(self):
        for a, i, j, dprime in [((2, 0), 1, 2, 1), ((3, 1, 0), 1, 3, 2)]:
            s = ScrollSpec(a)
            fan = scroll_fan(s)
            d = build_deformation(fan, one_step(s, i, j, dprime).triple)
            assert verify_central_fiber(fan, d)["passes"]

    def test_irrelevant_primes_of_a_move(self):
        # hand-translated from the four printed components for (3,1,0):
        # base rays 0,1; rho = fiber ray 2; idle fiber 3; raised fiber 4
        s = ScrollSpec((3, 1, 0))
        mv = one_step(s, 1, 3, 1)
        d = build_deformation(scroll_fan(s), mv.triple)
        cols = {
            "I1": ((2, 0), (3, 1)),
            "I2": ((2, 0), (2, 2), (1, 4), (4, 3)),
            "I3": ((3, 1), (3, 2), (1, 4), (4, 3)),
            "I4": ((2, 2), (3, 2), (1, 4), (4, 3)),
        }
        expected = tuple(
            sorted(tuple(sorted(d.column_of(p) for p in prime)) for prime in cols.values())
        )
        # the minimal primes of the ambient irrelevant ideal: the minimal
        # column sets that meet the complement of every ambient cone
        width = len(d.P[0])
        complements = [set(range(width)) - set(cone) for cone in d.ambient_cones]
        assert brute_minimal_hitting_sets(complements, width) == expected


class TestPathToRigid:
    def test_classic_path(self):
        path = path_to_rigid(ScrollSpec((2, 0)))
        assert len(path) == 1
        assert normalize(path[-1].to_spec).a == (0, 0)

    def test_three_twist_path(self):
        path = path_to_rigid(ScrollSpec((3, 1, 0)))
        assert normalize(path[-1].to_spec).a == (1, 0, 0)

    def test_rigid_input_gives_empty_path(self):
        assert path_to_rigid(ScrollSpec((1, 1, 0))) == []
        assert path_to_rigid(ScrollSpec((5, 5))) == []

    def test_target_residue(self):
        for a in [(2, 0), (3, 1, 0), (4, 4, 0), (3, 2, 1, 0), (2, 2, 2)]:
            s = ScrollSpec(a)
            r = sum(a) % len(a)
            assert rigid_model(s).a == tuple(
                1 if k < r else 0 for k in range(len(a))
            )
            path = path_to_rigid(s)
            end = normalize(path[-1].to_spec) if path else normalize(s)
            assert end == rigid_model(s)

    def test_chain_is_consistent(self):
        for a in [(4, 0), (3, 3, 0), (4, 2, 1, 0), (5, 0, 0)]:
            s = ScrollSpec(a)
            path = path_to_rigid(s)
            cur = normalize(s)
            for mv in path:
                assert mv.from_spec == cur
                moved = list(mv.from_spec.a)
                moved[mv.i - 1] -= mv.dprime
                moved[mv.j - 1] += mv.dprime
                assert tuple(moved) == mv.to_spec.a
                assert mv.from_spec.a[mv.i - 1] - mv.from_spec.a[mv.j - 1] >= 2
                cur = normalize(mv.to_spec)
            assert is_rigid(cur)

    def test_target_invariant_under_relabeling(self):
        for a in [(3, 1, 0), (0, 1, 3), (4, 2, 1)]:
            s = ScrollSpec(a)
            assert rigid_model(s) == rigid_model(normalize(s))
            shifted = ScrollSpec(tuple(x + 2 for x in a))
            assert rigid_model(shifted) == rigid_model(s)


def normalized_specs(n: int, top: int):
    out = []
    for a in itertools.product(range(top + 1), repeat=n):
        spec = ScrollSpec(a)
        if normalize(spec).a == a:
            out.append(spec)
    return out


class TestRigidityCrossChecks:
    def test_rigid_iff_no_triples(self):
        for spec in normalized_specs(3, 3):
            fan = scroll_fan(spec)
            triples = enumerate_triples(fan)
            assert is_rigid(spec) == (len(triples) == 0), spec

    @pytest.mark.parametrize("a", [(2, 0, 0), (1, 1, 0), (2, 2, 0)])
    def test_rigid_iff_no_first_cohomology(self, a):
        spec = ScrollSpec(a)
        fan = scroll_fan(spec)
        total = sum(
            h1_dimension(fan, m) for m in degree_box(fan, default_box_bound(fan))
        )
        assert is_rigid(spec) == (total == 0), (a, total)
