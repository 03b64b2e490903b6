"""Marker graphs and admissible-triple enumeration.

Oracle: an independent brute-force enumerator in this file loops over raw
degree coordinates, evaluates the degree on every ray directly, builds the
graph by pairwise cone queries and takes components by union-find.
"""

from __future__ import annotations

import itertools

import pytest

from toric_deform.fan import Fan, cone_containing, hirzebruch, projective_space, validate
from toric_deform.triples import (
    AdmissibleTriple,
    MarkerGraph,
    admissible_components,
    default_bound,
    degree_box,
    enumerate_triples,
    h1_closed_form,
    marker_graph,
    pairing,
    triples_at_degree,
)


def scroll_110_fan() -> Fan:
    # Three-fold scroll with degrees (1, 1, 0): two base rays, three fibers.
    return Fan(
        dim=3,
        rays=((1, 0, 0), (-1, 1, 1), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
        max_cones=((0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)),
    )


def brute_triples(fan: Fan, bound: int) -> set[tuple]:
    """Independent enumeration: raw coordinate sweep + direct graph build."""
    found = set()
    # coordinate box [-R, R]^n with R large enough to contain the degree box
    # (values on the unit-like rays of the first cone already bound coords
    # only for convenient fans, so overshoot generously)
    R = bound * (1 + max(abs(x) for r in fan.rays for x in r))
    for m in itertools.product(range(-R, R + 1), repeat=fan.dim):
        if any(abs(pairing(m, r)) > bound for r in fan.rays):
            continue
        for rho in range(fan.n_rays):
            if pairing(m, fan.rays[rho]) != -1:
                continue
            vertices = [
                i
                for i in range(fan.n_rays)
                if i != rho and pairing(m, fan.rays[i]) < 0
            ]
            parent = {v: v for v in vertices}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i, j in itertools.combinations(vertices, 2):
                if cone_containing(fan, {i, j}) is not None:
                    parent[find(i)] = find(j)
            comps = {}
            for v in vertices:
                comps.setdefault(find(v), set()).add(v)
            comps = list(comps.values())
            if len(comps) < 2:
                continue
            for c in comps:
                found.add((m, rho, tuple(sorted(c))))
    return found


class TestMarkerGraph:
    @pytest.mark.parametrize("n,alpha", [(2, 1), (3, 1), (3, 2), (5, 4)])
    def test_hirzebruch_split_graph(self, n, alpha):
        # degree (-alpha, -1) against rays e1, e2, -e1+n*e2, -e2:
        # values -alpha, -1, alpha - n, 1; rays 0 and 2 never share a cone.
        g = marker_graph(hirzebruch(n), (-alpha, -1), 1)
        assert g.vertices == (0, 2)
        assert g.edges == ()
        assert g.components == ((0,), (2,))

    def test_p2_direct_evaluation(self):
        # rays e1, e2, -e1-e2; m = (-1,-1) evaluates to -1, -1, 2.
        f = projective_space(2)
        g = marker_graph(f, (-1, -1), 0)
        assert g.vertices == (1,)
        assert g.components == ((1,),)

    def test_nonnegative_elsewhere_gives_empty_graph(self):
        # F_2 degree (0,-1): values 0, -1, -2... pick a cleaner one: (1,-1)
        # values on rays: 1, -1, -3, 1 -> not empty. Use m=(0,-1) on P^2:
        # values 0, -1, 1 with rho = ray 1.
        g = marker_graph(projective_space(2), (0, -1), 1)
        assert g.vertices == ()
        assert g.edges == ()
        assert g.components == ()

    def test_rejects_wrong_value_on_rho(self):
        # m = (-1,-1) evaluates to +1 on ray 3 = -e2
        with pytest.raises(ValueError, match="expected -1"):
            marker_graph(hirzebruch(2), (-1, -1), 3)

    def test_edges_match_cone_queries(self):
        f = scroll_110_fan()
        g = marker_graph(f, (-1, -1, 0), 0)
        for i, j in itertools.combinations(g.vertices, 2):
            has_edge = (i, j) in g.edges
            assert has_edge == (cone_containing(f, {i, j}) is not None)


class TestAdmissibleComponents:
    def test_split_graph_yields_both(self):
        g = marker_graph(hirzebruch(2), (-1, -1), 1)
        assert admissible_components(g) == [(0,), (2,)]

    def test_connected_graph_yields_none(self):
        g = marker_graph(projective_space(2), (-1, -1), 0)
        assert admissible_components(g) == []

    def test_empty_graph_yields_none(self):
        g = MarkerGraph(rho=0, vertices=(), edges=(), components=())
        assert admissible_components(g) == []


class TestDegreeBox:
    def test_contains_exactly_the_bounded_degrees(self):
        f = hirzebruch(2)
        box = degree_box(f, 2)
        assert box == sorted(box)
        expected = [
            m
            for m in itertools.product(range(-8, 9), repeat=2)
            if all(abs(pairing(m, r)) <= 2 for r in f.rays)
        ]
        assert box == sorted(expected)

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError, match="bound"):
            degree_box(hirzebruch(2), 0)

    def test_default_bound(self):
        assert default_bound(hirzebruch(5)) == 12
        assert default_bound(projective_space(2)) == 4


class TestEnumerateTriples:
    def test_f2_exactly_two(self):
        got = enumerate_triples(hirzebruch(2), 3)
        assert got == [
            AdmissibleTriple(m=(-1, -1), rho=1, component=(0,)),
            AdmissibleTriple(m=(-1, -1), rho=1, component=(2,)),
        ]

    @pytest.mark.parametrize("bound", [1, 2, 3])
    def test_p2_none(self, bound):
        assert enumerate_triples(projective_space(2), bound) == []

    def test_scroll_110_rigid(self):
        f = scroll_110_fan()
        assert validate(f) == {"smooth": True, "complete": True, "simplicial": True}
        assert enumerate_triples(f, 3) == []

    @pytest.mark.parametrize("fan_builder,bound", [
        (lambda: hirzebruch(2), 3),
        (lambda: hirzebruch(3), 4),
        (lambda: projective_space(2), 3),
        (scroll_110_fan, 2),
    ])
    def test_matches_brute_force(self, fan_builder, bound):
        f = fan_builder()
        got = {(t.m, t.rho, t.component) for t in enumerate_triples(f, bound)}
        assert got == brute_triples(f, bound)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_hirzebruch_count(self, n):
        triples = enumerate_triples(hirzebruch(n), n)
        assert len(triples) == 2 * (n - 1)
        # two component choices per alpha in 1..n-1, all at rho = ray 1
        assert {t.m for t in triples} == {(-a, -1) for a in range(1, n)}
        assert all(t.rho == 1 for t in triples)

    def test_round_trip_and_rho_exclusion(self):
        for t in enumerate_triples(hirzebruch(4), 4):
            g = marker_graph(hirzebruch(4), t.m, t.rho)
            assert t.component in admissible_components(g)
            assert t.rho not in t.component

    def test_rejects_incomplete_fan(self):
        f = Fan(dim=2, rays=((1, 0), (0, 1)), max_cones=((0, 1),))
        with pytest.raises(ValueError, match="smooth complete fan; this fan is not complete$"):
            enumerate_triples(f, 2)


class TestTriplesAtDegree:
    def test_f2_golden(self):
        assert triples_at_degree(hirzebruch(2), [-1, -1]) == [
            AdmissibleTriple(m=(-1, -1), rho=1, component=(0,)),
            AdmissibleTriple(m=(-1, -1), rho=1, component=(2,)),
        ]

    def test_no_triples_at_zero(self):
        assert triples_at_degree(hirzebruch(2), (0, 0)) == []

    @pytest.mark.parametrize("fan_builder,bound", [
        (lambda: hirzebruch(4), 4),
        (lambda: projective_space(3), 2),
        (scroll_110_fan, 2),
    ])
    def test_groups_enumerate_triples_by_degree(self, fan_builder, bound):
        f = fan_builder()
        grouped = [t for m in degree_box(f, bound) for t in triples_at_degree(f, m)]
        assert grouped == enumerate_triples(f, bound)


class TestH1ClosedForm:
    def test_empty_is_zero(self):
        assert h1_closed_form([]) == 0

    def test_f3_degrees(self):
        f = hirzebruch(3)
        assert h1_closed_form(triples_at_degree(f, (-1, -1))) == 1
        assert h1_closed_form(triples_at_degree(f, (-2, -1))) == 1

    def test_counts_components_minus_one_per_ray(self):
        # rho 0 with three components, rho 2 with two: (3 - 1) + (2 - 1)
        ts = [AdmissibleTriple(m=(0,), rho=0, component=(c,)) for c in (1, 2, 3)]
        ts += [AdmissibleTriple(m=(0,), rho=2, component=(c,)) for c in (1, 3)]
        assert h1_closed_form(ts) == 3
