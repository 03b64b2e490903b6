"""Marker graphs and admissible-triple enumeration.

Oracles, both independent of the chamber enumerator:
- brute_triples loops over raw degree coordinates, evaluates the degree on
  every ray directly, builds the graph by pairwise cone queries and takes
  components by union-find. The enumerator is checked against it on fans
  moved by ray permutations and GL_n(Z) changes of basis, where the
  triples move with the fan.
- slice_triples scans, for each ray rho, the slice m(v_rho) = -1 of a
  degree box in numpy int64, with one union-find marker graph per sign
  class. It is fast enough to check the unbounded support against boxes
  twice as wide as the old default box on 3- and 4-folds.
"""

from __future__ import annotations

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_deform import intlin
from toric_deform import triples as triples_mod
from toric_deform.fan import (
    Fan,
    cone_containing,
    hirzebruch,
    product,
    product_of_lines,
    projective_space,
    validate,
)
from toric_deform.scrolls import ScrollSpec, scroll_fan
from toric_deform.triples import (
    AdmissibleTriple,
    MarkerGraph,
    admissible_components,
    chamber_support,
    components,
    degree_box,
    enumerate_triples,
    h1_closed_form,
    marker_graph,
    pairing,
    ray_adjacency,
    triples_at_degree,
)


def scroll_110_fan() -> Fan:
    # Three-fold scroll with degrees (1, 1, 0): two base rays, three fibers.
    return Fan(
        dim=3,
        rays=((1, 0, 0), (-1, 1, 1), (0, 1, 0), (0, 0, 1), (0, -1, -1)),
        max_cones=((0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3), (1, 2, 4), (1, 3, 4)),
    )


def default_box_bound(fan: Fan) -> int:
    """Half-width of the degree box the h1 and triples commands once used
    by default: twice (1 + the largest absolute ray coordinate)."""
    return 2 * (1 + max(abs(x) for r in fan.rays for x in r))


def blown_up_plane(r: int) -> Fan:
    """P^2 blown up r - 3 times at torus-fixed points.

    Each step inserts the sum of two adjacent rays between them, two
    positions further round the fan than the step before.
    """
    rays = [(1, 0), (0, 1), (-1, -1)]
    pos = 0
    while len(rays) < r:
        a, b = rays[pos % len(rays)], rays[(pos + 1) % len(rays)]
        rays.insert(pos % len(rays) + 1, (a[0] + b[0], a[1] + b[1]))
        pos = pos % (len(rays) - 1) + 2
    k = len(rays)
    return Fan(dim=2, rays=tuple(rays), max_cones=tuple(tuple(sorted((i, (i + 1) % k))) for i in range(k)))


def union_find_components(fan: Fan, vertices) -> list[tuple[int, ...]]:
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
    return [tuple(sorted(c)) for c in comps.values()]


def slice_triples(fan: Fan, bound: int) -> list[tuple]:
    """Sorted (m, rho, component) with |m(v)| <= bound, slice by slice.

    For each rho, m is written by its values on the rays of the first
    maximal cone containing rho, which is unimodular; m(v_rho) = -1 leaves
    a (2*bound + 1)^(n-1) grid of the other values, evaluated on every ray
    in int64.
    """
    n = fan.dim
    found = []
    for rho in range(fan.n_rays):
        sigma = next(c for c in fan.max_cones if rho in c)
        solver = intlin.Solver(fan.cone_matrix(sigma))
        # inv[i][j] = (V_sigma^-1)[i][j]; m = inv^T @ values on sigma
        cols = [solver.solve(e) for e in intlin.identity(n)]
        inv = np.array([[int(cols[j][i]) for j in range(n)] for i in range(n)], dtype=np.int64)
        axes = [np.array([-1]) if sigma[j] == rho else np.arange(-bound, bound + 1) for j in range(n)]
        vals = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        degrees = vals @ inv
        values = degrees @ np.array(fan.rays, dtype=np.int64).T
        keep = (np.abs(values) <= bound).all(axis=1)
        degrees, values = degrees[keep], values[keep]
        assert (values[:, rho] == -1).all()
        graphs = {}
        for m, row in zip(degrees.tolist(), values.tolist()):
            negative = tuple(i for i, x in enumerate(row) if x < 0 and i != rho)
            if negative not in graphs:
                graphs[negative] = union_find_components(fan, negative)
            if len(graphs[negative]) >= 2:
                found.extend((tuple(m), rho, c) for c in graphs[negative])
    return sorted(found)


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
            comps = union_find_components(fan, vertices)
            if len(comps) < 2:
                continue
            for c in comps:
                found.add((m, rho, c))
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

    def test_rejects_non_unimodular_first_cone(self):
        # P(1,1,2): the first cone, on (1,0) and (-1,-2), has index 2
        f = Fan(dim=2, rays=((1, 0), (0, 1), (-1, -2)), max_cones=((0, 2), (1, 2), (0, 1)))
        with pytest.raises(ValueError, match="unimodular first maximal cone"):
            degree_box(f, 2)

    def test_default_bound(self):
        # with no bound the whole support is listed; it lies inside the
        # box the old default bound, 2 * (1 + largest |ray coordinate|), gave
        assert default_box_bound(hirzebruch(5)) == 12
        assert default_box_bound(projective_space(2)) == 4
        for f in (hirzebruch(5), projective_space(2)):
            assert enumerate_triples(f) == enumerate_triples(f, default_box_bound(f))


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


@functools.lru_cache(maxsize=None)
def cached_brute(fan: Fan, bound: int) -> frozenset:
    return frozenset(brute_triples(fan, bound))


@st.composite
def brute_sized_fans(draw):
    """(fan, bound): a Hirzebruch fan or a scroll of dim 2-4, with a bound
    that keeps brute_triples' coordinate cube at most 20,000 points."""
    n = draw(st.integers(2, 4))
    if n == 2 and draw(st.booleans()):
        fan = hirzebruch(draw(st.integers(0, 5)))
    else:
        fan = scroll_fan(ScrollSpec(tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))))
    biggest = max(abs(x) for r in fan.rays for x in r)
    fits = [b for b in range(1, 7) if (2 * b * (1 + biggest) + 1) ** fan.dim <= 20000]
    return fan, draw(st.sampled_from(fits))


@st.composite
def unimodular_pairs(draw, n):
    """(g, g^-1) for a random g in GL_n(Z): a product of elementary moves."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    g_inv = [row[:] for row in g]
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        # g <- (1 + c e_ij) g and g^-1 <- g^-1 (1 - c e_ij)
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in g_inv:
            row[j] -= c * row[i]
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 1))
        g[k] = [-a for a in g[k]]
        for row in g_inv:
            row[k] = -row[k]
    return g, g_inv


class TestScanMatchesBruteForce:
    """chamber_support with a bound against brute_triples, which shares no
    code with it."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_moved_fans(self, data):
        fan, bound = data.draw(brute_sized_fans())
        n = fan.dim
        perm = data.draw(st.permutations(range(fan.n_rays)))
        cone_order = data.draw(st.permutations(range(len(fan.max_cones))))
        g, g_inv = data.draw(unimodular_pairs(n))
        assert [[sum(g[i][k] * g_inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]
        # ray k of the moved fan is g v_perm[k]
        new_index = {old: k for k, old in enumerate(perm)}
        moved = Fan(
            dim=n,
            rays=tuple(
                tuple(sum(g[i][j] * fan.rays[old][j] for j in range(n)) for i in range(n))
                for old in perm
            ),
            max_cones=tuple(
                tuple(new_index[i] for i in fan.max_cones[c]) for c in cone_order
            ),
        )
        # a triple (m, rho, C) of fan is (g^-T m, rho', C') on the moved fan
        expected = sorted(
            (
                tuple(sum(g_inv[l][k] * m[l] for l in range(n)) for k in range(n)),
                new_index[rho],
                tuple(sorted(new_index[i] for i in comp)),
            )
            for m, rho, comp in cached_brute(fan, bound)
        )
        support = chamber_support(moved, bound)
        assert [(t.m, t.rho, t.component) for t in support.triples] == expected

    def test_wide_bound_matches_brute_force(self):
        f = hirzebruch(2)
        bound = 33
        got = {(t.m, t.rho, t.component) for t in enumerate_triples(f, bound)}
        assert got == brute_triples(f, bound)

    @pytest.mark.parametrize("bound", [1, 3, 4096])
    def test_bound_filters_the_support(self, bound):
        # --bound B keeps exactly the triples with |m(v)| <= B on every ray
        f = scroll_fan(ScrollSpec((5, 2, 0)))
        whole = enumerate_triples(f)
        assert enumerate_triples(f, bound) == [
            t for t in whole if all(abs(pairing(t.m, r)) <= bound for r in f.rays)
        ]


# Fans on which the unbounded support is checked against slice_triples at
# twice the old default bound.
SUPPORT_FANS = {
    **{f"F_{n}": hirzebruch(n) for n in range(6)},
    **{
        f"S{a}": scroll_fan(ScrollSpec(a))
        for a in ((2, 1, 0), (3, 1, 0), (4, 0, 0), (3, 0, 0, 0), (4, 0, 0, 0), (5, 2, 0))
    },
    "F_2xF_3": product(hirzebruch(2), hirzebruch(3)),
    "F_3xP^1": product(hirzebruch(3), projective_space(1)),
    "P1xP1xP1": product_of_lines(3),
}


class TestChamberSupport:
    @pytest.mark.parametrize("key", sorted(SUPPORT_FANS))
    def test_support_equals_doubled_box(self, key):
        f = SUPPORT_FANS[key]
        support = chamber_support(f)
        assert support.unbounded is None
        got = [(t.m, t.rho, t.component) for t in support.triples]
        assert got == slice_triples(f, 2 * default_box_bound(f))

    @pytest.mark.parametrize("r,count", [(8, 8), (12, 24), (20, 56), (28, 88)])
    def test_blown_up_planes(self, r, count):
        f = blown_up_plane(r)
        assert f.n_rays == r
        assert validate(f) == {"smooth": True, "complete": True, "simplicial": True}
        support = chamber_support(f)
        assert support.unbounded is None
        got = [(t.m, t.rho, t.component) for t in support.triples]
        assert len(got) == count
        assert got == slice_triples(f, default_box_bound(f))

    def test_fm_systems_stay_few_on_many_rays(self):
        # 20 rays: 20 * 2^19 candidate sets, and 3,820 connected ones
        support = chamber_support(blown_up_plane(20))
        assert support.fm_systems < 1000
        assert support.chambers == 28

    def test_lists_each_feasible_chamber_once(self):
        # F_4: rho = ray 1 with S = {0, 2} carries the degrees (-a, -1),
        # a = 1, 2, 3; that chamber is the only one listed
        f = hirzebruch(4)
        with mock.patch.object(
            intlin, "polyhedron_lattice_points", wraps=intlin.polyhedron_lattice_points
        ) as spy:
            support = chamber_support(f)
        assert spy.call_count == 1
        assert {t.m for t in support.triples} == {(-1, -1), (-2, -1), (-3, -1)}

    def test_unbounded_chamber_is_reported(self):
        def unbounded(a, b):
            raise ValueError("polyhedron is unbounded")

        with mock.patch.object(intlin, "polyhedron_lattice_points", unbounded):
            support = chamber_support(hirzebruch(2))
            assert support.unbounded == {"rho": 1, "negative_rays": [0, 2]}
            assert support.triples == []
            with pytest.raises(ValueError, match="not finite: unbounded chamber"):
                enumerate_triples(hirzebruch(2))

    @pytest.mark.parametrize("key", sorted(SUPPORT_FANS))
    def test_components_helper_matches_union_find(self, key):
        f = SUPPORT_FANS[key]
        adj = ray_adjacency(f)
        for k in range(f.n_rays + 1):
            for vertices in itertools.combinations(range(f.n_rays), k):
                assert list(components(vertices, adj)) == sorted(union_find_components(f, vertices))


class TestScanBox:
    """Work counters. The class keeps the name it had when it tested the
    degree-box scan, which the chamber search replaced."""

    @pytest.mark.parametrize("fan_builder,bound", [
        (lambda: hirzebruch(3), 4),
        (lambda: scroll_fan(ScrollSpec((3, 1, 0))), 2),
        (lambda: projective_space(3), 2),
    ])
    def test_counters(self, fan_builder, bound):
        f = fan_builder()
        support = chamber_support(f, bound)
        assert support == chamber_support(f, bound)
        # the bound filters points, it never changes the search
        unbounded = chamber_support(f)
        assert (support.chambers, support.fm_systems) == (unbounded.chambers, unbounded.fm_systems)
        # every chamber that carries triples was reached, and decided
        carrying = {
            (t.rho, tuple(i for i, r in enumerate(f.rays) if pairing(t.m, r) < 0))
            for t in unbounded.triples
        }
        assert len(carrying) <= support.chambers <= support.fm_systems

    def test_one_marker_graph_per_sign_class(self):
        # at one degree, triples_at_degree builds one marker graph per ray
        # with m(v_rho) = -1, that is per sign class (rho, S) met; the
        # chamber search builds none, it takes components of S directly
        f = hirzebruch(4)
        m = (-2, -1)  # values -2, -1, -2, 1
        with mock.patch.object(triples_mod, "marker_graph", wraps=marker_graph) as spy:
            at_m = triples_at_degree(f, m)
            assert spy.call_count == 1
            support = chamber_support(f)
            assert spy.call_count == 1
        assert [t for t in support.triples if t.m == m] == at_m


class TestBoxGuard:
    """degree_box keeps a point cap; the chamber enumerator needs none and
    works in Python ints, so it stays exact beyond int64."""

    def test_box_too_large_to_index(self):
        with pytest.raises(ValueError, match=r"bound 1000000000000000 is too large: the box has \(2\*bound\+1\)\^dim"):
            degree_box(hirzebruch(2), 10**15)
        # the bound is a filter on the support, so it is never too large
        assert enumerate_triples(hirzebruch(2), 10**15) == enumerate_triples(hirzebruch(2))

    def test_ray_values_beyond_int64(self):
        # F_n with n = 10^20 at bound n/2 + 1: the degrees (-a, -1) with
        # n - bound <= a <= bound, whose values a - n pass 2^63
        n = 10**20
        got = enumerate_triples(hirzebruch(n), n // 2 + 1)
        assert [(t.m, t.component) for t in got] == [
            ((-a, -1), c) for a in (n // 2 + 1, n // 2, n // 2 - 1) for c in ((0,), (2,))
        ]
        assert max(abs(pairing(t.m, r)) for t in got for r in hirzebruch(n).rays) > 2**63

    def test_coordinates_beyond_int64(self):
        # F_2 moved by g = [[1, N], [0, 1]]: its triple (-1, -1) moves to
        # g^-T (-1, -1) = (-1, N - 1), a coordinate beyond int64
        big = 10**20
        f = Fan(
            dim=2,
            rays=((1, 0), (big, 1), (-1 + 2 * big, 2), (-big, -1)),
            max_cones=((0, 1), (1, 2), (2, 3), (3, 0)),
        )
        got = enumerate_triples(f)
        assert [(t.m, t.rho, t.component) for t in got] == [
            ((-1, big - 1), 1, (0,)), ((-1, big - 1), 1, (2,))
        ]

    def test_largest_safe_box_is_accepted(self):
        # there is no largest safe bound any more: P^1 at 2^61 (the int64
        # edge of the former box scan) and far beyond it list the empty support
        for bound in (2**61, 2**200):
            assert enumerate_triples(projective_space(1), bound) == []

    def test_box_point_cap(self):
        # (2*10^9+1)^2 degrees would never finish
        with pytest.raises(
            ValueError,
            match=r"bound 1000000000 is too large: .* above the cap of 33554432",
        ):
            degree_box(hirzebruch(2), 10**9)
        # the cap sits well above the largest box the tests list
        assert 33**4 < triples_mod._MAX_BOX_POINTS
        side = 2 * 2**12 + 1  # P^1: exactly at and just past the cap
        with mock.patch.object(triples_mod, "_MAX_BOX_POINTS", side):
            assert len(degree_box(projective_space(1), 2**12)) == side
            with pytest.raises(ValueError, match="above the cap"):
                degree_box(projective_space(1), 2**12 + 1)

    def test_first_cone_is_factored_once(self):
        # the first cone is inverted by one elimination, with no Smith form
        f = product(hirzebruch(2), hirzebruch(3))
        with mock.patch.object(
            intlin, "smith_normal_form", wraps=intlin.smith_normal_form
        ) as snf, mock.patch.object(
            intlin, "unimodular_solve", wraps=intlin.unimodular_solve
        ) as elim:
            degree_box(f, 1)
        assert elim.call_count == 1
        assert elim.call_args.args[0] == f.cone_matrix(f.max_cones[0])
        assert snf.call_count == 0


class TestBoundRegression:
    """The unbounded support equals the box at twice the old default bound."""

    @pytest.mark.parametrize("fan_builder,count,h1", [
        (lambda: product(hirzebruch(3), projective_space(1)), 4, 2),
        (lambda: product(hirzebruch(2), hirzebruch(3)), 6, 3),
        (lambda: scroll_fan(ScrollSpec((5, 2, 0))), 14, 7),
    ])
    def test_doubling_changes_nothing(self, fan_builder, count, h1):
        f = fan_builder()
        whole = enumerate_triples(f)
        assert len(whole) == count
        assert enumerate_triples(f, 2 * default_box_bound(f)) == whole
        by_degree = itertools.groupby(whole, key=lambda t: t.m)
        assert sum(h1_closed_form(list(ts)) for _, ts in by_degree) == h1
