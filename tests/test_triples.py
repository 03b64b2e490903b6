"""Marker graphs and admissible-triple enumeration.

Oracle: an independent brute-force enumerator in this file loops over raw
degree coordinates, evaluates the degree on every ray directly, builds the
graph by pairwise cone queries and takes components by union-find. The
int64 box scan is checked against it on fans moved by ray permutations and
GL_n(Z) changes of basis, where the triples move with the fan.
"""

from __future__ import annotations

import functools
import itertools
from unittest import mock

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
    projective_space,
    validate,
)
from toric_deform.scrolls import ScrollSpec, scroll_fan
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
    scan_box,
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

    def test_rejects_non_unimodular_first_cone(self):
        # P(1,1,2): the first cone, on (1,0) and (-1,-2), has index 2
        f = Fan(dim=2, rays=((1, 0), (0, 1), (-1, -2)), max_cones=((0, 2), (1, 2), (0, 1)))
        with pytest.raises(ValueError, match="unimodular first maximal cone"):
            degree_box(f, 2)

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
    """scan_box against brute_triples, never against degree_box, which
    shares the scan's chunk generator."""

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
        chunk = data.draw(st.sampled_from((5, 64, 4096)))
        with mock.patch.object(triples_mod, "_CHUNK_ROWS", chunk):
            scan = scan_box(moved, bound)
        assert [(t.m, t.rho, t.component) for t in scan.triples] == expected

    def test_box_wider_than_one_chunk(self):
        # 67^2 = 4,489 grid points, so the default chunk size leaves a seam
        f = hirzebruch(2)
        bound = 33
        assert (2 * bound + 1) ** 2 > triples_mod._CHUNK_ROWS
        got = {(t.m, t.rho, t.component) for t in enumerate_triples(f, bound)}
        assert got == brute_triples(f, bound)

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    def test_chunk_size_changes_nothing(self, chunk):
        f = scroll_fan(ScrollSpec((2, 1, 0)))
        reference = scan_box(f, 3)
        with mock.patch.object(triples_mod, "_CHUNK_ROWS", chunk):
            scan = scan_box(f, 3)
        assert scan == reference


class TestScanBox:
    @pytest.mark.parametrize("fan_builder,bound", [
        (lambda: hirzebruch(3), 4),
        (lambda: scroll_fan(ScrollSpec((3, 1, 0))), 2),
        (lambda: projective_space(3), 2),
    ])
    def test_counters(self, fan_builder, bound):
        f = fan_builder()
        scan = scan_box(f, bound)
        assert scan.degrees_scanned == len(degree_box(f, bound))
        # one marker graph per (rho, negative set) met in the box
        classes = {
            (rho, tuple(i for i, r in enumerate(f.rays) if pairing(m, r) < 0))
            for m in degree_box(f, bound)
            for rho, r in enumerate(f.rays)
            if pairing(m, r) == -1
        }
        assert scan.marker_graphs == len(classes)

    def test_one_marker_graph_per_sign_class(self):
        f = hirzebruch(4)
        with mock.patch.object(triples_mod, "marker_graph", wraps=marker_graph) as spy:
            scan = scan_box(f, 6)
        assert spy.call_count == scan.marker_graphs < scan.degrees_scanned


class TestBoxGuard:
    def test_box_too_large_to_index(self):
        with pytest.raises(ValueError, match=r"bound 1000000000000000 is too large: \(2\*bound\+1\)\^dim"):
            scan_box(hirzebruch(2), 10**15)
        with pytest.raises(ValueError, match="bound 1000000000000000 is too large"):
            degree_box(hirzebruch(2), 10**15)

    def test_ray_values_beyond_int64(self):
        # 2,000,001^2 box points fit, but m(v) on (-1, 10^13) reaches ~10^19
        with pytest.raises(ValueError, match=r"bound 1000000 is too large: \|m\(v_rho\)\|"):
            scan_box(hirzebruch(10**13), 10**6)

    def test_coordinates_beyond_int64(self):
        # F_0 moved by [[1, N], [0, 1]]: ray values stay within the bound,
        # coordinates of m do not
        big = 10**13
        f = Fan(
            dim=2,
            rays=((1, 0), (big, 1), (-1, 0), (-big, -1)),
            max_cones=((0, 1), (1, 2), (2, 3), (3, 0)),
        )
        with pytest.raises(ValueError, match=r"bound 1000000 is too large: \|m_i\|"):
            scan_box(f, 10**6)

    def test_largest_safe_box_is_accepted(self):
        # the int64 guard is exact: P^1 at bound 2^61 fits int64, so with
        # the box-point cap lifted the scan starts
        with mock.patch.object(triples_mod, "_MAX_BOX_POINTS", 2**63):
            box = triples_mod._box_chunks(projective_space(1), 2**61)
            degrees, values = next(box)
        assert abs(degrees[0, 0]) == 2**61
        assert sorted(values[0].tolist()) == [-(2**61), 2**61]
        box.close()

    def test_box_point_cap(self):
        # (2*10^9+1)^2 points fit int64 but would never finish
        for scan in (scan_box, degree_box):
            with pytest.raises(
                ValueError,
                match=r"bound 1000000000 is too large: .* above the cap of 33554432",
            ):
                scan(hirzebruch(2), 10**9)
        # the cap sits well above the largest box the tests scan
        assert 33**4 < triples_mod._MAX_BOX_POINTS
        side = 2 * 2**12 + 1  # P^1: exactly at and just past the cap
        with mock.patch.object(triples_mod, "_MAX_BOX_POINTS", side):
            assert len(degree_box(projective_space(1), 2**12)) == side
            with pytest.raises(ValueError, match="above the cap"):
                degree_box(projective_space(1), 2**12 + 1)

    def test_first_cone_is_factored_once(self):
        f = product(hirzebruch(2), hirzebruch(3))
        with mock.patch.object(
            intlin, "smith_normal_form", wraps=intlin.smith_normal_form
        ) as spy:
            next(triples_mod._box_chunks(f, 2))
        assert spy.call_count == 1


class TestBoundRegression:
    """Doubling the default bound finds no new triples (ROADMAP item 4)."""

    @pytest.mark.parametrize("fan_builder,count,h1", [
        (lambda: product(hirzebruch(3), projective_space(1)), 4, 2),
        (lambda: product(hirzebruch(2), hirzebruch(3)), 6, 3),
        (lambda: scroll_fan(ScrollSpec((5, 2, 0))), 14, 7),
    ])
    def test_doubling_changes_nothing(self, fan_builder, count, h1):
        f = fan_builder()
        small = enumerate_triples(f)
        assert len(small) == count
        assert len(enumerate_triples(f, 2 * default_bound(f))) == count
        by_degree = itertools.groupby(small, key=lambda t: t.m)
        assert sum(h1_closed_form(list(ts)) for _, ts in by_degree) == h1
