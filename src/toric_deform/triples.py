"""Marker graphs and enumeration of admissible degree/ray/component triples.

For a degree m in the character lattice and a ray rho with m(rho) = -1, the
marker graph has as vertices all other rays where m is negative, with edges
between rays spanning a common cone. A triple (m, rho, C) is admissible when
C is a proper connected component of that graph. Such triples index the
one-parameter deformations constructed downstream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import intlin
from .fan import Fan, cone_containing, validate

# Box points per numpy chunk of the degree scan; bounds its memory.
_CHUNK_ROWS = 4096
_INT64_MAX = 2**63 - 1
# Most box points one scan may visit: about 28x the largest box the tests
# scan (F_2 x F_3 at bound 16, 33^4 points), so a bound that would run
# for hours fails at once instead.
_MAX_BOX_POINTS = 2**25


def pairing(m, ray) -> int:
    """Value of the character m on a lattice point (dual pairing)."""
    return sum(int(a) * int(b) for a, b in zip(m, ray))


@dataclass(frozen=True)
class MarkerGraph:
    """Graph on the negative rays of a degree, minus the chosen ray.

    Attributes:
        rho: the excluded ray index.
        vertices: sorted ray indices tau != rho with m(tau) < 0.
        edges: sorted pairs of vertices spanning a common cone.
        components: connected components, each sorted, ordered by smallest
            vertex.
    """

    rho: int
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AdmissibleTriple:
    """Degree m, ray rho with m(rho) = -1, proper component C."""

    m: tuple[int, ...]
    rho: int
    component: tuple[int, ...]


def marker_graph(fan: Fan, m, rho: int) -> MarkerGraph:
    """Build the marker graph of (m, rho).

    Raises:
        ValueError: if m(rho) != -1.
    """
    m = tuple(int(x) for x in m)
    if pairing(m, fan.rays[rho]) != -1:
        raise ValueError(f"m evaluates to {pairing(m, fan.rays[rho])} on ray {rho}, expected -1")
    vertices = tuple(
        i for i in range(fan.n_rays) if i != rho and pairing(m, fan.rays[i]) < 0
    )
    edges = tuple(
        (i, j)
        for i, j in itertools.combinations(vertices, 2)
        if cone_containing(fan, {i, j}) is not None
    )
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen: set[int] = set()
    components = []
    for v in vertices:
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.add(nxt)
                    stack.append(nxt)
        components.append(tuple(sorted(comp)))
    components.sort(key=lambda c: c[0])
    return MarkerGraph(
        rho=rho, vertices=vertices, edges=edges, components=tuple(components)
    )


def admissible_components(g: MarkerGraph) -> list[tuple[int, ...]]:
    """All components that are proper subsets of the vertex set."""
    if len(g.components) < 2:
        return []
    return list(g.components)


def triples_at_degree(fan: Fan, m) -> list[AdmissibleTriple]:
    """All admissible triples of one degree m, ordered by (rho, component)."""
    m = tuple(int(x) for x in m)
    triples = []
    for rho in range(fan.n_rays):
        if pairing(m, fan.rays[rho]) != -1:
            continue
        for comp in admissible_components(marker_graph(fan, m, rho)):
            triples.append(AdmissibleTriple(m=m, rho=rho, component=comp))
    return triples


def h1_closed_form(triples) -> int:
    """dim H^1(X, T_X)_m read off the admissible triples of degree m.

    Hypothesis: the fan is smooth and complete. Then the Euler sequence
    gives H^1(T_X) = sum over rays rho of H^1(O(D_rho)), and in degree m
    that summand is the reduced H^0 of the subcomplex of the fan on the
    rays tau with m(v_tau) + [tau == rho] < 0 (Cox-Little-Schenck, Toric
    Varieties, ch. 9; Eisenbud-Mustata-Stillman 2000). Unless
    m(v_rho) = -1 that is the subcomplex of O itself, whose H^1 vanishes
    on a complete fan; when m(v_rho) = -1 its 1-skeleton is the marker
    graph, so the summand has dimension
    max(0, #components(marker_graph(m, rho)) - 1).
    A ray whose marker graph has k >= 2 components carries exactly k
    triples, so

        dim H^1(X, T_X)_m = #triples(m) - #{rho carrying a triple at m},

    which is zero exactly where m has no admissible triple. On other fans
    the count means nothing; callers gate on smooth + complete first.
    """
    return len(triples) - len({t.rho for t in triples})


def default_bound(fan: Fan) -> int:
    """Degree-box half-width used when the caller gives none.

    Heuristic: twice (1 + the largest absolute ray coordinate). Covers all
    worked examples; the box used is always reported alongside results.
    """
    biggest = max(abs(x) for r in fan.rays for x in r)
    return 2 * (1 + biggest)


def _box_chunks(fan: Fan, bound: int):
    """Yield the degree box as (degrees, values) int64 chunks.

    Each chunk holds up to _CHUNK_ROWS box points, in itertools.product
    order of their coordinates: rows of ``degrees`` are degrees m, and rows
    of ``values`` their values m(v_rho) on every ray. The arithmetic is
    exact because every magnitude it can reach is checked against int64, in
    Python ints, before anything is allocated.

    Raises:
        ValueError: for bound < 1, a bound too large for int64, a box of
            more than _MAX_BOX_POINTS points, or a first maximal cone that
            is not unimodular.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = fan.dim
    sigma = fan.max_cones[0]
    vt = fan.cone_matrix(sigma).T
    cols = [None]
    if len(sigma) == n:
        solver = intlin.Solver(vt)
        eye = intlin.identity(n)
        cols = [solver.solve(eye[:, j]) for j in range(n)]
    if any(c is None for c in cols):
        raise ValueError("the degree box needs a unimodular first maximal cone")
    # m = inv @ vals, where vals are m's values on the rays of sigma
    inv = [[int(cols[j][i]) for j in range(n)] for i in range(n)]
    # vals @ pair gives m's value on every ray
    pair = [[sum(r[i] * inv[i][j] for i in range(n)) for r in fan.rays] for j in range(n)]
    side = 2 * bound + 1
    total = side**n
    reach = {
        "(2*bound+1)^dim box points": total,
        "|m_i|": bound * max(sum(abs(x) for x in row) for row in inv),
        "|m(v_rho)|": bound * max(sum(abs(pair[j][k]) for j in range(n)) for k in range(fan.n_rays)),
    }
    for what, value in reach.items():
        if value > _INT64_MAX:
            raise ValueError(f"bound {bound} is too large: {what} can reach {value}, beyond int64")
    if total > _MAX_BOX_POINTS:
        raise ValueError(
            f"bound {bound} is too large: the box has (2*bound+1)^dim = {total} points, "
            f"above the cap of {_MAX_BOX_POINTS}"
        )
    place = np.array([side ** (n - 1 - k) for k in range(n)], dtype=np.int64)
    inv_t = np.array(inv, dtype=np.int64).T
    pair = np.array(pair, dtype=np.int64)
    for start in range(0, total, _CHUNK_ROWS):
        idx = np.arange(start, min(start + _CHUNK_ROWS, total), dtype=np.int64)
        vals = idx[:, None] // place % side - bound
        values = vals @ pair
        keep = (np.abs(values) <= bound).all(axis=1)
        yield vals[keep] @ inv_t, values[keep]


def degree_box(fan: Fan, bound: int) -> list[tuple[int, ...]]:
    """All degrees m with |m(ray)| <= bound for every ray, sorted.

    Degrees are parametrized by their values on the rays of the first
    maximal cone (unimodular for smooth fans), so the sweep is exact.

    Raises:
        ValueError: as _box_chunks.
    """
    out = []
    for degrees, _ in _box_chunks(fan, bound):
        out.extend(map(tuple, degrees.tolist()))
    out.sort()
    return out


@dataclass(frozen=True)
class BoxScan:
    """The admissible triples of a degree box and the work that found them.

    Attributes:
        triples: sorted by (m, rho, component).
        degrees_scanned: degrees in the box.
        marker_graphs: marker_graph calls, one per sign class.
    """

    triples: list[AdmissibleTriple]
    degrees_scanned: int
    marker_graphs: int


def scan_box(fan: Fan, bound: int) -> BoxScan:
    """All admissible triples with m in the degree box, in int64 chunks.

    The marker graph of (m, rho) depends on m only through its sign class:
    rho and the set of rays where m is negative. So for each rho the box
    degrees with m(v_rho) = -1 are grouped by that set, and marker_graph
    runs once per class, on the first degree met in it. Every degree of a
    class with at least two components carries one triple per component.
    The triples mean something only on a smooth complete fan;
    enumerate_triples and the CLI gate on that first.

    Raises:
        ValueError: as _box_chunks.
    """
    components: dict[tuple[int, bytes], list[tuple[int, ...]]] = {}
    triples = []
    scanned = 0
    for degrees, values in _box_chunks(fan, bound):
        scanned += len(degrees)
        negative = values < 0
        for rho in range(fan.n_rays):
            hit = values[:, rho] == -1
            if not hit.any():
                continue
            at_rho = degrees[hit]
            classes, first, inverse = np.unique(
                negative[hit], axis=0, return_index=True, return_inverse=True
            )
            inverse = inverse.reshape(-1)
            for k, cls in enumerate(classes):
                key = (rho, cls.tobytes())
                if key not in components:
                    g = marker_graph(fan, at_rho[first[k]].tolist(), rho)
                    components[key] = admissible_components(g)
                comps = components[key]
                if comps:
                    for m in map(tuple, at_rho[inverse == k].tolist()):
                        triples.extend(AdmissibleTriple(m=m, rho=rho, component=c) for c in comps)
    triples.sort(key=lambda t: (t.m, t.rho, t.component))
    return BoxScan(triples=triples, degrees_scanned=scanned, marker_graphs=len(components))


def require_smooth_complete(fan: Fan, what: str) -> None:
    """Raise ValueError, naming what the fan lacks, unless it is smooth and complete."""
    rep = validate(fan)
    failing = [prop for prop in ("smooth", "complete") if not rep[prop]]
    if failing:
        raise ValueError(
            f"{what} needs a smooth complete fan; this fan is not "
            + " and not ".join(failing)
        )


def enumerate_triples(fan: Fan, bound: int | None = None) -> list[AdmissibleTriple]:
    """All admissible triples with m in the degree box (see scan_box).

    With no bound, uses default_bound(fan).

    Raises:
        ValueError: for a bound < 1 or too large for int64, or a fan that
            is not smooth and complete.
    """
    require_smooth_complete(fan, "triple enumeration")
    if bound is None:
        bound = default_bound(fan)
    return scan_box(fan, bound).triples
