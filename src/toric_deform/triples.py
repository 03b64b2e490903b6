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


def degree_box(fan: Fan, bound: int) -> list[tuple[int, ...]]:
    """All degrees m with |m(ray)| <= bound for every ray, sorted.

    Degrees are parametrized by their values on the rays of the first
    maximal cone (unimodular for smooth fans), so the sweep is exact.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    sigma = fan.max_cones[0]
    vt = fan.cone_matrix(sigma).T
    cols = [intlin.solve_int(vt, intlin.ivec([1 if i == j else 0 for i in range(fan.dim)])) for j in range(fan.dim)]
    inv = np.stack(cols, axis=1)
    out = []
    for vals in itertools.product(range(-bound, bound + 1), repeat=fan.dim):
        m = tuple(int(x) for x in inv @ intlin.ivec(vals))
        if all(abs(pairing(m, r)) <= bound for r in fan.rays):
            out.append(m)
    out.sort()
    return out


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
    """All admissible triples with m in the degree box.

    With no bound, uses default_bound(fan).

    Raises:
        ValueError: for bound < 1 or a fan that is not smooth and complete.
    """
    require_smooth_complete(fan, "triple enumeration")
    if bound is None:
        bound = default_bound(fan)
    triples = []
    for m in degree_box(fan, bound):
        triples.extend(triples_at_degree(fan, m))
    triples.sort(key=lambda t: (t.m, t.rho, t.component))
    return triples
