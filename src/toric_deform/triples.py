"""Marker graphs and the exact enumeration of admissible triples.

For a degree m in the character lattice and a ray rho with m(rho) = -1, the
marker graph has as vertices all other rays where m is negative, with edges
between rays spanning a common cone. A triple (m, rho, C) is admissible when
C is a proper connected component of that graph. Such triples index the
one-parameter deformations constructed downstream.

The marker graph of (m, rho) depends on m only through the set S of other
rays where m is negative, so the degrees carrying triples are the lattice
points of the chambers

    {m : m(v_rho) = -1, m(v_tau) <= -1 for tau in S, m(v_tau) >= 0 otherwise}

whose S has at least two components, each point carrying one triple per
component (Eisenbud-Mustata-Stillman 2000; Cox-Little-Schenck, ch. 9).
chamber_support lists them without any degree box. On a smooth complete fan
a nonzero m has H^0 = H^1 = 0 for O_X in degree m, so the subcomplex of
the fan on the rays where m < 0 is acyclic: S + {rho} is connected, and
rho is a cut vertex of it. The search therefore grows connected ray sets
from rho, deciding the neighbours of rho first, and drops a branch as soon
as rho cannot end up a cut vertex or the partial chamber is empty. Each
feasible chamber with two or more components is bounded, because H^1(T_X)
is finite-dimensional; one that is not fails the support_complete check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import intlin
from .fan import Fan, validate

# Most degrees degree_box may list, so that a large bound fails at once.
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


def ray_adjacency(fan: Fan) -> list[set[int]]:
    """adj[i]: the rays other than i that share a maximal cone with ray i."""
    adj: list[set[int]] = [set() for _ in range(fan.n_rays)]
    for cone in fan.max_cones:
        for i in cone:
            adj[i].update(cone)
    for i, a in enumerate(adj):
        a.discard(i)
    return adj


def components(vertices, adj) -> tuple[tuple[int, ...], ...]:
    """Connected components of the graph adj induces on vertices.

    Each component is sorted, and they are ordered by smallest vertex.
    """
    todo = set(vertices)
    out = []
    for v in sorted(todo):
        if v not in todo:
            continue
        todo.discard(v)
        comp = [v]
        stack = [v]
        while stack:
            for nxt in adj[stack.pop()] & todo:
                todo.discard(nxt)
                comp.append(nxt)
                stack.append(nxt)
        out.append(tuple(sorted(comp)))
    return tuple(out)


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
    adj = ray_adjacency(fan)
    edges = tuple((i, j) for i, j in itertools.combinations(vertices, 2) if j in adj[i])
    return MarkerGraph(
        rho=rho, vertices=vertices, edges=edges, components=components(vertices, adj)
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


def _cone_inverse(fan: Fan, sigma) -> list[list[int]]:
    """Inverse of the matrix whose columns are the rays of sigma.

    Row j of the inverse applied to v_tau is the j-th coordinate of v_tau
    in the basis v_sigma, and column j is the degree m with
    m(v_sigma_i) = [i == j].

    Raises:
        ValueError: when sigma is not a unimodular full-dimensional cone.
    """
    inv = intlin.unimodular_solve(fan.cone_matrix(sigma), intlin.identity(fan.dim))
    if inv is None:
        raise ValueError(f"cone {list(sigma)} is not unimodular")
    return inv


def degree_box(fan: Fan, bound: int) -> list[tuple[int, ...]]:
    """All degrees m with |m(ray)| <= bound for every ray, sorted.

    Degrees are parametrized by their values on the rays of the first
    maximal cone (unimodular for smooth fans), so the list is exact.

    Raises:
        ValueError: for bound < 1, a first maximal cone that is not
            unimodular, or more than _MAX_BOX_POINTS candidate degrees.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    n = fan.dim
    try:
        inv = _cone_inverse(fan, fan.max_cones[0])
    except ValueError:
        raise ValueError("the degree box needs a unimodular first maximal cone") from None
    total = (2 * bound + 1) ** n
    if total > _MAX_BOX_POINTS:
        raise ValueError(
            f"bound {bound} is too large: the box has (2*bound+1)^dim = {total} points, "
            f"above the cap of {_MAX_BOX_POINTS}"
        )
    out = []
    for vals in itertools.product(range(-bound, bound + 1), repeat=n):
        m = tuple(sum(inv[j][i] * vals[j] for j in range(n)) for i in range(n))
        if all(abs(pairing(m, r)) <= bound for r in fan.rays):
            out.append(m)
    out.sort()
    return out


@dataclass
class Support:
    """The admissible triples found by chamber_support and the work done.

    Attributes:
        triples: sorted by (m, rho, component).
        chambers: candidate sets S the search completed, whatever their
            component count.
        fm_systems: Fourier-Motzkin systems decided: one partial chamber
            per ray decision of the search, and one per chamber listed.
        unbounded: None, or the first chamber with two or more components
            that turned out unbounded, as {"rho", "negative_rays"}.
    """

    triples: list[AdmissibleTriple]
    chambers: int
    fm_systems: int
    unbounded: dict | None


class _ChamberSearch:
    """The search of chamber_support for one ray rho.

    Degrees are written in the coordinates y_j = m(v_j) for the rays j of a
    unimodular maximal cone sigma containing rho. m(v_rho) = -1 fixes one of
    them, and the n - 1 others are the variables of every chamber system:
    m(v_tau) = a[tau] @ y - c[tau].
    """

    def __init__(self, fan: Fan, adj, rho: int, sigma, inv, coords, bound, support):
        self.fan, self.adj, self.rho, self.bound, self.support = fan, adj, rho, bound, support
        self.inv = inv
        self.k = sigma.index(rho)
        self.free = [j for j in range(fan.dim) if j != self.k]
        self.a = [tuple(v[j] for j in self.free) for v in coords]
        self.c = [v[self.k] for v in coords]
        self.fm = intlin.FourierMotzkin(fan.dim - 1)

    def row(self, tau: int, negative: bool):
        """m(v_tau) <= -1 or m(v_tau) >= 0, as coeffs @ y >= rhs."""
        if negative:
            return tuple(-x for x in self.a[tau]), 1 - self.c[tau]
        return self.a[tau], self.c[tau]

    def grow(self, negative: frozenset, frontier: list, decided: frozenset) -> None:
        """Decide frontier[0], the next ray next to S + {rho}, both ways."""
        if not frontier:
            self.leaf(negative)
            return
        adj, rho = self.adj, self.rho
        u, rest = frontier[0], frontier[1:]
        for into in (True, False):
            grown, nxt = negative, rest
            if into:
                grown = negative | {u}
                nxt = rest + [w for w in sorted(adj[u]) if w not in decided and w not in frontier]
            # rho must end up a cut vertex. Components of S only merge as S
            # grows, and only a neighbour of rho touching no ray of S yet
            # can start a new one.
            fresh = sum(1 for w in nxt if w in adj[rho] and not adj[w] & grown)
            if fresh < 2 and len(components(grown, adj)) + fresh < 2:
                continue
            mark = self.fm.mark()
            self.fm.push(*self.row(u, into))
            self.support.fm_systems += 1
            if self.fm.feasible():
                self.grow(grown, nxt, decided | {u})
            self.fm.undo(mark)

    def leaf(self, negative: frozenset) -> None:
        """List the chamber of S = negative if S has two or more components.

        Rays never decided touch no ray of S + {rho}; they get m >= 0.
        """
        self.support.chambers += 1
        comps = components(negative, self.adj)
        if len(comps) < 2:
            return
        others = [t for t in range(self.fan.n_rays) if t != self.rho]
        rows = [self.row(t, t in negative) for t in others]
        if self.bound is not None:
            # -bound <= m(v_t) on S, m(v_t) <= bound elsewhere
            rows += [
                (self.a[t], self.c[t] - self.bound) if t in negative
                else (tuple(-x for x in self.a[t]), -self.c[t] - self.bound)
                for t in others
            ]
        self.support.fm_systems += 1
        try:
            points = intlin.polyhedron_lattice_points([q for q, _ in rows], [b for _, b in rows])
        except ValueError:
            if self.support.unbounded is None:
                self.support.unbounded = {"rho": self.rho, "negative_rays": sorted(negative)}
            return
        n = self.fan.dim
        for y in points:
            vals = [-1] * n
            for j, x in zip(self.free, y):
                vals[j] = x
            m = tuple(sum(self.inv[j][i] * vals[j] for j in range(n)) for i in range(n))
            self.support.triples.extend(AdmissibleTriple(m=m, rho=self.rho, component=c) for c in comps)


def chamber_support(fan: Fan, bound: int | None = None) -> Support:
    """All admissible triples, found chamber by chamber (module docstring).

    For each ray rho the search decides rays one at a time, negative (in S)
    or not: first the neighbours of rho, then the rays next to S. Each
    decision adds one row to an incremental Fourier-Motzkin system, and an
    empty partial chamber ends its branch. With a bound, each ray also gets
    |m(v_tau)| <= bound when the points of a chamber are listed, so only
    degrees inside the bound are ever produced.

    The triples mean something only on a smooth complete fan; callers gate
    on that first.

    Raises:
        ValueError: for bound < 1, or a ray whose first maximal cone is not
            unimodular.
    """
    if bound is not None and bound < 1:
        raise ValueError("bound must be >= 1")
    adj = ray_adjacency(fan)
    support = Support(triples=[], chambers=0, fm_systems=0, unbounded=None)
    # sigma -> (its inverse, coords[tau][j]: the j-th coordinate of v_tau
    # in the basis v_sigma), shared by the rays whose search uses sigma
    tables: dict[tuple[int, ...], tuple[list[list[int]], list[list[int]]]] = {}
    for rho in range(fan.n_rays):
        sigma = next(c for c in fan.max_cones if rho in c)
        if sigma not in tables:
            inv = _cone_inverse(fan, sigma)
            coords = [[sum(x * y for x, y in zip(row, v)) for row in inv] for v in fan.rays]
            tables[sigma] = inv, coords
        search = _ChamberSearch(fan, adj, rho, sigma, *tables[sigma], bound, support)
        search.grow(frozenset(), sorted(adj[rho]), frozenset({rho}))
    support.triples.sort(key=lambda t: (t.m, t.rho, t.component))
    return support


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
    """All admissible triples, or those with |m(v_tau)| <= bound on every ray.

    Sorted by (m, rho, component); see chamber_support.

    Raises:
        ValueError: for a bound < 1, a fan that is not smooth and
            complete, or (without a bound) an unbounded chamber.
    """
    require_smooth_complete(fan, "triple enumeration")
    support = chamber_support(fan, bound)
    if support.unbounded is not None:
        raise ValueError(f"the support of H^1 is not finite: unbounded chamber {support.unbounded}")
    return support.triples
