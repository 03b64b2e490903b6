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
as rho cannot end up a cut vertex or the partial chamber is empty. It
holds its ray sets as bitmasks (bit tau for ray tau) and counts the
components of S by a search over bits; tuples of rays are built only for
a chamber whose triples it lists. Each feasible chamber with two or more
components is bounded, because H^1(T_X) is finite-dimensional; one that
is not fails the support_complete check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul

from . import intlin
from .fan import Fan, require_smooth_complete

# Most degrees degree_box may list, so that a large bound fails at once.
_MAX_BOX_POINTS = 2**25


def pairing(m, ray) -> int:
    """Value of the character m on a lattice point (dual pairing)."""
    return sum(map(mul, m, ray))


@dataclass(frozen=True)
class MarkerGraph:
    """Graph on the negative rays of a degree, minus the chosen ray.

    Attributes:
        rho: the excluded ray index.
        vertices: sorted ray indices tau != rho with m(tau) < 0; two of
            them are joined when they span a common cone.
        components: connected components, each sorted, ordered by smallest
            vertex.
    """

    rho: int
    vertices: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class AdmissibleTriple:
    """Degree m, ray rho with m(rho) = -1, proper component C."""

    m: tuple[int, ...]
    rho: int
    component: tuple[int, ...]


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
    return MarkerGraph(
        rho=rho, vertices=vertices, components=components(vertices, fan.ray_adjacency)
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
    m(v_sigma_i) = [i == j]. Read from Fan.cone_inverses, so sigma must
    be a maximal cone.

    Raises:
        ValueError: when sigma is not a unimodular full-dimensional cone.
    """
    inverse = fan.cone_inverses[fan.max_cones.index(sigma)]
    if inverse is None or abs(inverse[0]) != 1:
        raise ValueError(f"cone {list(sigma)} is not unimodular")
    return inverse[2]


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


def _bits(mask: int) -> list[int]:
    """The ray indices set in mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _component_count(mask: int, adj: list[int]) -> int:
    """Number of connected components of the graph adj induces on mask.

    adj[i] is the bitmask of the rays next to ray i. Each component is
    searched from the lowest ray of mask not yet reached, one bit at a
    time, and its rays are cleared from mask as they are reached.
    """
    count = 0
    while mask:
        todo = mask & -mask
        mask ^= todo
        while todo:
            low = todo & -todo
            todo ^= low
            near = adj[low.bit_length() - 1] & mask
            mask ^= near
            todo |= near
        count += 1
    return count


class _ChamberSearch:
    """The search of chamber_support for one ray rho.

    Degrees are written in the coordinates y_j = m(v_j) for the rays j of a
    unimodular maximal cone sigma containing rho. m(v_rho) = -1 fixes one of
    them, and the n - 1 others are the variables of every chamber system:
    m(v_tau) = a_tau @ y - c_tau, where c_tau is v_tau's coordinate at rho
    and a_tau holds the others. rows[tau] holds the two rows a decision on
    tau pushes, m(v_tau) >= 0 and m(v_tau) <= -1, as coeffs @ y >= rhs;
    they are built once per search.

    Ray sets are bitmasks, bit tau for ray tau: S (negative), the decided
    rays, the frontier's members and N(S), the rays next to a ray of S.
    adj[tau] is the mask of the rays next to tau.
    """

    def __init__(self, fan: Fan, adj, rho: int, sigma, inv, coords, bound, support):
        self.fan, self.adj, self.rho, self.bound, self.support = fan, adj, rho, bound, support
        self.inv = inv
        k = sigma.index(rho)
        self.free = [j for j in range(fan.dim) if j != k]
        self.rows = []
        for v in coords:
            a, c = v[:k] + v[k + 1:], v[k]
            self.rows.append(((a, c), (tuple([-x for x in a]), 1 - c)))
        self.fm = intlin.FourierMotzkin(fan.dim - 1)

    def grow(self, negative: int, frontier: list, members: int, decided: int, near: int) -> None:
        """Decide frontier[0], the next ray next to S + {rho}, both ways.

        negative is S, decided holds rho and the rays decided so far,
        members is the mask of frontier, and near is N(S).
        """
        if not frontier:
            self.leaf(negative, decided)
            return
        adj = self.adj
        u, rest = frontier[0], frontier[1:]
        bit = 1 << u
        rest_members = members ^ bit
        for into in (True, False):
            if into:
                new = adj[u] & ~(decided | members)
                grown, nxt, nxt_members = negative | bit, rest + _bits(new), rest_members | new
                grown_near = near | adj[u]
            else:
                grown, nxt, nxt_members, grown_near = negative, rest, rest_members, near
            # rho must end up a cut vertex. Components of S only merge as S
            # grows, and only a neighbour of rho touching no ray of S yet
            # can start a new one.
            fresh = (nxt_members & adj[self.rho] & ~grown_near).bit_count()
            if fresh < 2 and _component_count(grown, adj) + fresh < 2:
                continue
            mark = self.fm.mark()
            self.fm.push(*self.rows[u][into])
            self.support.fm_systems += 1
            if self.fm.feasible():
                self.grow(grown, nxt, nxt_members, decided | bit, grown_near)
            self.fm.undo(mark)

    def leaf(self, negative: int, decided: int) -> None:
        """List the chamber of S = negative if S has two or more components.

        Rays never decided touch no ray of S + {rho}; they get m >= 0, on
        self.fm next to the decided rays' rows, until its points are read.
        """
        self.support.chambers += 1
        if _component_count(negative, self.adj) < 2:
            return
        mark = self.fm.mark()
        for t in range(self.fan.n_rays):
            if not decided >> t & 1:
                self.fm.push(*self.rows[t][False])
            if self.bound is not None and t != self.rho:
                # -bound <= m(v_t) on S, m(v_t) <= bound elsewhere: the rows
                # of m(v_t) >= 0 and m(v_t) <= -1 with their rhs moved
                if negative >> t & 1:
                    coeffs, rhs = self.rows[t][False]
                    self.fm.push(coeffs, rhs - self.bound)
                else:
                    coeffs, rhs = self.rows[t][True]
                    self.fm.push(coeffs, rhs - 1 - self.bound)
        self.support.fm_systems += 1
        try:
            points = self.fm.lattice_points()
        except ValueError:
            if self.support.unbounded is None:
                self.support.unbounded = {"rho": self.rho, "negative_rays": _bits(negative)}
            return
        finally:
            self.fm.undo(mark)
        if not points:
            return
        comps = components(_bits(negative), self.fan.ray_adjacency)
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
    empty partial chamber ends its branch. A chamber's points are read off
    that same system, where a bound adds |m(v_tau)| <= bound on each ray,
    so only degrees inside the bound are ever produced. The search keeps
    its ray sets as bitmasks over Fan.ray_adjacency; the components of S
    are built as tuples only at a chamber with points to list.

    The triples mean something only on a smooth complete fan, so that is
    checked first.

    Raises:
        ValueError: for a fan that is not smooth and complete, or
            bound < 1.
    """
    require_smooth_complete(fan, "triple enumeration")
    if bound is not None and bound < 1:
        raise ValueError("bound must be >= 1")
    adj = [sum(1 << w for w in a) for a in fan.ray_adjacency]
    support = Support(triples=[], chambers=0, fm_systems=0, unbounded=None)
    # sigma -> (its inverse, coords[tau][j]: the j-th coordinate of v_tau
    # in the basis v_sigma), shared by the rays whose search uses sigma
    tables: dict[tuple[int, ...], tuple[list[list[int]], list[tuple[int, ...]]]] = {}
    for rho in range(fan.n_rays):
        sigma = next(c for c in fan.max_cones if rho in c)
        if sigma not in tables:
            inv = _cone_inverse(fan, sigma)
            coords = [tuple([sum(map(mul, row, v)) for row in inv]) for v in fan.rays]
            tables[sigma] = inv, coords
        search = _ChamberSearch(fan, adj, rho, sigma, *tables[sigma], bound, support)
        search.grow(0, _bits(adj[rho]), adj[rho], 1 << rho, 0)
    support.triples.sort(key=lambda t: (t.m, t.rho, t.component))
    return support


def enumerate_triples(fan: Fan, bound: int | None = None) -> list[AdmissibleTriple]:
    """All admissible triples, or those with |m(v_tau)| <= bound on every ray.

    Sorted by (m, rho, component); see chamber_support.

    Raises:
        ValueError: for a bound < 1, a fan that is not smooth and
            complete, or (without a bound) an unbounded chamber.
    """
    support = chamber_support(fan, bound)
    if support.unbounded is not None:
        raise ValueError(f"the support of H^1 is not finite: unbounded chamber {support.unbounded}")
    return support.triples
