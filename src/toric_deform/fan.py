"""Rational polyhedral fans from ray/cone data, validation, Cox presentation.

A fan is given combinatorially: primitive ray generators in Z^n plus the
maximal cones as sets of ray indices (0-based). Validation certifies
smoothness (unimodular cones), completeness (facet pairing plus, in low
dimension, exact angular coverage) and simpliciality, reporting the index
of an offending cone. The Cox data bundles the ray matrix, the class-group
grading and the irrelevant-ideal combinatorics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import intlin


def _gcd_vec(v) -> int:
    g = 0
    for x in v:
        g = math.gcd(g, abs(int(x)))
    return g


@dataclass(frozen=True)
class Fan:
    """Complete description of a fan by rays and maximal cones.

    Attributes:
        dim: ambient lattice rank n.
        rays: tuple of primitive ray generators (tuples of ints, length n).
        max_cones: tuple of maximal cones, each a sorted tuple of ray indices.
    """

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rays = tuple(tuple(int(x) for x in r) for r in self.rays)
        cones = tuple(tuple(sorted(int(i) for i in c)) for c in self.max_cones)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        if self.dim < 1:
            raise ValueError(f"fan dimension must be at least 1, got {self.dim}")
        for i, r in enumerate(rays):
            if len(r) != self.dim:
                raise ValueError(f"ray {i} has length {len(r)}, expected {self.dim}")
            if all(x == 0 for x in r):
                raise ValueError(f"ray {i} is zero")
            if _gcd_vec(r) != 1:
                raise ValueError(f"non-primitive ray {i}")
        if len(set(rays)) != len(rays):
            dup = next(r for r in rays if rays.count(r) > 1)
            raise ValueError(f"duplicate ray {list(dup)}")
        for ci, c in enumerate(cones):
            if not c:
                raise ValueError(f"cone {ci} is empty")
            if len(set(c)) != len(c):
                raise ValueError(f"cone {ci} repeats a ray index")
            for i in c:
                if not 0 <= i < len(rays):
                    raise ValueError(f"cone {ci} references missing ray {i}")
        used = {i for c in cones for i in c}
        for i in range(len(rays)):
            if i not in used:
                raise ValueError(f"ray {i} not used by any maximal cone")

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    def ray_matrix(self) -> tuple[tuple[int, ...], ...]:
        """n x r matrix, as rows, whose columns are the ray generators."""
        return tuple(zip(*self.rays))

    def cone_matrix(self, cone) -> tuple[tuple[int, ...], ...]:
        """n x k matrix, as rows, of the generators of the given ray-index set."""
        return tuple(zip(*(self.rays[i] for i in cone)))

    @functools.cached_property
    def cone_determinants(self) -> tuple[int | None, ...]:
        """Determinant of each maximal cone with dim rays; None for the others.

        Taken once per Fan object, on first use: validate and cox_data
        both read their per-cone verdicts from it.
        """
        return tuple(
            intlin.determinant(self.cone_matrix(c)) if len(c) == self.dim else None
            for c in self.max_cones
        )

    @functools.cached_property
    def _cox(self) -> CoxData:
        """The Cox data of the fan, taken once per Fan object; read it
        through cox_data."""
        return _cox_data(self)


def _cone_is_unimodular(fan: Fan, ci: int) -> bool:
    """Whether maximal cone ci is generated by part of a lattice basis."""
    det = fan.cone_determinants[ci]
    if det is not None:
        return abs(det) == 1
    cone = fan.max_cones[ci]
    snf = intlin.smith_normal_form(fan.cone_matrix(cone))
    d = snf.diagonal
    return len([x for x in d if x != 0]) == len(cone) and all(x in (0, 1) for x in d)


def _facets(cone):
    return [tuple(x for x in cone if x != i) for i in cone]


def _complete_2d(fan: Fan) -> bool:
    # Exact angular coverage: sort rays counterclockwise and require every
    # adjacent pair (cyclically) to be a maximal cone spanning < pi.
    def half_plane_key(v):
        # 0 for upper half (y > 0 or (y == 0 and x > 0)), 1 for lower
        x, y = v
        return 0 if (y > 0 or (y == 0 and x > 0)) else 1

    idx = list(range(fan.n_rays))

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def cmp(i, j):
        vi, vj = fan.rays[i], fan.rays[j]
        hi, hj = half_plane_key(vi), half_plane_key(vj)
        if hi != hj:
            return -1 if hi < hj else 1
        c = cross(vi, vj)
        return 0 if c == 0 else (-1 if c > 0 else 1)

    idx.sort(key=functools.cmp_to_key(cmp))
    cones = set(fan.max_cones)
    for a, b in zip(idx, idx[1:] + idx[:1]):
        if cross(fan.rays[a], fan.rays[b]) <= 0:
            return False  # angular gap >= pi
        if tuple(sorted((a, b))) not in cones:
            return False
    return True


def _complete_facet_pairing(fan: Fan) -> bool:
    # Every facet of a maximal cone is shared by exactly one other maximal
    # cone, and the adjacency graph on maximal cones is connected.
    if not fan.max_cones:
        return False
    facet_count: dict[tuple[int, ...], list[int]] = {}
    for ci, c in enumerate(fan.max_cones):
        if len(c) != fan.dim:
            return False
        for f in _facets(c):
            facet_count.setdefault(f, []).append(ci)
    if any(len(owners) != 2 for owners in facet_count.values()):
        return False
    adj: dict[int, set[int]] = {i: set() for i in range(len(fan.max_cones))}
    for owners in facet_count.values():
        a, b = owners
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        cur = stack.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(fan.max_cones)


def validate(fan: Fan) -> dict:
    """Check smoothness, completeness and simpliciality.

    Returns:
        {"smooth": bool, "complete": bool, "simplicial": bool}.

    Raises:
        ValueError: naming the first offending cone index, when a maximal
            cone is not simplicial or not pointed.
    """
    smooth = True
    for ci, c in enumerate(fan.max_cones):
        if len(c) > fan.dim:
            raise ValueError(f"cone {ci} has {len(c)} rays in dimension {fan.dim}")
        if len(c) == fan.dim:
            # det != 0 makes the cone simplicial, and |det| == 1 smooth
            det = fan.cone_determinants[ci]
            if det == 0:
                raise ValueError(f"cone {ci} is not simplicial")
            smooth = smooth and abs(det) == 1
        else:
            if intlin.rational_rank(fan.cone_matrix(c)) != len(c):
                raise ValueError(f"cone {ci} is not simplicial")
            smooth = smooth and _cone_is_unimodular(fan, ci)
    complete = _complete_facet_pairing(fan)
    if complete and fan.dim == 1:
        complete = set(fan.rays) == {(1,), (-1,)}
    if complete and fan.dim == 2:
        complete = _complete_2d(fan)
    return {"smooth": smooth, "complete": complete, "simplicial": True}


@dataclass(frozen=True)
class CoxData:
    """Cox presentation 0 -> M -> Z^r -> Cl(X) -> 0 of a smooth fan.

    Attributes:
        ray_map: n x r matrix, as rows, with the rays as columns.
        grading_rows: cl_rank x r matrix, as rows, projecting exponent
            vectors to Cl(X).
        cl_rank: rank of the (free) class group.
        irrelevant_components: per maximal cone, the complementary ray
            index set; the irrelevant ideal is generated by the matching
            squarefree monomials.
    """

    ray_map: tuple[tuple[int, ...], ...]
    grading_rows: tuple[tuple[int, ...], ...]
    cl_rank: int
    irrelevant_components: tuple[tuple[int, ...], ...]

    @functools.cached_property
    def grading(self):
        """grading_rows as a cl_rank x r numpy object array.

        Kept only for the benchmark harness, which reads it with numpy;
        the package reads grading_rows, and numpy is imported here, on
        first access, so that no command loads it.
        """
        import numpy as np

        out = np.empty((self.cl_rank, len(self.ray_map[0])), dtype=object)
        if self.cl_rank:
            out[:] = self.grading_rows
        return out


def cox_data(fan: Fan) -> CoxData:
    """Cox presentation of a smooth fan, computed once per Fan object.

    See _cox_data; raises its ValueError on every call for a fan that is
    not smooth.
    """
    return fan._cox


def _cox_data(fan: Fan) -> CoxData:
    """Cox presentation of a smooth fan.

    The grading of Cl(X) = coker(ray_map^T) is intlin.free_cokernel's:
    the HNF basis of the relations among the rays, ker(ray_map), proven
    free by the same HNF whenever the rays span N, as they do on a
    complete fan. Otherwise a Smith form decides whether Cl(X) has
    torsion.

    Raises:
        ValueError: a cone that is not unimodular, or a class group with
            torsion.
    """
    for ci in range(len(fan.max_cones)):
        if not _cone_is_unimodular(fan, ci):
            raise ValueError(f"cone {ci} is not unimodular; fan is not smooth")
    p = fan.ray_matrix()
    try:
        grading = intlin.free_cokernel(fan.rays)  # the rays are the rows of p^T
    except ValueError:
        raise ValueError("class group has torsion; fan is not smooth") from None
    comps = tuple(
        tuple(i for i in range(fan.n_rays) if i not in set(c)) for c in fan.max_cones
    )
    return CoxData(
        ray_map=p,
        grading_rows=tuple(map(tuple, grading)),
        cl_rank=len(grading),
        irrelevant_components=comps,
    )


def cone_containing(fan: Fan, rays) -> tuple[int, ...] | None:
    """First maximal cone whose ray set contains the given ray indices.

    Returns None when no maximal cone contains them all.
    """
    want = set(int(i) for i in rays)
    for c in fan.max_cones:
        if want <= set(c):
            return c
    return None


# Named example builders used across tests and docs.


def hirzebruch(n: int) -> Fan:
    """Hirzebruch-type surface fan: rays e1, e2, -e1+n*e2, -e2."""
    return Fan(
        dim=2,
        rays=((1, 0), (0, 1), (-1, n), (0, -1)),
        max_cones=((0, 1), (1, 2), (2, 3), (3, 0)),
    )


def projective_space(n: int) -> Fan:
    rays = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    rays.append(tuple(-1 for _ in range(n)))
    cones = tuple(
        tuple(sorted(set(range(n + 1)) - {i})) for i in range(n + 1)
    )
    return Fan(dim=n, rays=tuple(rays), max_cones=cones)


def product_of_lines(n: int) -> Fan:
    """Fan of a product of n projective lines."""
    rays = []
    for j in range(n):
        rays.append(tuple(1 if i == j else 0 for i in range(n)))
        rays.append(tuple(-1 if i == j else 0 for i in range(n)))
    import itertools

    cones = []
    for choice in itertools.product((0, 1), repeat=n):
        cones.append(tuple(sorted(2 * j + choice[j] for j in range(n))))
    return Fan(dim=n, rays=tuple(rays), max_cones=tuple(cones))


def product(a: Fan, b: Fan) -> Fan:
    """Fan of the product X_a x X_b.

    The rays of a come first, padded with zeros, then those of b, shifted
    into the last b.dim coordinates; the maximal cones are all unions of a
    maximal cone of a with one of b.
    """
    rays = [r + (0,) * b.dim for r in a.rays] + [(0,) * a.dim + r for r in b.rays]
    cones = [ca + tuple(a.n_rays + i for i in cb) for ca in a.max_cones for cb in b.max_cones]
    return Fan(dim=a.dim + b.dim, rays=tuple(rays), max_cones=tuple(cones))
