"""Rational polyhedral fans from ray/cone data, validation, Cox presentation.

A fan is given combinatorially: primitive ray generators in Z^n plus the
maximal cones as sets of ray indices (0-based). Validation certifies
smoothness (unimodular cones), completeness (oriented facet pairing plus
one covering count, exact in every dimension) and simpliciality,
reporting the index of an offending cone. The Cox data bundles the ray
matrix, the class-group grading and the irrelevant-ideal combinatorics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul

from . import intlin
from .kernels import eliminate, matrix_rank


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
        rays = tuple(tuple(map(int, r)) for r in self.rays)
        cones = tuple(tuple(sorted(int(i) for i in c)) for c in self.max_cones)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "max_cones", cones)
        if self.dim < 1:
            raise ValueError(f"fan dimension must be at least 1, got {self.dim}")
        for i, r in enumerate(rays):
            if len(r) != self.dim:
                raise ValueError(f"ray {i} has length {len(r)}, expected {self.dim}")
            if not any(r):
                raise ValueError(f"ray {i} is zero")
            if math.gcd(*r) != 1:
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
    def cone_inverses(self) -> tuple[tuple[int, int, list[list[int]] | None] | None, ...]:
        """(det, d, Y) for each maximal cone with dim rays; None for the others.

        One kernels.eliminate of [V | I], V with the rays of the cone as
        columns, leaves [d*I | Y]: d is the last pivot, det = det V and
        Y = d * V^-1. A singular cone gives (0, 0, None). When |det| = 1,
        d = 1 and Y is the integer inverse. Taken once per Fan object, on
        first use: validate, cox_data and the degree coordinates of
        triples all read their per-cone answers from it.
        """
        n = self.dim
        eye = None  # n x n, so taken only once a cone with n rays needs it
        out = []
        for c in self.max_cones:
            if len(c) != n:
                out.append(None)
                continue
            if eye is None:
                eye = intlin.identity(n)
            _, det, reduced = eliminate([*v, *e] for v, e in zip(self.cone_matrix(c), eye))
            d = reduced[n - 1][n - 1]
            out.append((det, d, [r[n:] for r in reduced]) if d else (0, 0, None))
        return tuple(out)

    @functools.cached_property
    def ray_adjacency(self) -> tuple[frozenset[int], ...]:
        """adj[i]: the rays other than i that share a maximal cone with ray i.

        Taken once per Fan object; marker graphs and the chamber search
        of triples read it.
        """
        adj: list[set[int]] = [set() for _ in self.rays]
        for cone in self.max_cones:
            for i in cone:
                adj[i].update(cone)
        return tuple(frozenset(a - {i}) for i, a in enumerate(adj))

    @functools.cached_property
    def _verdict(self) -> dict:
        """validate's verdict, taken once per Fan object; read it through
        validate. A fan that makes validate raise caches nothing and
        raises again on every call."""
        return _validate(self)

    @functools.cached_property
    def _cox(self) -> CoxData:
        """The Cox data of the fan, taken once per Fan object; read it
        through cox_data."""
        return _cox_data(self)


def _cone_is_unimodular(fan: Fan, ci: int) -> bool:
    """Whether maximal cone ci is generated by part of a lattice basis."""
    inverse = fan.cone_inverses[ci]
    if inverse is not None:
        return abs(inverse[0]) == 1
    cone = fan.max_cones[ci]
    snf = intlin.smith_normal_form(fan.cone_matrix(cone))
    d = snf.diagonal
    return len([x for x in d if x != 0]) == len(cone) and all(x in (0, 1) for x in d)


def _complete(fan: Fan) -> bool:
    """Whether the support of the fan is all of N_R (exact in every dimension).

    Two tests. Pairing: every facet of a maximal cone lies in exactly two
    maximal cones, on opposite sides of it; the cone with sorted rays and
    determinant det puts the facet that drops its k-th ray on the side of
    sign(det) * (-1)^(n-1-k). Covering: exactly one cone holds the symbolic
    point p + sum_k eps^(k+1) e_k, p the sum of the rays of cone 0. A cone
    holds it when, for every row Y_i of its Y = d * V^-1, the first nonzero
    entry of (Y_i . p, Y_i0, ..., Y_i(n-1)) has the sign of d.

    Why this is exact: when the pairing holds, the number of cones whose
    interior holds a point is the same at every point on no cone boundary,
    since crossing a facet leaves one cone of its pair and enters the
    other. The fan is complete exactly when that number is 1. No row of Y
    is zero, so the symbolic point lies on no boundary. A fan with no
    cones, or a maximal cone with fewer than n rays, is not complete.
    """
    n = fan.dim
    inverses = fan.cone_inverses
    if not inverses or None in inverses:
        return False
    sides: dict[tuple[int, ...], list[int]] = {}
    for c, (det, _, _) in zip(fan.max_cones, inverses):
        side = 1 if det > 0 else -1
        for k in reversed(range(n)):  # side = sign(det) * (-1)^(n-1-k)
            sides.setdefault(c[:k] + c[k + 1:], []).append(side)
            side = -side
    if any(len(s) != 2 or s[0] == s[1] for s in sides.values()):
        return False
    p = [sum(row) for row in fan.cone_matrix(fan.max_cones[0])]

    def holds(d, y):
        for row in y:
            # the sign of Y_i at the symbolic point: that of its first nonzero term
            if (sum(map(mul, row, p)) or next(filter(None, row))) * d < 0:
                return False
        return True

    return sum(holds(d, y) for _, d, y in inverses) == 1


def validate(fan: Fan) -> dict:
    """Check smoothness, completeness and simpliciality.

    The verdict is taken once per Fan object (Fan._verdict), so the
    library gate (require_smooth_complete) costs a dict copy after the
    first call; each call returns a fresh dict.

    Returns:
        {"smooth": bool, "complete": bool, "simplicial": bool}.

    Raises:
        ValueError: naming the first offending cone index, when a maximal
            cone is not simplicial or not pointed.
    """
    return dict(fan._verdict)


def require_smooth_complete(fan: Fan, what: str) -> None:
    """Raise ValueError, naming what the fan lacks, unless it is smooth and complete."""
    rep = validate(fan)
    failing = [prop for prop in ("smooth", "complete") if not rep[prop]]
    if failing:
        raise ValueError(
            f"{what} needs a smooth complete fan; this fan is not "
            + " and not ".join(failing)
        )


def _validate(fan: Fan) -> dict:
    """validate's verdict, computed afresh."""
    smooth = True
    for ci, c in enumerate(fan.max_cones):
        if len(c) > fan.dim:
            raise ValueError(f"cone {ci} has {len(c)} rays in dimension {fan.dim}")
        if len(c) == fan.dim:
            # det != 0 makes the cone simplicial, and |det| == 1 smooth
            det = fan.cone_inverses[ci][0]
            if det == 0:
                raise ValueError(f"cone {ci} is not simplicial")
            smooth = smooth and abs(det) == 1
        else:
            if matrix_rank(fan.cone_matrix(c)) != len(c):
                raise ValueError(f"cone {ci} is not simplicial")
            smooth = smooth and _cone_is_unimodular(fan, ci)
    return {"smooth": smooth, "complete": _complete(fan), "simplicial": True}


@dataclass(frozen=True)
class CoxData:
    """Cox presentation 0 -> M -> Z^r -> Cl(X) -> 0 of a smooth fan.

    Attributes:
        n_rays: r, the number of rays (the width of the grading).
        grading_rows: cl_rank x r matrix, as rows, projecting exponent
            vectors to Cl(X).
        cl_rank: rank of the (free) class group.
        irrelevant_components: per maximal cone, the complementary ray
            index set; the irrelevant ideal is generated by the matching
            squarefree monomials.
    """

    n_rays: int
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

        out = np.empty((self.cl_rank, self.n_rays), dtype=object)
        if self.cl_rank:
            out[:] = self.grading_rows
        return out


def cox_data(fan: Fan) -> CoxData:
    """Cox presentation of a smooth fan, computed once per Fan object.

    See _cox_data; raises its ValueError on every call for a fan that is
    not smooth or whose class group has torsion.
    """
    return fan._cox


def _cox_data(fan: Fan) -> CoxData:
    """Cox presentation of a smooth fan.

    The grading of Cl(X) = coker(V^T), V = fan.ray_matrix(), is
    intlin.free_cokernel's: the HNF basis of the relations among the rays,
    ker(V), proven free by the same HNF whenever the rays span N, as they
    do on a complete fan. Otherwise a Smith form decides whether Cl(X) has
    torsion.

    Raises:
        ValueError: a cone that is not unimodular, or a class group with
            torsion, named by its invariant factors.
    """
    for ci in range(len(fan.max_cones)):
        if not _cone_is_unimodular(fan, ci):
            raise ValueError(f"cone {ci} is not unimodular; fan is not smooth")
    try:
        grading = intlin.free_cokernel(fan.rays)  # the rays are the rows of V^T
    except ValueError:
        _, invariants = intlin.cokernel_map(fan.rays)
        raise ValueError(f"class group has torsion {invariants}") from None
    comps = tuple(
        tuple(i for i in range(fan.n_rays) if i not in set(c)) for c in fan.max_cones
    )
    return CoxData(
        n_rays=fan.n_rays,
        grading_rows=tuple(map(tuple, grading)),
        cl_rank=len(grading),
        irrelevant_components=comps,
    )


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
