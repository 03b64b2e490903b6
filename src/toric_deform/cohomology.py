"""Graded tangent-sheaf cohomology via a finite Cech complex.

For a fixed degree m, sections of the tangent sheaf on the chart of a cone
c reduce to a subspace of N_Q determined ray by ray: the full space when m
is nonnegative on every ray of c, the line through a ray rho when rho is
the unique ray of c with m(rho) = -1 and the rest are nonnegative, and zero
otherwise. The complex runs over maximal cones, pairs and triples of them;
intersections of cones are the faces spanned by their common rays. H^1 in
degree m is dim ker d1 - rank d0, over Q, by exact integer ranks.

The distinguished cocycle of an admissible triple (m, rho, C) has entry
alpha(sigma, tau) * v_rho on each ordered cone pair, where alpha is 1 when
sigma touches C and tau does not, -1 in the mirrored case, 0 otherwise.

span_check proves its answer with one rank modulo a prime p, falling back
to the exact rank of d1 only when the certificate is not sharp:

* rank_Q(d0) and rank_span, the rank of im d0 plus the cocycles, are exact;
  r1 = rank_p(d1) <= rank_Q(d1).
* d1 d0 = 0 and d1 c = 0 for every cocycle c are checked exactly, so the
  span lies in ker d1 and rank_span <= dim C^1 - rank_Q(d1) <= dim C^1 - r1.
* If rank_span == dim C^1 - r1, all are equal: the cocycles span, and
  h1_dim = span_rank = rank_span - rank_Q(d0).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import intlin
from .fan import Fan, common_face
from .kernels import matrix_rank, rank_mod_p
from .triples import AdmissibleTriple, pairing


@dataclass(frozen=True)
class LocalSections:
    """Degree-m tangent sections on the chart of one cone.

    basis vectors live in N; the space is their Q-span.
    """

    cone: tuple[int, ...]
    m: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)


def local_sections(fan: Fan, cone, m) -> LocalSections:
    """Three-case section space of a face (possibly the zero cone)."""
    cone = tuple(sorted(int(i) for i in cone))
    m = tuple(int(x) for x in m)
    values = [(i, pairing(m, fan.rays[i])) for i in cone]
    negative = [(i, v) for i, v in values if v < 0]
    if not negative:
        basis = tuple(
            tuple(1 if k == j else 0 for k in range(fan.dim)) for j in range(fan.dim)
        )
    elif len(negative) == 1 and negative[0][1] == -1:
        basis = (fan.rays[negative[0][0]],)
    else:
        basis = ()
    return LocalSections(cone=cone, m=m, basis=basis)


def _coords_in(vec, target: LocalSections) -> list[int]:
    """Coordinates of an N-vector in a section-space basis.

    Valid because section spaces only grow under passing to smaller faces,
    and a line space is always spanned by the one relevant primitive ray.
    """
    n = len(vec)
    standard = tuple(tuple(1 if k == j else 0 for k in range(n)) for j in range(n))
    if target.basis == standard:
        return [int(x) for x in vec]
    if target.dim == 0:
        if any(x != 0 for x in vec):
            raise ValueError("vector outside zero section space")
        return []
    (b,) = target.basis
    k = next(i for i, x in enumerate(b) if x != 0)
    c, rem = divmod(int(vec[k]), int(b[k]))
    if rem != 0 or any(int(v) != c * int(x) for v, x in zip(vec, b)):
        raise ValueError("vector outside line section space")
    return [c]


class GradedCechComplex:
    """Degree-m Cech complex of the tangent sheaf over the maximal cones."""

    def __init__(self, fan: Fan, m):
        self.fan = fan
        self.m = tuple(int(x) for x in m)
        cones = fan.max_cones
        self.pairs = list(itertools.combinations(range(len(cones)), 2))
        self.cone_triples = list(itertools.combinations(range(len(cones)), 3))
        self.sections0 = [local_sections(fan, c, m) for c in cones]
        self.sections1 = [
            local_sections(fan, common_face(fan, cones[i], cones[j]), m)
            for i, j in self.pairs
        ]
        self.sections2 = [
            local_sections(
                fan,
                set(cones[i]) & set(cones[j]) & set(cones[k]),
                m,
            )
            for i, j, k in self.cone_triples
        ]
        self.offsets0 = _offsets(self.sections0)
        self.offsets1 = _offsets(self.sections1)
        self.offsets2 = _offsets(self.sections2)
        self.dim0 = self.offsets0[-1]
        self.dim1 = self.offsets1[-1]
        self.dim2 = self.offsets2[-1]
        self.d0 = self._build_d0()
        self.d1 = self._build_d1()
        _assert_composition_zero(self.d1, self.d0)

    def _build_d0(self):
        d0 = [[0] * self.dim0 for _ in range(self.dim1)]
        for p, (i, j) in enumerate(self.pairs):
            target = self.sections1[p]
            row0 = self.offsets1[p]
            for sign, ci in ((1, j), (-1, i)):
                col0 = self.offsets0[ci]
                for b, vec in enumerate(self.sections0[ci].basis):
                    for r, c in enumerate(_coords_in(vec, target)):
                        d0[row0 + r][col0 + b] += sign * c
        return d0

    def _build_d1(self):
        d1 = [[0] * self.dim1 for _ in range(self.dim2)]
        pair_index = {pr: p for p, pr in enumerate(self.pairs)}
        for t, (i, j, k) in enumerate(self.cone_triples):
            target = self.sections2[t]
            row0 = self.offsets2[t]
            for sign, pr in ((1, (j, k)), (-1, (i, k)), (1, (i, j))):
                p = pair_index[pr]
                col0 = self.offsets1[p]
                for b, vec in enumerate(self.sections1[p].basis):
                    for r, c in enumerate(_coords_in(vec, target)):
                        d1[row0 + r][col0 + b] += sign * c
        return d1

    def h1(self) -> int:
        rank_d0 = matrix_rank(self.d0) if self.dim0 and self.dim1 else 0
        rank_d1 = matrix_rank(self.d1) if self.dim1 and self.dim2 else 0
        return self.dim1 - rank_d1 - rank_d0


def _offsets(sections) -> list[int]:
    out = [0]
    for s in sections:
        out.append(out[-1] + s.dim)
    return out


def _assert_composition_zero(d1, d0):
    if not d1 or not d0 or not d0[0]:
        return
    a = np.array(d1, dtype=object)
    b = np.array(d0, dtype=object)
    prod = a @ b
    if any(x != 0 for x in np.ravel(prod)):
        raise AssertionError("d1 . d0 != 0; complex construction is broken")


def h1_dimension(fan: Fan, m) -> int:
    """dim H^1(X, T_X) in degree m (exact)."""
    return GradedCechComplex(fan, m).h1()


@dataclass(frozen=True)
class Cocycle:
    """Cech 1-cocycle supported on the line of a single ray.

    entries maps each increasing cone pair (i, j) to its N-vector;
    swapping the pair negates the entry.
    """

    m: tuple[int, ...]
    rho: int
    entries: dict

    def entry(self, i: int, j: int) -> tuple[int, ...]:
        if i < j:
            return self.entries[(i, j)]
        return tuple(-x for x in self.entries[(j, i)])


def triple_cocycle(fan: Fan, t: AdmissibleTriple) -> Cocycle:
    """The cocycle with entries alpha(sigma, tau) * v_rho.

    Raises:
        ValueError: when an entry falls outside its local section space or
            the cocycle condition fails; both indicate a non-admissible
            input triple.
    """
    complex_ = GradedCechComplex(fan, t.m)
    coords = _cocycle_coords(complex_, t)
    entries = {}
    touches = [bool(set(c) & set(t.component)) for c in fan.max_cones]
    v_rho = fan.rays[t.rho]
    for i, j in complex_.pairs:
        alpha = int(touches[i]) - int(touches[j])
        entries[(i, j)] = tuple(alpha * x for x in v_rho)
    return Cocycle(m=t.m, rho=t.rho, entries=entries)


def _cocycle_coords(complex_: GradedCechComplex, t: AdmissibleTriple) -> list[int]:
    """C^1 coordinates of the triple cocycle, with validity checks."""
    fan = complex_.fan
    touches = [bool(set(c) & set(t.component)) for c in fan.max_cones]
    v_rho = fan.rays[t.rho]
    coords = [0] * complex_.dim1
    for p, (i, j) in enumerate(complex_.pairs):
        alpha = int(touches[i]) - int(touches[j])
        if alpha == 0:
            continue
        vec = [alpha * x for x in v_rho]
        try:
            local = _coords_in(vec, complex_.sections1[p])
        except ValueError as exc:
            raise ValueError(
                f"cocycle entry at cone pair ({i}, {j}) is not a local section: {exc}"
            ) from exc
        off = complex_.offsets1[p]
        for r, c in enumerate(local):
            coords[off + r] = c
    if complex_.dim2 and complex_.dim1:
        image = np.array(complex_.d1, dtype=object) @ intlin.ivec(coords)
        if any(x != 0 for x in image):
            raise ValueError("cocycle condition d1 = 0 fails; triple is not admissible")
    return coords


def span_check(fan: Fan, m, triples) -> dict:
    """Whether the triple cocycles of degree m span H^1 in that degree.

    Returns:
        {"h1_dim": int, "span_rank": int, "spans": bool, "certified": bool};
        certified is False when the rank mod p was not sharp and the exact
        rank of d1 ran instead.
    """
    m = tuple(int(x) for x in m)
    complex_ = GradedCechComplex(fan, m)
    cocycles = []
    for t in triples:
        if tuple(t.m) != m:
            raise ValueError(f"triple degree {t.m} differs from requested degree {m}")
        cocycles.append(_cocycle_coords(complex_, t))
    rank_d0 = matrix_rank(complex_.d0)
    # the columns of d0 generate im d0
    rank_span = matrix_rank([list(col) for col in zip(*complex_.d0)] + cocycles)
    span_rank = rank_span - rank_d0
    # the span lies in ker d1, so this equality is a proof (module docstring)
    if rank_span == complex_.dim1 - rank_mod_p(complex_.d1):
        return {"h1_dim": span_rank, "span_rank": span_rank, "spans": True, "certified": True}
    h1 = complex_.dim1 - matrix_rank(complex_.d1) - rank_d0
    return {"h1_dim": h1, "span_rank": span_rank, "spans": span_rank == h1, "certified": False}
