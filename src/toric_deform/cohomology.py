"""Graded tangent-sheaf cohomology in the generic stalk.

For a fixed degree m, sections of the tangent sheaf on the chart of a cone
c reduce to a subspace F(c) of V = N_Q determined ray by ray: the full
space when m is nonnegative on every ray of c, the line through a ray rho
when rho is the unique ray of c with m(rho) = -1 and the rest are
nonnegative, and zero otherwise. Intersections of cones are the faces
spanned by their common rays.

The tangent sheaf is torsion-free, so each F(c) lies in the one space V
and restriction is inclusion. Over the maximal cones sigma_0..sigma_(s-1),
a Cech 1-cocycle (c_ij) is fixed by x_j = c_0j, with x_0 = 0, and the
cocycle condition on triples holds in V by itself:

* Z^1_m = {x in V^(s-1) : x_j - x_i in F(U_ij) for all i < j}.
* B^1_m is spanned by the boundaries: for b in the basis of F(U_j), the
  vector x_j = b when j >= 1, and x_k = -b for every k >= 1 when j = 0.
* The cocycle of an admissible triple (m, rho, C) is
  x_j = (t_0 - t_j) * v_rho, where t_j = [sigma_j meets C], so
  x_j - x_i = alpha(sigma_i, sigma_j) * v_rho.

x -> (c_ij = x_j - x_i) is an isomorphism onto Cech Z^1 carrying the
boundaries onto im d0, so the ranks below are those of the Cech complex,
and C^2 never appears. GradedCechComplex, the full complex over pairs and
triples of maximal cones, stays as the independent oracle of the tests.

The constraints of Z^1_m are read ray by ray. Let F(rho) be V when
m(v_rho) >= 0, the line through v_rho when m(v_rho) = -1, and 0 when
m(v_rho) <= -2. On a smooth cone tau the three cases above are exactly
F(tau) = the intersection of F(rho) over the rays rho of tau, since rays
of a smooth cone are linearly independent and two distinct lines meet in
0 (Cox-Little-Schenck, Toric Varieties, ch. 9). So x_j - x_i lies in
F(U_ij) for every pair exactly when, for every ray rho with m(v_rho) < 0
and every two cones of its star, x_j - x_i lies in F(rho); as F(rho) is
a subspace, it suffices that x_j - x_(i0) lies in F(rho) for the first
cone i0 of star(rho) and each other cone j of it. Both systems have the
same solution set, so their rows span the same space over Q, and the
constraints are the annihilator rows of F(rho) applied to x_j - x_(i0):
n - 1 for a line, n for zero, and sum over rho of
(|star rho| - 1) * codim F(rho) in all. The three cases, and so this
equivalence, hold on smooth cones only, so span_check first checks that
the fan is smooth and complete (fan.require_smooth_complete, whose
verdict is cached per Fan object).

Each constraint row touches at most the two n-blocks of its link, and is
held as its nonzero entries. span_check proves its answer with one rank
modulo a prime p of those sparse rows, falling back to the exact rank of
the constraints, made dense for it, only when that is not sharp:

* constraints . [boundaries; cocycles]^T = 0 is checked exactly, so the
  span lies in Z^1 and rank_span <= width - rank_Q(constraints), where
  width = (s - 1) * n, rank_span = rank_Q(boundaries + cocycles) and
  rank_b = rank_Q(boundaries).
* rank_p <= rank_Q, so if rank_span == width - rank_p(constraints), all
  are equal: the cocycles span, and h1_dim = span_rank = rank_span - rank_b.

Neither rank eliminates the (s - 1) * n-wide boundary rows. The
boundaries of sigma_j, j >= 1, are the basis vectors of F(sigma_j) in
block j, so they span W = the sum over j >= 1 of F(sigma_j), of
dimension sum_(j>=1) dim F(sigma_j). Let A_j be the annihilator rows of
F(sigma_j) and Q the map x -> (A_j x_j)_(j>=1); its kernel is exactly W.
A set of rows that spans a space containing W has rank dim W + the rank
of its Q-images. So rank_b is dim W plus the rank of the Q-images of the
at most n boundaries of sigma_0, and rank_span is dim W plus the rank of
those together with the Q-images of the cocycles (_span_ranks). The
Q-images have one entry per annihilator row, sum over j >= 1 of
codim F(sigma_j), and there are at most n + #triples of them.
"""

from __future__ import annotations

import functools
import itertools
from operator import mul, sub

from .fan import Fan, require_smooth_complete
from .kernels import matrix_rank, rank_mod_p
from .triples import AdmissibleTriple, pairing


@functools.cache
def _standard_basis(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if k == j else 0 for k in range(n)) for j in range(n))


def _sections_basis(fan: Fan, cone, values) -> tuple[tuple[int, ...], ...]:
    """Basis of the three-case section space of a cone, from values[i] =
    m(v_i) for its rays i."""
    negative = [i for i in cone if values[i] < 0]
    if not negative:
        return _standard_basis(fan.dim)
    if len(negative) == 1 and values[negative[0]] == -1:
        return (fan.rays[negative[0]],)
    return ()


def _coords_in(vec, basis) -> list[int]:
    """Coordinates of an N-vector in a section-space basis.

    Valid because section spaces only grow under passing to smaller faces,
    and a line space is always spanned by the one relevant primitive ray.
    """
    if basis == _standard_basis(len(vec)):
        return [int(x) for x in vec]
    if not basis:
        if any(x != 0 for x in vec):
            raise ValueError("vector outside zero section space")
        return []
    (b,) = basis
    k = next(i for i, x in enumerate(b) if x != 0)
    c, rem = divmod(int(vec[k]), int(b[k]))
    if rem != 0 or any(int(v) != c * int(x) for v, x in zip(vec, b)):
        raise ValueError("vector outside line section space")
    return [c]


class GradedCechComplex:
    """Degree-m Cech complex of the tangent sheaf over the maximal cones.

    C^p runs over the (p+1)-sets of maximal cones, each meeting in the face
    of its common rays; sets[p], sections[p] and offsets[p] describe its
    blocks, sections[p] as the section-space basis of each face.
    """

    def __init__(self, fan: Fan, m):
        self.fan = fan
        self.m = tuple(int(x) for x in m)
        values = [pairing(self.m, ray) for ray in fan.rays]
        cones = [set(c) for c in fan.max_cones]
        self.sets = [list(itertools.combinations(range(len(cones)), p + 1)) for p in range(3)]
        self.sections = [
            [_sections_basis(fan, set.intersection(*(cones[i] for i in idx)), values)
             for idx in level]
            for level in self.sets
        ]
        self.offsets = [
            list(itertools.accumulate(map(len, level), initial=0)) for level in self.sections
        ]
        self.dim0, self.dim1, self.dim2 = (off[-1] for off in self.offsets)
        self.d0 = self._coboundary(0)
        self.d1 = self._coboundary(1)
        if self._d1_d0_nonzero():
            raise AssertionError("d1 . d0 != 0; complex construction is broken")

    def _d1_d0_nonzero(self) -> bool:
        """Whether d1 . d0 has a nonzero entry: a sparse product, row by
        row of d1, over the nonzero entries of both."""
        d0 = [[(c, x) for c, x in enumerate(row) if x] for row in self.d0]
        for row in self.d1:
            acc: dict[int, int] = {}
            for k, v in enumerate(row):
                if v:
                    for c, x in d0[k]:
                        acc[c] = acc.get(c, 0) + v * x
            if any(acc.values()):
                return True
        return False

    def _coboundary(self, p: int) -> list[list[int]]:
        """d: C^p -> C^(p+1); the block of a (p+2)-set is the alternating
        sum of the restrictions from its faces, the sign (-1)^q for the face
        that drops its q-th cone."""
        source = {idx: k for k, idx in enumerate(self.sets[p])}
        d = [[0] * self.offsets[p][-1] for _ in range(self.offsets[p + 1][-1])]
        for t, idx in enumerate(self.sets[p + 1]):
            target = self.sections[p + 1][t]
            row0 = self.offsets[p + 1][t]
            for q in range(p + 2):
                k = source[idx[:q] + idx[q + 1 :]]
                col0 = self.offsets[p][k]
                for b, vec in enumerate(self.sections[p][k]):
                    for r, c in enumerate(_coords_in(vec, target)):
                        d[row0 + r][col0 + b] += (-1) ** q * c
        return d

    def h1(self) -> int:
        rank_d0 = matrix_rank(self.d0) if self.dim0 and self.dim1 else 0
        rank_d1 = matrix_rank(self.d1) if self.dim1 and self.dim2 else 0
        return self.dim1 - rank_d1 - rank_d0


def h1_dimension(fan: Fan, m) -> int:
    """dim H^1(X, T_X) in degree m (exact)."""
    return GradedCechComplex(fan, m).h1()


def _annihilator(basis, n: int) -> list[tuple[int, ...]]:
    """Integer functionals on V whose common kernel is the span of a
    section-space basis."""
    if len(basis) == n:
        return []
    if not basis:
        return list(_standard_basis(n))
    # f_l(x) = v_k x_l - v_l x_k, for each l != k, vanishes on the line of v
    (v,) = basis
    k = next(i for i, x in enumerate(v) if x != 0)
    return [
        tuple(v[k] if q == l else -v[l] if q == k else 0 for q in range(n))
        for l in range(n)
        if l != k
    ]


class _Stalk:
    """The degree-m system of the module docstring over s maximal cones.

    A stalk vector is a list of s n-tuples x_0..x_(s-1), x_0 = 0, and a
    constraint row is read over x_1..x_(s-1), of width (s - 1) * n.
    sections[j] is the basis of F(sigma_j). The constraints come from
    the rays rho with m(v_rho) < 0, not from cone pairs: with i0 the first
    cone of star(rho), each other cone j of the star gives a link
    (i0, j, functionals), the annihilator of F(rho), and each functional f
    one row, f in block j and -f in block i0. That is
    sum over rho of (|star rho| - 1) * codim F(rho) rows, each held as
    its nonzero entries {column: entry}, in at most two n-blocks; no
    (s - 1) * n-wide row is built. Boundaries are read from sections,
    never built as stalk vectors.
    """

    def __init__(self, fan: Fan, m):
        self.fan, self.m = fan, m
        n, s = fan.dim, len(fan.max_cones)
        self.width = (s - 1) * n
        star: list[list[int]] = [[] for _ in fan.rays]
        for k, cone in enumerate(fan.max_cones):
            for r in cone:
                star[r].append(k)
        values = [pairing(m, ray) for ray in fan.rays]
        self.links = []
        for rho, value in enumerate(values):
            if value < 0:
                functionals = _annihilator(_sections_basis(fan, (rho,), values), n)
                i0, *others = star[rho]
                self.links.extend((i0, j, functionals) for j in others)
        self.constraints = []
        for i0, j, functionals in self.links:
            for f in functionals:
                row = {(j - 1) * n + q: c for q, c in enumerate(f) if c}
                if i0:
                    row.update({(i0 - 1) * n + q: -c for q, c in enumerate(f) if c})
                self.constraints.append(row)
        self.sections = [_sections_basis(fan, cone, values) for cone in fan.max_cones]

    def violation(self, x) -> tuple[int, int] | None:
        """The first link (i0, j) whose rows do not vanish on x, or None:
        constraints . rows(x), exactly, from the two blocks of each link."""
        for i0, j, functionals in self.links:
            a, b = x[i0], x[j]
            if a != b:
                diff = tuple(map(sub, b, a))
                if any(sum(map(mul, f, diff)) for f in functionals):
                    return i0, j
        return None


def _checked_cocycles(stalk: _Stalk, triples) -> list[list[tuple[int, ...]]]:
    """Stalk vectors of the triple cocycles, after the exact product.

    At a link (i0, j, functionals), the boundary of b in F(sigma_t) has
    x_j - x_(i0) = -b when t = i0 (also for t = 0), b when t = j, and 0
    otherwise; so the boundaries check as f . b = 0 for the link's f and
    each b in sections[i0] + sections[j].

    Raises:
        AssertionError: a boundary violates a constraint; the stalk
            construction is broken.
        ValueError: a triple of another degree, or one whose vector
            violates a constraint, that is, a non-admissible triple.
    """
    fan = stalk.fan
    cocycles = []
    for t in triples:
        if tuple(t.m) != stalk.m:
            raise ValueError(f"triple degree {t.m} differs from requested degree {stalk.m}")
        touches = [int(bool(set(t.component) & set(c))) for c in fan.max_cones]
        cocycles.append([tuple((touches[0] - tj) * c for c in fan.rays[t.rho]) for tj in touches])
    for i0, j, functionals in stalk.links:
        for b in stalk.sections[i0] + stalk.sections[j]:
            if any(sum(map(mul, f, b)) for f in functionals):
                raise AssertionError("a boundary violates a constraint; stalk construction is broken")
    for t, x in zip(triples, cocycles):
        link = stalk.violation(x)
        if link is not None:
            i, j = link
            raise ValueError(
                f"triple (m={tuple(t.m)}, rho={t.rho}, C={tuple(t.component)}) is not a "
                f"cocycle: x_{j} - x_{i} is not a local section at cone pair ({i}, {j})"
            )
    return cocycles


def triple_cocycle(fan: Fan, t: AdmissibleTriple) -> tuple[tuple[int, ...], ...]:
    """The stalk cocycle (x_0, ..., x_(s-1)) of a triple, with x_0 = 0 and
    x_j - x_i = alpha(sigma_i, sigma_j) * v_rho.

    Raises:
        ValueError: when some x_j - x_i falls outside its local section
            space, which indicates a non-admissible input triple.
    """
    (x,) = _checked_cocycles(_Stalk(fan, tuple(int(c) for c in t.m)), [t])
    return tuple(x)


def _span_ranks(stalk: _Stalk, cocycles) -> tuple[int, int]:
    """(rank_b, rank_span) of the module docstring, without eliminating
    the boundaries of sigma_1..sigma_(s-1).

    Those span sum_(j>=1) F(sigma_j) exactly, the kernel of
    Q: x -> (A_j x_j)_(j>=1), with A_j the annihilator rows of
    F(sigma_j). So each rank is that dimension plus the rank of the
    Q-images of the rest: the sigma_0 boundaries, and the cocycles too.
    """
    n = stalk.fan.dim
    kept = sum(len(basis) for basis in stalk.sections[1:])
    blocks = [_annihilator(basis, n) for basis in stalk.sections[1:]]

    def image(x) -> list[int]:
        return [sum(map(mul, f, xj)) for a, xj in zip(blocks, x[1:]) for f in a]

    # the boundary of b in F(sigma_0) is x_k = -b for every k >= 1
    rows = [image([b] + [tuple(-c for c in b)] * len(blocks)) for b in stalk.sections[0]]
    rank_b = kept + matrix_rank(rows)
    return rank_b, kept + matrix_rank(rows + [image(x) for x in cocycles])


def span_check(fan: Fan, m, triples, work: dict | None = None) -> dict:
    """Whether the triple cocycles of degree m span H^1 in that degree.

    The fan must be smooth and complete (module docstring). ``work``, if
    given, has its stalk_rows and stalk_nonzeros counts raised by this
    degree's constraint rows and their nonzero entries.

    Returns:
        {"h1_dim": int, "span_rank": int, "spans": bool, "certified": bool};
        certified is False when the rank mod p was not sharp and the exact
        rank of the constraints ran instead.

    Raises:
        ValueError: a fan that is not smooth and complete, or a triple
            that is not an admissible triple of degree m.
    """
    require_smooth_complete(fan, "span_check")
    stalk = _Stalk(fan, tuple(int(x) for x in m))
    rows, width = stalk.constraints, stalk.width
    if work is not None:
        work["stalk_rows"] += len(rows)
        work["stalk_nonzeros"] += sum(map(len, rows))
    rank_b, rank_span = _span_ranks(stalk, _checked_cocycles(stalk, triples))
    span_rank = rank_span - rank_b
    # the span lies in Z^1, so this equality is a proof (module docstring)
    if rank_span == width - rank_mod_p(rows, width):
        return {"h1_dim": span_rank, "span_rank": span_rank, "spans": True, "certified": True}
    h1 = width - matrix_rank([[row.get(c, 0) for c in range(width)] for row in rows]) - rank_b
    return {"h1_dim": h1, "span_rank": span_rank, "spans": span_rank == h1, "certified": False}
