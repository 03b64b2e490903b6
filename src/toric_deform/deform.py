"""One-parameter deformation data attached to an admissible triple.

Given a smooth complete fan and an admissible triple (m, rho, C), this
module builds the full deformation package: the splitting of N induced by
m with section gamma(-1) = v_rho, the index sets U1..U4 classifying rays by
the sign of a_i = m(v_i) and membership in C, the block matrix P whose
columns span the ambient fan, the trinomial Cox equation of the total
space, the exponent maps psi / nu between Cox rings, the eta substitution
onto the central fiber, and the verification that the fiber over 0 is the
variety we started from.

Index conventions: ray indices are 0-based everywhere; printed labels
(T1, T(2,1), S1, ...) are 1-based to match the usual matrix notation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlin
from .fan import Fan, require_smooth_complete
from .triples import AdmissibleTriple, admissible_components, marker_graph, pairing


@dataclass(frozen=True)
class Splitting:
    """Splitting of 0 -> K -> N -m-> Z -> 0 by the section with gamma(-1) = v_rho.

    Attributes:
        m: the degree (row functional on N).
        rho: ray index with m(v_rho) = -1.
        k_basis: rows form a basis of ker m (saturated, HNF-canonical).
        proj: (n-1) x n matrix, as rows, of v -> v - gamma(m(v)) in
            k_basis coordinates.
    """

    m: tuple[int, ...]
    rho: int
    k_basis: tuple[tuple[int, ...], ...]
    proj: tuple[tuple[int, ...], ...]


def build_splitting(fan: Fan, m, rho: int) -> Splitting:
    """The splitting of N by m with gamma(-1) = v_rho, from one HNF.

    The vectors g_j = e_j + m_j * v_rho lie in ker m and generate it over
    Z: k = sum_j k_j * g_j - m(k) * v_rho for every k in N. So the HNF
    U @ G = H of the matrix G with rows g_j has the basis of ker m in its
    first n - 1 rows and a zero last row. Since G = U^-1 @ H, row j of
    U^-1 holds the coordinates of g_j = v - gamma(m(v)) at v = e_j, and
    proj is the transpose of its first n - 1 columns.
    """
    m = tuple(int(x) for x in m)
    v_rho = fan.rays[rho]
    if pairing(m, v_rho) != -1:
        raise ValueError("splitting needs m(v_rho) = -1")
    n = fan.dim
    g = [[int(i == j) + m[j] * v_rho[i] for i in range(n)] for j in range(n)]
    h, u = intlin.hermite_normal_form(g)
    assert not any(h[n - 1])  # ker m has rank n - 1
    u_inv = intlin.unimodular_solve(u, intlin.identity(n))
    return Splitting(
        m=m,
        rho=rho,
        k_basis=tuple(map(tuple, h[: n - 1])),
        proj=tuple(tuple(row[i] for row in u_inv) for i in range(n - 1)),
    )


@dataclass(frozen=True)
class UIndex:
    """Blocks of (block, ray) pairs splitting the rays by sign of a_i.

    rho appears in both u2 and u3 (it has a_rho = -1 and is not in C).
    """

    u1: tuple[tuple[int, int], ...]
    u2: tuple[tuple[int, int], ...]
    u3: tuple[tuple[int, int], ...]
    u4: tuple[tuple[int, int], ...]

    @property
    def all_pairs(self) -> tuple[tuple[int, int], ...]:
        return self.u1 + self.u2 + self.u3 + self.u4


def build_u_index(a, rho: int, component) -> UIndex:
    comp = set(component)
    u1 = tuple((1, i) for i, ai in enumerate(a) if ai > 0)
    u2 = tuple((2, i) for i, ai in enumerate(a) if ai < 0 and (i in comp or i == rho))
    u3 = tuple((3, i) for i, ai in enumerate(a) if ai < 0 and i not in comp)
    u4 = tuple((4, i) for i, ai in enumerate(a) if ai == 0)
    return UIndex(u1=u1, u2=u2, u3=u3, u4=u4)


@dataclass(frozen=True)
class Trinomial:
    """T1 * prod(U1) - prod(U2) + prod(U3) as signed exponent vectors.

    Each term is (coefficient, exponent tuple over the full column order
    of P, T1 first).
    """

    terms: tuple[tuple[int, tuple[int, ...]], ...]
    labels: tuple[str, ...]

    def binomial_difference(self) -> list[int]:
        """Exponents of term 2 minus term 3 over every column (T1's entry is 0)."""
        return [x - y for x, y in zip(self.terms[1][1], self.terms[2][1])]


Rows = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DeformationData:
    """Everything attached to one admissible triple; matrices are rows."""

    triple: AdmissibleTriple
    u: UIndex
    P: Rows
    Ptilde: Rows
    ambient_cones: tuple[tuple[int, ...], ...]
    trinomial: Trinomial
    psi: Rows
    nu: Rows
    Qtilde: Rows
    splitting: Splitting
    a: tuple[int, ...]
    column_labels: tuple[str, ...]

    def column_of(self, pair) -> int:
        """Index of a (block, ray) pair in the full P column order."""
        return 1 + self.u.all_pairs.index(tuple(pair))


def _column_label(pair) -> str:
    k, i = pair
    return f"T({k},{i + 1})"


def build_deformation(fan: Fan, t: AdmissibleTriple) -> DeformationData:
    """Construct the deformation package of an admissible triple.

    Raises:
        ValueError: when the fan is not smooth and complete, or the triple
            is not admissible for it.
    """
    require_smooth_complete(fan, "deformation")
    comp = tuple(sorted(int(i) for i in t.component))
    g = marker_graph(fan, t.m, t.rho)
    if comp not in admissible_components(g):
        raise ValueError(
            f"component {comp} is not a proper connected component for "
            f"m={tuple(t.m)}, rho={t.rho}"
        )
    t = AdmissibleTriple(m=tuple(int(x) for x in t.m), rho=int(t.rho), component=comp)
    n, r = fan.dim, fan.n_rays
    a = tuple(pairing(t.m, fan.rays[i]) for i in range(r))
    split = build_splitting(fan, t.m, t.rho)
    u = build_u_index(a, t.rho, comp)
    pairs = u.all_pairs
    labels = ("T1",) + tuple(_column_label(p) for p in pairs)

    # One walk over the pairs: the P column of (k, i) is
    # [a_i if k in (1, 2), a_i if k in (1, 3), proj(v_i), 0], its exponent
    # in the trinomial term of block k <= 3 is |a_i|, and its psi row is
    # e_i, except that the rows of (2, rho) and (3, rho) add -a_j for the
    # marker-graph vertices outside and inside C.
    inside = set(comp)
    outside = [j for j in g.vertices if j not in inside]
    p_cols = [(1, 1, *[0] * (n - 1), 1)]
    terms = ([1], [0], [0])  # T1 * prod(U1), prod(U2), prod(U3)
    psi = []
    for k, i in pairs:
        ai = a[i]
        proj = intlin.mat_vec(split.proj, fan.rays[i])
        p_cols.append((ai if k in (1, 2) else 0, ai if k in (1, 3) else 0, *proj, 0))
        for b, term in enumerate(terms, start=1):
            term.append(abs(ai) if k == b else 0)
        row = [0] * r
        row[i] = 1
        if i == t.rho:
            for j in (outside if k == 2 else inside):
                row[j] -= a[j]
        psi.append(row)
    p = intlin.transpose(p_cols)
    ptilde = [row[1:] for row in p[: n + 1]]
    trinomial = Trinomial(
        terms=tuple(zip((1, -1, 1), map(tuple, terms))),
        labels=labels,
    )
    nu = intlin.transpose(psi)

    # Row n+1 of P is e_T1 and every sigma-tilde holds column 0, so a
    # unimodular sigma-tilde gives P-tilde an (n+1)-minor +-1: its columns
    # span Z^(n+1), and free_cokernel's HNF proves the class group free.
    qtilde = intlin.free_cokernel(intlin.transpose(ptilde))

    # the binomial difference kills nu
    assert not any(intlin.mat_vec(nu, trinomial.binomial_difference()[1:]))

    # sigma-tilde: T1, the pairs of the rays of sigma, and (2, rho) when
    # sigma misses C, else (3, rho)
    cones = []
    for sigma in fan.max_cones:
        extra = (3 if inside.intersection(sigma) else 2, t.rho)
        cones.append((0, *(
            c for c, pair in enumerate(pairs, start=1) if pair[1] in sigma or pair == extra
        )))

    return DeformationData(
        triple=t,
        u=u,
        P=tuple(map(tuple, p)),
        Ptilde=tuple(map(tuple, ptilde)),
        ambient_cones=tuple(cones),
        trinomial=trinomial,
        psi=tuple(map(tuple, psi)),
        nu=tuple(map(tuple, nu)),
        Qtilde=tuple(map(tuple, qtilde)),
        splitting=split,
        a=a,
        column_labels=labels,
    )


def kernel_binomial(d: DeformationData) -> list[int]:
    """Exponent difference of the two binomial terms, over P-tilde columns."""
    return d.trinomial.binomial_difference()[1:]


def eta_map(d: DeformationData) -> dict:
    """Substitution table of the central-fiber ring map.

    T1 goes to 0; every other variable goes to the monomial in S_1..S_r
    whose exponent vector is the matching column of nu.
    """
    table: dict[str, dict[str, int] | None] = {"T1": None}
    for c, pair in enumerate(d.u.all_pairs):
        table[_column_label(pair)] = {
            f"S{i + 1}": row[c] for i, row in enumerate(d.nu) if row[c] != 0
        }
    return table


def ambient_fan(d: DeformationData) -> Fan:
    """The toric ambient: rays are the columns of P, cones the sigma-tilde.

    A plain constructor. That every sigma-tilde is unimodular is proved by
    the fiber_fan_roundtrip check of verify_central_fiber, from the one
    elimination per cone that it makes anyway.
    """
    return Fan(dim=len(d.P), rays=tuple(zip(*d.P)), max_cones=d.ambient_cones)


def _iota_matrix(fan: Fan, d: DeformationData) -> list[tuple[int, ...]]:
    """(n+2) x n matrix, as rows, of v -> [m(v), m(v), proj(v), 0]."""
    return [d.triple.m, d.triple.m, *d.splitting.proj, (0,) * fan.dim]


def _columns(mat, cols) -> list[list[int]]:
    """The submatrix of the given columns, as rows."""
    return [[row[c] for c in cols] for row in mat]


def verify_central_fiber(fan: Fan, d: DeformationData) -> dict:
    """Check that the fiber over 0 of the family is the starting variety.

    Returns a report {"passes": bool, "checks": {name: {"ok": bool,
    "witness": ...}}, "work": {"cone_factorisations": int, "fm_systems":
    int}}. ``work`` counts the cone matrices P[:, sigma-tilde] solved (one
    elimination each) and the Fourier-Motzkin systems decided (none on a
    valid package; see _roundtrip_check).

    For each maximal cone sigma, intlin.unimodular_solve runs one
    fraction-free elimination (kernels.eliminate) on [B | iota @ V_sigma]
    with B = P[:, sigma-tilde]. When det B = +-1 it returns
    X_sigma = B^-1 @ iota @ V_sigma, an (n+2) x n integer matrix whose
    column i holds the sigma-tilde coordinates of iota(v_sigma[i]), and no
    Smith form is taken. Both cone_membership and fiber_fan_roundtrip
    read X_sigma and one scan of it for X_sigma >= 0. Only a B that is not unimodular is solved by
    intlin.solve_int, once per ray, to decide cone_membership there. The
    named checks are:

    * cone_membership: iota of every ray of every maximal cone is a
      nonnegative integer combination of its sigma-tilde columns, i.e.
      X_sigma >= 0 (a solve per ray when B is not unimodular),
    * lattice_identification: iota embeds N onto
      L = {x : u . x = 0, x_(n+1) = 0}, where the binomial character u
      solves P^T @ u = the binomial difference: one more elimination, on
      the transpose of P[:, sigma-tilde_0] when that is unimodular, checked
      on every row (_binomial_character). Every nonzero n-minor of iota
      takes one m row and all proj rows, so iota(N) is saturated of rank n
      exactly when |det [m; proj]| = 1. It lies in L when u^T @ iota = 0,
      and L has rank n when u is not in Z * e_(n+1); a saturated rank-n
      sublattice of L is then all of L, and conversely (H. Cohen, GTM 138,
      2.4). So a valid package takes no HNF and no Smith form: one
      elimination per sigma-tilde, one for u and one determinant,
    * diagram_commutes: Ptilde composed with psi equals iota (truncated)
      composed with the ray matrix,
    * cox_cone_mapping: psi sends each Cox cone of the base into the
      matching ambient Cox cone,
    * fiber_fan_roundtrip: every sigma-tilde is unimodular, and pulling it
      back through iota recovers exactly the original maximal cone.
    """
    n = fan.dim
    iota = _iota_matrix(fan, d)
    images = intlin.mat_mul(iota, fan.ray_matrix())  # column j: iota(v_j)
    checks: dict[str, dict] = {}
    work = {"cone_factorisations": len(d.ambient_cones), "fm_systems": 0}
    coords = [  # X_sigma as rows, or None when B is not unimodular
        intlin.unimodular_solve(_columns(d.P, st), _columns(images, sigma))
        for sigma, st in zip(fan.max_cones, d.ambient_cones)
    ]

    nonneg = _nonnegative(coords)  # read by both checks

    witness = None
    for ci, (sigma, st, x) in enumerate(zip(fan.max_cones, d.ambient_cones, coords)):
        if nonneg[ci]:
            continue
        for i, j in enumerate(sigma):
            if x is None:
                y = intlin.solve_int(_columns(d.P, st), [row[j] for row in images])
                bad = y is None or any(v < 0 for v in y)
            else:
                bad = any(row[i] < 0 for row in x)
            if bad:
                witness = {"cone": ci, "ray": j}
                break
        if witness:
            break
    checks["cone_membership"] = {"ok": witness is None, "witness": witness}

    uvec = _binomial_character(d)
    if uvec is None:
        checks["lattice_identification"] = {
            "ok": False,
            "witness": {"reason": "binomial character does not lift"},
        }
    else:
        # L has rank n, iota(N) lies in L, and iota(N) is saturated of rank n
        same = (
            any(uvec[: n + 1])
            and not any(intlin.mat_vec(intlin.transpose(iota), uvec))
            and abs(intlin.determinant(iota[1 : n + 1])) == 1
        )
        checks["lattice_identification"] = {
            "ok": same,
            "witness": None if same else {"u": uvec},
        }

    lhs = intlin.mat_mul(d.Ptilde, d.psi)
    rhs = images[: n + 1]
    ok = lhs == rhs
    checks["diagram_commutes"] = {
        "ok": ok,
        "witness": None if ok else {"lhs": lhs, "rhs": rhs},
    }

    witness = None
    for ci, (sigma, st) in enumerate(zip(fan.max_cones, d.ambient_cones)):
        st_set = set(st)
        for j in sigma:
            support = {1 + c for c, row in enumerate(d.psi) if row[j] != 0}
            if not support <= st_set:
                witness = {"cone": ci, "ray": j}
                break
        if witness:
            break
    checks["cox_cone_mapping"] = {"ok": witness is None, "witness": witness}

    checks["fiber_fan_roundtrip"] = _roundtrip_check(coords, work, nonneg)

    return {"passes": all(c["ok"] for c in checks.values()), "checks": checks, "work": work}


def _binomial_character(d: DeformationData) -> list[int] | None:
    """The u with P^T @ u = the binomial difference, or None if there is none.

    When B = P[:, sigma-tilde_0] is unimodular, B^T @ u = b on those
    columns has the one solution u, found by one elimination, and u
    solves the whole system exactly when every row checks. P then has
    full row rank, so u is the only solution. Otherwise (only a broken
    package) intlin.solve_int decides.
    """
    b = d.trinomial.binomial_difference()
    pt = intlin.transpose(d.P)
    st = d.ambient_cones[0]
    u = intlin.unimodular_solve([pt[c] for c in st], [[b[c]] for c in st])
    if u is None:
        return intlin.solve_int(pt, b)
    u = [x for (x,) in u]
    return u if intlin.mat_vec(pt, u) == b else None


def _nonnegative(coords) -> list[bool]:
    """Whether each X_sigma is >= 0; False where it is None."""
    return [x is not None and min(map(min, x)) >= 0 for x in coords]


def _roundtrip_check(coords, work: dict, nonneg=None) -> dict:
    """Pull each sigma-tilde back through iota; the result must be sigma.

    ``coords`` holds X_sigma = B^-1 @ iota @ V_sigma for each maximal cone,
    in max_cones order, as intlin.unimodular_solve returned it, or None
    where B = P[:, sigma-tilde] is not square or det B != +-1; the first
    such cone is the witness. Containment of sigma in the pull-back is
    cone_membership. The reverse containment rests on this lemma.

    Lemma. With D = V_sigma^-1 the pull-back is {v : X_sigma D v >= 0};
    put w = D v. It lies in sigma = {w >= 0} exactly when each e_i is a
    nonnegative combination of the rows of X_sigma (Farkas). When
    X_sigma >= 0 this holds exactly when some row of X_sigma is positive
    at i and zero elsewhere.

    Proof of the last step. Such a row is a positive multiple of e_i.
    Conversely, if nonnegative multiples of nonnegative rows sum to e_i,
    then at every k != i each term is 0, so every row used is supported
    on {i}, and one of them is positive at i because the sum there is 1.

    So a nonnegative X_sigma is tested once per cone: the columns of its
    rows with a single nonzero entry must be all of 0..n-1, and the first
    one missing is the witness. A negative entry in X_sigma
    (cone_membership has failed) falls back to _pullback_leaves_orthant,
    exact Fourier-Motzkin on {X_sigma w >= 0, -w_i >= 1}, one system per
    i up to the first that is feasible, counted in ``work["fm_systems"]``.
    ``nonneg`` is _nonnegative(coords), computed here unless the caller
    has it already.
    """
    if nonneg is None:
        nonneg = _nonnegative(coords)
    for ci, x in enumerate(coords):
        if x is None:
            return {"ok": False, "witness": {"cone": ci, "reason": "non-unimodular"}}
        n = len(x[0])
        if nonneg[ci]:
            units = set()
            for row in x:
                support = [i for i, v in enumerate(row) if v]
                if len(support) == 1:
                    units.update(support)
            bad = next((i for i in range(n) if i not in units), None)
        else:
            bad = next((i for i in range(n) if _pullback_leaves_orthant(x, i, work)), None)
        if bad is not None:
            return {"ok": False, "witness": {"cone": ci, "functional": bad}}
    return {"ok": True, "witness": None}


def _pullback_leaves_orthant(x, i: int, work: dict) -> bool:
    """Whether some rational w with x @ w >= 0 has w_i < 0, by one
    Fourier-Motzkin system.

    ``x`` is a list of integer rows. _roundtrip_check calls this only on
    an X_sigma with a negative entry; it decides the nonnegative case by
    its lemma, without Fourier-Motzkin.
    """
    n = len(x[0])
    work["fm_systems"] += 1
    rows = x + [[-1 if k == i else 0 for k in range(n)]]
    return intlin.rational_polyhedron_nonempty(rows, [0] * len(x) + [1])
