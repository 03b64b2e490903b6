"""Test helpers shared by several test modules."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from toric_deform import intlin
from toric_deform.deform import DeformationData, build_deformation
from toric_deform.fan import Fan, cox_data, hirzebruch
from toric_deform.hypersurf import lift_polynomial
from toric_deform.triples import AdmissibleTriple


def default_box_bound(fan: Fan) -> int:
    """Half-width of the degree box the Cech oracles sweep, and the one the
    h1 and triples commands once used by default: twice (1 + the largest
    absolute ray coordinate)."""
    return 2 * (1 + max(abs(x) for r in fan.rays for x in r))


def hirzebruch_package(n: int, alpha: int) -> tuple[Fan, DeformationData]:
    """F_n and the package of its triple m = (-alpha, -1), rho = 1, C = {0},
    the golden Hirzebruch family of the deform and hypersurf tests."""
    fan = hirzebruch(n)
    t = AdmissibleTriple(m=(-alpha, -1), rho=1, component=(0,))
    return fan, build_deformation(fan, t)


def obj(rows) -> np.ndarray:
    """A package matrix (rows of ints) or vector as a numpy object array,
    for the products of the oracles."""
    return np.array(rows, dtype=object)


def rank_oracle(rows) -> int:
    """Rank over Q by Gaussian elimination over Fraction."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def sparse_rows(rows) -> list[dict[int, int]]:
    """Dense integer rows as the sparse rows {column: entry} that
    kernels.rank_mod_p reads and cohomology's stalk constraints are."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def dense_rows(rows, width: int) -> list[list[int]]:
    """Sparse rows {column: entry} as dense rows of the given width."""
    return [[row.get(c, 0) for c in range(width)] for row in rows]


def lift_monomial(fan: Fan, d, e) -> tuple[int, ...] | None:
    """The preimage lift_polynomial gives the one monomial x^e of class
    w = Q @ e, or None when x^e does not lift."""
    w = tuple(intlin.mat_vec(cox_data(fan).grading_rows, e))
    return lift_polynomial(fan, d, w, ((1, tuple(e)),)).monomials[0].preimage


def nu_deletion_determinants(d) -> list[int]:
    """det of nu without its (2, rho) column, then without its (3, rho)
    column: both are +-1 exactly when the nu-images of the ambient
    variables form a Hilbert basis of the cone they span, a union of two
    smooth cones."""
    pairs = d.pairs
    dets = []
    for block in (2, 3):
        j = pairs.index((block, d.triple.rho))
        dets.append(intlin.determinant([row[:j] + row[j + 1:] for row in d.nu]))
    return dets


def brute_minimal_hitting_sets(sets, width: int) -> tuple[tuple[int, ...], ...]:
    """The minimal subsets of range(width) that meet every set, sorted:
    the minimal primes of the squarefree monomial ideal generated by the
    products over each set."""
    hits = []
    for size in range(width + 1):
        for cand in itertools.combinations(range(width), size):
            s = set(cand)
            if all(s & c for c in sets):
                hits.append(s)
    minimal = [s for s in hits if not any(o < s for o in hits)]
    return tuple(sorted(tuple(sorted(s)) for s in minimal))
