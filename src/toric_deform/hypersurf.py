"""Lifting hypersurfaces of the central fiber into the deformation ambient.

A monomial on the fiber lifts exactly when its exponent vector has a
nonnegative preimage under the exponent map nu. Since ker nu has rank
one, candidate preimages form a line and the search is a bounded sweep.
Riemann-Roch spaces are enumerated as the lattice points of the fiber of
the grading map over a divisor class, and the monomial image of the
nonnegative orthant under nu is its own Hilbert basis, certified by two
determinant-one column deletions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from . import intlin
from .deform import DeformationData, kernel_binomial
from .fan import Fan, cox_data


@dataclass(frozen=True)
class MonomialLift:
    """Lift status of a single monomial."""

    coefficient: int
    exponent: tuple[int, ...]
    preimage: tuple[int, ...] | None

    @property
    def liftable(self) -> bool:
        return self.preimage is not None


@dataclass(frozen=True)
class LiftProblem:
    """A homogeneous polynomial on the fiber, to be lifted monomial-wise.

    Monomials are (coefficient, exponent) pairs over the fiber variables;
    all of them must have class w under the grading of the fan.
    """

    fan: Fan
    deformation: DeformationData
    w: tuple[int, ...]
    monomials: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class LiftResult:
    """Per-monomial lifts plus the assembled polynomial when total.

    Lifted exponents run over the ambient variables other than T1; the
    T1 exponent of every lift is fixed to zero, the canonical choice
    among lifts differing by the trinomial and T1.
    """

    monomials: tuple[MonomialLift, ...]
    lifted: tuple[tuple[int, tuple[int, ...]], ...] | None
    first_failure: int | None

    @property
    def all_liftable(self) -> bool:
        return self.lifted is not None


def riemann_roch_points(fan: Fan, w) -> list[tuple[int, ...]]:
    """All nonnegative integer exponent vectors of the given class.

    These index a monomial basis of the global sections of any divisor
    in the class.

    Raises:
        ValueError: wrong class length, or infinitely many points (the
            recession cone of the fiber is nontrivial).
    """
    q = cox_data(fan).grading
    w = intlin.ivec([int(x) for x in w])
    if len(w) != q.shape[0]:
        raise ValueError(f"class has length {len(w)}, expected {q.shape[0]}")
    r = fan.n_rays
    kernel_rows = intlin.kernel_basis(q)
    if kernel_rows:
        bt = np.stack(kernel_rows, axis=1)  # e = x0 + bt @ c
        for j in range(r):
            rows = [list(row) for row in bt]
            rows.append(list(bt[j]))
            rhs = [0] * r + [1]
            if intlin.rational_polyhedron_nonempty(
                intlin.imat(rows, cols=bt.shape[1]), intlin.ivec(rhs)
            ):
                raise ValueError(
                    f"class {tuple(int(x) for x in w)} has an infinite fiber"
                )
    x0 = intlin.solve_int(q, w)
    if x0 is None:
        return []
    if not kernel_rows:
        if all(x >= 0 for x in x0):
            return [tuple(int(x) for x in x0)]
        return []
    coeff_rows = intlin.imat([list(row) for row in bt], cols=bt.shape[1])
    points = intlin.polyhedron_lattice_points(coeff_rows, -x0)
    out = [
        tuple(int(v) for v in x0 + bt @ intlin.ivec(list(c))) for c in points
    ]
    out.sort()
    return out


def is_liftable(d: DeformationData, e) -> tuple[int, ...] | None:
    """Nonnegative preimage of an exponent vector under nu, if any.

    Returns the preimage with minimal position along the kernel line,
    indexed by the ambient variables other than T1.

    Raises:
        ValueError: negative entries in e.
    """
    e = intlin.imat([e]).T
    if (e < 0).any():
        raise ValueError("exponent vectors must be nonnegative")
    return _preimages(d, e)[0]


def _preimages(d: DeformationData, e) -> list[tuple[int, ...] | None]:
    """is_liftable for each column of e at once: one batch through nu.

    nu without its (3, rho) column is unitriangular up to the order of
    its columns: they hold e_j for every ray j != rho, and column (2, rho)
    is e_rho plus a combination of those. So one intlin.unimodular_solve
    on that square matrix, with a zero (3, rho) entry put back, gives an
    integer preimage of every column, and no Smith form is taken.
    intlin.least_on_lines then moves each preimage along ker nu, which
    the binomial generates, to the least nonnegative one.
    """
    j = d.u.all_pairs.index((3, d.triple.rho))
    y = intlin.unimodular_solve(np.delete(d.nu, j, axis=1), e)
    assert y is not None  # determinant +-1, by the shape above
    x0 = np.insert(y, j, 0, axis=0)
    ok = np.ones(e.shape[1], dtype=bool)
    return intlin.least_on_lines(d.nu, e, kernel_binomial(d), x0, ok)


def lift_polynomial(p: LiftProblem) -> LiftResult:
    """Lift each monomial through nu; assemble the result when all lift.

    The monomials are checked in input order (exponent count, class,
    signs), and the first offending one is reported. Their classes come
    from one product Q @ E, and their preimages from one elimination on
    nu (see _preimages).

    Raises:
        ValueError: a class whose length is not the class group rank, or
            a monomial of the wrong length, with negative entries, or
            whose class differs from w.
    """
    q = cox_data(p.fan).grading
    w = tuple(int(x) for x in p.w)
    if len(w) != q.shape[0]:
        raise ValueError(f"class has length {len(w)}, class group rank is {q.shape[0]}")
    r = p.fan.n_rays
    exps = [tuple(map(int, e)) for _, e in p.monomials]
    # monomials before the first wrong length take part in the batch checks
    n_ok = next((i for i, e in enumerate(exps) if len(e) != r), len(exps))
    e = intlin.imat(exps[:n_ok], cols=r).T  # column j: monomial j
    classes = q @ e
    bad = (classes != intlin.ivec(w).reshape(-1, 1)).any(axis=0) | (e < 0).any(axis=0)
    if bad.any():
        idx = int(np.argmax(bad))
        cls = tuple(classes[:, idx].tolist())
        if cls != w:
            raise ValueError(f"monomial {idx} has class {cls}, expected {w}")
        raise ValueError("exponent vectors must be nonnegative")
    if n_ok < len(exps):
        raise ValueError(f"monomial {n_ok} has {len(exps[n_ok])} exponents, expected {r}")
    lifts = tuple(
        MonomialLift(coefficient=int(coeff), exponent=exp, preimage=pre)
        for (coeff, _), exp, pre in zip(p.monomials, exps, _preimages(p.deformation, e))
    )
    first_failure = next((i for i, m in enumerate(lifts) if not m.liftable), None)
    lifted = None
    if first_failure is None:
        lifted = tuple((m.coefficient, m.preimage) for m in lifts)
    return LiftResult(monomials=lifts, lifted=lifted, first_failure=first_failure)


def hilbert_basis_check(d: DeformationData) -> bool:
    """Whether the nu-images of the variables form a Hilbert basis.

    Deleting the block-2 (resp. block-3) column of the marked ray from
    nu must leave a square matrix of determinant +-1; the image cone is
    then a union of two smooth cones whose generators are the images.
    """
    pairs = d.u.all_pairs
    for block in (2, 3):
        idx = pairs.index((block, d.triple.rho))
        sub = np.delete(d.nu, idx, axis=1)
        if sub.shape[0] != sub.shape[1]:
            return False
        if abs(intlin.determinant(sub)) != 1:
            return False
    return True


_FACTOR = re.compile(r"([A-Za-z]+)(\d+)(?:\^(\d+))?\Z")


def parse_polynomial(text: str, n_vars: int, var: str = "S"):
    """Parse e.g. "2*S1^3*S4 + S2*S3" into (coefficient, exponents) terms.

    Raises:
        ValueError: malformed factors, unknown variables, or indices
            outside 1..n_vars.
    """
    compact = text.replace(" ", "")
    if not compact:
        return ()
    if compact[0] not in "+-":
        compact = "+" + compact
    tokens = re.findall(r"[+-][^+-]+", compact)
    if sum(len(t) for t in tokens) != len(compact):
        raise ValueError(f"cannot parse polynomial {text!r}")
    terms = []
    for token in tokens:
        sign = -1 if token[0] == "-" else 1
        coeff = sign
        exps = [0] * n_vars
        for factor in token[1:].split("*"):
            if factor.isdigit():
                coeff *= int(factor)
                continue
            match = _FACTOR.match(factor)
            if match is None or match.group(1) != var:
                raise ValueError(f"cannot parse factor {factor!r}")
            index = int(match.group(2))
            if not 1 <= index <= n_vars:
                raise ValueError(
                    f"variable {var}{index} out of range {var}1..{var}{n_vars}"
                )
            exps[index - 1] += int(match.group(3) or 1)
        terms.append((coeff, tuple(exps)))
    return tuple(terms)


def render_terms(terms, labels) -> str:
    """Format (coefficient, exponents) terms over the given variable labels."""
    if not terms:
        return "0"
    pieces = []
    for coeff, exps in terms:
        factors = [
            f"{label}^{e}" if e > 1 else label
            for label, e in zip(labels, exps)
            if e
        ]
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        mono = "*".join(factors)
        pieces.append(("- " if coeff < 0 else "+ ") + mono)
    out = " ".join(pieces)
    return out[2:] if out.startswith("+ ") else out
