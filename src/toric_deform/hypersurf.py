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

import functools
import re
from dataclasses import dataclass

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
    q = cox_data(fan).grading_rows
    w = [int(x) for x in w]
    if len(w) != len(q):
        raise ValueError(f"class has length {len(w)}, expected {len(q)}")
    r = fan.n_rays
    # with no class group every exponent vector has class 0
    kernel_rows = intlin.kernel_basis(q) if q else intlin.identity(r)
    if kernel_rows:
        bt = intlin.transpose(kernel_rows)  # e = x0 + bt @ c
        for j in range(r):
            if intlin.rational_polyhedron_nonempty(bt + [bt[j]], [0] * r + [1]):
                raise ValueError(f"class {tuple(w)} has an infinite fiber")
    x0 = intlin.solve_int(q, w)
    if x0 is None:
        return []
    if not kernel_rows:
        return [tuple(x0)] if min(x0) >= 0 else []
    points = intlin.polyhedron_lattice_points(bt, [-x for x in x0])
    out = [tuple(x + y for x, y in zip(x0, intlin.mat_vec(bt, c))) for c in points]
    out.sort()
    return out


def is_liftable(d: DeformationData, e) -> tuple[int, ...] | None:
    """Nonnegative preimage of an exponent vector under nu, if any.

    Returns the preimage with minimal position along the kernel line,
    indexed by the ambient variables other than T1.

    Raises:
        ValueError: negative entries in e.
    """
    if any(x < 0 for x in e):
        raise ValueError("exponent vectors must be nonnegative")
    return _preimages(d, [[int(x)] for x in e])[0]


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
    y = intlin.unimodular_solve([row[:j] + row[j + 1:] for row in d.nu], e)
    assert y is not None  # determinant +-1, by the shape above
    x0 = y[:j] + [[0] * len(e[0])] + y[j:]
    return intlin.least_on_lines(d.nu, e, kernel_binomial(d), x0, [True] * len(e[0]))


def lift_polynomial(p: LiftProblem) -> LiftResult:
    """Lift each monomial through nu; assemble the result when all lift.

    The monomials are checked in input order (exponent count, class,
    signs), and the first offending one is reported. Their preimages come
    from one elimination on nu (see _preimages).

    Raises:
        ValueError: a class whose length is not the class group rank, or
            a monomial of the wrong length, with negative entries, or
            whose class differs from w.
    """
    q = cox_data(p.fan).grading_rows
    w = tuple(int(x) for x in p.w)
    if len(w) != len(q):
        raise ValueError(f"class has length {len(w)}, class group rank is {len(q)}")
    r = p.fan.n_rays
    exps = [tuple(map(int, e)) for _, e in p.monomials]
    # monomials before the first wrong length take part in the batch checks
    n_ok = next((i for i, e in enumerate(exps) if len(e) != r), len(exps))
    for idx, exp in enumerate(exps[:n_ok]):
        cls = tuple(intlin.mat_vec(q, exp))
        if cls != w:
            raise ValueError(f"monomial {idx} has class {cls}, expected {w}")
        if min(exp, default=0) < 0:
            raise ValueError("exponent vectors must be nonnegative")
    if n_ok < len(exps):
        raise ValueError(f"monomial {n_ok} has {len(exps[n_ok])} exponents, expected {r}")
    e = [[x[i] for x in exps] for i in range(r)]  # column j: monomial j
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
        sub = [row[:idx] + row[idx + 1:] for row in d.nu]
        if len(sub) != len(sub[0]):
            return False
        if abs(intlin.determinant(sub)) != 1:
            return False
    return True


_FACTOR = re.compile(r"([A-Za-z]+)(\d+)(?:\^(\d+))?\Z")
_EMPTY_TERM = re.compile(r"[+-](?=[+-]|\Z)")


@functools.cache
def _term_pattern(var: str) -> re.Pattern:
    """One term: a sign, then factors (a number, or var, an index and an
    optional ^power) joined by *, up to the next sign or the end."""
    factor = rf"(?:\d+|{re.escape(var)}\d+(?:\^\d+)?)"
    return re.compile(rf"[+-]{factor}(?:\*{factor})*(?=[+-]|\Z)", re.ASCII)


def parse_polynomial(text: str, n_vars: int, var: str = "S"):
    """Parse e.g. "2*S1^3*S4 + S2*S3" into (coefficient, exponents) terms.

    Spaces are dropped, and one match of _term_pattern reads each term in
    turn; its factors then need no pattern of their own. A term that does
    not match is diagnosed by _parse_error.

    Raises:
        ValueError: malformed factors, unknown variables, or indices
            outside 1..n_vars.
    """
    compact = text.replace(" ", "")
    if not compact:
        return ()
    if compact[0] not in "+-":
        compact = "+" + compact
    term = _term_pattern(var)
    skip = len(var)
    terms = []
    pos = 0
    while pos < len(compact):
        match = term.match(compact, pos)
        if match is None:
            _parse_error(compact, pos, text, n_vars, var)
        coeff = -1 if compact[pos] == "-" else 1
        exps = [0] * n_vars
        for factor in match[0][1:].split("*"):
            if factor[0].isdigit():
                coeff *= int(factor)
                continue
            index, _, power = factor[skip:].partition("^")
            index = int(index)
            if not 1 <= index <= n_vars:
                _parse_error(compact, pos, text, n_vars, var)
            exps[index - 1] += int(power) if power else 1
        terms.append((coeff, tuple(exps)))
        pos = match.end()
    return tuple(terms)


def _parse_error(compact: str, pos: int, text: str, n_vars: int, var: str):
    """Raise the error for the term at pos of compact, the first bad one.

    A sign followed by a sign or the end anywhere from pos on makes the
    whole polynomial unreadable; otherwise the first factor of the term
    that is not a number or an in-range variable is named.
    """
    if _EMPTY_TERM.search(compact, pos):
        raise ValueError(f"cannot parse polynomial {text!r}")
    end = next((k for k in range(pos + 1, len(compact)) if compact[k] in "+-"), len(compact))
    for factor in compact[pos + 1 : end].split("*"):
        if factor.isdigit():
            int(factor)  # a non-ASCII digit fails here, as int() words it
            continue
        match = _FACTOR.match(factor)
        if match is None or match.group(1) != var:
            raise ValueError(f"cannot parse factor {factor!r}")
        index = int(match.group(2))
        if not 1 <= index <= n_vars:
            raise ValueError(f"variable {var}{index} out of range {var}1..{var}{n_vars}")
    raise AssertionError(f"term at {pos} of {compact!r} has no bad factor")


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
