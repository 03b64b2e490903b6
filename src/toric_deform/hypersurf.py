"""Lifting hypersurfaces of the central fiber into the deformation ambient.

A monomial on the fiber lifts exactly when its exponent vector has a
nonnegative preimage under the exponent map nu. Since ker nu has rank
one, candidate preimages form a line: one elimination on nu gives a
point of every line, and intlin.least_on_lines the least nonnegative one.
lift_polynomial(fan, d, w, monomials) does this for all monomials of a
polynomial of class w at once, on the package d of a triple on the fan.
Riemann-Roch spaces are enumerated as the lattice points of the polytope
P_w of a divisor class, in the chart of the first maximal cone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import intlin
from .deform import DeformationData, kernel_binomial
from .fan import Fan, cox_data, require_smooth_complete


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
    """All nonnegative integer exponent vectors of the given class, sorted.

    These index a monomial basis of the global sections of any divisor
    in the class: the lattice points of the polytope P_w in the chart of
    sigma = max_cones[0] (Cox-Little-Schenck, Toric Varieties, Prop.
    4.3.3). On a smooth complete fan the grading Q restricted to the rays
    off sigma is unimodular, so one intlin.unimodular_solve gives the
    exponents there as an affine function of y = e_sigma, and P_w is
    {y >= 0, e_off(y) >= 0}, bounded as the fan is complete.

    Raises:
        ValueError: a fan that is not smooth and complete, or a class of
            the wrong length.
    """
    require_smooth_complete(fan, "Riemann-Roch enumeration")
    q = cox_data(fan).grading_rows
    w = [int(x) for x in w]
    if len(w) != len(q):
        raise ValueError(f"class has length {len(w)}, expected {len(q)}")
    sigma = fan.max_cones[0]
    off = [j for j in range(fan.n_rays) if j not in sigma]
    # Q_off @ e_off = w - Q_sigma @ y, so e_off = x[:, 0] + x[:, 1:] @ y
    rhs = [[wi, *(-row[j] for j in sigma)] for wi, row in zip(w, q)]
    x = intlin.unimodular_solve([[row[j] for j in off] for row in q], rhs)
    assert x is not None  # Q_off is unimodular on a smooth complete fan
    a = intlin.identity(len(sigma)) + [row[1:] for row in x]
    points = intlin.polyhedron_lattice_points(a, [0] * len(sigma) + [-row[0] for row in x])
    by_ray = [dict(zip([*sigma, *off], [*y, *intlin.mat_vec(x, [1, *y])])) for y in points]
    return sorted(tuple(e[j] for j in range(fan.n_rays)) for e in by_ray)


def _preimages(d: DeformationData, e) -> list[tuple[int, ...] | None]:
    """The least nonnegative preimage under nu of each column of e, or
    None where there is none, indexed by the ambient variables other than
    T1: one batch through nu.

    nu without its (3, rho) column is unitriangular up to the order of
    its columns: they hold e_j for every ray j != rho, and column (2, rho)
    is e_rho plus a combination of those. So one intlin.unimodular_solve
    on that square matrix, with a zero (3, rho) entry put back, gives an
    integer preimage of every column, and no Smith form is taken.
    intlin.least_on_lines then moves each preimage along ker nu, which
    the binomial generates, to the least nonnegative one.
    """
    j = d.pairs.index((3, d.triple.rho))
    y = intlin.unimodular_solve([row[:j] + row[j + 1:] for row in d.nu], e)
    assert y is not None  # determinant +-1, by the shape above
    x0 = y[:j] + [[0] * len(e[0])] + y[j:]
    return intlin.least_on_lines(d.nu, e, kernel_binomial(d), x0)


def lift_polynomial(fan: Fan, d: DeformationData, w, monomials) -> LiftResult:
    """Lift each monomial through nu; assemble the result when all lift.

    ``d`` is the deformation package of a triple on ``fan``, and
    ``monomials`` are (coefficient, exponent) pairs over the fiber
    variables, all of class w under the grading of the fan. They are
    checked in input order (exponent count, class, signs), and the first
    offending one is reported. Their preimages come from one elimination
    on nu (see _preimages).

    Raises:
        ValueError: a class whose length is not the class group rank, or
            a monomial of the wrong length, with negative entries, or
            whose class differs from w.
    """
    q = cox_data(fan).grading_rows
    w = tuple(int(x) for x in w)
    if len(w) != len(q):
        raise ValueError(f"class has length {len(w)}, class group rank is {len(q)}")
    r = fan.n_rays
    exps = [tuple(map(int, e)) for _, e in monomials]
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
        for (coeff, _), exp, pre in zip(monomials, exps, _preimages(d, e))
    )
    first_failure = next((i for i, m in enumerate(lifts) if not m.liftable), None)
    lifted = None
    if first_failure is None:
        lifted = tuple((m.coefficient, m.preimage) for m in lifts)
    return LiftResult(monomials=lifts, lifted=lifted, first_failure=first_failure)


_VARIABLE = re.compile(r"S(\d+)(?:\^(\d+))?\Z")


def parse_polynomial(text: str, n_vars: int):
    """Parse e.g. "2*S1^3*S4 + S2*S3" into (coefficient, exponents) terms.

    Spaces are dropped and the text is cut into signed terms; each factor
    of a term is a number or S<index>, optionally ^<power>. Terms with
    coefficient 0 are dropped, so "0" parses to no terms, as render_terms
    writes them.

    Raises:
        ValueError: at the first fault: an empty term, a malformed factor,
            or an index outside 1..n_vars.
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
        coeff = -1 if token[0] == "-" else 1
        exps = [0] * n_vars
        for factor in token[1:].split("*"):
            if factor.isdecimal():
                coeff *= int(factor)
                continue
            match = _VARIABLE.match(factor)
            if match is None:
                raise ValueError(f"cannot parse factor {factor!r}")
            index = int(match[1])
            if not 1 <= index <= n_vars:
                raise ValueError(f"variable S{index} out of range S1..S{n_vars}")
            exps[index - 1] += int(match[2] or 1)
        if coeff:
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
