"""Test helpers shared by several test modules."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from toric_deform.fan import Fan


def default_box_bound(fan: Fan) -> int:
    """Half-width of the degree box the Cech oracles sweep, and the one the
    h1 and triples commands once used by default: twice (1 + the largest
    absolute ray coordinate)."""
    return 2 * (1 + max(abs(x) for r in fan.rays for x in r))


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
