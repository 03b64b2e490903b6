"""Rational normal scroll fans and their deformation moves.

A scroll with twist sequence (a_1, ..., a_n) is the projectivization of a
sum of n line bundles over the projective line. Its fan lives in rank n
and has n+2 rays: two base rays and n fiber rays. Twist sequences that
agree after sorting and a common shift give isomorphic scrolls, and a
scroll is rigid exactly when its normalized twists are all 0 or 1.

Whenever two twists differ by at least 2, moving d units from the larger
to the smaller is realized by an explicit admissible triple on the scroll
fan; iterating unit moves walks any scroll to its rigid model.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import intlin
from .fan import Fan
from .triples import AdmissibleTriple, admissible_components, marker_graph


@dataclass(frozen=True)
class ScrollSpec:
    """Twist sequence of a scroll over the projective line."""

    a: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(x) for x in self.a))
        if len(self.a) < 2:
            raise ValueError("a scroll needs at least 2 twists")

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def total(self) -> int:
        return sum(self.a)


@dataclass(frozen=True)
class ScrollMove:
    """One deformation step between twist sequences.

    to_spec differs from from_spec by moving dprime units from entry i
    to entry j (1-based positions); triple is the admissible triple on
    scroll_fan(from_spec) realizing the move.
    """

    from_spec: ScrollSpec
    to_spec: ScrollSpec
    i: int
    j: int
    dprime: int
    triple: AdmissibleTriple


def scroll_fan(s: ScrollSpec) -> Fan:
    """Fan of the scroll: 2 base rays, n fiber rays, 2n maximal cones.

    Layout: ray 0 = e_1, ray 1 = -e_1 + sum_i (a_i - a_n) e_{1+i},
    rays 2..n are the fiber basis vectors e_2..e_n, and ray n+1 is minus
    their sum. Maximal cones pair one base ray with all fiber rays but
    one. The grading dual to this layout is [[1,1,-a_1..-a_n],[0,0,1..1]]
    up to row operations.
    """
    n = s.n
    base0 = tuple(1 if k == 0 else 0 for k in range(n))
    base1 = tuple(
        -1 if k == 0 else s.a[k - 1] - s.a[n - 1] for k in range(n)
    )
    fibers = [
        tuple(1 if k == p else 0 for k in range(n)) for p in range(1, n)
    ]
    fibers.append(tuple(0 if k == 0 else -1 for k in range(n)))
    rays = (base0, base1, *fibers)
    fiber_idx = range(2, n + 2)
    cones = tuple(
        tuple(sorted({b, *(f for f in fiber_idx if f != skip)}))
        for b in (0, 1)
        for skip in fiber_idx
    )
    return Fan(dim=n, rays=rays, max_cones=cones)


def normalize(s: ScrollSpec) -> ScrollSpec:
    """Canonical twist sequence: sorted non-increasing, smallest entry 0.

    Two scrolls are isomorphic exactly when their normalizations agree.
    """
    shifted = sorted((x - min(s.a) for x in s.a), reverse=True)
    return ScrollSpec(a=tuple(shifted))


def is_rigid(s: ScrollSpec) -> bool:
    """True when the scroll admits no non-trivial deformations."""
    return all(x in (0, 1) for x in normalize(s).a)


def fiber_ray(s: ScrollSpec, position: int) -> int:
    """Ray index of the fiber ray attached to a 1-based twist position."""
    if not 1 <= position <= s.n:
        raise ValueError(f"position {position} out of range 1..{s.n}")
    return 1 + position


def one_step(s: ScrollSpec, i: int, j: int, dprime: int) -> ScrollMove:
    """Move dprime units of twist from entry i to entry j (1-based).

    The twists must satisfy a_i - a_j >= 2 and 1 <= dprime <= gap - 1.
    The returned move carries the admissible triple on scroll_fan(s)
    whose deformation has the target scroll as its general fiber.

    Raises:
        ValueError: positions out of range or equal, gap below 2, or
            dprime outside its range.
    """
    if i == j:
        raise ValueError("the two positions must differ")
    gap = s.a[i - 1] - s.a[j - 1] if 1 <= i <= s.n and 1 <= j <= s.n else None
    if gap is None:
        raise ValueError(f"positions must lie in 1..{s.n}")
    if gap < 2:
        raise ValueError(
            f"entries {i} and {j} differ by {gap}; a move needs a gap of at least 2"
        )
    if not 1 <= dprime <= gap - 1:
        raise ValueError(f"step size must be between 1 and {gap - 1}")

    fan = scroll_fan(s)
    values = [0] * (s.n + 2)
    values[0] = -dprime
    values[1] = dprime - gap
    values[fiber_ray(s, i)] = -1
    values[fiber_ray(s, j)] = 1
    m = intlin.solve_int(fan.rays, values)  # the rays are the rows of the ray matrix^T
    assert m is not None  # the value vector is orthogonal to the grading
    m = tuple(m)

    rho = fiber_ray(s, i)
    g = marker_graph(fan, m, rho)
    assert (0,) in admissible_components(g)
    triple = AdmissibleTriple(m=m, rho=rho, component=(0,))

    target = list(s.a)
    target[i - 1] -= dprime
    target[j - 1] += dprime
    return ScrollMove(
        from_spec=s,
        to_spec=ScrollSpec(a=tuple(target)),
        i=i,
        j=j,
        dprime=dprime,
        triple=triple,
    )


def path_to_rigid(s: ScrollSpec) -> list[ScrollMove]:
    """Unit moves from normalize(s) down to the rigid model.

    Each move shifts one unit from the largest twist to a zero twist of
    the normalized current sequence; the endpoint is (1,..,1,0,..,0)
    with as many ones as the twist total modulo n.
    """
    moves: list[ScrollMove] = []
    cur = normalize(s)
    while not is_rigid(cur):
        mv = one_step(cur, 1, cur.n, 1)
        moves.append(mv)
        cur = normalize(mv.to_spec)
    return moves


def rigid_model(s: ScrollSpec) -> ScrollSpec:
    """The endpoint of path_to_rigid without computing the moves."""
    r = s.total % s.n
    return ScrollSpec(a=tuple(1 if k < r else 0 for k in range(s.n)))
