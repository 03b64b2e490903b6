"""Acceptance suite: one test per shipped guarantee, exact arithmetic only.

Each test covers one criterion end to end, asserts its stated time
budget where one applies, and prints a single PASS line with the
headline numbers. Run with -v for the per-criterion verdict lines.
"""

import itertools
import random
import time

import numpy as np

from toric_deform import intlin
from toric_deform.cohomology import GradedCechComplex, h1_dimension, span_check
from toric_deform.deform import (
    build_deformation,
    eta_map,
    kernel_binomial,
    verify_central_fiber,
)
from toric_deform.fan import Fan, cox_data, hirzebruch, product_of_lines
from toric_deform.hypersurf import (
    hilbert_basis_check,
    is_liftable,
    riemann_roch_points,
)
from toric_deform.scrolls import (
    ScrollSpec,
    is_rigid,
    normalize,
    one_step,
    path_to_rigid,
    rigid_model,
    scroll_fan,
)
from toric_deform.triples import (
    AdmissibleTriple,
    admissible_components,
    degree_box,
    enumerate_triples,
    marker_graph,
)


def hirzebruch_triple(alpha: int) -> AdmissibleTriple:
    return AdmissibleTriple(m=(-alpha, -1), rho=1, component=(0,))


def default_box_bound(fan: Fan) -> int:
    """Half-width of the degree box the Cech oracles sweep: twice (1 + the
    largest absolute ray coordinate), the former default box."""
    return 2 * (1 + max(abs(x) for r in fan.rays for x in r))


def suite_deformations():
    """Every deformation the package vouches for in this suite."""
    out = []
    for n in range(1, 6):
        fan = hirzebruch(n)
        for t in enumerate_triples(fan):
            out.append((fan, build_deformation(fan, t)))
    for a in ((2, 1, 0), (3, 1, 0)):
        fan = scroll_fan(ScrollSpec(a))
        for t in enumerate_triples(fan):
            out.append((fan, build_deformation(fan, t)))
    for a in ((4, 1, 0), (3, 1)):
        for mv in path_to_rigid(ScrollSpec(a)):
            fan = scroll_fan(mv.from_spec)
            out.append((fan, build_deformation(fan, mv.triple)))
    return out


def test_criterion_1_hirzebruch_golden():
    started = time.perf_counter()
    for n, alpha in ((2, 1), (3, 1), (3, 2), (5, 2)):
        d = build_deformation(hirzebruch(n), hirzebruch_triple(alpha))
        expected_ptilde = [
            [1, -alpha, -1, 0, 0],
            [1, 0, 0, -1, alpha - n],
            [0, 1, 0, 0, -1],
        ]
        expected_nu = [
            [0, 1, 0, alpha, 0],
            [0, 0, 1, 1, 0],
            [0, 0, n - alpha, 0, 1],
            [1, 0, 0, 0, 0],
        ]
        assert [[int(x) for x in row] for row in d.Ptilde] == expected_ptilde
        assert [[int(x) for x in row] for row in d.nu] == expected_nu
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 1 exceeded 1 s ({elapsed:.2f} s)"
    print(f"CRITERION 1 PASS: 4 Hirzebruch packages match exactly ({elapsed:.2f} s)")


def test_criterion_2_trapezoid_lifting():
    started = time.perf_counter()
    n, alpha, a, b = 2, 1, 5, 2
    fan = hirzebruch(n)
    d = build_deformation(fan, hirzebruch_triple(alpha))
    points = riemann_roch_points(fan, (a, b))
    assert len(points) == 12
    for e in points:
        assert is_liftable(d, e) is not None
    vertices = {
        (a, b, 0, 0): (0, a - b * alpha, 0, b, 0),
        (0, b, a, 0): (0, 0, b, 0, a - b * n + b * alpha),
        (0, 0, a - b * n, b): (b, 0, 0, 0, a - b * n),
        (a - b * n, 0, 0, b): (b, a - n * b, 0, 0, 0),
    }
    for e, expected in vertices.items():
        assert e in points
        lift = is_liftable(d, e)
        assert tuple(int(x) for x in lift) == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"criterion 2 exceeded 1 s ({elapsed:.2f} s)"
    print(
        "CRITERION 2 PASS: 12/12 points liftable, 4 vertex preimages exact "
        f"({elapsed:.2f} s)"
    )


def test_criterion_3_cohomology_cross_validation():
    started = time.perf_counter()
    for n in range(1, 6):
        fan = hirzebruch(n)
        triples = enumerate_triples(fan)
        assert len(triples) == 2 * (n - 1)
        total = 0
        for m in degree_box(fan, default_box_bound(fan)):
            at_m = [t for t in triples if tuple(t.m) == tuple(m)]
            rep = span_check(fan, m, at_m)
            assert rep["spans"], f"F_{n} cocycles do not span at degree {m}"
            total += rep["h1_dim"]
        assert total == n - 1, f"F_{n} total H^1 is {total}, expected {n - 1}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 3 exceeded 30 s ({elapsed:.2f} s)"
    print(
        "CRITERION 3 PASS: F_1..F_5 totals n-1, counts 2(n-1), spans everywhere "
        f"({elapsed:.2f} s)"
    )


def test_criterion_4_rigidity_sweep():
    started = time.perf_counter()
    specs = [
        ScrollSpec((a1, a2, 0))
        for a1 in range(4)
        for a2 in range(a1 + 1)
    ]
    assert len(specs) == 10
    checked = 0
    for spec in specs:
        fan = scroll_fan(spec)
        triples = enumerate_triples(fan)
        total = sum(
            h1_dimension(fan, m) for m in degree_box(fan, default_box_bound(fan))
        )
        rigid = is_rigid(spec)
        assert rigid == (not triples) == (total == 0), (
            f"spec {spec.a}: rigid={rigid}, triples={len(triples)}, h1={total}"
        )
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 4 exceeded 2 min ({elapsed:.2f} s)"
    print(
        f"CRITERION 4 PASS: {checked} normalized 3-scrolls, "
        f"rigid iff no triples iff H^1 = 0 ({elapsed:.2f} s)"
    )


def _eta_image(d, exps):
    eta = eta_map(d)
    image = {}
    for c, e in enumerate(exps):
        if e == 0:
            continue
        table = eta[d.column_labels[c]]
        assert table is not None, "binomial term touches T1"
        for s, p in table.items():
            image[s] = image.get(s, 0) + p * int(e)
    return {s: p for s, p in image.items() if p}


def test_criterion_5_central_fiber_identity():
    named = ("cone_membership", "lattice_identification",
             "diagram_commutes", "cox_cone_mapping")
    product = product_of_lines(3)
    assert enumerate_triples(product) == []
    count = 0
    for fan in (hirzebruch(2), hirzebruch(3), scroll_fan(ScrollSpec((2, 1, 0)))):
        for t in enumerate_triples(fan):
            d = build_deformation(fan, t)
            rep = verify_central_fiber(fan, d)
            assert rep["passes"]
            for name in named:
                assert rep["checks"][name]["ok"], f"{name} failed for {t}"
            term2 = d.trinomial.terms[1][1]
            term3 = d.trinomial.terms[2][1]
            assert _eta_image(d, term2) == _eta_image(d, term3), (
                f"binomial not in the kernel of eta for {t}"
            )
            count += 1
    assert count > 0
    print(
        f"CRITERION 5 PASS: {count} fibers verified on F_2, F_3, (P^1)^3, "
        "F(2,1,0); eta kills the binomial"
    )


def test_criterion_6_scroll_paths():
    started = time.perf_counter()
    specs = [
        ScrollSpec(a)
        for n in (2, 3, 4)
        for a in itertools.product(range(5), repeat=n)
    ]
    assert len(specs) == 775
    moves_total = 0
    for spec in specs:
        moves = path_to_rigid(spec)
        for mv in moves:
            redo = one_step(mv.from_spec, mv.i, mv.j, mv.dprime)
            assert redo.to_spec == mv.to_spec
            assert redo.triple == mv.triple
            g = marker_graph(scroll_fan(mv.from_spec), mv.triple.m, mv.triple.rho)
            assert mv.triple.component in admissible_components(g)
        end = normalize(moves[-1].to_spec) if moves else normalize(spec)
        r = spec.total % spec.n
        assert end == rigid_model(spec)
        assert end.a == (1,) * r + (0,) * (spec.n - r)
        moves_total += len(moves)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 6 exceeded 1 min ({elapsed:.2f} s)"
    print(
        f"CRITERION 6 PASS: 775 specs, {moves_total} moves re-validated, "
        f"all endpoints (1^r, 0^(n-r)) ({elapsed:.2f} s)"
    )


def test_criterion_7_hilbert_basis():
    suite = suite_deformations()
    assert len(suite) >= 20
    for fan, d in suite:
        assert hilbert_basis_check(d), (
            f"Hilbert basis failure for {d.triple} on a fan with "
            f"{fan.n_rays} rays"
        )
    print(f"CRITERION 7 PASS: |det| = 1 both deletions on {len(suite)} deformations")


def obj(rows) -> np.ndarray:
    """A package matrix (rows of ints) or vector as a numpy object array,
    for the products of the oracles."""
    return np.array(rows, dtype=object)


def _zero_matrix(mat) -> bool:
    return all(int(x) == 0 for row in mat for x in row)


def _brute_force_line(a, e, z, k, bound):
    feasible = []
    for t in range(-bound, bound + 1):
        x = [int(zi) + t * int(ki) for zi, ki in zip(z, k)]
        if all(v >= 0 for v in x):
            ax = [sum(int(a[i][j]) * x[j] for j in range(len(x))) for i in range(len(a))]
            if ax == [int(v) for v in e]:
                feasible.append((t, tuple(x)))
    return feasible


def test_nonneg_lines_match_line_scan():
    # a batch of right-hand sides solved by one nonneg_lines call agrees,
    # column by column, with the brute-force scan and with solve_nonneg_line
    rng = random.Random(20261018)
    columns = 0
    systems = 0
    while systems < 60:
        n = rng.randint(2, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
        a = obj(rows)
        if intlin.rational_rank(a) != n - 1:
            continue
        k = intlin.kernel_basis(a)[0]
        zs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 6))]
        e = np.stack([a @ obj(z) for z in zs], axis=1)
        got = intlin.Solver(a).nonneg_lines(e, k)
        assert len(got) == len(zs)
        for j, (z, x) in enumerate(zip(zs, got)):
            feasible = _brute_force_line(rows, e[:, j], z, k, max(abs(v) for v in z) + 1)
            one = intlin.solve_nonneg_line(a, e[:, j], k)
            if x is None:
                assert not feasible and one is None
            else:
                # the least t when k has a positive entry, else the greatest
                want = feasible[0][1] if any(int(v) > 0 for v in k) else feasible[-1][1]
                assert x == want == tuple(one)
            columns += 1
        systems += 1
    print(f"NONNEG LINES PASS: {columns} columns in {systems} batches match brute force")


def test_criterion_8_property_suites():
    # d1 composed with d0 vanishes on a spread of graded complexes
    complexes = 0
    for fan in (hirzebruch(2), product_of_lines(2), scroll_fan(ScrollSpec((2, 1, 0)))):
        for m in degree_box(fan, 2):
            c = GradedCechComplex(fan, m)
            if c.dim0 and c.dim1 and c.dim2:
                prod = np.array(c.d1, dtype=object) @ np.array(c.d0, dtype=object)
                assert _zero_matrix(prod)
            complexes += 1
    assert complexes > 0

    # the grading annihilates the ray matrix
    fans = [hirzebruch(n) for n in range(1, 6)]
    fans += [product_of_lines(2), product_of_lines(3)]
    fans += [scroll_fan(ScrollSpec(a)) for a in ((2, 1, 0), (3, 1), (1, 0))]
    for fan in fans:
        prod = obj(cox_data(fan).grading_rows) @ obj(fan.ray_matrix()).T
        assert _zero_matrix(prod)

    # nu kills its kernel vector, and the class-group map is an iso (SNF all 1)
    suite = suite_deformations()
    for fan, d in suite:
        assert all(int(x) == 0 for x in obj(d.nu) @ obj(kernel_binomial(d)))
        cl = len(d.Qtilde)
        cols = []
        for i in range(cl):
            e = [1 if j == i else 0 for j in range(cl)]
            col = intlin.solve_int(d.Qtilde, e)
            assert col is not None
            cols.append(col)
        right_inverse = obj(cols).T
        nbar = obj(cox_data(fan).grading_rows) @ (obj(d.nu) @ right_inverse)
        s = obj(intlin.smith_normal_form(nbar).s)
        diag = [int(s[i, i]) for i in range(min(s.shape))]
        assert s.shape == (cl, cl) and diag == [1] * cl

    # solve_nonneg_line against a brute-force line scan
    rng = random.Random(20260814)
    instances = 0
    while instances < 80:
        n = rng.randint(3, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n - 1)]
        a = obj(rows)
        if intlin.rational_rank(a) != n - 1:
            continue
        k = intlin.kernel_basis(a)[0]
        z = [rng.randint(-4, 4) for _ in range(n)]
        e = a @ obj(z)
        got = intlin.solve_nonneg_line(a, e, k)
        bound = max(abs(v) for v in z) + 1
        feasible = _brute_force_line(rows, e, z, k, bound)
        if got is None:
            assert not feasible
        else:
            got = tuple(int(x) for x in got)
            assert all(v >= 0 for v in got)
            assert all(int(v) == 0 for v in a @ obj(got) - e)
            if any(int(v) > 0 for v in k):
                assert feasible and got == feasible[0][1]
            else:
                assert feasible and got == feasible[-1][1]
        instances += 1
    while instances < 97:
        n = rng.randint(2, 4)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        a = obj(rows)
        if intlin.rational_rank(a) != n:
            continue
        z = [rng.randint(-3, 3) for _ in range(n)]
        e = a @ obj(z)
        got = intlin.solve_nonneg_line(a, e, [0] * n)
        if all(v >= 0 for v in z):
            assert got is not None and tuple(int(x) for x in got) == tuple(z)
        else:
            assert got is None
        instances += 1
    for rhs in ((1, 3), (0, 1), (2, 5)):
        a = obj([[1, 2, -1], [2, 4, -2]])
        k = intlin.kernel_basis(a)[0]
        try:
            intlin.solve_nonneg_line(a, rhs, k)
        except ValueError as exc:
            assert "no rational solution" in str(exc)
        else:
            raise AssertionError("inconsistent system accepted")
        instances += 1
    assert instances == 100

    # h1 is invariant under relabeling the rays
    rng = random.Random(7)
    for fan, bound in ((hirzebruch(2), 2), (scroll_fan(ScrollSpec((2, 1, 0))), 1)):
        for _ in range(3):
            perm = list(range(fan.n_rays))
            rng.shuffle(perm)
            inverse = [perm.index(i) for i in range(fan.n_rays)]
            shuffled = Fan(
                dim=fan.dim,
                rays=tuple(fan.rays[perm[i]] for i in range(fan.n_rays)),
                max_cones=tuple(
                    tuple(sorted(inverse[i] for i in c)) for c in fan.max_cones
                ),
            )
            for m in degree_box(fan, bound):
                assert h1_dimension(fan, m) == h1_dimension(shuffled, m)

    print(
        "CRITERION 8 PASS: d1.d0 = 0, Q.P^t = 0, nu.ker = 0, class map iso, "
        f"{instances} line solves match brute force, h1 permutation-invariant"
    )
