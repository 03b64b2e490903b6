"""The benchmark's fans, workloads and output checks.

A workload is a list of operations that make up one pass. Most operations
are in-process calls of ``toric_deform.cli.main(argv)``; the exception is
the triple-pipeline's anticanonical Riemann-Roch step, a library call that
builds the polynomial the fan's ``lift`` commands then use. Every operation
carries a check that returns None when the output is right, or a message.
Expected values (H^1 totals, triple counts, liftable monomials, scroll
moves) are pinned in ``expected.json``; they were recorded from the
program when the benchmark was added, and the F_n totals agree with the
closed form n - 1.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("h1-sweep", "triples-scan", "triple-pipeline")

# h1-sweep: growing boxes 1..B per fan, the way a user checks that the H^1
# total has stopped changing. The bounds keep one pass near 3 s on 2 cores
# (P1xP1xP1 at bound 1 is 27 degrees but 28 cone pairs and 56 cone triples).
H1_SWEEP_BOUNDS = {
    "F_2": 6, "F_3": 8, "F_4": 10, "F_5": 12,
    "S(2,1,0)": 3, "S(3,1,0)": 3, "P1xP1xP1": 1,
}
# triples-scan: growing boxes 1..6; S(2,0,0,0) reaches its default bound.
TRIPLES_SCAN_BOUND = 6
TRIPLES_SCAN_FANS = ("S(2,0,0,0)", "S(3,0,0,0)", "S(4,0,0,0)")
PIPELINE_FANS = (
    "F_2", "F_3", "F_4", "F_5",
    "S(2,1,0)", "S(3,1,0)", "S(4,0,0)", "S(2,0,0,0)", "S(3,0,0,0)",
)
SCROLL_PATHS = ((9, 0, 0), (12, 0, 0, 0), (8, 5, 3, 0, 0))


def _join(vec) -> str:
    return ",".join(str(int(x)) for x in vec)


def scroll_key(twists) -> str:
    return f"S({_join(twists)})"


def build_fan(key: str):
    """Fan for a key such as "F_3", "S(3,1,0)" or "P1xP1xP1"."""
    from toric_deform import fan, scrolls

    if key.startswith("F_"):
        return fan.hirzebruch(int(key[2:]))
    if key.startswith("S("):
        twists = tuple(int(x) for x in key[2:-1].split(","))
        return scrolls.scroll_fan(scrolls.ScrollSpec(twists))
    if key == "P1xP1xP1":
        return fan.product_of_lines(3)
    raise KeyError(key)


def fan_keys(workload: str, expected: dict) -> list[str]:
    """The fans a workload reads, including the scroll-path steps."""
    if workload == "h1-sweep":
        return sorted(H1_SWEEP_BOUNDS)
    if workload == "triples-scan":
        return sorted(TRIPLES_SCAN_FANS)
    keys = set(PIPELINE_FANS)
    for twists in SCROLL_PATHS:
        keys.update(scroll_key(mv["from"]) for mv in expected["scroll_paths"][_join(twists)])
    return sorted(keys)


def write_fans(keys, directory: str) -> dict[str, str]:
    """Build each fan and write it as a CLI fan file; returns key -> path."""
    from toric_deform.cli import fan_to_json

    paths = {}
    for k, key in enumerate(keys):
        path = os.path.join(directory, f"fan{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fan_to_json(build_fan(key)), fh)
        paths[key] = path
    return paths


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    """One operation of a pass.

    kind "cli": ``argv`` is a list, or a function of the pass context
    returning one, and ``check(rc, out, err, ctx)`` judges the result.
    kind "rr": ``args`` is (fan, anticanonical class) for
    ``hypersurf.riemann_roch_points``; ``check(points, ctx)`` judges the
    points and stores the fan's lift polynomial in ``ctx``.
    """

    kind: str
    check: Callable
    argv: object = None
    args: tuple = ()


def _checks_ok(report) -> str | None:
    bad = [c["name"] for c in report["checks"] if not c["ok"]]
    return f"checks not ok: {bad}" if bad else None


def _triple_key(t) -> tuple:
    return (tuple(t["m"]), t["rho"], tuple(t["component"]))


def _triple_shape_error(rays, t) -> str | None:
    value = sum(a * b for a, b in zip(t["m"], rays[t["rho"]]))
    if value != -1:
        return f"triple {t} has m(v_rho) = {value}"
    if t["rho"] in t["component"] or not t["component"]:
        return f"triple {t} has a bad component"
    return None


def _expect_rc(rc, want) -> str | None:
    return None if rc == want else f"exit code {rc}, expected {want}"


# ---------------------------------------------------------------- h1-sweep


def h1_sweep(fans: dict[str, str], expected: dict, rng: random.Random) -> list[Op]:
    from toric_deform.triples import enumerate_triples

    ops = []
    for key, top in H1_SWEEP_BOUNDS.items():
        fan = build_fan(key)
        for bound in range(1, top + 1):
            pin = expected["h1_sweep"][key][str(bound)]
            # the reference comes from enumerate_triples, the code path of
            # the `triples` command; the sweep lists them via the CLI's own
            # per-degree loop
            ref = sorted(
                (t.m, t.rho, t.component) for t in enumerate_triples(fan, bound)
            )
            ops.append(Op("cli", _h1_sweep_check(pin, ref), argv=[
                "h1", "--fan", fans[key], "--bound", str(bound)]))
    rng.shuffle(ops)
    return ops


def _h1_sweep_check(pin, ref):
    def check(rc, out, err, ctx):
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        rep = json.loads(out)
        bad = _checks_ok(rep)
        if bad:
            return bad
        res = rep["results"]
        if res["total_h1"] != pin["total_h1"]:
            return f"total_h1 {res['total_h1']}, pinned {pin['total_h1']}"
        listed = sorted(_triple_key(t) for e in res["degrees"] for t in e["triples"])
        if len(listed) != pin["triples"]:
            return f"{len(listed)} triples, pinned {pin['triples']}"
        if listed != ref:
            return "h1 sweep triples differ from enumerate_triples"
        return None

    return check


# ------------------------------------------------------------ triples-scan


def triples_scan(fans: dict[str, str], expected: dict, rng: random.Random) -> list[Op]:
    ops = []
    for key in TRIPLES_SCAN_FANS:
        rays = build_fan(key).rays
        for bound in range(1, TRIPLES_SCAN_BOUND + 1):
            pin = expected["triples_scan"][key][str(bound)]
            ops.append(Op("cli", _triples_check(pin, rays), argv=[
                "triples", "--fan", fans[key], "--bound", str(bound)]))
    rng.shuffle(ops)
    return ops


def _triples_check(pin, rays):
    def check(rc, out, err, ctx):
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        res = json.loads(out)["results"]
        if res["count"] != pin or len(res["triples"]) != pin:
            return f"count {res['count']}, pinned {pin}"
        for t in res["triples"]:
            bad = _triple_shape_error(rays, t)
            if bad:
                return bad
        return None

    return check


# --------------------------------------------------------- triple-pipeline


def triple_pipeline(fans: dict[str, str], expected: dict, rng: random.Random) -> list[Op]:
    """Per fan a check and the Riemann-Roch step, then every other command.

    The commands of all fans are shuffled together, so the heavy ones (lift
    and deform on 4- and 5-folds) are spread over the pass instead of
    running in one burst that a short slowdown of the machine hits at once.
    """
    heads, cmds = [], []
    for key in PIPELINE_FANS:
        head, fan_cmds = _pipeline_group(key, fans, expected["pipeline"][key], rng)
        heads += head
        cmds += fan_cmds
    for twists in SCROLL_PATHS:
        cmds += _scroll_group(twists, fans, expected["scroll_paths"][_join(twists)])
    rng.shuffle(heads)
    rng.shuffle(cmds)
    return heads + cmds


def _pipeline_group(key, fans, pin, rng) -> tuple[list[Op], list[Op]]:
    """(fan check and Riemann-Roch step, h1/deform/lift per triple).

    ``pin["triples"]`` rows are [m, rho, component, h1 at m, liftable
    monomials of the anticanonical polynomial].
    """
    from toric_deform.fan import cox_data

    fan = build_fan(key)
    path = fans[key]
    w = [int(x) for x in cox_data(fan).grading.sum(axis=1)]  # -K: sum of all D_rho
    cls = _join(w)
    coeffs = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(pin["rr_points"])]
    cmds = []
    for m, rho, comp, h1_dim, liftable in pin["triples"]:
        triple = ["--m", _join(m), "--rho", str(rho), "--component", _join(comp)]
        cmds.append(Op("cli", _h1_degree_check(m, rho, comp, h1_dim), argv=[
            "h1", "--fan", path, "--degree", _join(m)]))
        cmds.append(Op("cli", _deform_check, argv=["deform", "--fan", path, *triple]))
        cmds.append(Op(
            "cli",
            _lift_check(coeffs, liftable),
            argv=lambda ctx, triple=triple: [
                "lift", "--fan", path, *triple, "--class", cls, "--poly", ctx[key]],
        ))
    check_fan = Op("cli", _fan_check(fan.n_rays - fan.dim), argv=["fan", "check", "--fan", path])
    rr = Op("rr", _rr_check(key, coeffs), args=(fan, w))
    return [check_fan, rr], cmds


def _fan_check(cl_rank):
    def check(rc, out, err, ctx):
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        rep = json.loads(out)
        bad = _checks_ok(rep)
        if bad:
            return bad
        if rep["results"]["cox"]["cl_rank"] != cl_rank:
            return f"cl_rank {rep['results']['cox']['cl_rank']}, expected {cl_rank}"
        return None

    return check


def _rr_check(key, coeffs):
    def check(points, ctx):
        if len(points) != len(coeffs):
            return f"{len(points)} Riemann-Roch points for {key}, pinned {len(coeffs)}"
        terms = []
        for c, exps in zip(coeffs, points):
            factors = [f"S{i + 1}^{e}" for i, e in enumerate(exps) if e]
            terms.append(("- " if c < 0 else "+ ") + "*".join([str(abs(c)), *factors]))
        ctx[key] = " ".join(terms)
        return None

    return check


def _h1_degree_check(m, rho, comp, h1_dim):
    want = (tuple(m), rho, tuple(comp))

    def check(rc, out, err, ctx):
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        rep = json.loads(out)
        bad = _checks_ok(rep)
        if bad:
            return bad
        res = rep["results"]
        if res["total_h1"] != h1_dim:
            return f"h1 at {m} is {res['total_h1']}, pinned {h1_dim}"
        listed = {_triple_key(t) for e in res["degrees"] for t in e["triples"]}
        if want not in listed:
            return f"triple {want} missing from h1 --degree output"
        return None

    return check


def _deform_check(rc, out, err, ctx):
    bad = _expect_rc(rc, 0)
    if bad:
        return bad
    rep = json.loads(out)
    if len(rep["checks"]) != 5:
        return f"{len(rep['checks'])} central-fiber checks, expected 5"
    return _checks_ok(rep)


def _lift_check(coeffs, liftable):
    def check(rc, out, err, ctx):
        every = liftable == len(coeffs)
        bad = _expect_rc(rc, 0 if every else 1)
        if bad:
            return bad
        rep = json.loads(out)
        res = rep["results"]
        got = sum(1 for m in res["monomials"] if m["liftable"])
        if got != liftable:
            return f"{got} liftable monomials, pinned {liftable}"
        if [m["coefficient"] for m in res["monomials"]] != coeffs:
            return "monomial coefficients differ from the input polynomial"
        if (res["lifted"] is not None) != every or rep["checks"][0]["ok"] != every:
            return "all_liftable disagrees with the liftable monomials"
        return None

    return check


def _scroll_group(twists, fans, moves) -> list[Op]:
    ops = [Op("cli", _scroll_path_check(moves), argv=["scroll", "path", _join(twists)])]
    for mv in moves:
        m, rho, comp = mv["triple"]
        ops.append(Op("cli", _deform_check, argv=[
            "deform", "--fan", fans[scroll_key(mv["from"])],
            "--m", _join(m), "--rho", str(rho), "--component", _join(comp)]))
    return ops


def _scroll_path_check(moves):
    def check(rc, out, err, ctx):
        bad = _expect_rc(rc, 0)
        if bad:
            return bad
        rep = json.loads(out)
        bad = _checks_ok(rep)
        if bad:
            return bad
        got = [
            {"from": mv["from"], "to": mv["to"],
             "triple": [mv["triple"]["m"], mv["triple"]["rho"], mv["triple"]["component"]]}
            for mv in rep["results"]["moves"]
        ]
        return None if got == moves else "scroll path moves differ from the pinned path"

    return check


MAKE_OPS = {
    "h1-sweep": h1_sweep,
    "triples-scan": triples_scan,
    "triple-pipeline": triple_pipeline,
}
