"""Golden reports: `deform`, `lift`, `triples` and `h1` results stay byte-identical.

For every triple that enumerate_triples finds on F_2 and F_3, the
`results` and `checks` blocks of `deform` and of two `lift` commands
(the whole Riemann-Roch spaces of -K and of -K + D_rho, coefficients
1..N) are compared with the JSON in golden/deform_lift.json. Those of
unbounded `triples` and `h1` on F_0..F_5, three scrolls, P1xP1xP1 and
F_2xF_3 are compared with golden/h1_triples.json; these are the paths
that carry the support_complete check. The fan file path lives in
`inputs` and the timings in `timing`, so neither is compared.

To re-record both files after a deliberate change of results:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

from toric_deform import cli
from toric_deform.fan import cox_data, hirzebruch, product, product_of_lines
from toric_deform.hypersurf import render_terms, riemann_roch_points
from toric_deform.scrolls import ScrollSpec, scroll_fan
from toric_deform.triples import enumerate_triples

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "deform_lift.json")
GOLDEN_UNBOUNDED = os.path.join(GOLDEN_DIR, "h1_triples.json")
FANS = {"F_2": hirzebruch(2), "F_3": hirzebruch(3)}
UNBOUNDED_FANS = {
    **{f"F_{a}": hirzebruch(a) for a in range(6)},
    **{f"S({','.join(map(str, a))})": scroll_fan(ScrollSpec(a))
       for a in ((2, 1, 0), (3, 1, 0), (5, 3, 1, 0, 0))},
    "P1xP1xP1": product_of_lines(3),
    "F_2xF_3": product(hirzebruch(2), hirzebruch(3)),
}


def _run(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    report = json.loads(out.getvalue())
    return {"rc": rc, "results": report["results"], "checks": report["checks"]}


def reports(directory: str) -> dict[str, dict]:
    """key -> {rc, results, checks} for each triple's deform and lift command."""
    out = {}
    for key, fan in FANS.items():
        path = os.path.join(directory, f"{key}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cli.fan_to_json(fan), fh)
        q = cox_data(fan).grading
        labels = [f"S{i + 1}" for i in range(fan.n_rays)]
        for t in enumerate_triples(fan):
            triple = ["--m", ",".join(map(str, t.m)), "--rho", str(t.rho),
                      "--component", ",".join(map(str, t.component))]
            name = f"{key} {' '.join(triple)}"
            out[f"deform {name}"] = _run(["deform", "--fan", path, *triple])
            # -K lifts whole; -K + D_rho has monomials that do not lift
            for label, w in (("-K", q.sum(axis=1)), ("-K+D_rho", q.sum(axis=1) + q[:, t.rho])):
                points = riemann_roch_points(fan, w)
                poly = render_terms([(c + 1, p) for c, p in enumerate(points)], labels)
                cls = ",".join(str(int(x)) for x in w)
                out[f"lift {name} class {label}"] = _run(
                    ["lift", "--fan", path, *triple, "--class", cls, "--poly", poly]
                )
    return out


def unbounded_reports(directory: str) -> dict[str, dict]:
    """key -> {rc, results, checks} for unbounded triples and h1 on each fan."""
    out = {}
    for k, (key, fan) in enumerate(UNBOUNDED_FANS.items()):
        path = os.path.join(directory, f"fan{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cli.fan_to_json(fan), fh)
        for command in ("triples", "h1"):
            out[f"{command} {key}"] = _run([command, "--fan", path])
    return out


def _assert_matches(got: dict, golden_path: str) -> None:
    with open(golden_path, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert sorted(got) == sorted(golden)
    for key in golden:
        want = json.dumps(golden[key], indent=2, sort_keys=True)
        assert json.dumps(got[key], indent=2, sort_keys=True) == want, key


def test_deform_and_lift_match_golden(tmp_path):
    got = reports(str(tmp_path))
    # the lift polynomials hold unliftable monomials too (exit 1)
    assert {r["rc"] for r in got.values()} == {0, 1}
    _assert_matches(got, GOLDEN)


def test_unbounded_triples_and_h1_match_golden(tmp_path):
    got = unbounded_reports(str(tmp_path))
    # every report carries a passing support_complete check
    for key, report in got.items():
        assert report["rc"] == 0, key
        assert [c["name"] for c in report["checks"]][-1] == "support_complete", key
    _assert_matches(got, GOLDEN_UNBOUNDED)


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for path, build in ((GOLDEN, reports), (GOLDEN_UNBOUNDED, unbounded_reports)):
        with tempfile.TemporaryDirectory() as directory:
            recorded = build(directory)
        with open(path, "w", encoding="utf-8") as fh:
            # one report per line
            lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(recorded.items())]
            fh.write("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {len(recorded)} reports to {path}", file=sys.stderr)
