"""Golden reports: `deform` and `lift` results stay byte-identical.

For every triple that enumerate_triples finds on F_2 and F_3, the
`results` and `checks` blocks of `deform` and of two `lift` commands
(the whole Riemann-Roch spaces of -K and of -K + D_rho, coefficients
1..N) are compared with the JSON in golden/deform_lift.json. The fan
file path lives in `inputs` and the timings in `timing`, so neither is
compared.

To re-record after a deliberate change of results:

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
from toric_deform.fan import cox_data, hirzebruch
from toric_deform.hypersurf import render_terms, riemann_roch_points
from toric_deform.triples import enumerate_triples

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "deform_lift.json")
FANS = {"F_2": hirzebruch(2), "F_3": hirzebruch(3)}


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


def test_deform_and_lift_match_golden(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = reports(str(tmp_path))
    assert sorted(got) == sorted(golden)
    # the lift polynomials hold unliftable monomials too (exit 1)
    assert {r["rc"] for r in got.values()} == {0, 1}
    for key in golden:
        want = json.dumps(golden[key], indent=2, sort_keys=True)
        assert json.dumps(got[key], indent=2, sort_keys=True) == want, key


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as directory:
        recorded = reports(directory)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        # one report per line
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(recorded.items())]
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(recorded)} reports to {GOLDEN}", file=sys.stderr)
