"""End-to-end tests of the command line interface.

Every command runs as a real subprocess on the Hirzebruch F2 fan,
checking payload shape, golden values, exit codes and determinism.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_deform import cli, intlin
from toric_deform import fan as fan_module
from toric_deform.cohomology import span_check
from toric_deform.fan import cox_data, hirzebruch
from toric_deform.hypersurf import riemann_roch_points
from toric_deform.scrolls import ScrollSpec, scroll_fan
from toric_deform.triples import degree_box, enumerate_triples, triples_at_degree

F2 = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
    "max_cones": [[0, 1], [1, 2], [2, 3], [3, 0]],
}

# weighted projective plane P(1,1,2): complete and simplicial, not smooth
P112 = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, -2]],
    "max_cones": [[0, 1], [1, 2], [2, 0]],
}


# F2's rays with only two of its four cones: smooth, not complete
F2_TWO_CONES = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, 2], [0, -1]],
    "max_cones": [[0, 1], [2, 3]],
}

# F2 without the ray -e2: smooth, not complete, yet (-1,-1), ray 1, {0}
# still splits its marker graph
F2_INCOMPLETE = {
    "dim": 2,
    "rays": [[1, 0], [0, 1], [-1, 2]],
    "max_cones": [[0, 1], [1, 2]],
}


# the package sources: pytest's pythonpath setting reaches only its own
# process, so the subprocesses get them on PYTHONPATH
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def subprocess_env(env_extra=None) -> dict:
    """os.environ plus env_extra, with SRC first on PYTHONPATH."""
    env = dict(os.environ, **(env_extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def run_cli(args, env_extra=None):
    proc = subprocess.run(
        [sys.executable, "-m", "toric_deform.cli", *args],
        capture_output=True,
        text=True,
        env=subprocess_env(env_extra),
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(args, env_extra=None):
    code, out, err = run_cli(args, env_extra)
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


@pytest.fixture
def f2_path(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(json.dumps(F2))
    return str(path)


@pytest.fixture
def p112_path(tmp_path):
    path = tmp_path / "p112.json"
    path.write_text(json.dumps(P112))
    return str(path)


def check_map(payload):
    return {c["name"]: c["ok"] for c in payload["checks"]}


class TestFanCheck:
    def test_f2_passes(self, f2_path):
        code, payload, _ = run_json(["fan", "check", "--fan", f2_path])
        assert code == 0
        assert payload["command"] == "fan check"
        assert check_map(payload) == {"smooth": True, "complete": True}
        assert payload["results"]["validate"] == {
            "smooth": True,
            "complete": True,
            "simplicial": True,
        }

    def test_f2_cox_block(self, f2_path):
        _, payload, _ = run_json(["fan", "check", "--fan", f2_path])
        cox = payload["results"]["cox"]
        assert cox["cl_rank"] == 2
        assert cox["grading"]["rows"] == [[1, 0, 1, 2], [0, 1, 0, 1]]
        assert cox["grading"]["col_labels"] == ["S1", "S2", "S3", "S4"]
        assert cox["irrelevant_components"] == [[2, 3], [0, 3], [0, 1], [1, 2]]

    @pytest.mark.parametrize(
        "fan,cl_rank",
        [
            ({"dim": 2, "rays": [[1, 0]], "max_cones": [[0]]}, 0),
            (
                {
                    "dim": 3,
                    "rays": [[1, 0, 0], [0, 1, 0], [-1, -1, 0]],
                    "max_cones": [[0, 1], [1, 2], [2, 0]],
                },
                1,
            ),
        ],
        ids=["ray_in_plane", "p2_times_a1"],
    )
    def test_cl_rank_counts_grading_rows(self, tmp_path, fan, cl_rank):
        # rays that do not span N: cl_rank is the rank of Cl, not n_rays - dim
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(fan))
        code, payload, _ = run_json(["fan", "check", "--fan", str(path)])
        assert code == 1  # smooth, not complete
        cox = payload["results"]["cox"]
        assert cox["cl_rank"] == cl_rank == len(cox["grading"]["rows"])

    def test_non_smooth_fan_fails_check(self, p112_path):
        code, payload, _ = run_json(["fan", "check", "--fan", p112_path])
        assert code == 1
        assert check_map(payload) == {"smooth": False, "complete": True}
        assert "cox" not in payload["results"]

    def test_smooth_fan_with_torsion_fails_check(self, tmp_path, capsys):
        # rays (1, 0) and (1, 2), each its own cone: every cone is
        # unimodular, but the rays span an index-2 sublattice, so Cl(X)
        # has torsion Z/2 and there is no grading to print
        path = tmp_path / "torsion.json"
        path.write_text(json.dumps({"dim": 2, "rays": [[1, 0], [1, 2]], "max_cones": [[0], [1]]}))
        assert cli.main(["fan", "check", "--fan", str(path)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert check_map(payload) == {"smooth": True, "complete": False}
        assert "cox" not in payload["results"]

    def test_console_script(self, f2_path):
        script = shutil.which("toric-deform")
        assert script is not None
        proc = subprocess.run(
            [script, "fan", "check", "--fan", f2_path],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["command"] == "fan check"


class TestFanInputErrors:
    def error_of(self, args):
        code, out, err = run_cli(args)
        assert code == 2
        assert not out.strip()
        return json.loads(err)["error"]

    def test_zero_dimensional_fan(self, tmp_path):
        path = tmp_path / "dim0.json"
        path.write_text(json.dumps({"dim": 0, "rays": [], "max_cones": []}))
        for command in (["triples"], ["h1"], ["fan", "check"]):
            msg = self.error_of([*command, "--fan", str(path)])
            assert msg == "fan dimension must be at least 1, got 0"

    def test_missing_file(self, tmp_path):
        msg = self.error_of(["fan", "check", "--fan", str(tmp_path / "nope.json")])
        assert "cannot read fan file" in msg

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        msg = self.error_of(["fan", "check", "--fan", str(path)])
        assert "not valid JSON" in msg

    def test_missing_field(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"dim": 2, "rays": [[1, 0]]}))
        msg = self.error_of(["fan", "check", "--fan", str(path)])
        assert "missing field 'max_cones'" in msg

    def test_bad_row_type(self, tmp_path):
        path = tmp_path / "rowtype.json"
        bad = dict(F2, rays=[[1, 0], [0, "1"], [-1, 2], [0, -1]])
        path.write_text(json.dumps(bad))
        msg = self.error_of(["fan", "check", "--fan", str(path)])
        assert "rays[1]" in msg

    def test_non_primitive_ray(self, tmp_path):
        path = tmp_path / "nonprim.json"
        bad = dict(F2, rays=[[2, 0], [0, 1], [-1, 2], [0, -1]])
        path.write_text(json.dumps(bad))
        msg = self.error_of(["fan", "check", "--fan", str(path)])
        assert "non-primitive ray 0" in msg

    def test_duplicate_ray(self, tmp_path):
        path = tmp_path / "dup.json"
        bad = dict(F2, rays=[[1, 0], [0, 1], [1, 0], [0, -1]])
        path.write_text(json.dumps(bad))
        msg = self.error_of(["fan", "check", "--fan", str(path)])
        assert "duplicate ray" in msg

    @pytest.mark.parametrize("field,value,where", [
        ("dim", True, "field 'dim'"),
        ("rays", [[True, 0], [0, 1], [-1, 2], [0, -1]], "rays[0]"),
        ("max_cones", [[0, 1], [1, 2], [2, 3], [3, False]], "max_cones[3]"),
    ])
    def test_json_booleans_are_not_integers(self, tmp_path, field, value, where):
        path = tmp_path / "bools.json"
        path.write_text(json.dumps(dict(F2, **{field: value})))
        msg = self.error_of(["fan", "check", "--fan", str(path)])
        assert where in msg and "integer" in msg

    def test_unknown_flag(self, f2_path):
        code, _, err = run_cli(["fan", "check", "--fan", f2_path, "--bogus"])
        assert code == 2
        assert "--bogus" in err

    def test_missing_subcommand(self):
        code, _, _ = run_cli(["fan"])
        assert code == 2


class TestTriples:
    def test_f2_default_bound(self, f2_path):
        # no bound: the whole support, proven complete
        code, payload, _ = run_json(["triples", "--fan", f2_path])
        assert code == 0
        res = payload["results"]
        assert res["bound"] is None
        assert res["count"] == 2
        assert res["triples"] == [
            {"m": [-1, -1], "rho": 1, "component": [0]},
            {"m": [-1, -1], "rho": 1, "component": [2]},
        ]
        assert payload["checks"] == [{"name": "support_complete", "ok": True, "witness": None}]

    def test_explicit_bound_flag(self, f2_path):
        _, payload, _ = run_json(["triples", "--fan", f2_path, "--bound", "1"])
        assert payload["results"]["bound"] == 1
        assert payload["results"]["count"] == 2
        # a bounded report claims nothing about completeness
        assert payload["checks"] == []

    def test_env_bound_override(self, f2_path):
        # TORIC_DEFORM_BOUND is gone: it no longer overrides the default
        _, payload, _ = run_json(
            ["triples", "--fan", f2_path], env_extra={"TORIC_DEFORM_BOUND": "2"}
        )
        assert payload["results"]["bound"] is None

    def test_flag_beats_env(self, f2_path):
        _, payload, _ = run_json(
            ["triples", "--fan", f2_path, "--bound", "3"],
            env_extra={"TORIC_DEFORM_BOUND": "9"},
        )
        assert payload["results"]["bound"] == 3

    def test_bad_env_bound(self, f2_path):
        # a value the former TORIC_DEFORM_BOUND rejected is now ignored
        code, payload, _ = run_json(
            ["triples", "--fan", f2_path], env_extra={"TORIC_DEFORM_BOUND": "-3"}
        )
        assert code == 0
        assert payload["results"]["count"] == 2

    def test_counters_in_timing(self, f2_path):
        _, payload, _ = run_json(["triples", "--fan", f2_path])
        # F_2's search completes one candidate set, rho = ray 1 with S = {0, 2},
        # after nine partial chambers; listing its points is the tenth system
        assert payload["timing"]["counters"] == {"chambers": 1, "fm_systems": 10}
        assert "counters" not in payload["results"]

    def test_unbounded_chamber_fails_support_complete(self, f2_path, monkeypatch, capsys):
        def unbounded(fm):
            raise ValueError("polyhedron is unbounded")

        monkeypatch.setattr(intlin.FourierMotzkin, "lattice_points", unbounded)
        witness = {"rho": 1, "negative_rays": [0, 2]}
        for command in ("triples", "h1"):
            code = cli.main([command, "--fan", f2_path])
            payload = json.loads(capsys.readouterr().out)
            assert code == 1
            assert {"name": "support_complete", "ok": False, "witness": witness} in payload["checks"]


class TestBoxGuard:
    """Bounds the former degree-box scan rejected. The bound now filters
    the chamber support, so every bound runs at once."""

    @pytest.mark.parametrize("command", ["triples", "h1"])
    @pytest.mark.parametrize("bound", ["1000000000", "1000000000000000"])
    def test_huge_bound_exits_0_at_once(self, f2_path, command, bound, capsys):
        started = time.perf_counter()
        code = cli.main([command, "--fan", f2_path, "--bound", bound])
        elapsed = time.perf_counter() - started
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["results"]["bound"] == int(bound)
        if command == "triples":
            assert payload["results"]["count"] == 2
        else:
            assert payload["results"]["total_h1"] == 1
        assert elapsed < 1.0

    @pytest.mark.parametrize("command", ["triples", "h1"])
    def test_zero_bound_exits_2(self, f2_path, command):
        code, out, err = run_cli([command, "--fan", f2_path, "--bound", "0"])
        assert code == 2
        assert not out.strip()
        assert "bound must be >= 1" in json.loads(err)["error"]


class TestH1:
    def test_single_degree_golden(self, f2_path):
        code, payload, _ = run_json(["h1", "--fan", f2_path, "--degree", "-1,-1"])
        assert code == 0
        entries = payload["results"]["degrees"]
        assert len(entries) == 1
        entry = entries[0]
        assert entry["degree"] == [-1, -1]
        assert entry["h1_dim"] == 1
        assert entry["span_rank"] == 1
        assert entry["spans"] is True
        assert len(entry["triples"]) == 2
        assert payload["results"]["total_h1"] == 1
        assert check_map(payload) == {"cocycles_span": True}

    def test_degree_and_bound_exclude_each_other(self, f2_path, capsys):
        # a --bound next to --degree would be echoed in inputs yet ignored
        with pytest.raises(SystemExit) as exc:
            cli.main(["h1", "--fan", f2_path, "--degree", "5,5", "--bound", "1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument --degree" in captured.err

    def test_zero_degree(self, f2_path):
        code, payload, _ = run_json(["h1", "--fan", f2_path, "--degree", "0,0"])
        assert code == 0
        entry = payload["results"]["degrees"][0]
        assert entry["h1_dim"] == 0
        assert entry["triples"] == []

    def test_sweep_totals(self, f2_path):
        code, payload, _ = run_json(["h1", "--fan", f2_path])
        assert code == 0
        res = payload["results"]
        assert res["bound"] is None
        assert res["total_h1"] == 1
        assert check_map(payload) == {"cocycles_span": True, "support_complete": True}
        nonzero = [e for e in res["degrees"] if e["h1_dim"]]
        assert len(nonzero) == 1
        assert nonzero[0]["degree"] == [-1, -1]

    def test_degree_outside_default_box(self, f2_path):
        # triples at the requested degree are computed directly, not
        # taken from the chamber sweep; (-9, 0) lies outside the old default box
        code, payload, _ = run_json(["h1", "--fan", f2_path, "--degree", "-9,0"])
        assert code == 0
        assert payload["results"]["degrees"][0]["h1_dim"] == 0

    def test_degree_length_mismatch(self, f2_path):
        code, _, err = run_cli(["h1", "--fan", f2_path, "--degree", "1,2,3"])
        assert code == 2
        assert "length 3" in json.loads(err)["error"]

    def test_counters_in_timing(self, f2_path):
        _, payload, _ = run_json(["h1", "--fan", f2_path])
        # the one degree (-1, -1) has rays 0, 1, 2 at -1, each in two cones:
        # three rows, one per link; the annihilators of the lines of (1, 0)
        # and (0, 1) have one nonzero entry, that of (-1, 2) has two, and
        # ray 2's link (1, 2) puts it in two blocks
        assert payload["timing"]["counters"] == {
            "chambers": 1,
            "cech_degrees": 1,
            "fm_systems": 10,
            "rank_fallbacks": 0,
            "stalk_rows": 3,
            "stalk_nonzeros": 6,
        }
        assert "counters" not in payload["results"]
        # a single degree searches no chambers, and one without triples
        # builds no stalk system
        _, payload, _ = run_json(["h1", "--fan", f2_path, "--degree", "0,0"])
        assert payload["timing"]["counters"] == {
            "chambers": 0,
            "cech_degrees": 0,
            "fm_systems": 0,
            "rank_fallbacks": 0,
            "stalk_rows": 0,
            "stalk_nonzeros": 0,
        }
        _, payload, _ = run_json(["h1", "--fan", f2_path, "--degree", "-1,-1"])
        assert payload["timing"]["counters"]["cech_degrees"] == 1

    def test_other_commands_keep_plain_timing(self, f2_path):
        _, payload, _ = run_json(["fan", "check", "--fan", f2_path])
        assert payload["timing"].keys() == {"seconds"}

    def test_closed_form_disagreement_fails_check(self, f2_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "h1_closed_form", lambda triples: 7)
        code = cli.main(["h1", "--fan", f2_path, "--degree", "-1,-1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["results"]["total_h1"] == 7
        assert payload["results"]["degrees"][0]["h1_dim"] == 1
        assert payload["checks"] == [
            {
                "name": "cocycles_span",
                "ok": False,
                "witness": {"degree": [-1, -1], "closed_form": 7, "cech": 1},
            }
        ]


class TestH1Gate:
    @pytest.fixture(params=["two_cones", "p112"])
    def bad_fan(self, request, tmp_path):
        data, why = {
            "two_cones": (F2_TWO_CONES, "not complete"),
            "p112": (P112, "not smooth"),
        }[request.param]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        return str(path), why

    @pytest.mark.parametrize("extra", [[], ["--degree", "0,-1"], ["--degree", "-1,-1"]])
    def test_rejected_with_exit_2(self, bad_fan, extra):
        path, why = bad_fan
        code, out, err = run_cli(["h1", "--fan", path, *extra])
        assert code == 2
        assert not out.strip()
        message = json.loads(err)["error"]
        assert "smooth complete fan" in message and why in message


class TestOverlappingFanRejected:
    """P1 x P1 x P1 with ray 4 moved to (1, 1, -1): smooth, every facet in
    two cones, but its cones overlap, so no command accepts it."""

    FAN = {
        "dim": 3,
        "rays": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [1, 1, -1], [0, 0, -1]],
        "max_cones": [[0, 2, 4], [0, 2, 5], [0, 3, 4], [0, 3, 5], [1, 2, 4], [1, 2, 5], [1, 3, 4], [1, 3, 5]],
    }
    TRIPLE = ["--m", "-1,0,1", "--rho", "0", "--component", "4"]

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "overlapping.json"
        path.write_text(json.dumps(self.FAN))
        return str(path)

    def test_fan_check_exits_1(self, path):
        code, payload, _ = run_json(["fan", "check", "--fan", path])
        assert code == 1
        assert check_map(payload) == {"smooth": True, "complete": False}

    @pytest.mark.parametrize("argv,what", [
        (["triples"], "triple enumeration"),
        (["h1"], "h1"),
        (["deform", *TRIPLE], "deformation"),
        (["lift", *TRIPLE, "--class", "0,1,1", "--poly", "S1*S3*S5"], "deformation"),
    ], ids=["triples", "h1", "deform", "lift"])
    def test_commands_exit_2(self, path, argv, what):
        code, out, err = run_cli([argv[0], "--fan", path, *argv[1:]])
        assert code == 2
        assert not out.strip()
        assert json.loads(err)["error"] == f"{what} needs a smooth complete fan; this fan is not complete"


def reference_h1(fan, degrees, bound, single):
    """Results and checks of the h1 command with Cech at every degree."""
    entries = []
    total = 0
    ok = True
    for m in degrees:
        triples = triples_at_degree(fan, m)
        rep = span_check(fan, m, triples)
        total += rep["h1_dim"]
        ok = ok and rep["spans"]
        if rep["h1_dim"] or triples or single:
            entries.append(
                {
                    "degree": list(m),
                    "h1_dim": rep["h1_dim"],
                    "span_rank": rep["span_rank"],
                    "spans": rep["spans"],
                    "triples": [
                        {"m": list(t.m), "rho": t.rho, "component": list(t.component)}
                        for t in triples
                    ],
                }
            )
    results = {"bound": bound, "degrees": entries, "total_h1": total}
    checks = [{"name": "cocycles_span", "ok": ok, "witness": None}]
    return results, checks


class TestH1MatchesFullCech:
    FANS = {
        "F_2": hirzebruch(2),
        "F_4": hirzebruch(4),
        "S(2,1,0)": scroll_fan(ScrollSpec((2, 1, 0))),
    }

    def fan_file(self, tmp_path, key):
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(cli.fan_to_json(self.FANS[key])))
        return str(path)

    @pytest.mark.parametrize("key", sorted(FANS))
    def test_sweep(self, tmp_path, key):
        fan = self.FANS[key]
        code, payload, _ = run_json(["h1", "--fan", self.fan_file(tmp_path, key), "--bound", "2"])
        results, checks = reference_h1(fan, degree_box(fan, 2), 2, single=False)
        assert code == 0
        assert payload["results"] == results
        assert payload["checks"] == checks

    @pytest.mark.parametrize(
        "key,degree",
        [("F_4", (-2, -1)), ("F_4", (1, -1)), ("S(2,1,0)", (-1, -1, 0)), ("S(2,1,0)", (0, 0, 0))],
    )
    def test_single_degree(self, tmp_path, key, degree):
        fan = self.FANS[key]
        text = ",".join(map(str, degree))
        code, payload, _ = run_json(["h1", "--fan", self.fan_file(tmp_path, key), "--degree", text])
        results, checks = reference_h1(fan, [degree], None, single=True)
        assert code == 0
        assert payload["results"] == results
        assert payload["checks"] == checks


GOLDEN_DEFORM_ARGS = ["--m", "-1,-1", "--rho", "1", "--component", "0"]


class TestDeform:
    def run_golden(self, f2_path):
        return run_json(["deform", "--fan", f2_path, *GOLDEN_DEFORM_ARGS])

    def test_checks_pass(self, f2_path):
        code, payload, _ = self.run_golden(f2_path)
        assert code == 0
        assert check_map(payload) == {
            "cone_membership": True,
            "lattice_identification": True,
            "diagram_commutes": True,
            "cox_cone_mapping": True,
            "fiber_fan_roundtrip": True,
        }

    def test_counters_in_timing(self, f2_path):
        # four cones: each P[:, sigma-tilde] is factored once, and the round
        # trip of a valid package needs no Fourier-Motzkin system
        _, payload, _ = self.run_golden(f2_path)
        assert payload["timing"]["counters"] == {
            "cone_factorisations": 4,
            "fm_systems": 0,
        }
        assert "counters" not in payload["results"]

    def test_golden_matrices(self, f2_path):
        _, payload, _ = self.run_golden(f2_path)
        res = payload["results"]
        assert res["column_labels"] == [
            "T1", "T(1,4)", "T(2,1)", "T(2,2)", "T(3,2)", "T(3,3)",
        ]
        assert res["Ptilde"]["rows"] == [
            [1, -1, -1, 0, 0],
            [1, 0, 0, -1, -1],
            [0, 1, 0, 0, -1],
        ]
        assert res["P"]["rows"] == [
            [1, 1, -1, -1, 0, 0],
            [1, 1, 0, 0, -1, -1],
            [0, 0, 1, 0, 0, -1],
            [1, 0, 0, 0, 0, 0],
        ]
        assert res["nu"]["rows"] == [
            [0, 1, 0, 1, 0],
            [0, 0, 1, 1, 0],
            [0, 0, 1, 0, 1],
            [1, 0, 0, 0, 0],
        ]
        assert res["nu"]["row_labels"] == ["S1", "S2", "S3", "S4"]
        assert res["nu"]["col_labels"] == res["column_labels"][1:]

    def test_golden_trinomial_and_kernel(self, f2_path):
        _, payload, _ = self.run_golden(f2_path)
        res = payload["results"]
        tri = res["trinomial"]
        assert tri["rendered"] == "T1*T(1,4) - T(2,1)*T(2,2) + T(3,2)*T(3,3)"
        assert [t["coefficient"] for t in tri["terms"]] == [1, -1, 1]
        assert res["kernel_binomial"] == [0, 1, 1, -1, -1]

    def test_golden_eta(self, f2_path):
        _, payload, _ = self.run_golden(f2_path)
        assert payload["results"]["eta"] == {
            "T1": None,
            "T(1,4)": {"S4": 1},
            "T(2,1)": {"S1": 1},
            "T(2,2)": {"S2": 1, "S3": 1},
            "T(3,2)": {"S1": 1, "S2": 1},
            "T(3,3)": {"S3": 1},
        }

    def test_non_unimodular_ambient_cone_exits_1(self, tmp_path, monkeypatch, capsys):
        # F_3's first package with a sigma-tilde column swapped for one
        # outside it (determinant 2): a failed check with a witness, not a crash
        path = tmp_path / "f3.json"
        path.write_text(json.dumps(cli.fan_to_json(hirzebruch(3))))

        build = cli.build_deformation

        def corrupted(fan, triple):
            d = build(fan, triple)
            first = tuple(sorted(set(d.ambient_cones[0]) - {3} | {5}))
            return dataclasses.replace(d, ambient_cones=(first,) + d.ambient_cones[1:])

        monkeypatch.setattr(cli, "build_deformation", corrupted)
        code = cli.main(["deform", "--fan", str(path), "--m", "-2,-1", "--rho", "1", "--component", "0"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        assert {
            "name": "fiber_fan_roundtrip",
            "ok": False,
            "witness": {"cone": 0, "reason": "non-unimodular"},
        } in payload["checks"]

    def test_ambient_fan_block(self, f2_path):
        _, payload, _ = self.run_golden(f2_path)
        res = payload["results"]
        ambient = res["ambient_fan"]
        assert ambient["dim"] == 4
        assert len(ambient["rays"]) == 6
        cols = [list(col) for col in zip(*res["P"]["rows"])]
        assert ambient["rays"] == cols
        for entry in res["ambient_cones"]:
            assert len(entry["columns"]) == 4
            assert entry["labels"] == [
                res["column_labels"][c] for c in entry["columns"]
            ]

    @pytest.mark.parametrize("command", ["deform", "lift"])
    def test_incomplete_fan_exits_2(self, tmp_path, command):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps(F2_INCOMPLETE))
        extra = ["--class", "1", "--poly", "S1"] if command == "lift" else []
        code, out, err = run_cli([command, "--fan", str(path), *GOLDEN_DEFORM_ARGS, *extra])
        assert code == 2
        assert not out.strip()
        assert json.loads(err)["error"] == (
            "deformation needs a smooth complete fan; this fan is not complete"
        )

    def test_inadmissible_component(self, f2_path):
        code, _, err = run_cli(
            ["deform", "--fan", f2_path, "--m", "-1,-1", "--rho", "1",
             "--component", "1"]
        )
        assert code == 2
        assert "not a proper connected component" in json.loads(err)["error"]

    def test_bad_rho(self, f2_path):
        code, _, err = run_cli(
            ["deform", "--fan", f2_path, "--m", "-1,-1", "--rho", "7",
             "--component", "0"]
        )
        assert code == 2
        assert "--rho" in json.loads(err)["error"]

    def test_wrong_m_length(self, f2_path):
        code, _, err = run_cli(
            ["deform", "--fan", f2_path, "--m", "-1,-1,-1", "--rho", "1",
             "--component", "0"]
        )
        assert code == 2
        assert "length 3" in json.loads(err)["error"]

    def test_malformed_vector(self, f2_path):
        code, _, err = run_cli(
            ["deform", "--fan", f2_path, "--m", "-1,x", "--rho", "1",
             "--component", "0"]
        )
        assert code == 2
        assert "comma-separated" in json.loads(err)["error"]


class TestLift:
    BASE = ["lift", "--fan"]

    def test_one_determinant_per_cone(self, f2_path, capsys):
        # the gate's validate and lift_polynomial's cox_data share the
        # cone eliminations of the one Fan object the command parsed
        argv = [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", "3,1", "--poly", "S1^3*S2"]
        with mock.patch.object(fan_module, "eliminate", wraps=fan_module.eliminate) as spy:
            assert cli.main(argv) == 0
        assert spy.call_count == len(F2["max_cones"])
        # a second command parses a new Fan and takes them again
        with mock.patch.object(fan_module, "eliminate", wraps=fan_module.eliminate) as spy:
            assert cli.main(argv) == 0
        assert spy.call_count == len(F2["max_cones"])
        capsys.readouterr()

    def test_liftable_polynomial(self, f2_path):
        code, payload, _ = run_json(
            [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", "3,1",
             "--poly", "S1^3*S2 + 2*S1*S4"]
        )
        assert code == 0
        assert check_map(payload) == {"all_liftable": True}
        res = payload["results"]
        assert res["monomials"][0]["preimage"] == [0, 2, 0, 1, 0]
        assert res["monomials"][1]["preimage"] == [1, 1, 0, 0, 0]
        assert res["lifted"]["rendered"] == "T(2,1)^2*T(3,2) + 2*T(1,4)*T(2,1)"
        assert res["first_failure"] is None

    def test_polynomial_with_a_leading_minus(self, f2_path, capsys):
        # '--poly -S1^3*S2' reads the polynomial as '--poly=-S1^3*S2' does
        head = [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", "3,1"]
        reports = []
        for tail in (["--poly", "-S1^3*S2"], ["--poly=-S1^3*S2"]):
            assert cli.main([*head, *tail]) == 0
            payload = json.loads(capsys.readouterr().out)
            payload.pop("timing")
            reports.append(payload)
        assert reports[0] == reports[1]
        res = reports[0]["results"]
        assert res["polynomial"] == "- S1^3*S2"
        assert res["lifted"]["rendered"] == "- T(2,1)^2*T(3,2)"

    def test_unliftable_polynomial(self, f2_path):
        code, payload, _ = run_json(
            [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", "0,1",
             "--poly", "S2"]
        )
        assert code == 1
        assert check_map(payload) == {"all_liftable": False}
        res = payload["results"]
        assert res["monomials"][0]["liftable"] is False
        assert res["lifted"] is None
        assert res["first_failure"] == 0

    def test_class_mismatch(self, f2_path):
        code, _, err = run_cli(
            [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", "3,1",
             "--poly", "S1"]
        )
        assert code == 2
        assert "expected (3, 1)" in json.loads(err)["error"]

    @pytest.mark.parametrize("cls,poly", [
        ("1,0,0,7", ""),
        ("1,0,0,7", "S1"),
        ("3", "S1^3*S2"),
    ])
    def test_class_length_exits_2(self, f2_path, cls, poly):
        # F_2 has class group rank 4 - 2 = 2, whatever the polynomial
        code, out, err = run_cli(
            [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", cls, "--poly", poly]
        )
        assert code == 2
        assert not out.strip()
        n = len(cls.split(","))
        assert json.loads(err)["error"] == f"--class has length {n}, class group rank is 2"

    def test_non_ascii_digit_coefficient(self, f2_path):
        # str.isdecimal and int() both read the Arabic-Indic two
        code, payload, err = run_json(
            [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", "3,1",
             "--poly", "S1^3*S2 + ٢*S1*S4"]
        )
        assert code == 0, err
        res = payload["results"]
        assert res["monomials"][1]["coefficient"] == 2
        assert res["polynomial"] == "S1^3*S2 + 2*S1*S4"

    def test_zero_polynomial(self, f2_path):
        code, payload, err = run_json(
            [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", "3,1", "--poly", "0"]
        )
        assert code == 0, err
        assert check_map(payload) == {"all_liftable": True}
        res = payload["results"]
        assert res["polynomial"] == "0"
        assert res["monomials"] == []
        assert res["lifted"]["terms"] == []
        assert res["lifted"]["rendered"] == "0"

    def test_malformed_polynomial(self, f2_path):
        code, _, err = run_cli(
            [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", "3,1",
             "--poly", "2**S1"]
        )
        assert code == 2
        assert "cannot parse" in json.loads(err)["error"]

    def test_superscript_coefficient_names_the_factor(self, f2_path):
        # '²' is a digit to str.isdigit but not a decimal, and int() rejects it
        code, out, err = run_cli(
            [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", "3,1",
             "--poly", "²*S1^3*S2"]
        )
        assert code == 2
        assert not out.strip()
        assert json.loads(err)["error"] == "cannot parse factor '²'"


class TestScroll:
    def test_rigid_true(self):
        code, payload, _ = run_json(["scroll", "rigid", "1,1,0"])
        assert code == 0
        assert payload["results"] == {
            "twists": [1, 1, 0],
            "normalized": [1, 1, 0],
            "rigid": True,
        }
        assert payload["checks"] == []

    def test_rigid_false(self):
        _, payload, _ = run_json(["scroll", "rigid", "2,0"])
        assert payload["results"]["rigid"] is False

    def test_rigid_shift_invariance(self):
        _, payload, _ = run_json(["scroll", "rigid", "7,6,6"])
        assert payload["results"]["normalized"] == [1, 0, 0]
        assert payload["results"]["rigid"] is True

    def test_path_golden(self):
        code, payload, _ = run_json(["scroll", "path", "3,1"])
        assert code == 0
        res = payload["results"]
        assert res["normalized"] == [2, 0]
        assert res["target"] == [0, 0]
        assert res["length"] == 1
        mv = res["moves"][0]
        assert mv["from"] == [2, 0]
        assert mv["to"] == [1, 1]
        assert (mv["i"], mv["j"], mv["dprime"]) == (1, 2, 1)
        assert mv["triple"]["rho"] == 2
        assert check_map(payload) == {"endpoint_is_rigid_model": True}

    def test_path_already_rigid(self):
        code, payload, _ = run_json(["scroll", "path", "1,0,0"])
        assert code == 0
        assert payload["results"]["length"] == 0
        assert payload["results"]["moves"] == []
        assert check_map(payload) == {"endpoint_is_rigid_model": True}

    def test_path_longer(self):
        _, payload, _ = run_json(["scroll", "path", "4,0,0"])
        res = payload["results"]
        assert res["target"] == [1, 0, 0]
        assert res["moves"][-1] is not None
        ends = [mv["to"] for mv in res["moves"]]
        assert all(isinstance(e, list) for e in ends)

    def test_fan_stdout(self):
        code, payload, _ = run_json(["scroll", "fan", "2,1,0"])
        assert code == 0
        fan = payload["results"]["fan"]
        assert fan["dim"] == 3
        assert len(fan["rays"]) == 5
        assert len(fan["max_cones"]) == 6

    def test_fan_written_file_roundtrips(self, tmp_path):
        out = tmp_path / "scroll.json"
        code, payload, _ = run_json(["scroll", "fan", "2,1,0", "-o", str(out)])
        assert code == 0
        assert payload["results"]["written"] == str(out)
        on_disk = json.loads(out.read_text())
        assert on_disk == payload["results"]["fan"]

        code2, payload2, _ = run_json(["fan", "check", "--fan", str(out)])
        assert code2 == 0
        assert check_map(payload2) == {"smooth": True, "complete": True}

        code3, payload3, _ = run_json(["triples", "--fan", str(out)])
        assert code3 == 0
        assert payload3["results"]["count"] >= 1

    @pytest.mark.parametrize("sub", ["rigid", "path", "fan"])
    def test_leading_minus_is_a_value(self, sub, capsys):
        # '-1,0' is a twist list, as '0,-1' is, not an unknown option
        for twists in ("-1,0", "0,-1"):
            assert cli.main(["scroll", sub, twists]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["inputs"] == {"twists": twists}
            assert payload["results"]["twists"] == [int(x) for x in twists.split(",")]

    def test_leading_minus_before_an_option(self, tmp_path, capsys):
        out = tmp_path / "scroll.json"
        assert cli.main(["scroll", "fan", "-1,0", "-o", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results"]["written"] == str(out)
        assert json.loads(out.read_text()) == payload["results"]["fan"]

    def test_single_twist_rejected(self):
        code, _, err = run_cli(["scroll", "rigid", "3"])
        assert code == 2
        assert "at least 2 twists" in json.loads(err)["error"]

    def test_malformed_twists(self):
        code, _, err = run_cli(["scroll", "rigid", "1,"])
        assert code == 2
        assert "comma-separated" in json.loads(err)["error"]


class TestDeterminism:
    def strip_timing(self, out):
        payload = json.loads(out)
        payload.pop("timing")
        return json.dumps(payload, sort_keys=True)

    @pytest.mark.parametrize(
        "args",
        [
            ["fan", "check", "--fan", "FAN"],
            ["triples", "--fan", "FAN"],
            ["h1", "--fan", "FAN", "--degree", "-1,-1"],
            ["deform", "--fan", "FAN", *GOLDEN_DEFORM_ARGS],
            ["scroll", "path", "3,1,0"],
        ],
    )
    def test_byte_identical_results(self, f2_path, args):
        args = [f2_path if a == "FAN" else a for a in args]
        _, out1, _ = run_cli(args)
        _, out2, _ = run_cli(args)
        assert self.strip_timing(out1) == self.strip_timing(out2)

    def test_timing_outside_results(self, f2_path):
        _, payload, _ = run_json(["fan", "check", "--fan", f2_path])
        assert "timing" in payload
        assert "timing" not in payload["results"]
        assert "seconds" in payload["timing"]


# runs one command in a fresh interpreter, then reports its exit code and
# whether numpy was loaded by then
NUMPY_PROBE = """\
import json, sys
from toric_deform import cli
code = cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules}), file=sys.stderr)
"""


class TestNoNumpy:
    """No command loads numpy: the package works on rows of Python ints,
    so a command pays neither numpy's import nor a deferred one."""

    @pytest.mark.parametrize("args,code", [
        pytest.param(["fan", "check", "--fan", "FAN"], 0, id="fan-check"),
        pytest.param(["triples", "--fan", "FAN"], 0, id="triples"),
        pytest.param(["triples", "--fan", "FAN", "--bound", "2"], 0, id="triples-bound"),
        pytest.param(["h1", "--fan", "FAN"], 0, id="h1"),
        pytest.param(["h1", "--fan", "FAN", "--bound", "2"], 0, id="h1-bound"),
        pytest.param(["h1", "--fan", "FAN", "--degree", "-1,-1"], 0, id="h1-degree"),
        pytest.param(["deform", "--fan", "FAN", *GOLDEN_DEFORM_ARGS], 0, id="deform"),
        pytest.param(["lift", "--fan", "FAN", *GOLDEN_DEFORM_ARGS, "--class", "3,1",
                      "--poly", "S1^3*S2 + 2*S1*S4"], 0, id="lift-exit-0"),
        pytest.param(["lift", "--fan", "FAN", *GOLDEN_DEFORM_ARGS, "--class", "0,1",
                      "--poly", "S2"], 1, id="lift-exit-1"),
        pytest.param(["scroll", "rigid", "3,1,0"], 0, id="scroll-rigid"),
        pytest.param(["scroll", "path", "3,1,0"], 0, id="scroll-path"),
        pytest.param(["scroll", "fan", "3,1,0", "-o", "OUT"], 0, id="scroll-fan-o"),
        pytest.param(["fan", "check", "--fan", "MISSING"], 2, id="input-error"),
    ])
    def test_command_runs_without_numpy(self, f2_path, tmp_path, args, code):
        paths = {"FAN": f2_path, "OUT": str(tmp_path / "out.json"),
                 "MISSING": str(tmp_path / "missing.json")}
        argv = [paths.get(a, a) for a in args]
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, json.dumps(argv)],
            capture_output=True, text=True, env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        probe = json.loads(proc.stderr.splitlines()[-1])
        assert probe == {"code": code, "numpy": False}


class TestParserBuiltOnce:
    """One process running many commands builds the parser once, and
    each report equals the one a fresh process gives."""

    def test_sequence_matches_fresh_processes(self, f2_path, capsys):
        commands = [
            ["deform", "--fan", f2_path, *GOLDEN_DEFORM_ARGS],
            ["h1", "--fan", f2_path],
            ["triples", "--fan", f2_path],
            ["deform", "--fan", f2_path, "--m", "-1,-1", "--rho", "x", "--component", "0"],
            ["scroll", "path", "3,1,0"],
        ]
        cli.build_parser.cache_clear()
        in_process = []
        for args in commands:
            try:
                code = cli.main(args)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(commands) - 1)
        assert [code for code, _, _ in in_process] == [0, 0, 0, 2, 0]
        for args, (code, out, err) in zip(commands, in_process):
            fresh_code, fresh_out, fresh_err = run_cli(args)
            assert code == fresh_code, args
            assert err == fresh_err, args
            if out:
                out, fresh_out = (json.loads(text) for text in (out, fresh_out))
                out.pop("timing")
                fresh_out.pop("timing")
            assert out == fresh_out, args


class TestReportFormat:
    @pytest.mark.parametrize("argv,code", [
        (["deform", "--fan", None, *GOLDEN_DEFORM_ARGS], 0),
        (["h1", "--fan", None], 0),
        (["fan", "check", "--fan", None], 0),
        (["triples", "--fan", None], 0),
        (["h1", "--fan", None, "--degree", "-1,-1"], 0),
        (["lift", "--fan", None, *GOLDEN_DEFORM_ARGS, "--class", "0,1", "--poly", "S2"], 1),
        (["scroll", "rigid", "2,1,0"], 0),
        (["scroll", "path", "4,0,0"], 0),
        (["scroll", "fan", "2,1,0"], 0),
    ], ids=["deform", "h1", "fan-check", "triples", "h1-degree", "lift-exit-1",
            "scroll-rigid", "scroll-path", "scroll-fan"])
    def test_stdout_is_indented_sorted_json(self, f2_path, capsys, argv, code):
        argv = [f2_path if a is None else a for a in argv]
        assert cli.main(argv) == code
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"

    def test_scroll_fan_file_bytes(self, tmp_path, capsys):
        # -o writes through the same writer: the bytes json.dumps gave
        out = tmp_path / "scroll.json"
        assert cli.main(["scroll", "fan", "3,1,0", "-o", str(out)]) == 0
        capsys.readouterr()
        payload = cli.fan_to_json(scroll_fan(ScrollSpec((3, 1, 0))))
        assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_stderr_error_report(self, tmp_path, capsys):
        assert cli.main(["h1", "--fan", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        payload = json.loads(err)
        assert err == json.dumps(payload, indent=2) + "\n"
        assert payload["command"] == "h1"


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200).flatmap(lambda x: st.sampled_from([x, -x]))
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(st.characters(min_codepoint=0))
)
json_trees = st.recursive(
    json_leaves,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(st.text(st.characters(min_codepoint=0), max_size=4), children, max_size=4)
    ),
    max_leaves=25,
)


class TestWriter:
    """cli.dumps against json.dumps(indent=2, sort_keys=True), its oracle."""

    @given(json_trees)
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, tree):
        assert cli.dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)

    @pytest.mark.parametrize("tree", [
        {}, [], (), "", 0, -0.0, 1e300, True, False, None, "\x00\x1f\u00e9\u4e2d\U0001f600",
        {"b": [], "a": {}, "\u00e9": [[], {}], "\n": [True, False, None, 1]},
        [2**64, -(2**64) - 1, 10**100, 0.1, -2.5e-8],
        {3: "int", 1.5: "float", True: "bool"},
        {None: "null"},
        {"z": {"y": {"x": [1, [2, [3, [4]]]]}}},
    ])
    def test_edge_values(self, tree):
        assert cli.dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)

    def test_many_blocks(self):
        # thousands of chunks: the writer joins them in blocks of 512
        tree = {"rows": [[i, -i, str(i), {"k": [i] * 3, "ok": i % 2 == 0}] for i in range(2000)]}
        assert cli.dumps(tree) == json.dumps(tree, indent=2, sort_keys=True)

    def test_bools_are_not_printed_as_ints(self):
        assert cli.dumps([True, 1, False, 0]) == "[\n  true,\n  1,\n  false,\n  0\n]"

    @pytest.mark.parametrize("tree", [
        np.int64(3),
        [np.int64(3)],
        {"a": {1, 2}},
        {1, 2},
        {"a": [np.bool_(True)]},
        {(1, 2): 0},
        {np.int64(1): 0},
        {"a": 1, 2: 3},
    ])
    def test_raises_type_error_where_json_does(self, tree):
        with pytest.raises(TypeError):
            json.dumps(tree, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            cli.dumps(tree)


SPY_FANS = {
    "F_2": hirzebruch(2),
    "F_3": hirzebruch(3),
    "S(2,1,0)": scroll_fan(ScrollSpec((2, 1, 0))),
    "S(2,0,0,0)": scroll_fan(ScrollSpec((2, 0, 0, 0))),
}


class TestSmithFree:
    """deform and lift take no Smith form on a valid package, nor scroll path."""

    @pytest.mark.parametrize("twists", ["9,0,0", "5,3,1,0,0"])
    def test_scroll_path(self, twists, capsys):
        # the degree of each move is read off the rays e_1..e_n of the scroll fan
        with mock.patch.object(
            intlin, "smith_normal_form", wraps=intlin.smith_normal_form
        ) as snf:
            assert cli.main(["scroll", "path", twists]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["moves"]
        assert snf.call_count == 0

    @pytest.mark.parametrize("key", list(SPY_FANS))
    def test_deform_and_lift(self, key, tmp_path, capsys):
        fan = SPY_FANS[key]
        path = tmp_path / "fan.json"
        path.write_text(json.dumps(cli.fan_to_json(fan)))
        cls = [int(x) for x in cox_data(fan).grading.sum(axis=1)]  # anticanonical
        exps = riemann_roch_points(fan, cls)[:3]
        assert exps
        poly = " + ".join("*".join(f"S{i + 1}^{e}" for i, e in enumerate(x) if e) or "1" for x in exps)
        for t in enumerate_triples(fan)[:2]:
            triple = ["--m", ",".join(map(str, t.m)), "--rho", str(t.rho),
                      "--component", ",".join(map(str, t.component))]
            with mock.patch.object(
                intlin, "smith_normal_form", wraps=intlin.smith_normal_form
            ) as snf, mock.patch.object(
                intlin, "cokernel_map", wraps=intlin.cokernel_map
            ) as coker:
                assert cli.main(["deform", "--fan", str(path), *triple]) == 0
                assert cli.main(["lift", "--fan", str(path), *triple, "--class",
                                 ",".join(map(str, cls)), "--poly", poly]) in (0, 1)
            assert (snf.call_count, coker.call_count) == (0, 0), (key, t)
        capsys.readouterr()
