"""End-to-end tests of the command line interface.

Every command runs as a real subprocess on the Hirzebruch F2 fan,
checking payload shape, golden values, exit codes and determinism.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from toric_deform import cli
from toric_deform.cohomology import span_check
from toric_deform.fan import hirzebruch
from toric_deform.scrolls import ScrollSpec, scroll_fan
from toric_deform.triples import degree_box, triples_at_degree

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


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "toric_deform.cli", *args],
        capture_output=True,
        text=True,
        env=env,
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

    def test_non_smooth_fan_fails_check(self, p112_path):
        code, payload, _ = run_json(["fan", "check", "--fan", p112_path])
        assert code == 1
        assert check_map(payload) == {"smooth": False, "complete": True}
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

    def test_unknown_flag(self, f2_path):
        code, _, err = run_cli(["fan", "check", "--fan", f2_path, "--bogus"])
        assert code == 2
        assert "--bogus" in err

    def test_missing_subcommand(self):
        code, _, _ = run_cli(["fan"])
        assert code == 2


class TestTriples:
    def test_f2_default_bound(self, f2_path):
        code, payload, _ = run_json(["triples", "--fan", f2_path])
        assert code == 0
        res = payload["results"]
        assert res["bound"] == 6
        assert res["count"] == 2
        assert res["triples"] == [
            {"m": [-1, -1], "rho": 1, "component": [0]},
            {"m": [-1, -1], "rho": 1, "component": [2]},
        ]

    def test_explicit_bound_flag(self, f2_path):
        _, payload, _ = run_json(["triples", "--fan", f2_path, "--bound", "1"])
        assert payload["results"]["bound"] == 1
        assert payload["results"]["count"] == 2

    def test_env_bound_override(self, f2_path):
        _, payload, _ = run_json(
            ["triples", "--fan", f2_path], env_extra={"TORIC_DEFORM_BOUND": "2"}
        )
        assert payload["results"]["bound"] == 2

    def test_flag_beats_env(self, f2_path):
        _, payload, _ = run_json(
            ["triples", "--fan", f2_path, "--bound", "3"],
            env_extra={"TORIC_DEFORM_BOUND": "9"},
        )
        assert payload["results"]["bound"] == 3

    def test_bad_env_bound(self, f2_path):
        code, _, err = run_cli(
            ["triples", "--fan", f2_path], env_extra={"TORIC_DEFORM_BOUND": "-3"}
        )
        assert code == 2
        assert "TORIC_DEFORM_BOUND" in json.loads(err)["error"]


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
        assert res["bound"] == 6
        assert res["total_h1"] == 1
        nonzero = [e for e in res["degrees"] if e["h1_dim"]]
        assert len(nonzero) == 1
        assert nonzero[0]["degree"] == [-1, -1]

    def test_degree_outside_default_box(self, f2_path):
        # triples at the requested degree are computed directly, not
        # filtered from the sweep box
        code, payload, _ = run_json(["h1", "--fan", f2_path, "--degree", "-9,0"])
        assert code == 0
        assert payload["results"]["degrees"][0]["h1_dim"] == 0

    def test_degree_length_mismatch(self, f2_path):
        code, _, err = run_cli(["h1", "--fan", f2_path, "--degree", "1,2,3"])
        assert code == 2
        assert "length 3" in json.loads(err)["error"]

    def test_counters_in_timing(self, f2_path):
        _, payload, _ = run_json(["h1", "--fan", f2_path])
        assert payload["timing"]["counters"] == {
            "degrees_scanned": len(degree_box(hirzebruch(2), 6)),
            "cech_degrees": 1,
        }
        assert "counters" not in payload["results"]
        _, payload, _ = run_json(["h1", "--fan", f2_path, "--degree", "0,0"])
        assert payload["timing"]["counters"] == {"degrees_scanned": 1, "cech_degrees": 0}

    def test_other_commands_keep_plain_timing(self, f2_path):
        _, payload, _ = run_json(["triples", "--fan", f2_path])
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

    def test_malformed_polynomial(self, f2_path):
        code, _, err = run_cli(
            [*self.BASE, f2_path, *GOLDEN_DEFORM_ARGS, "--class", "3,1",
             "--poly", "2**S1"]
        )
        assert code == 2
        assert "cannot parse" in json.loads(err)["error"]


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
