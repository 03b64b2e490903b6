"""The benchmark's hooks name things that exist, tracing is undone, the
smooth-complete gate accepts every fan the workloads write, and one pass
of each workload matches its pinned outputs.

perfbench/tracer.py wraps the (module, attribute) pairs in its TRACED table
and subclasses cohomology.GradedCechComplex; perfbench/run.py and
perfbench/workloads.py read further package attributes directly. A renamed
or deleted target breaks ``perfbench/run.py``; perfbench's own smoke test
would catch it, but it is slow and lives outside this suite.
"""

import importlib
import importlib.util
import json
import os
import random
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# attributes that perfbench/run.py and perfbench/workloads.py read
READ = (
    ("kernels", "_HAVE_NUMBA"),
    ("cli", "main"),
    ("cli", "fan_to_json"),
    ("hypersurf", "riemann_roch_points"),
    ("fan", "hirzebruch"),
    ("fan", "product_of_lines"),
    ("fan", "cox_data"),
    ("scrolls", "scroll_fan"),
    ("scrolls", "ScrollSpec"),
    ("triples", "enumerate_triples"),
)


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TRACED = load_perfbench("tracer").TRACED
workloads = load_perfbench("workloads")


@pytest.mark.parametrize("module,attr,span", TRACED, ids=[f"{m}.{a}" for m, a, _ in TRACED])
def test_traced_function_exists(module, attr, span):
    target = getattr(importlib.import_module(f"toric_deform.{module}"), attr, None)
    assert callable(target), f"perfbench traces toric_deform.{module}.{attr}, which is gone"


@pytest.mark.parametrize("module,attr", READ, ids=[f"{m}.{a}" for m, a in READ])
def test_read_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(f"toric_deform.{module}"), attr), (
        f"perfbench reads toric_deform.{module}.{attr}, which is gone"
    )


def test_cech_complex_class_exists():
    from toric_deform import cohomology

    assert isinstance(cohomology.GradedCechComplex, type)


def test_cox_data_has_grading():
    # perfbench/workloads.py and tests/test_golden_reports.py read cox_data(fan).grading
    from toric_deform.fan import CoxData

    assert hasattr(CoxData, "grading")


def test_cohomology_ranks_through_the_traced_kernel():
    # the tracer rebinds kernels.matrix_rank under every name bound to it, so
    # cohomology's ranks reach kernels.matrix_rank.* only if it is that function
    from toric_deform import cohomology, kernels

    assert cohomology.matrix_rank is kernels.matrix_rank


def test_install_then_uninstall_restores_every_binding():
    import toric_deform.cli  # noqa: F401  (loads every layer, as run.py does)
    from toric_deform import kernels

    def bindings():
        return {
            name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and (name == "toric_deform" or name.startswith("toric_deform."))
        }

    before = bindings()
    tracer = load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        assert hasattr(kernels.matrix_rank, "__wrapped__")
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    for name, attrs in before.items():
        assert after[name].keys() == attrs.keys(), name
        changed = [attr for attr, value in attrs.items() if after[name][attr] is not value]
        assert not changed, f"{name}: {changed} still rebound after uninstall"


def test_tracer_sees_the_stalk_path(tmp_path, capsys):
    # span_check builds no GradedCechComplex, so the cech span stays empty
    from toric_deform import cli
    from toric_deform.fan import hirzebruch

    path = tmp_path / "f2.json"
    path.write_text(json.dumps(cli.fan_to_json(hirzebruch(2))))
    tracer = load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        code = tracer.call_main(cli.main, ["h1", "--fan", str(path)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    calls = {name: n for name, (n, _) in tracer.per_name().items()}
    assert calls["cohomology.span_check"] >= 1
    assert calls["cohomology.cech"] == 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_gate_accepts_every_benchmark_fan(workload):
    # a fan the gate wrongly rejected would show only as a lower ok_ratio
    # in the benchmark run
    from toric_deform.fan import validate

    keys = workloads.fan_keys(workload, workloads.load_expected())
    assert keys
    for key in keys:
        rep = validate(workloads.build_fan(key))
        assert rep["smooth"] and rep["complete"], key


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_benchmark_pass_matches_the_pins(workload, tmp_path, monkeypatch):
    # a pinned output the package no longer produces would show only as a
    # lower ok_ratio in the benchmark run
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py adds perfbench/
    run = load_perfbench("run")
    expected = workloads.load_expected()
    fans = workloads.write_fans(workloads.fan_keys(workload, expected), str(tmp_path))
    runner = run.Runner(workloads.MAKE_OPS[workload](fans, expected, random.Random(3)))
    runner.run_pass()
    assert runner.attempted > 0
    assert runner.failures == []


def test_one_traced_pipeline_pass(tmp_path, monkeypatch):
    # perfbench/test_smoke.py runs traced passes too, but lives outside this
    # suite; a wrapper that broke an operation or stayed bound would show
    # only as wrong per-layer metrics
    from toric_deform import kernels

    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py adds perfbench/
    run = load_perfbench("run")
    expected = workloads.load_expected()
    fans = workloads.write_fans(workloads.fan_keys("triple-pipeline", expected), str(tmp_path))
    runner = run.Runner(workloads.MAKE_OPS["triple-pipeline"](fans, expected, random.Random(3)))
    tracer = run.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        runner.run_pass()
    finally:
        tracer.uninstall()
        runner.tracer = None
    assert runner.failures == []
    assert not hasattr(kernels.matrix_rank, "__wrapped__")
    assert tracer.per_name()["cli.main"][0] == 207
    assert tracer.counters["hypersurf.lift_polynomial.monomials"] == 2746
    assert tracer.counters["hypersurf.lift_polynomial.liftable"] == 2684
