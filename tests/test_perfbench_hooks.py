"""The benchmark tracer's hooks name functions that exist.

perfbench/tracer.py wraps the (module, attribute) pairs in its TRACED table
and subclasses cohomology.GradedCechComplex. A renamed or deleted target
breaks ``perfbench/run.py --trace 1``; perfbench's own smoke test would
catch it, but it is slow and lives outside this suite.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = load_tracer().TRACED


@pytest.mark.parametrize("module,attr,span", TRACED, ids=[f"{m}.{a}" for m, a, _ in TRACED])
def test_traced_function_exists(module, attr, span):
    target = getattr(importlib.import_module(f"toric_deform.{module}"), attr, None)
    assert callable(target), f"perfbench traces toric_deform.{module}.{attr}, which is gone"


def test_cech_complex_class_exists():
    from toric_deform import cohomology

    assert isinstance(cohomology.GradedCechComplex, type)
