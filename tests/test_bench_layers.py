"""The layer names the benchmark's tracer wraps exist in the package.

bench/tracing.py wraps package functions and methods by name when a traced
benchmark run installs it; a renamed or deleted layer would fail only
there.  This loads the tracer's tables without installing anything.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


def _module(name):
    return importlib.import_module(f"kamcocycle.{name}")


@pytest.mark.parametrize("modname,attr", [(m, a) for m, a, _, _ in tracing._FUNCTIONS])
def test_traced_function_exists(modname, attr):
    assert callable(getattr(_module(modname), attr))


@pytest.mark.parametrize("modname,cls,attr", [(m, c, a) for m, c, a, _, _ in tracing._METHODS])
def test_traced_method_exists(modname, cls, attr):
    assert callable(getattr(getattr(_module(modname), cls), attr))


@pytest.mark.parametrize("holder,attr", sorted(tracing._RENAMED))
def test_renamed_layer_is_a_traced_function(holder, attr):
    # a renamed span is the same function held by another module, such as
    # kam_driver.conjugation_residual, the global residual
    defining = [m for m, a, _, _ in tracing._FUNCTIONS if a == attr]
    assert defining and any(getattr(_module(holder), attr) is getattr(_module(m), attr)
                            for m in defining)


def test_mul_signature_binds_for_the_tracer():
    # a traced run binds TorusMap.mul's arguments by name for the payload,
    # with and without the strip of the pair skip
    from kamcocycle.torus_fourier import TorusMap

    sig = inspect.signature(TorusMap.mul)
    a = TorusMap.from_modes(1, [((0,), np.eye(2)), ((2,), np.eye(2))])
    b = TorusMap.from_modes(1, [((2,), np.eye(2))])
    for args in ((a, b), (a, b, 0.5)):
        bound = sig.bind(*args).arguments
        assert tracing._mul_payload(bound, TorusMap.mul(*args)) == (2, 2)
