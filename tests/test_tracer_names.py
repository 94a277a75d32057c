"""Every name that the benchmark's tracer (`perfbench/tracer.py`) patches or
reads still exists in the package.

The tracer is loaded from its file as it stands and never installed, so
nothing is patched here.  A rename or removal in `src/` that the tracer
still names fails this test, not only the benchmark's separate self-test.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def layer(name):
    return importlib.import_module(f"sl2forms.{name}")


def test_spanned_and_counted_functions_resolve(tracer):
    for table in (tracer.SPANNED, tracer.COUNTED):
        for layer_name, names in table.items():
            for name in names:
                assert callable(getattr(layer(layer_name), name, None)), (
                    f"{layer_name}.{name}"
                )


def test_matrix_operators_and_cached_transpose_resolve(tracer):
    matrix = layer("linalg").ExactMatrix
    for method in tracer.MATRIX_METHODS:
        assert method in vars(matrix), method
    transpose = matrix.__dict__["transpose"]
    assert isinstance(transpose, functools.cached_property)
    assert callable(transpose.func)


def test_cached_functions_report_cache_info():
    for layer_name, name in (
        ("modules", "irreducible"),
        ("modules", "tensor_of_irreducibles"),
        ("omega", "x_power_b_brute"),
    ):
        assert callable(getattr(layer(layer_name), name).cache_info), name


def test_km_sum_and_the_pool_class_resolve():
    assert callable(layer("hypergeom").km_sum)
    assert callable(layer("parallel").ProcessPoolExecutor)
