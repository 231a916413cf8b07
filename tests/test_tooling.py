"""The benchmark's tracer names package functions; keep those names alive."""

import importlib
import pathlib
import runpy

# run_path compiles the source without writing a bytecode cache under bench/
SPANS = runpy.run_path(
    str(pathlib.Path(__file__).parent.parent / "bench" / "spans.py")
)


def test_every_traced_function_resolves():
    for span, home, attr in SPANS["TRACED"]:
        module = importlib.import_module(f"pentagon.{home}")
        assert callable(getattr(module, attr, None)), (span, home, attr)


def test_every_traced_module_imports():
    for suffix in SPANS["PACKAGE_MODULES"]:
        importlib.import_module("pentagon" + suffix)
