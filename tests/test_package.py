"""Tests of the package's public surface and its one report serializer."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import greenpot

PACKAGE = Path(greenpot.__file__).parent
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_public_names_resolve():
    for name in MODULES:
        module = importlib.import_module(f"greenpot.{name}")
        for public in getattr(module, "__all__", ()):
            assert hasattr(module, public), f"greenpot.{name}.__all__ names missing {public!r}"
    for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"greenpot.{node.module}")
            for alias in node.names:
                assert hasattr(module, alias.name), f"greenpot/__init__.py imports {alias.name!r}"
                assert getattr(greenpot, alias.asname or alias.name) is getattr(module, alias.name)


def test_only_cli_knows_the_report_format():
    for name in MODULES:
        if name == "cli":
            continue
        for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text())):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ("to_json", "canonical_json"), f"{name}.{node.name}"
            if isinstance(node, ast.ImportFrom):
                assert "canonical_json" not in {a.name for a in node.names}, name


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_layers_resolve_to_package_functions():
    # the benchmark's span recorder rebinds these names; a deleted or
    # renamed one would break every traced run
    for name in _spans_module().LAYERS:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"greenpot.{module}"), attr, None)
        assert inspect.isfunction(fn), f"perfbench layer {name!r} is not a greenpot function"


def test_benchmark_bindings_are_the_lattice_functions():
    # the recorder sees a call through a module's own binding only if that
    # binding is the lattice function itself
    lattice = importlib.import_module("greenpot.lattice")
    assert importlib.import_module("greenpot.operators").whole_space_green is lattice.whole_space_green
    for name in ("cli", "operators", "potential"):
        module = importlib.import_module(f"greenpot.{name}")
        assert module.killed_green_matrix is lattice.killed_green_matrix, name
