"""Tests of the package's public surface and its one report serializer."""

import ast
import importlib
from pathlib import Path

import greenpot

PACKAGE = Path(greenpot.__file__).parent
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
