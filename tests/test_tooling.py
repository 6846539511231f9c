"""Module surfaces: the benchmark's tracer finds every function it wraps,
each module's ``__all__`` lists what it defines, and no module reads
another's private names."""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from qmac import (cli, eacode, gaussian, info, qmat, seqdecode, simuldecode,
                  typicality)

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
SRC = ROOT / "src" / "qmac"


def test_tracer_wraps_every_layer(monkeypatch):
    # perfbench/run.py --trace 1 binds these names; a deleted or renamed one
    # fails here instead of in the benchmark
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # wrap() looks up every name in spans.LAYERS and raises AttributeError
    # for one that is gone
    spans.Tracer().wrap({
        "cli": cli, "qmat": qmat, "eacode": eacode, "typicality": typicality,
        "seqdecode": seqdecode, "simuldecode": simuldecode, "gaussian": gaussian,
    })


@pytest.mark.parametrize("module", [eacode, gaussian, info, qmat, seqdecode,
                                    simuldecode, typicality],
                         ids=lambda m: m.__name__)
def test_all_lists_every_public_definition(module):
    listed = set(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(defined - listed) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    # a helper that two modules share is public in one of them
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    modules.update(a.asname or a.name for a in node.names)
                else:
                    reads += [f"{path.stem} imports {node.module}.{a.name}"
                              for a in node.names if _private(a.name)]
        reads += [
            f"{path.stem} reads {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and _private(node.attr)
            and isinstance(node.value, ast.Name) and node.value.id in modules
        ]
    assert reads == []
