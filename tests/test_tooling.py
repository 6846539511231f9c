"""The benchmark's tracer still finds every function it wraps."""

import importlib.util
import sys
from pathlib import Path

from qmac import cli, eacode, gaussian, qmat, seqdecode, simuldecode, typicality

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


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
