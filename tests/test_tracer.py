"""The benchmark tracer wraps partspread functions by name: every name must exist."""

import importlib.util
from pathlib import Path

from partspread import extremal, partitions, report

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wrapped_names_exist():
    tracer = _load_tracer()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{name}"
        for targets in tracer.LAYERS.values()
        for owner, name in targets
        if not callable(vars(owner).get(name))
    ]
    assert missing == []
    # wrapped apart from LAYERS, without installing the tracer
    assert callable(vars(partitions).get("iter_partitions"))
    assert callable(vars(report.Record)["make"].__func__)
    # the predicates are swapped for their wrapped LAYERS functions
    wrapped = {vars(owner)[name] for targets in tracer.LAYERS.values() for owner, name in targets}
    assert set(extremal.PREDICATES.values()) <= wrapped
