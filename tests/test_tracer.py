"""The benchmark tracer wraps partspread functions by name: every name must exist."""

import importlib.util
from pathlib import Path

from conftest import family_of
from partspread import extremal, partitions, report
from partspread.partitions import Profile, enumerate_partitions
from partspread.verify import check_bell_ratio

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


def test_tracer_extractors_read_real_results():
    """Every RESULTS and ARGS extractor runs on a real call of the function it
    is keyed by, so a renamed result field fails here, not in a traced run."""
    tracer = _load_tracer()
    owners = {name: owner for targets in tracer.LAYERS.values() for owner, name in targets}
    star = family_of(4, {0, 1}, {0, 2}, {0, 3})
    singletons = family_of(4, {0}, {1}, {2}, {3})
    records = check_bell_ratio(3).records()
    calls = {
        "enumerate_profiled": (Profile((2, 2)),),
        "spread_factor": (star,),
        "is_r_spread": (star, 2),
        "weak_spread": (star, 1),
        "find_spread_subfamily": (star, "3/2"),
        "spread_approximate": (star, 2, 2),
        "max_compatible_family": (enumerate_partitions(4), "t-intersect", 1, True),
        "check_random_containment": (singletons, 4, 1, "1/2", 10**4, 0),
        "records_to_text": (records,),
        "records_to_table": (records,),
    }
    assert set(tracer.RESULTS) | set(tracer.ARGS) <= set(calls)
    for name, args in calls.items():
        result = vars(owners[name])[name](*args)
        for counter, extract in tracer.RESULTS.get(name, ()):
            assert counter in tracer.COUNTERS
            assert isinstance(extract(result), int) and extract(result) > 0, (name, counter)
        if name in tracer.ARGS:
            counter, extract = tracer.ARGS[name]
            assert counter in tracer.COUNTERS
            # the family is read as the first argument, positional or keyword
            assert extract(args, {}) == extract((), {"f": args[0]}) == 3 * 2**2, name
