"""The benchmark's tracer (perfbench/spans.py) wraps lambdapm's entry points
by module attribute name and swaps them by object identity.  Every name it
lists must therefore stay a function of its module, and no two names may be
the same object."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_entry_points_are_distinct_functions():
    spans = _load_spans()
    seen = {}
    for layer, names in spans.ENTRY_POINTS.items():
        mod = importlib.import_module(f"lambdapm.{layer}")
        for name in names:
            fn = getattr(mod, name, None)
            assert inspect.isfunction(fn), f"lambdapm.{layer}.{name}"
            other = seen.setdefault(id(fn), f"{layer}.{name}")
            assert other == f"{layer}.{name}", f"{layer}.{name} is {other}"
    domains = importlib.import_module("lambdapm.domains")
    assert inspect.isgeneratorfunction(domains.iter_monotone_tables)
    assert id(domains.iter_monotone_tables) not in seen
