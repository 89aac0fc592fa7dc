"""Every name the benchmark's tracer wraps still exists in the package.

bench/tracer.py rebinds the functions and methods it names in SPANS,
KERNELS and INNER_CLASSIFY; a rename or deletion in the package would
break `bench/run.py --trace 1` only when the benchmark runs.  This test
reads those tables (it does not install the tracer) and resolves each
entry as the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLES = _tracer()
_ENTRIES = sorted({*_TABLES.SPANS, *_TABLES.KERNELS,
                   _TABLES.INNER_CLASSIFY[:2]})


@pytest.mark.parametrize("mod, attr", _ENTRIES,
                         ids=[f"{m}.{a}" for m, a in _ENTRIES])
def test_traced_name_resolves(mod, attr):
    assert mod in _TABLES.MODULES
    module = importlib.import_module(f"wcilinks.{mod}")
    if "." in attr:
        # a method: the tracer replaces it in the class dict
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(module, cls_name))[meth])
    else:
        assert callable(getattr(module, attr))
