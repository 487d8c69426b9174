"""The benchmark tracer's targets must name live egdeg functions and methods.

``bench/tracer.py`` wraps each TARGETS entry by name, a method through its
class's own ``__dict__``; a rename in ``src`` would otherwise only show when
``bench/run.py --trace 1`` runs.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


@pytest.mark.parametrize("module_name,path",
                         [(m, p) for m, p, _ in TRACER.TARGETS])
def test_target_resolves(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        cls_name, meth = path.split(".")
        assert callable(vars(getattr(module, cls_name)).get(meth))
    else:
        assert callable(getattr(module, path, None))


def test_timed_spans_are_targets():
    spans = {f"{m.rsplit('.', 1)[1]}.{p}" for m, p, _ in TRACER.TARGETS}
    for names in TRACER.TIMES.values():
        assert set(names) <= spans
