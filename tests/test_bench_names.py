"""The benchmark's span recorder (`bench/spans.py`) looks up phasespace
functions and methods by name.  A rename or deletion in the package must
fail here, in the ordinary test run, rather than only when the traced
benchmark installs its wrappers."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_phasespace():
    spans = load_spans()
    missing = []
    for layer, names in spans.TARGETS.items():
        module = importlib.import_module(f"phasespace.{layer}")
        missing += [f"{layer}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    for (layer, cls_name), methods in spans.METHODS.items():
        cls = getattr(importlib.import_module(f"phasespace.{layer}"), cls_name, None)
        # the recorder wraps methods through the class's own __dict__
        missing += [f"{layer}.{cls_name}.{meth}" for meth in methods
                    if cls is None or meth not in vars(cls)]
    for name in spans.MODULES:
        importlib.import_module(f"phasespace.{name}")
    assert missing == []
