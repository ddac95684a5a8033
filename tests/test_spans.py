"""The benchmark's per-layer spans still name functions of placto.

`perfbench/spans.py` wraps functions by module and attribute name, and a
renamed or deleted target only leaves its span empty, so this check keeps a
refactor from blanking a per-layer metric.  The file is read, not changed.
"""

import importlib.util
from pathlib import Path

import placto.cli  # noqa: F401  (imports every module that the spans wrap)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_span_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        missing = tracer.install()
    finally:
        tracer.restore()
    assert missing == []
    assert spans.TARGETS
