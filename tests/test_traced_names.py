"""Every name the benchmark's traced run reports on still exists.

``perfbench/spans.py`` wraps posetdet functions and methods by name; a
name that is renamed or deleted makes its metric read 0 instead of
failing.  This reads the span module from ``perfbench/`` and does not
change it.
"""

import importlib.util
import pathlib

from posetdet import matrix

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_and_is_restored():
    spans = _load_spans()
    original = matrix.det_bareiss
    with spans.Tracing(spans.Recorder()) as tracing:
        assert matrix.det_bareiss is not original
    assert tracing.missing == []
    assert matrix.det_bareiss is original
