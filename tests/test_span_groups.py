"""Every span group of the benchmark's tracer still names a live srm3 function.

The benchmark reports a per-layer metric as absent when none of its group's
functions resolves any more.  Deleting or renaming the last function of a
group must therefore fail here, not first in a benchmark run.
"""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    """The tracer module, executed from its source (no bytecode cache is written)."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_span_group_resolves():
    spans = _load_spans()
    tracer = spans.Tracer()  # resolves the groups; installs no wrapper
    assert tracer.present == set(spans.GROUPS), sorted(set(spans.GROUPS) - tracer.present)
