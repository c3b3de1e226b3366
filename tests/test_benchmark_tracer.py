"""The benchmark's layer tracer (perfbench/tracing.py) patches fuchswave
functions and methods by name; a traced benchmark run crashes on a name that
was renamed or deleted.  Installing and uninstalling it here makes such a
change fail the test suite instead."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_finds_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    tracer = Tracer("guard")
    try:
        tracer.install()
    finally:
        restored = tracer.uninstall()
    assert restored > 0
