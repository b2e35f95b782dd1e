"""The traced benchmark wraps program names from outside; every one must exist.

A renamed or deleted name otherwise shows only as ``"correct": false`` in a
traced ``perfbench/run.py`` run.  ``perfbench/`` is imported, never written:
no bytecode is cached there and its modules leave ``sys.modules`` afterwards.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_benchmark_wrap_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import layers

        wraps = layers.wraps()
    finally:
        for name in ("layers", "tracing"):
            sys.modules.pop(name, None)
    assert wraps
    missing = [w.name for w in wraps if not hasattr(w.owner, w.attr)]
    assert not missing, missing
    assert all(callable(getattr(w.owner, w.attr)) for w in wraps)
