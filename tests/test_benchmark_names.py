"""The traced benchmark wraps program names from outside; every one must exist.

A renamed or deleted name otherwise shows only as ``"correct": false`` in a
traced ``perfbench/run.py`` run, and so does a renamed parameter that one of
its counters reads.  ``perfbench/`` is imported, never written:
no bytecode is cached there and its modules leave ``sys.modules`` afterwards.
"""

import ast
import inspect
import sys
import textwrap
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _benchmark_wraps(monkeypatch) -> list:
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import layers

        return layers.wraps()
    finally:
        for name in ("layers", "tracing"):
            sys.modules.pop(name, None)


def _arguments_read(count) -> set:
    """The names a counter reads as ``arguments["name"]`` from its first parameter."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(count)))
    arguments = tree.body[0].args.args[0].arg
    return {node.slice.value for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == arguments and isinstance(node.slice, ast.Constant)}


def test_every_benchmark_wrap_resolves(monkeypatch):
    wraps = _benchmark_wraps(monkeypatch)
    assert wraps
    missing = [w.name for w in wraps if not hasattr(w.owner, w.attr)]
    assert not missing, missing
    assert all(callable(getattr(w.owner, w.attr)) for w in wraps)


def test_every_counted_argument_is_a_parameter(monkeypatch):
    """The tracer binds each call to its signature; a counter reading a
    name the wrapped function no longer takes fails the traced run."""
    read = {w.name: (_arguments_read(w.count), set(inspect.signature(
        getattr(w.owner, w.attr)).parameters)) for w in _benchmark_wraps(monkeypatch)
        if w.count is not None}
    assert {"sequences_per_length", "lengths"} <= read["rb.generate_sequences"][0]
    assert "sequences" in read["rb.survival_dark_probabilities"][0]
    assert "sequences" in read["rb.simulate_focus"][0]
    missing = {name: names - params for name, (names, params) in read.items()
               if not names <= params}
    assert not missing, missing
