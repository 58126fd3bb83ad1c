"""The benchmark's traced run (`perfbench/run.py --trace 1`) rebinds module
attributes of the package; a refactor that renames or drops one of them
would break that run only when it is made.  This installs the benchmark's
own tracer on the package, reading perfbench/ without changing it."""

import math
import sys
import types
from pathlib import Path

from wiltonmoments import cf_dynamics, cli, cotangent, moments, special_fn

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_exist_and_are_restored(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    program = types.SimpleNamespace(
        cli=cli, special_fn=special_fn, moments=moments, cotangent=cotangent,
        cf_dynamics=cf_dynamics, wilton=sys.modules["wiltonmoments.wilton"],
    )
    tracer, bound = Tracer(), []
    try:
        layers.install(tracer, program)  # getattr raises on a missing name
        bound = list(tracer._bound)
        names = {(module.__name__, attr) for module, attr, _ in bound}
        for name in (
            ("wiltonmoments.special_fn", "wilton"),
            ("wiltonmoments.special_fn", "orbit_arrays"),
            ("wiltonmoments.wilton", "orbit_arrays"),
            ("wiltonmoments.moments", "g_batch"),
        ):
            assert name in names
        assert all(getattr(module, attr) is not original for module, attr, original in bound)
        # scalar g reaches the rebound names through the module's globals
        special_fn.g_func(1.0 / math.pi)
        spans = {s.name for s in tracer.take()}
        assert {"special_fn.g_func", "special_fn.wilton"} <= spans
    finally:
        tracer.remove()
    assert all(getattr(module, attr) is original for module, attr, original in bound)
