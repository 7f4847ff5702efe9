"""The names the benchmark tracer rebinds exist where it looks for them.

``perfbench/tracer.py`` times layers by replacing module globals and class
attributes of the package (``owner.__dict__[name]``).  A refactor that drops
or moves one of those names breaks only a traced benchmark run; these tests
make it fail here instead.  The tracer's tables are read, never changed.
"""

from __future__ import annotations

import importlib
import os
import sys

import pytest

from needagent import harness
from needagent.harness import RunConfig, run

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
from tracer import COUNTED, TIMED  # noqa: E402

BINDINGS = TIMED + COUNTED


@pytest.mark.parametrize(
    "name,module,path", BINDINGS, ids=[f"{module}.{path}" for _, module, path in BINDINGS]
)
def test_traced_name_is_bound_in_the_package(name, module, path):
    owner = importlib.import_module(f"needagent.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in owner.__dict__


def test_gc_pass_looks_up_the_traced_names(monkeypatch):
    # The tracer's GC figures come from these two module globals; a pass that
    # bypassed them would report no GC work at all.
    calls = []
    for attr in ("evidence_by_tick", "garbage_collect"):
        original = getattr(harness, attr)

        def counted(*args, _attr=attr, _original=original, **kwargs):
            calls.append(_attr)
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, attr, counted)
    run(RunConfig(seed=0, ticks=60, gc_horizon=10.0, gc_min_trust=2, gc_interval=20))
    assert calls == ["evidence_by_tick", "garbage_collect"] * 3
