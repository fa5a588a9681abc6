"""perfbench's span bindings still name live code.

``perfbench/tracer.py`` wraps each layer's entry points by module and
attribute name, so a function that moves or is renamed shows up there
only as failed benchmark runs. These tests load the tracer by path
(the benchmark harness is not part of the package) and check that
every listed binding resolves and that the bindings the tracer
discovers when it installs — every ``MemorySystem.latencies`` override
and every ``emit_*`` function the site builder calls — exist.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", TRACER_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

TARGETS = [
    (name, target)
    for name, targets in tracer.BINDINGS.items()
    for target in targets
]


@pytest.mark.parametrize(
    ("name", "target"),
    TARGETS,
    ids=[f"{name}:{'.'.join(target)}" for name, target in TARGETS],
)
def test_binding_resolves(name, target):
    owner = importlib.import_module(target[0])
    if len(target) == 3:
        owner = getattr(owner, target[1])
    assert callable(getattr(owner, target[-1]))


class _NameRecorder(tracer.Tracer):
    """Records which functions each span name would wrap."""

    def __init__(self) -> None:
        super().__init__("bindings")
        self.bound: dict[str, list] = {}

    def wrap(self, func, name: str):
        self.bound.setdefault(name, []).append(func)
        return func


def test_install_binds_every_span_name(monkeypatch):
    # install() patches through the builtin setattr; a module-level
    # stand-in records the patches instead, so nothing is rebound.
    patched = []
    monkeypatch.setattr(
        tracer, "setattr",
        lambda owner, attr, value: patched.append((owner, attr)),
        raising=False,
    )
    recorder = _NameRecorder()
    tracer.install(recorder)
    for name, targets in tracer.BINDINGS.items():
        assert len(recorder.bound.get(name, ())) == len(targets), name
    assert recorder.bound.get("memory.latencies"), \
        "no MemorySystem subclass overrides latencies()"
    assert recorder.bound.get("report.emit"), \
        "repro.report.site has no emit_* binding"
    assert len(patched) == sum(map(len, recorder.bound.values()))
