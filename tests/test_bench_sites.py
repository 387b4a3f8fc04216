"""The traced bench wraps every binding site it needs, and puts each one back."""

import sys
from pathlib import Path

import tensorjet

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import spans  # noqa: E402


def _bindings():
    return {(mod.__name__, name): value
            for mod in list(sys.modules.values())
            if mod is not None and mod.__name__.startswith("tensorjet")
            for name, value in vars(mod).items() if callable(value)}


def test_tracer_finds_every_required_site_and_uninstalls():
    tracer = spans.Tracer()
    tracer.install(tensorjet)  # raises RuntimeError naming any missing site
    try:
        wrapped = {(mod.__name__.rsplit(".", 1)[-1], key) for mod, key, _ in tracer._installed}
        assert set(spans.REQUIRED_SITES) <= wrapped
    finally:
        tracer.uninstall()
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install(tensorjet)
    tracer.uninstall()
    assert _bindings() == before
