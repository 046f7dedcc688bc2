"""Every exported name resolves, and the package exports each name once.

Tools that walk the public API (``from qpp import *``, the benchmark's
per-layer tracer) look up each name in ``__all__``, so a stale entry
would make them fail.  The package re-exports the layers by star import,
so a name listed by two layers would silently resolve to the later one.
"""

import importlib

import pytest

import qpp

LAYERS = ("hilbert", "scenario", "prepost", "constructions", "nchv", "optimizer", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_resolve(layer):
    module = importlib.import_module(f"qpp.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_resolve():
    missing = [name for name in qpp.__all__ if not hasattr(qpp, name)]
    assert missing == []


def test_package_exports_are_unique():
    assert len(qpp.__all__) == len(set(qpp.__all__))
