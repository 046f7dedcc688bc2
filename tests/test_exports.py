"""Every exported name resolves.

Tools that walk the public API (``from qpp import *``, the benchmark's
per-layer tracer) look up each name in ``__all__``, so a stale entry
would make them fail.
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
