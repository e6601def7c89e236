"""The package namespace: every exported name resolves."""
from __future__ import annotations

import torusflow


def test_every_export_resolves():
    assert len(set(torusflow.__all__)) == len(torusflow.__all__)
    missing = [name for name in torusflow.__all__ if not hasattr(torusflow, name)]
    assert not missing
    namespace: dict = {}
    exec("from torusflow import *", namespace)
    assert set(torusflow.__all__) <= set(namespace)
