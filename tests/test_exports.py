"""The package's __all__ lists exactly the public names it binds."""

from __future__ import annotations

import inspect

import rbfcors


def test_all_matches_the_public_names():
    public = {
        name
        for name, value in vars(rbfcors).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(rbfcors.__all__) == public
    assert len(rbfcors.__all__) == len(public)


def test_all_is_sorted():
    assert rbfcors.__all__ == sorted(rbfcors.__all__)
