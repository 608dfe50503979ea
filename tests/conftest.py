"""Fixtures shared by the test modules."""

from __future__ import annotations

import contextlib
from fractions import Fraction

import pytest


@pytest.fixture
def no_fraction_sums(monkeypatch):
    """A context manager inside which adding or subtracting Fractions
    raises."""

    def refuse(*args):
        raise AssertionError("a Fraction was added")

    @contextlib.contextmanager
    def block():
        with monkeypatch.context() as m:
            for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
                m.setattr(Fraction, name, refuse)
            yield

    return block
