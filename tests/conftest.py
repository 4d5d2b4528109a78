"""Fixtures shared by the whole suite."""

import pytest

from repro.sim.random import RandomStreams


@pytest.fixture
def streams_opened(monkeypatch):
    """The name of every ``RandomStreams.stream`` lookup made while the
    test runs, in order (one per draw site visit, not one per stream).

    The fault-free runners take no ``seed`` because they draw from no
    stream; the tests that already run them assert it on this list, so a
    change that gives one of them a stochastic input fails there and has
    to bring the seed back with it.
    """
    names = []
    real = RandomStreams.stream

    def stream(self, name):
        names.append(name)
        return real(self, name)

    monkeypatch.setattr(RandomStreams, "stream", stream)
    return names
