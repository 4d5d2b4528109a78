"""Unit tests for Resource / Store."""

import pytest

from repro.sim import Resource, Simulator, Store


def test_resource_capacity_enforced():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    active = []
    peak = []

    def worker(k):
        with res.request() as req:
            yield req
            active.append(k)
            peak.append(len(res.users))
            yield sim.timeout(1)
            active.remove(k)

    for k in range(5):
        sim.process(worker(k))
    sim.run()
    assert max(peak) == 2
    assert active == []


def test_resource_fifo_grant_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(k):
        with res.request() as req:
            yield req
            order.append(k)
            yield sim.timeout(1)

    for k in range(4):
        sim.process(worker(k))
    sim.run()
    assert order == [0, 1, 2, 3]


def test_resource_release_is_idempotent():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # second release must be harmless

    sim.process(worker())
    sim.run()
    assert not res.users


def test_resource_queued_request_can_be_cancelled():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    got = []

    def holder():
        with res.request() as req:
            yield req
            yield sim.timeout(10)

    def impatient():
        yield sim.timeout(1)
        req = res.request()  # queued behind holder
        res.release(req)  # cancel before grant
        got.append("cancelled")

    def third():
        yield sim.timeout(2)
        with res.request() as req:
            yield req
            got.append(("granted", sim.now))

    sim.process(holder())
    sim.process(impatient())
    sim.process(third())
    sim.run()
    assert got == ["cancelled", ("granted", 10)]


def test_resource_rejects_zero_capacity():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_resource_throughput_saturates_at_capacity_over_service():
    """A 4-way server with 10 ms ops completes ~400 ops/s regardless of load."""
    sim = Simulator()
    res = Resource(sim, capacity=4)
    done = []

    def client():
        while sim.now < 10.0:
            with res.request() as req:
                yield req
                yield sim.timeout(0.010)
            done.append(sim.now)

    for _ in range(64):
        sim.process(client())
    sim.run(until=10.0)
    rate = len(done) / 10.0
    assert rate == pytest.approx(400, rel=0.02)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        got.append((yield store.get()))

    store.put("x")
    sim.process(consumer())
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((item, sim.now))

    def producer():
        yield sim.timeout(4)
        store.put("y")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("y", 4)]


def test_store_fifo_across_consumers():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer(k):
        item = yield store.get()
        got.append((k, item))

    sim.process(consumer(0))
    sim.process(consumer(1))

    def producer():
        yield sim.timeout(1)
        store.put("a")
        store.put("b")

    sim.process(producer())
    sim.run()
    assert got == [(0, "a"), (1, "b")]


def test_store_len_counts_buffered_items():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2
