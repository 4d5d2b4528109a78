"""Session liveness and ephemeral expiry."""


from repro.models.params import ZKParams

from .conftest import ZKHarness


def test_session_expiry_deletes_ephemerals(monkeypatch):
    monkeypatch.setattr(ZKParams, "session_timeout", 0.5)
    params = ZKParams(session_tracking=True)
    h = ZKHarness(n_servers=3, params=params)
    cli = h.client()

    def main():
        yield from cli.connect()
        yield from cli.create("/eph", b"", ephemeral=True)
        yield from cli.create("/perm", b"")

    h.run(main())
    # No keepalive running -> the session times out and /eph vanishes.
    h.settle(2.0)
    store = h.ensemble.servers[0].store
    assert store.exists("/eph") is None
    assert store.exists("/perm") is not None


def test_keepalive_preserves_session(monkeypatch):
    monkeypatch.setattr(ZKParams, "session_timeout", 0.5)
    params = ZKParams(session_tracking=True)
    h = ZKHarness(n_servers=3, params=params)
    cli = h.client()

    def main():
        yield from cli.connect()
        yield from cli.create("/eph", b"", ephemeral=True)

    h.run(main())
    h.client_nodes[0].spawn(cli.keepalive(interval=0.1))
    h.settle(2.0)
    assert h.ensemble.servers[0].store.exists("/eph") is not None


def test_client_node_crash_expires_session_eventually(monkeypatch):
    """The ephemeral-cleanup story end to end: the client machine dies,
    its heartbeats stop, the server reclaims the ephemerals."""
    monkeypatch.setattr(ZKParams, "session_timeout", 0.5)
    params = ZKParams(session_tracking=True)
    h = ZKHarness(n_servers=3, params=params, extra_client_nodes=2)
    cli = h.client(node=h.client_nodes[1])

    def main():
        yield from cli.connect()
        yield from cli.create("/lock", b"holder=1", ephemeral=True)

    proc = h.client_nodes[1].spawn(main())
    h.cluster.sim.run(until=proc)
    h.client_nodes[1].spawn(cli.keepalive(interval=0.1))
    h.settle(1.0)
    assert h.ensemble.servers[0].store.exists("/lock") is not None
    h.client_nodes[1].crash()  # heartbeats die with the node
    h.settle(2.0)
    assert h.ensemble.servers[0].store.exists("/lock") is None
