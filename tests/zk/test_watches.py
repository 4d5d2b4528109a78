"""Watch semantics: one-shot notifications on data/child/existence changes."""

from repro.models.params import FaultToleranceParams

from .conftest import ZKHarness


def test_data_watch_fires_on_set(zk3):
    cli = zk3.client()
    events = []

    def main():
        yield from cli.create("/w", b"0")
        yield from cli.get("/w", watch=events.append)
        yield from cli.set_data("/w", b"1")
        yield zk3.cluster.sim.timeout(0.05)

    zk3.run(main())
    assert [(e.kind, e.path) for e in events] == [("changed", "/w")]


def test_data_watch_fires_on_delete(zk3):
    cli = zk3.client()
    events = []

    def main():
        yield from cli.create("/w", b"0")
        yield from cli.get("/w", watch=events.append)
        yield from cli.delete("/w")
        yield zk3.cluster.sim.timeout(0.05)

    zk3.run(main())
    assert [(e.kind, e.path) for e in events] == [("deleted", "/w")]


def test_watch_is_one_shot(zk3):
    cli = zk3.client()
    events = []

    def main():
        yield from cli.create("/w", b"0")
        yield from cli.get("/w", watch=events.append)
        yield from cli.set_data("/w", b"1")
        yield from cli.set_data("/w", b"2")  # no watch registered anymore
        yield zk3.cluster.sim.timeout(0.05)

    zk3.run(main())
    assert len(events) == 1


def test_exists_watch_fires_on_create(zk3):
    cli = zk3.client()
    events = []

    def main():
        st = yield from cli.exists("/future", watch=events.append)
        assert st is None
        yield from cli.create("/future")
        yield zk3.cluster.sim.timeout(0.05)

    zk3.run(main())
    assert [(e.kind, e.path) for e in events] == [("created", "/future")]


def test_child_watch_fires_on_child_create_and_delete(zk3):
    cli = zk3.client()
    events = []

    def main():
        yield from cli.create("/p")
        yield from cli.get_children("/p", watch=events.append)
        yield from cli.create("/p/c")
        yield zk3.cluster.sim.timeout(0.05)
        yield from cli.get_children("/p", watch=events.append)
        yield from cli.delete("/p/c")
        yield zk3.cluster.sim.timeout(0.05)

    zk3.run(main())
    assert [(e.kind, e.path) for e in events] == [("child", "/p"), ("child", "/p")]


def test_changed_event_leaves_the_child_watch_armed(zk3):
    """Data and child watches are separate tables: a ``changed`` event
    fires the data watcher only, and the child watch still fires later."""
    cli = zk3.client()
    events = []

    def main():
        yield from cli.create("/p")
        yield from cli.get("/p", watch=events.append)
        yield from cli.get_children("/p", watch=events.append)
        yield from cli.set_data("/p", b"1")
        yield zk3.cluster.sim.timeout(0.05)
        yield from cli.create("/p/c")
        yield zk3.cluster.sim.timeout(0.05)

    zk3.run(main())
    assert [(e.kind, e.path) for e in events] == [("changed", "/p"),
                                                  ("child", "/p")]


def test_repeat_registration_of_one_watcher_is_a_no_op(zk3):
    cli = zk3.client()
    events = []

    def main():
        yield from cli.create("/w", b"0")
        yield from cli.get("/w", watch=events.append)
        yield from cli.exists("/w", watch=events.append)
        yield from cli.set_data("/w", b"1")
        yield zk3.cluster.sim.timeout(0.05)

    zk3.run(main())
    assert [(e.kind, e.path) for e in events] == [("changed", "/w")]


def test_deleted_event_fires_data_and_child_watchers_once_each(zk3):
    cli = zk3.client()
    data_events, child_events = [], []

    def main():
        yield from cli.create("/p")
        yield from cli.get("/p", watch=data_events.append)
        yield from cli.get_children("/p", watch=child_events.append)
        yield from cli.delete("/p")
        yield zk3.cluster.sim.timeout(0.05)

    zk3.run(main())
    assert [(e.kind, e.path) for e in data_events] == [("deleted", "/p")]
    assert [(e.kind, e.path) for e in child_events] == [("deleted", "/p")]


def test_loss_delivers_one_lost_per_held_watcher_then_listeners(zk3):
    """A fail-over hands each held (path, watcher) one ``lost`` event —
    one, though the watcher sits in both tables for ``/a`` — empties
    both tables, and only then runs the ``(reason,)`` listeners."""
    cli = zk3.client()
    log = []
    cli.watch_loss_listeners.append(lambda reason: log.append(reason))

    def main():
        yield from cli.create("/a")
        yield from cli.create("/b")
        yield from cli.get("/a", watch=log.append)
        yield from cli.get_children("/a", watch=log.append)
        yield from cli.get_children("/b", watch=log.append)

    zk3.run(main())
    cli._fail_over()
    assert [getattr(e, "path", e) for e in log] == ["/a", "/b", "failover"]
    assert {e.kind for e in log[:2]} == {"lost"}
    assert not cli._data_watches and not cli._child_watches


def test_watch_fires_for_writes_from_other_client(zk3):
    watcher = zk3.client(prefer_index=1)
    writer = zk3.client(prefer_index=2)
    events = []

    def w():
        yield from watcher.create("/shared", b"")
        yield from watcher.get("/shared", watch=events.append)
        yield zk3.cluster.sim.timeout(0.5)

    def m():
        yield zk3.cluster.sim.timeout(0.1)
        yield from writer.set_data("/shared", b"remote")

    zk3.run_all(w(), m())
    assert [(e.kind, e.path) for e in events] == [("changed", "/shared")]


def test_watch_on_read_error_not_registered(zk3):
    from repro.zk.errors import NoNodeError
    cli = zk3.client()
    events = []

    def main():
        try:
            yield from cli.get("/missing", watch=events.append)
        except NoNodeError:
            pass
        yield from cli.create("/missing")
        yield zk3.cluster.sim.timeout(0.05)

    zk3.run(main())
    assert events == []  # get() on a missing node registers nothing


def test_watch_delivered_after_triggering_write_is_visible(zk3):
    """Ordering: when the watch callback runs, a read through the watching
    client already observes the new state — the server notifies only after
    applying the committed txn, so a cache invalidated by the event can
    never refill with the pre-write value."""
    watcher = zk3.client(prefer_index=1)
    writer = zk3.client(prefer_index=2)
    seen = []

    def on_event(event):
        def check():
            data, _ = yield from watcher.get(event.path)
            seen.append(data)
        zk3.client_nodes[0].spawn(check())

    def w():
        yield from watcher.create("/ord", b"old")
        yield from watcher.get("/ord", watch=on_event)
        yield zk3.cluster.sim.timeout(0.5)

    def m():
        yield zk3.cluster.sim.timeout(0.1)
        yield from writer.set_data("/ord", b"new")

    zk3.run_all(w(), m())
    assert seen == [b"new"]


def test_server_crash_drops_watches_and_notifies_loss():
    """A crashed server loses its watch tables: the pending watch never
    fires; the client's fail-over hands it a ``lost`` event and raises
    the watch-loss hook, and a watch re-registered at the live server
    works. This is the contract the client metadata cache relies on."""
    h = ZKHarness(n_servers=3, extra_client_nodes=1)
    cli = h.client(prefer_index=1, fault=FaultToleranceParams(
        request_timeout=0.3, max_retries=5))
    losses, ev1, ev2 = [], [], []
    cli.watch_loss_listeners.append(losses.append)

    def part1():
        yield from cli.create("/w", b"0")
        yield from cli.get("/w", watch=ev1.append)
        h.ensemble.servers[1].node.crash()
        # This write times out at the dead server and fails over.
        yield from cli.set_data("/w", b"1")
        yield h.cluster.sim.timeout(0.3)

    h.run(part1())
    assert "failover" in losses
    # The crash dropped the server's watch; the client said so, once.
    assert [(e.kind, e.path) for e in ev1] == [("lost", "/w")]

    def part2():
        yield from cli.get("/w", watch=ev2.append)   # re-register, live srv
        yield from cli.set_data("/w", b"2")
        yield h.cluster.sim.timeout(0.3)

    h.run(part2())
    assert [(e.kind, e.path) for e in ev2] == [("changed", "/w")]
