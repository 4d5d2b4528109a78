"""The mount makes a client's hash-directory chain (paper §IV-G).

Under the ``"amortized"`` layout every FID one client instance mints sits
under the same three-level chain, so the client makes it on each back-end
when it is built, in the background, and no create waits on three serial
back-end mkdirs. The lazy chain in ``create`` stays as the guarantee.
"""

import stat

import pytest

from repro.core import DUFSClient, build_dufs_deployment
from repro.core.fid import make_fid
from repro.core.mapping import physical_path, shared_chain
from repro.svc import TraceBus

from .conftest import ops_at


class Counting:
    """A back-end client that records the name of every method the DUFS
    client calls on it: one entry per back-end RPC."""

    def __init__(self, inner, calls):
        self._inner, self._calls = inner, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._inner, name)


def chain(client):
    """The directories every FID of ``client`` shares."""
    return shared_chain(client.files.fidgen.client_id, client.files.layout)


def count_calls(client, backend=None):
    """Wrap ``client``'s back-end clients (one, or all); the shared list
    of calls made through them from now on."""
    calls = []
    for b in range(len(client.backends)) if backend is None else [backend]:
        client.backends[b] = Counting(client.backends[b], calls)
    return calls


@pytest.mark.parametrize("kind", ["lustre", "pvfs"])
def test_a_settled_mount_holds_every_chain_and_a_first_create_one_rpc(kind):
    dep = build_dufs_deployment(n_zk=3, n_backends=2, n_client_nodes=2,
                                backend=kind)
    dep.cluster.sim.run()

    def chains_are_dirs():
        for client in dep.clients:
            for be in client.backends:
                for d in chain(client):
                    st = yield from be.stat(d)
                    assert stat.S_ISDIR(st.st_mode), d

    dep.call(chains_are_dirs)
    calls = count_calls(dep.clients[0])
    dep.call(dep.clients[0].create, "/f")
    # The file, then the spare this first create started; no mkdir: the
    # mount made the chain.
    assert calls == ["create", "create"]


def test_the_paper_layout_makes_nothing_at_mount():
    """A ``"paper"`` chain changes with every file: there is no chain to
    make ahead of the creates. That holds as well for a client switched to
    it before the simulation runs, as the layout ablation does."""
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1)
    calls = count_calls(dep.clients[0])
    dep.clients[0].files.layout = "paper"
    late = DUFSClient(dep.client_nodes[0], dep.zk_clients[0],
                      [Counting(be.client(), calls) for be in dep.backends])
    late.files.layout = "paper"
    dep.cluster.sim.run()
    assert calls == []


def test_a_backend_the_mount_could_not_reach_gets_the_chain_at_first_create():
    dep = build_dufs_deployment(n_zk=1, n_backends=2, n_client_nodes=1)
    client = dep.clients[0]
    fid = make_fid(client.files.fidgen.client_id, 0)
    dead = client.files.mapping.backend_for(fid)
    client.files.mark_backend_down(dead)      # before the mount's process runs
    dep.cluster.sim.run()               # its mkdir fails; the shield absorbs it
    ns = dep.backends[dead].ns
    assert not any(ns.exists(d) for d in chain(client))
    assert all(dep.backends[1 - dead].ns.exists(d) for d in chain(client))

    client.files.mark_backend_up(dead)
    calls = count_calls(client, dead)
    dep.call(client.create, "/f")
    dep.cluster.sim.run()
    # The spare the create started (counter 1) joins the create's mkdirs
    # when it maps to the same back-end instead of sending them again.
    spare = make_fid(client.files.fidgen.client_id, 1)
    beside = client.files.mapping.backend_for(spare) == dead
    assert calls.count("mkdir") == 3
    assert calls.count("create") == 1 + beside
    assert ns.exists(physical_path(fid, client.files.layout))


@pytest.mark.parametrize("kind", ["lustre", "pvfs"])
def test_a_create_racing_the_mount_waits_for_its_mkdirs(kind):
    """Not settled: the first create waits for the mount's chain instead
    of sending the same three mkdirs beside it, so the back-end serves
    three. PVFS has no in-flight mkdir to join: a second mkdir there
    would be a lookup, a mkdir, a failed crdirent and a remove_obj."""
    bus = TraceBus()
    dep = build_dufs_deployment(n_zk=1, n_backends=1, n_client_nodes=1,
                                backend=kind, bus=bus)
    client = dep.clients[0]
    calls = count_calls(client)         # the mount's calls included
    dep.call(client.create, "/f")
    dep.cluster.sim.run()
    # The file and the spare the create started both wait for the chain.
    assert calls == ["mkdir"] * 3 + ["create"] * 2
    assert ops_at(bus, f"{kind}/", "mkdir") == 3
    assert ops_at(bus, f"{kind}/", "remove_obj") == 0

    def chain_is_there():
        for d in chain(client):
            st = yield from client.backends[0].stat(d)
            assert stat.S_ISDIR(st.st_mode), d

    dep.call(chain_is_there)

