"""Property-based tests for the znode store and replica convergence."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.zk.data import ZnodeStore
from repro.zk.errors import ZKError

# Small path alphabet so ops collide often (collisions exercise the
# interesting error paths).
names = st.sampled_from(["a", "b", "c"])
paths = st.lists(names, min_size=1, max_size=3).map(lambda cs: "/" + "/".join(cs))

ops = st.one_of(
    st.tuples(st.just("create"), paths, st.binary(max_size=8)),
    st.tuples(st.just("delete"), paths),
    st.tuples(st.just("set"), paths, st.binary(max_size=8)),
)


class ModelFS:
    """Oracle: dict-of-paths model of the namespace."""

    def __init__(self):
        self.nodes = {"/": b""}

    def parent(self, p):
        return p.rsplit("/", 1)[0] or "/"

    def children(self, p):
        return [q for q in self.nodes
                if q != "/" and self.parent(q) == p]

    def create(self, p, data):
        if p in self.nodes:
            raise KeyError("exists")
        if self.parent(p) not in self.nodes:
            raise KeyError("noparent")
        self.nodes[p] = data

    def delete(self, p):
        if p not in self.nodes or p == "/":
            raise KeyError("missing")
        if self.children(p):
            raise KeyError("children")
        del self.nodes[p]

    def set(self, p, data):
        if p not in self.nodes:
            raise KeyError("missing")
        self.nodes[p] = data


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(ops, max_size=40))
def test_store_matches_dict_model(op_list):
    store = ZnodeStore()
    model = ModelFS()
    zxid = 0
    for op in op_list:
        zxid += 1
        kind = op[0]
        store_err = model_err = None
        try:
            if kind == "create":
                store.check_create(op[1])
                store.apply_create(op[1], op[2], zxid, float(zxid))
            elif kind == "delete":
                store.check_delete(op[1])
                store.apply_delete(op[1], zxid)
            else:
                store.check_set_data(op[1])
                store.apply_set_data(op[1], op[2], zxid, float(zxid))
        except ZKError as e:
            store_err = type(e).__name__
        try:
            if kind == "create":
                model.create(op[1], op[2])
            elif kind == "delete":
                model.delete(op[1])
            else:
                model.set(op[1], op[2])
        except KeyError as e:
            model_err = str(e)
        assert (store_err is None) == (model_err is None), (op, store_err, model_err)
    # Final states agree.
    store_paths = set(store.walk_paths())
    assert store_paths == set(model.nodes)
    for p in model.nodes:
        if p != "/":
            assert store.get(p)[0] == model.nodes[p]


@settings(max_examples=60, deadline=None)
@given(st.lists(ops, min_size=1, max_size=30))
def test_txn_replay_is_deterministic(op_list):
    """Applying the same validated txn log to two replicas converges."""
    leader = ZnodeStore()
    log = []
    zxid = 0
    for op in op_list:
        zxid += 1
        try:
            if op[0] == "create":
                leader.check_create(op[1])
                txn = ("create", op[1], op[2], 0)
            elif op[0] == "delete":
                leader.check_delete(op[1])
                txn = ("delete", op[1])
            else:
                leader.check_set_data(op[1])
                txn = ("set", op[1], op[2])
        except ZKError:
            continue
        leader.apply(txn, zxid, float(zxid))
        log.append((zxid, txn))
    replica = ZnodeStore()
    for zxid, txn in log:
        replica.apply(txn, zxid, float(zxid))
    assert replica.fingerprint() == leader.fingerprint()
    assert replica.approx_memory_bytes == leader.approx_memory_bytes


@settings(max_examples=40, deadline=None)
@given(st.lists(ops, min_size=1, max_size=20))
def test_snapshot_restore_after_any_history(op_list):
    store = ZnodeStore()
    zxid = 0
    for op in op_list:
        zxid += 1
        try:
            if op[0] == "create":
                store.check_create(op[1])
                store.apply_create(op[1], op[2], zxid, float(zxid))
            elif op[0] == "delete":
                store.check_delete(op[1])
                store.apply_delete(op[1], zxid)
            else:
                store.check_set_data(op[1])
                store.apply_set_data(op[1], op[2], zxid, float(zxid))
        except ZKError:
            continue
    clone = ZnodeStore.from_snapshot(store.snapshot())
    assert clone.fingerprint() == store.fingerprint()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replicas_converge_under_concurrent_random_clients(seed):
    """End-to-end: random concurrent writers, all replicas identical after."""
    import random

    from .conftest import ZKHarness

    h = ZKHarness(n_servers=3, seed=seed)
    rng = random.Random(seed)
    clients = [h.client(prefer_index=i % 3) for i in range(4)]

    def worker(cli, rng_seed):
        r = random.Random(rng_seed)
        for _ in range(25):
            p = "/" + "/".join(r.choices("ab", k=r.randint(1, 2)))
            kind = r.choice(["create", "delete", "set"])
            try:
                if kind == "create":
                    yield from cli.create(p, b"d")
                elif kind == "delete":
                    yield from cli.delete(p)
                else:
                    yield from cli.set_data(p, bytes([r.randint(0, 255)]))
            except ZKError:
                pass

    h.run_all(*(worker(c, rng.randint(0, 10**9)) for c in clients))
    h.settle(0.5)
    assert h.ensemble.converged()


def _model_multi(model, multi):
    """Apply ``multi`` to the model all-or-nothing; True if it commits."""
    before = dict(model.nodes)
    try:
        for op in multi:
            getattr(model, op[0])(*op[1:])
    except KeyError:
        model.nodes = before
        return False
    return True


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.lists(ops | st.just(("delete", "/")), min_size=1,
                         max_size=4), min_size=1, max_size=8))
def test_leader_multi_matches_all_or_nothing_model(multis):
    """Random multis on a 3-server ensemble: the leader accepts exactly
    the multis the model accepts, its speculative tree stays the committed
    tree plus the log tail, and the replicas converge."""
    from .conftest import ZKHarness

    h = ZKHarness(n_servers=3)
    cli = h.client()
    leader = h.ensemble.servers[0]
    model = ModelFS()

    def send(multi):
        subs = [cli.op_create(op[1], op[2]) if op[0] == "create"
                else cli.op_delete(op[1]) if op[0] == "delete"
                else cli.op_set(op[1], op[2]) for op in multi]
        try:
            yield from cli.multi(subs)
        except ZKError:
            return False
        return True

    for multi in multis:
        assert h.run(send(multi)) == _model_multi(model, multi), multi
        rebuilt = ZnodeStore.from_snapshot(leader.store.snapshot())
        for zxid, txn in leader.log:
            if zxid > leader.commit_index:
                rebuilt.apply(txn, zxid, 0.0)
        assert leader.spec_store.fingerprint() == rebuilt.fingerprint()
        h.settle(0.05)
        assert h.ensemble.converged()
    assert set(leader.store.walk_paths()) == set(model.nodes)
