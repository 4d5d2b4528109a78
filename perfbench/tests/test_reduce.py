"""Span reducer and module->group map."""

import math
import os

import pytest

import repro
from perfbench.reduce import (HOST_GROUPS, SIM_COLUMNS, group_of,
                              host_groups, layer_self_times)


class S:
    def __init__(self, layer, start, end, parent=None, cpu_wait=0.0):
        self.layer, self.start, self.end = layer, start, end
        self.parent, self.cpu_wait = parent, cpu_wait


def test_self_time_subtracts_the_union_of_children_not_their_sum():
    root = S("fuse", 0.0, 10.0)
    a = S("core.client", 1.0, 6.0, root)
    b = S("core.client", 4.0, 9.0, root)        # overlaps a on [4, 6]
    seconds, _ = layer_self_times([root, a, b], [root])
    assert seconds["fuse"] == pytest.approx(10.0 - 8.0)   # union [1, 9]
    assert seconds["core.client"] == pytest.approx(5.0 + 5.0)


def test_nested_tree_sums_to_the_root_duration():
    root = S("fuse", 0.0, 10.0)
    client = S("core.client", 1.0, 9.0, root)
    zkc = S("zk.client", 2.0, 6.0, client)
    wire = S("sim.wire", 2.0, 6.0, zkc)
    server = S("zk.server", 3.0, 5.0, wire, cpu_wait=0.5)
    pfs = S("pfs", 6.0, 8.0, client)
    spans = [root, client, zkc, wire, server, pfs]
    seconds, rpcs = layer_self_times(spans, [root])
    assert sum(seconds.values()) == pytest.approx(10.0)
    assert seconds["zk.server.queue"] == pytest.approx(0.5)
    assert seconds["zk.server.service"] == pytest.approx(1.5)
    assert seconds["sim.wire"] == pytest.approx(2.0)
    assert rpcs == {"zk.client": 1}
    assert set(seconds) <= set(SIM_COLUMNS)


def test_a_child_outliving_its_parent_is_clipped():
    root = S("fuse", 0.0, 4.0)
    wire = S("sim.wire", 1.0, 3.0, root)          # caller timed out at 3
    server = S("zk.server", 2.0, math.inf, wire)  # never answered
    seconds, _ = layer_self_times([root, wire, server], [root])
    assert seconds["zk.server.service"] == pytest.approx(1.0)
    assert sum(seconds.values()) == pytest.approx(4.0)


def test_every_source_file_maps_to_a_named_group():
    root = os.path.dirname(repro.__file__)
    seen = set()
    for dirpath, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                group = group_of(rel.replace(os.sep, "/"))
                assert group in HOST_GROUPS and group != "python", rel
                seen.add(group)
    # No group is a catch-all nobody can land in, and none is empty.
    assert seen == set(HOST_GROUPS) - {"python"}
    assert group_of("sim/core.py") == "sim.core"
    assert group_of("zk/election.py") == "zk.server"
    assert group_of("hashing/md5.py") == "hashing"
    with pytest.raises(KeyError):
        group_of("newpkg/thing.py")


def test_host_rows_fold_into_groups():
    root = os.path.dirname(repro.__file__)
    rows = [(os.path.join(root, "sim", "core.py"), 10, 1.0),
            (os.path.join(root, "hashing", "md5.py"), 5, 0.5),
            ("/opt/bench/worker.py", 3, 0.25),
            ("~", 7, 0.125), ("/usr/lib/python3/heapq.py", 1, 0.125)]
    groups = host_groups(rows, root, "/opt/bench")
    assert groups["sim.core"] == {"calls": 10, "self_s": 1.0}
    assert groups["hashing"]["calls"] == 5
    assert groups["workloads"]["calls"] == 3
    assert groups["python"] == {"calls": 8, "self_s": 0.25}
    assert sum(g["calls"] for g in groups.values()) == 26
