"""``scripts/option_audit.py`` on synthetic source trees: what counts as
supplying a parameter, and what counts as setting a params field."""

import pathlib
import runpy
import textwrap

import pytest

AUDIT = runpy.run_path(str(pathlib.Path(__file__).resolve().parents[2]
                           / "scripts" / "option_audit.py"))


def write(root, rel, source):
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


@pytest.fixture
def tree(tmp_path):
    write(tmp_path, "src/repro/lib.py", """
        def plain(a, b=1, c=2): ...
        def left(x=0): ...
        def right(y=0): ...
        def in_table(z=0): ...
        def tested_only(t=0): ...

        class Client:
            def __init__(self, p=1): ...
            def _commit_sync(self, v=1): ...
            def _commit_async(self, v=1): ...
            def bind(self, on):
                self._commit, self._drain = \\
                    self._commit_sync, self._commit_async
                self._commit(v=2)
    """)
    write(tmp_path, "scripts/use.py", """
        from repro.lib import *

        TABLE = {"k": in_table}
        plain(0, c=3)
        pick = left if flag else right
        pick(5)
        TABLE["k"](z=1)
        Client(p=2)
    """)
    write(tmp_path, "tests/test_lib.py", """
        tested_only(t=1)
        Client()._commit_async(v=3)
    """)
    return tmp_path


def test_unsupplied_sees_through_aliases(tree):
    hits = [line.split("  ")[1] for line in AUDIT["unsupplied"](tree)]
    # A test call is no supplier; each alias form supplies every name it
    # binds: the conditional's two arms, the dict's value, the tuple
    # bind's first element only (the second is never called).
    assert sorted(hits) == ["Client._commit_async(v=)", "plain(b=)",
                            "tested_only(t=)"]


def test_unset_fields_counts_keyword_attribute_and_dict_key_setters(tree):
    write(tree, "src/repro/models/params.py", """
        from dataclasses import dataclass, field
        from typing import ClassVar

        @dataclass
        class AParams:
            by_keyword: int = 1
            by_attribute: float = 0.5
            by_dict_key: bool = False
            stats_key: int = 0
            tested_only: int = 0
            shared: int = 0
            never: float = 1e-6
            calibrated: ClassVar[float] = 2e-6

        @dataclass
        class BParams:
            shared: int = 0
            also_never: int = 3
            sub: AParams = field(default_factory=AParams)
    """)
    write(tree, "scripts/set_params.py", """
        p = AParams(by_keyword=2)
        p.by_attribute = 1.0
        preset = AParams(**{"by_dict_key": True})
        stats = {"stats_key": 0}
        BParams(shared=3)
    """)
    write(tree, "tests/test_params.py", """
        AParams(tested_only=1)
    """)
    unset = [line.split("  ")[1] for line in AUDIT["unset_fields"](tree)]
    # ``shared`` set on one class counts for both; a ClassVar is no field
    # and a sub-params field is mutated in place, so neither is listed. A
    # dict key sets a field only when the dict is spread into a call, and
    # a test is no setter.
    assert unset == ["AParams.stats_key", "AParams.tested_only",
                     "AParams.never", "BParams.also_never"]


def test_unset_fields_skips_only_a_discarded_init_var(tree):
    write(tree, "src/repro/models/params.py", """
        from dataclasses import InitVar, dataclass

        @dataclass
        class Shim:
            dropped: InitVar[bool] = False
            nobody: int = 0

        @dataclass
        class Consumer:
            kept: InitVar[bool] = False

            def __post_init__(self, kept):
                self.flag = kept
    """)
    unset = [line.split("  ")[1] for line in AUDIT["unset_fields"](tree)]
    # The constructor throws ``dropped`` away, so nobody can choose it;
    # a plain field nobody sets, and an InitVar ``__post_init__`` reads,
    # are still choices.
    assert unset == ["Shim.nobody", "Consumer.kept"]


def test_single_valued_fields_lists_a_field_set_only_to_its_default(tree):
    write(tree, "src/repro/models/params.py", """
        from dataclasses import dataclass
        from typing import ClassVar

        @dataclass
        class AParams:
            only_default: int = 5
            spread_default: float = 0.1
            other_literal: int = 2
            other_name: int = 8
            assigned_other: bool = False
            tested_other: float = 1.0
            never: int = 0
            constant: ClassVar[int] = 3
    """)
    write(tree, "scripts/set_params.py", """
        AParams(only_default=5, other_literal=2, other_name=2,
                tested_other=1.0, constant=3)
        AParams(**{"spread_default": 0.1, "assigned_other": False})
        AParams(other_literal=3, other_name=BUDGET)
        p.assigned_other = flag
    """)
    write(tree, "tests/test_params.py", """
        AParams(only_default=6, tested_other=2.0)
    """)
    single = [line.split("  ")[1]
              for line in AUDIT["single_valued_fields"](tree)]
    # A different literal, a name or an assignment from a name is another
    # value; a test is no setter, a field nobody sets is ``unset_fields``'s
    # and a ClassVar is no field.
    assert single == ["AParams.only_default", "AParams.spread_default",
                      "AParams.tested_other"]


def test_unread_counters_judges_each_key_of_each_class(tree, monkeypatch):
    write(tree, "src/repro/counters.py", """
        class Server:
            def __init__(self):
                self.stats = {"by_name": 0, "in_loop": 0, "tested": 0,
                              "shared": 0}

            def serve(self):
                self.stats["tested"] += 1
                if self.stats["tested"] > 9:     # its own bookkeeping
                    self.stats["shared"] += 1

        class Router:
            def __init__(self):
                self.stats = {"shared": 0, "hops": 0}

        class Dumped:
            def __init__(self):
                self.stats = {"shared": 0, "dumped": 0}
    """)
    write(tree, "scripts/report.py", """
        def report(server, router, dumped):
            print(server.stats["by_name"], server.stats.get("nope", 0))
            for key in ("in_loop",):
                print(server.stats[key])
            hops = {"shared": 0, "hops": 0}
            for key in hops:
                hops[key] += router.stats[key]
            print(dumped.stats["shared"])      # three classes fit: none
            return dict(dumped.stats)
    """)
    write(tree, "tests/test_counters.py", """
        assert server.stats["tested"] == 1
    """)
    assert AUDIT["unread_counters"](tree) == [
        "src/repro/counters.py:4  Server.stats['tested']",
        "src/repro/counters.py:4  Server.stats['shared']",
        "src/repro/counters.py:18  Dumped.stats['shared']",
        "src/repro/counters.py:18  Dumped.stats['dumped']"]
    # A whole-dict dump counts for the class the table names for its
    # file, as does a keyed read that fits two or more classes.
    monkeypatch.setitem(AUDIT["UNPINNED"], "Dumped", ("scripts/report.py",))
    assert AUDIT["unread_counters"](tree) == [
        "src/repro/counters.py:4  Server.stats['tested']",
        "src/repro/counters.py:4  Server.stats['shared']"]
    assert AUDIT["stats_assignments"](tree) == [
        "src/repro/counters.py:4  Server.stats",
        "src/repro/counters.py:14  Router.stats",
        "src/repro/counters.py:18  Dumped.stats"]
