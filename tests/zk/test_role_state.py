"""A ZooKeeper server's role state has one writer: ``zk/election.py``.

``Membership`` holds every role transition, so an assignment to the role
state below anywhere else in ``zk/`` — apart from the initial values in
``ZKServer.__init__`` — is a transition outside the role machine. So is
growing or clearing the leader's active follower sets. Parsed with
``ast``; nothing runs.
"""

import ast
import pathlib

import repro.zk

ZK = pathlib.Path(repro.zk.__file__).parent
ROLE_STATE = {"role", "leader_sid", "epoch", "promised_epoch", "activated",
              "active_followers", "active_observers", "_term", "_presync"}
ACTIVE_SETS = {"active_followers", "active_observers"}


def _writes(path):
    """``(attribute, function, line)`` for each write of role state."""
    found = []
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr in ACTIVE_SETS):
                targets = [node.func.value]     # .add(), .clear(), ...
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Attribute) \
                            and sub.attr in ROLE_STATE:
                        found.append((sub.attr, func.name, node.lineno))
    return found


def test_role_state_is_written_only_by_the_role_machine():
    stray = [(path.name, *write) for path in sorted(ZK.glob("*.py"))
             if path.name != "election.py"
             for write in _writes(path)
             if not (path.name == "server.py" and write[1] == "__init__")]
    assert stray == []


def test_the_role_machine_writes_all_of_it():
    assert {attr for attr, _, _ in _writes(ZK / "election.py")} == ROLE_STATE
