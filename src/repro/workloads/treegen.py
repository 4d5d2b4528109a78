"""Directory-tree scaffolding for the mdtest workload.

The paper runs mdtest with fan-out 10 and depth 5 (§V). A full 10^5-leaf
tree is needless event volume in simulation, so the default *simulated*
tree is fan-out 10 × depth 2 while keeping the property the paper calls
out: the tree is shared by all processes, so the number of files per
directory grows with the process count. The spec is a parameter of every
benchmark, so the full-size tree remains one flag away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class TreeSpec:
    fanout: int = 10
    depth: int = 2
    root: str = "/mdtest"

    @property
    def n_dirs(self) -> int:
        """Total scaffold directories (excluding the root itself)."""
        return sum(self.fanout ** d for d in range(1, self.depth + 1))


def tree_dirs(spec: TreeSpec) -> List[str]:
    """All scaffold directory paths in creation (BFS) order."""
    out = [spec.root]
    level = [spec.root]
    for _ in range(spec.depth):
        nxt = []
        for parent in level:
            for i in range(spec.fanout):
                nxt.append(f"{parent}/d.{i}")
        out.extend(nxt)
        level = nxt
    return out


def item_dir(spec: TreeSpec, all_dirs: List[str], proc: int, item: int) -> str:
    """Shared-tree placement: spread items over every scaffold dir."""
    usable = all_dirs[1:] if len(all_dirs) > 1 else all_dirs
    return usable[(proc * 7919 + item) % len(usable)]
