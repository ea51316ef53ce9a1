"""Per-block measurement endpoints.

Every monitor-to-monitor path crosses a given block through two fixed
nodes: the monitor itself when it lies inside the block, otherwise
the unique cut vertex through which the block is reached from that
monitor. We call these two nodes the block's agents. All analysis of
a block only ever sees path segments between its agents, so they act
as stand-in monitors for the block (with one caveat around a direct
agent-to-agent link, handled by the classifier).

The block-cut tree already determines every agent, so no graph search
finds them. Rooted where its DFS started, the tree hangs each block
from its head. A block off the monitor's walk up to the root is
entered from the monitor through its head; a block on that walk is
entered through the node the walk comes up from. So one walk per
monitor, O(depth), overwrites the heads along it. Witness paths from
the monitors to the agents take one BFS per monitor, run on first
read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .decomposition import biconnected_components
from .errors import UnknownBlock


class _Searches:
    """BFS prev maps from the monitors of one locate_agents call,
    each run on first need and shared by every block of the call."""

    def __init__(self, g):
        self.g = g
        self.prev = {}

    def path(self, m, v):
        """Shortest node path from monitor m to v, found in neighbour
        order; (m,) when v is m, without a search."""
        if v == m:
            return _witness({m: None}, v)
        if m not in self.prev:
            self.prev[m] = _bfs_prev(self.g, m)
        return _witness(self.prev[m], v)


@dataclass(frozen=True, init=False)
class AgentAssignment:
    """The two agents of one block.

    agents[i] is where paths from monitors[i] enter the block;
    connecting_paths[i] is a shortest node path from monitors[i] to
    its agent as a witness (a single-node tuple when the monitor is
    in the block itself). The paths are computed on first access,
    from at most one BFS per monitor that every block of one
    locate_agents call shares; callers that read only the agents pay
    nothing for them. The two agents coincide exactly when both
    monitors reach the block through the same cut vertex.
    """

    block: int
    monitors: tuple
    agents: tuple
    searches: _Searches = field(compare=False, repr=False)

    def __init__(self, block, monitors, agents, searches):
        # one update in place of the generated frozen __init__'s four
        # object.__setattr__ calls: locate_agents makes one of these
        # per block on every call, and this takes a third less time
        self.__dict__.update(block=block, monitors=monitors,
                             agents=agents, searches=searches)

    @cached_property
    def connecting_paths(self):
        return tuple(self.searches.path(m, a)
                     for m, a in zip(self.monitors, self.agents))


def _bfs_prev(g, m):
    """BFS prev map of the whole graph from m, in neighbour order."""
    prev = {m: None}
    queue = deque([m])
    while queue:
        v = queue.popleft()
        for w, _ in g.neighbors(v):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    return prev


def _witness(prev, v):
    """Node path from the BFS root to v along prev."""
    path = []
    while v is not None:
        path.append(v)
        v = prev[v]
    return tuple(reversed(path))


def _entries(bct, m):
    """Agent of monitor m for every block, as a list by block id: the
    blocks' heads, overwritten along m's walk up the tree."""
    agents = list(bct.head)
    while m in bct.up:
        b = bct.up[m]
        agents[b] = m
        m = bct.head[b]
    return agents


def locate_agents(g, bct=None):
    """Agents of every block for the graph's two monitors.

    Returns a dict mapping block id to its AgentAssignment. The agents
    are read off the block-cut tree with no graph search: one walk
    from each monitor up the tree, O(blocks + depth). A block's
    witness paths are found only when read, by one BFS per monitor
    for the whole call. Raises UnknownBlock when bct was built from a
    graph with other nodes or links.
    """
    m1, m2 = g.require_monitors()
    if bct is None:
        bct = biconnected_components(g)
    elif (bct.nodes, bct.links) != (g.nodes, g.links):
        raise UnknownBlock("block-cut tree was built from another graph")
    monitors = (m1, m2)
    searches = _Searches(g)
    return {bid: AgentAssignment(bid, monitors, pair, searches)
            for bid, pair in enumerate(zip(_entries(bct, m1),
                                           _entries(bct, m2)))}
