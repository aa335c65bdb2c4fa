"""SSSP routing (Hoefler, Schneider & Lumsdaine, HOTI '09).

Processes destinations one at a time; after installing each destination
tree it adds +1 to the weight of every link for every source path using
that link.  Later destinations therefore avoid already-loaded links —
a *global* balancing that is oblivious to the actual workload (the
contrast PARX draws in section 3.2.3).

The paper uses SSSP (with clustered placement) as the second Fat-Tree
configuration: on a faulty tree it "theoretically yields increased
throughput" over ftree.  Plain SSSP performs no virtual-lane layering —
the paper's initial HyperX tests with it hit deadlocks, which is why
DFSSSP exists.
"""

from __future__ import annotations

from typing import Iterator

from repro.ib.fabric import Fabric
from repro.routing.base import (
    FeedbackTree,
    RoutingEngine,
    feedback_sweep,
    terminal_sources,
)


class SsspRouting(RoutingEngine):
    """Globally balanced shortest-path routing, no deadlock guarantee."""

    name = "sssp"
    provides_deadlock_freedom = False

    def compute(self, fabric: Fabric) -> None:
        feedback_sweep(fabric, self.feedback_trees(fabric))

    def feedback_trees(self, fabric: Fabric) -> Iterator[FeedbackTree]:
        """Every terminal LID in order, unmasked, "+1 per path"."""
        net = fabric.net
        graph = net.switch_graph()
        for dlid in fabric.lidmap.terminal_lids(net):
            root = int(graph.index[net.attached_switch(fabric.lidmap.node_of(dlid))])
            yield dlid, root, graph, None, "", terminal_sources(graph, root)
