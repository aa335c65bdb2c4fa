"""The modified Dijkstra shared by the SSSP family and PARX.

Computes, for one destination switch, the out-link every other switch
uses toward it — a destination tree, which is what a linear forwarding
table stores per LID.

The metric is lexicographic ``(hop count, accumulated link weight)``:
hops dominate, so routes stay *minimal* (the paper's premise: "available
static routing for IB will only calculate routes along the minimal
paths", section 3.2.1), while the weight — incremented by the SSSP
family after every destination — balances traffic across equal-hop
alternatives.  PARX achieves its *non*-minimal paths not by weighting
but by masking links out of the graph before calling this function.
"""

from __future__ import annotations

from typing import Collection, Sequence

import numpy as np

from repro.routing.arrays import feedback_tree, level_plan
from repro.topology.network import Network


def tree_to_destination(
    net: Network,
    dest_switch: int,
    weights: Sequence[float],
    masked_links: Collection[int] = (),
) -> tuple[dict[int, int], dict[int, int]]:
    """Shortest-path destination tree over the switch graph.

    Parameters
    ----------
    net:
        The fabric; only enabled switch-to-switch links participate.
    dest_switch:
        Tree root (the switch owning the destination LID).
    weights:
        Per-link-id balancing weights (indexable by link id).
    masked_links:
        Link ids to treat as absent — PARX's rules R1-R4 virtually
        remove half-internal links this way.

    Returns
    -------
    (parent, hops):
        ``parent[switch]`` is the out-link id that switch forwards on;
        ``hops[switch]`` its hop distance.  Switches unreachable under
        the mask are absent from both (the caller decides whether that
        is a fault, a PARX fallback, or fine).

    Ties on ``(hops, weight-sum)`` break toward the link with the lower
    current weight, then the lower link id, making the tree independent
    of dict iteration order.  Both dicts are keyed in settlement order
    (the order a heap Dijkstra pops switches).

    A dict adapter over the array kernel
    (:func:`repro.routing.arrays.feedback_tree` on a one-off
    :func:`~repro.routing.arrays.level_plan`); the SSSP family's sweep
    (:func:`repro.routing.base.feedback_sweep`) runs the kernel directly
    on cached plans.
    """
    graph = net.switch_graph()
    root = int(graph.index[dest_switch])
    if root < 0:
        raise ValueError(f"tree root {dest_switch} is not a switch")
    plan = level_plan(graph.masked(masked_links), root, graph.host_switches)
    wts = np.asarray(weights, dtype=np.float64)
    levels = feedback_tree(plan, wts, np.empty(graph.num_switches))
    switches = graph.switches
    parent: dict[int, int] = {}
    hops = {dest_switch: 0}
    for h, (nodes, links) in enumerate(levels, start=1):
        for u, link_id in zip(nodes.tolist(), links.tolist()):
            parent[switches[u]] = link_id
            hops[switches[u]] = h
    return parent, hops
