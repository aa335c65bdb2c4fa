"""PARX: Pattern-Aware Routing for 2-D HyperX topologies (paper §3.2.3).

The paper's contribution.  PARX provides *both* minimal and non-minimal
static paths between every node pair on a statically routed InfiniBand
2-D HyperX, plus communication-demand-aware path balancing:

1. Every HCA gets four LIDs (LMC = 2).  While routing toward a node's
   ``LIDx``, the engine *virtually removes* the links internal to one
   half of the lattice (rules R1-R4 below), so some LIDs are reached
   minimally and others via forced detours — Figure 3 of the paper.
2. The MPI layer then picks the LID per message with Table 1: small
   messages select a LID whose routing preserved a minimal path, large
   messages select one whose routing forced the detour
   (:data:`SMALL_LID_CHOICE` / :data:`LARGE_LID_CHOICE`, consumed by
   :mod:`repro.mpi.pml`).
3. Path calculation is DFSSSP's modified Dijkstra, but edge updates use
   the ingested communication profile: a source with normalised demand
   ``w`` (0..255) toward the destination adds ``+w`` instead of ``+1``,
   separating high-traffic paths as much as possible (Algorithm 1).
4. Deadlock freedom comes from the subnet manager's virtual-lane
   layering over all four LID trees per node (the paper needed 5-8 VLs).

Rules (section 3.2.1) — the half whose *internal* links are removed
while routing toward LIDx:

=====  ==============  =================================
LIDx   rule            half removed (quadrants)
=====  ==============  =================================
LID0   R1              left   (Q0, Q1)
LID1   R2              right  (Q2, Q3)
LID2   R3              top    (Q0, Q3)
LID3   R4              bottom (Q1, Q2)
=====  ==============  =================================

Quadrant orientation (derived in
:func:`repro.topology.hyperx.hyperx_quadrant`): Q0 = top-left,
Q1 = bottom-left, Q2 = bottom-right, Q3 = top-right.

Fault tolerance is limited exactly as the paper's footnote 7 warns:
when masking plus real faults isolates a switch, the engine falls back
to the unmasked graph for that destination LID and records a note on
the fabric.  A switch the unmasked graph cannot reach either is a
partitioned plane: the engine refuses it with DFSSSP's
:class:`~repro.core.errors.UnreachableError`.
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from repro.core.errors import ConfigurationError
from repro.ib.fabric import Fabric
from repro.routing.base import (
    FeedbackTree,
    RoutingEngine,
    feedback_sweep,
    terminal_sources,
)
from repro.topology.hyperx import hyperx_shape_of
from repro.topology.network import Network

#: Rule R1-R4 half removed when routing toward each LID index.
HALF_REMOVED_BY_LID: dict[int, str] = {
    0: "left",
    1: "right",
    2: "top",
    3: "bottom",
}

#: Table 1a — valid LID indices for *small* messages, keyed by
#: (source quadrant, destination quadrant).
SMALL_LID_CHOICE: dict[tuple[int, int], tuple[int, ...]] = {
    (0, 0): (1, 3), (0, 1): (1,),   (0, 2): (0, 2), (0, 3): (3,),
    (1, 0): (1,),   (1, 1): (1, 2), (1, 2): (2,),   (1, 3): (0, 3),
    (2, 0): (1, 3), (2, 1): (2,),   (2, 2): (0, 2), (2, 3): (0,),
    (3, 0): (3,),   (3, 1): (1, 2), (3, 2): (0,),   (3, 3): (0, 3),
}

#: Table 1b — valid LID indices for *large* messages.
LARGE_LID_CHOICE: dict[tuple[int, int], tuple[int, ...]] = {
    (0, 0): (0, 2), (0, 1): (0,),   (0, 2): (0, 2), (0, 3): (2,),
    (1, 0): (0,),   (1, 1): (0, 3), (1, 2): (3,),   (1, 3): (0, 3),
    (2, 0): (1, 3), (2, 1): (3,),   (2, 2): (1, 3), (2, 3): (1,),
    (3, 0): (2,),   (3, 1): (1, 2), (3, 2): (1,),   (3, 3): (1, 2),
}


class ParxRouting(RoutingEngine):
    """Pattern-aware minimal + non-minimal routing (Algorithm 1).

    Parameters
    ----------
    demands:
        The ingested communication profile: ``demands[src][dst]`` is the
        normalised (0..255) traffic demand between two terminals, as
        produced by :class:`repro.mpi.profiler.CommunicationProfiler`.
        ``None`` or empty degrades gracefully to DFSSSP-style +1 updates
        (still with the LID masking — the multipath structure does not
        depend on the profile).
    """

    name = "parx"
    provides_deadlock_freedom = True
    #: The paper's deployment tuple: four LIDs per HCA, quadrant-encoded
    #: base LIDs.  Consumed by :meth:`repro.ib.subnet_manager.OpenSM.run`
    #: when the caller did not set lmc/lid_policy explicitly.
    sm_defaults = {"lmc": 2, "lid_policy": "quadrant"}

    def __init__(
        self, demands: Mapping[int, Mapping[int, int]] | None = None
    ) -> None:
        self.demands: dict[int, dict[int, int]] = {
            src: dict(row) for src, row in (demands or {}).items()
        }
        for src, row in self.demands.items():
            for dst, w in row.items():
                if not 0 <= w <= 255:
                    raise ConfigurationError(
                        f"demand {src}->{dst} = {w} outside the normalised "
                        "range 0..255"
                    )

    def check_topology(self, net: Network) -> None:
        """PARX runs on 2-D HyperX lattices with even dimensions only.

        Called by the subnet manager before LID assignment so a bad
        lattice fails with this engine-specific diagnostic instead of
        the quadrant LID policy's.
        """
        shape = hyperx_shape_of(net)
        if len(shape) != 2 or any(s % 2 for s in shape):
            raise ConfigurationError(
                f"PARX is defined for 2-D HyperX with even dimensions, "
                f"got shape {shape}"
            )

    def lids_routed(self, fabric: Fabric, shape: tuple[int, ...]) -> int:
        """How many LIDs per port to route; refuses too few."""
        if fabric.lidmap.lids_per_port != 4:
            raise ConfigurationError(
                "PARX needs LMC=2 (four LIDs per port); the subnet manager "
                f"assigned {fabric.lidmap.lids_per_port}"
            )
        return 4

    def fallback_note(self, nd: int, i: int) -> str:
        """The fabric note recording a footnote-7 fallback."""
        return (
            f"parx: fallback to unmasked paths for node {nd} "
            f"lid index {i} (rule {HALF_REMOVED_BY_LID[i]!r})"
        )

    def compute(self, fabric: Fabric) -> None:
        feedback_sweep(fabric, self.feedback_trees(fabric))

    def feedback_trees(self, fabric: Fabric) -> Iterator[FeedbackTree]:
        """Every LID of every node, profiled destinations first.

        LID index ``i`` routes with rule ``i``'s half masked (indices
        past the rules route unmasked), falling back to the unmasked
        graph (footnote 7).  Edge updates (Algorithm 1) are demand
        weighted for profiled destinations, +1 per path otherwise.
        """
        net = fabric.net
        self.check_topology(net)
        shape = hyperx_shape_of(net)
        n_lids = self.lids_routed(fabric, shape)
        graph = net.switch_graph()
        views = [graph.masked(m) for m in half_masks(net, shape)]
        views += [graph] * (n_lids - len(views))
        # Demand toward each destination node, aggregated per source.
        demand_to: dict[int, dict[int, int]] = {}
        for src, row in self.demands.items():
            for dst, w in row.items():
                if w > 0:
                    demand_to.setdefault(dst, {})[src] = w
        terminal_set = set(net.terminals)
        optimized = sorted(d for d in self.demands if d in terminal_set)
        optimized_set = set(optimized)
        remaining = [t for t in net.terminals if t not in optimized_set]
        for nd in optimized + remaining:
            root = int(graph.index[net.attached_switch(nd)])
            if nd in optimized_set:
                sources = np.zeros(graph.num_switches)
                for src, w in demand_to.get(nd, {}).items():
                    if src != nd:
                        sources[graph.index[net.attached_switch(src)]] += float(w)
            else:
                sources = terminal_sources(graph, root)
            for i in range(n_lids):
                yield (fabric.lidmap.lid(nd, i), root, views[i], graph,
                       self.fallback_note(nd, i), sources)


def lid_choices(
    src_quadrant: int, dst_quadrant: int, large: bool
) -> tuple[int, ...]:
    """Valid destination LID indices per Table 1.

    ``large`` selects Table 1b (non-minimal detour paths); small
    messages (Table 1a) keep minimal paths.  Where two choices exist the
    caller picks randomly, as the paper's modified bfo PML does.
    """
    table = LARGE_LID_CHOICE if large else SMALL_LID_CHOICE
    return table[(src_quadrant, dst_quadrant)]


def half_masks(net: Network, shape: tuple[int, ...]) -> list[frozenset[int]]:
    """The link masks of the ``2N`` rules of an N-D lattice.

    Rule ``2d + h`` masks the directed switch-switch links with *both*
    endpoints in half ``h`` (0 lower, 1 upper) of dimension ``d`` — for
    N = 2 exactly rules R1-R4 (left, right, top, bottom).
    """
    graph = net.switch_graph()
    coords = np.array([net.node_meta(sw)["coord"] for sw in graph.switches])
    upper = coords >= np.asarray(shape) // 2
    src = graph.index[graph.link_src_node]
    dst = graph.link_dst_index
    sw_sw = np.flatnonzero((src >= 0) & (dst >= 0))
    masks = []
    for rule in range(2 * len(shape)):
        in_half = upper[:, rule // 2] == bool(rule % 2)
        inside = in_half[src[sw_sw]] & in_half[dst[sw_sw]]
        masks.append(frozenset(sw_sw[inside].tolist()))
    return masks
