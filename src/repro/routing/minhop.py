"""MinHop routing: plain shortest paths, no balancing.

The simplest deterministic engine — routes every destination along a
minimal-hop tree with fixed unit weights, so equal-hop choices fall to
the deterministic tie-break rather than to load.  It exists as the
unbalanced baseline the SSSP family improves on, and (because it runs
fast) as the default engine in unit tests.

Like OpenSM's ``minhop``, it does not attempt deadlock freedom by
itself; the subnet manager's virtual-lane layering supplies it.
"""

from __future__ import annotations

from repro.core.parallel import TreeJob
from repro.ib.fabric import Fabric
from repro.routing.base import (
    RoutingEngine,
    destination_switches,
    make_tree_job,
)


class MinHopRouting(RoutingEngine):
    """Unit-weight shortest-path destination trees."""

    name = "minhop"
    provides_deadlock_freedom = True  # via the SM's VL layering
    # Unit weights and no inter-destination feedback: each tree depends
    # only on the topology, so a per-destination recompute reproduces a
    # full sweep bit for bit.
    supports_incremental_resweep = True

    def tree_job(self, fabric: Fabric, dlids: list[int]) -> TreeJob:
        # Unit weights are shared by every column.
        return make_tree_job(
            fabric,
            destination_switches(fabric, dlids),
            {"kind": "unit", "num_links": len(fabric.net.links)},
        )
