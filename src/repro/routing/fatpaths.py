"""FatPaths-style layered multipath routing (Besta et al., arXiv:1906.10885).

FatPaths splits the fabric into *layers*: layer 0 is the full graph,
and every further layer removes a small, distinct subset of the
switch-to-switch cables, so its shortest paths are forced onto
different — largely edge-disjoint — routes.  Traffic is then sprayed
across layers, realising multipath on commodity destination-routed
hardware.

On InfiniBand the natural layer carrier is the LMC: with ``lmc = 2``
every terminal owns four LIDs, and this engine routes LID index ``j``
through layer ``j`` (the same trick PARX uses for its rule masks).  The
subnet manager's virtual-lane layering then packs the per-layer trees
into lanes; the engine sets
:attr:`~repro.routing.base.RoutingEngine.vl_group_by_lid_index` so
destinations are laid out layer-by-layer and each layer's trees cluster
onto the same lanes.

Layer masks are a deterministic hash partition over *all* cables,
including currently-dead ones — so the masks never move when a cable
fails, and an incremental per-destination recompute after a fabric
event reproduces a full sweep bit for bit
(``supports_incremental_resweep``).  When a layer's mask (plus real
faults) disconnects a host switch from some destination, that
destination LID falls back to the unmasked graph and the fabric gets a
note — the same footnote-7 fallback PARX uses.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.parallel import TreeJob, TreeShard, route_tree_columns
from repro.ib.fabric import Fabric
from repro.routing.base import (
    RoutingEngine,
    destination_switches,
    make_tree_job,
)
from repro.routing.fthx import LinkProfile, _fthx_weight_spec
from repro.topology.network import Network

#: Hash buckets per mask-carrying layer: each layer past the first
#: masks ``1 / (_BUCKET_FACTOR * (num_layers - 1))`` of the cables
#: (disjoint across layers).  Sized so per-layer stretch — and with it
#: the virtual-lane bill — stays modest while the layers' path sets
#: still separate: on the 672-node t2hx, 6 leaves the four layers at
#: five combined lanes, comfortable headroom under the 8-VL QDR budget
#: for the extra detours real faults add.
_BUCKET_FACTOR = 6


def _cable_bucket(rep_id: int, buckets: int) -> int:
    """Deterministic bucket of one cable (splitmix64 of the rep id)."""
    h = (rep_id * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 31
    h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    h ^= h >> 29
    return h % buckets


def layer_masks(net: Network, num_layers: int) -> list[frozenset[int]]:
    """The per-layer masked-link sets.

    Layer 0 is always unmasked; layers ``1 .. num_layers - 1`` each mask
    a disjoint hashed subset of the switch cables.  Hashing runs over
    all cables *including disabled ones* so the partition is a pure
    function of the built topology, invariant under faults.
    """
    masks: list[frozenset[int]] = [frozenset()]
    if num_layers <= 1:
        return masks
    buckets = _BUCKET_FACTOR * (num_layers - 1)
    per_layer: list[set[int]] = [set() for _ in range(num_layers - 1)]
    for link in net.iter_links(enabled_only=False):
        if not (net.is_switch(link.src) and net.is_switch(link.dst)):
            continue
        b = _cable_bucket(min(link.id, link.reverse_id), buckets)
        if b < num_layers - 1:
            per_layer[b].add(link.id)
    masks.extend(frozenset(s) for s in per_layer)
    return masks


class FatPathsRouting(RoutingEngine):
    """Layered near-edge-disjoint shortest paths over the LMC LIDs."""

    name = "fatpaths"
    provides_deadlock_freedom = True  # via the SM's VL layering
    # Masks hash the built topology (fault-invariant) and weights hash
    # (link, LID): nothing couples destinations, so per-destination
    # recomputes reproduce a full sweep bit for bit.
    supports_incremental_resweep = True
    #: Four LIDs per terminal = four layers.  Works at any LMC — one
    #: layer per LID index — but the FatPaths sweet spot needs k > 1.
    sm_defaults = {"lmc": 2}
    #: Group destinations by LID index during VL layering, so each
    #: layer's trees pack onto the same lanes before the next layer's
    #: differently-shaped trees open new ones.
    vl_group_by_lid_index = True

    def tree_job(self, fabric: Fabric, dlids: list[int]) -> TreeJob:
        """One shard per layer: LID index ``j`` routes over layer ``j``'s
        masked view, with fthx's dimension-disciplined weights and the
        dimension-order rotation pinned per *layer* instead of per LID —
        each layer's trees share one correction order (lane-friendly)
        while different layers route differently even before the masks
        bite.  Masks and weights are rebuilt from the current topology
        on every (re-)sweep, so full and incremental sweeps agree."""
        net = fabric.net
        graph = net.switch_graph()
        masks = layer_masks(net, fabric.lidmap.lids_per_port)
        dsws = destination_switches(fabric, dlids)
        layers = np.asarray(
            [fabric.lidmap.index_of(d) % len(masks) for d in dlids],
            dtype=np.int64,
        )
        shards = [
            TreeShard(
                graph=graph.masked(masks[layer]),
                cols=np.flatnonzero(layers == layer),
            )
            for layer in np.unique(layers).tolist()
        ]
        spec = _fthx_weight_spec(LinkProfile(net), dsws, dlids, layers)
        return make_tree_job(fabric, dsws, spec, shards=shards, extra=layers)

    def tree_fallback(
        self,
        fabric: Fabric,
        job: TreeJob,
        dlids: Sequence[int],
        lo: int,
        plid: np.ndarray,
    ) -> None:
        """Layer-0 fallback for mask-disconnected destinations.

        A masked-layer column that misses a terminal-hosting switch
        (other than its root) is re-routed over the full graph with the
        same weights, and the fabric is noted, in LID order.
        """
        graph = fabric.net.switch_graph()
        host = graph.host_switches
        cols = np.arange(lo, lo + len(dlids))
        missing = (plid[host] < 0) & (host[:, None] != job.roots[cols])
        need = missing.any(axis=0) & (job.extra[cols] != 0)
        for j in np.flatnonzero(need).tolist():
            route_tree_columns(job, graph, cols[j : j + 1], plid, lo)
            fabric.notes.append(
                f"fatpaths: fallback to layer 0 for lid {dlids[j]} "
                f"(layer {job.extra[lo + j]} mask disconnects it)"
            )
