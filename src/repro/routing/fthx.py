"""Fault-tolerant HyperX routing (per-dimension detours, Camarero style).

The static-routing counterpart of the fault-tolerant HyperX schemes of
Camarero et al. (arXiv:2404.04315): when dimension cables die, traffic
toward an affected destination detours *within the broken dimension* —
one lateral hop to a healthy row neighbour, then the aligning hop — in
preference to wandering through already-aligned dimensions.  On an
InfiniBand fabric with destination-based forwarding that policy becomes
a per-destination shortest-path tree over the surviving links with a
dimension-aware edge metric:

* hops always dominate (the lexicographic metric of
  :func:`~repro.routing.dijkstra.tree_to_destination`), so routes stay
  minimal wherever minimal paths survive;
* among equal-hop alternatives, *aligning* moves (the hop lands on the
  destination's coordinate in that dimension) are cheapest, lateral
  in-dimension moves cost a little more, and moves that leave an
  already-aligned dimension cost the most — exactly the per-dimension
  detour preference;
* each destination tree corrects dimensions in one fixed order (a
  destination-specific DOR), with the order rotated per destination
  LID — mixing the order classes spreads load while keeping each
  class's channel-dependency graph acyclic;
* a deterministic per-(link, destination-LID) jitter spreads the
  remaining ties across destinations, approximating the load balance a
  global SSSP sweep buys with its serial +1 feedback — but without any
  cross-destination state.

That last point is the engine's contract: every tree is a pure function
of (topology, destination), so a per-destination recompute after a
fabric event reproduces a full sweep bit for bit
(``supports_incremental_resweep``) — unlike DFSSSP, whose feedback
forces a full re-sweep on every cable event.

On non-HyperX topologies the dimension classes vanish and the engine
degrades to jitter-balanced shortest paths (still valid, still
incremental), so it can serve as a topology-agnostic baseline too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import TopologyError
from repro.core.parallel import TreeJob
from repro.ib.fabric import Fabric
from repro.routing.base import (
    RoutingEngine,
    destination_switches,
    make_tree_job,
)
from repro.topology.hyperx import hyperx_shape_of
from repro.topology.network import Network

#: Extra weight of a lateral in-dimension move (the first hop of a
#: per-dimension detour) over the aligning move it postpones.
LATERAL_EXTRA = 0.25
#: Extra weight of a move that leaves an already-aligned dimension —
#: the detour shape the engine avoids hardest.
AWAY_EXTRA = 0.75
#: Base coefficient of the dimension-order preference.  Each hop is
#: surcharged per still-misaligned *other* dimension, with per-dimension
#: coefficients permuted by the destination LID — so every destination
#: tree corrects dimensions in one fixed order (DOR-like, which keeps
#: the channel-dependency graph lane-friendly), and the order rotates
#: across destinations for load balance.
ALIGN = 0.5
#: Scale of the deterministic per-(link, destination-LID) tie-break
#: jitter.  Kept well below ``ALIGN`` so jitter spreads residual ties
#: without flipping the dimension-order preference.
#:
#: Note the metric deliberately contains no fault-load term: weights
#: must not depend on which cables are currently dead, or the trees of
#: destinations *away* from a failure would shift when it happens and
#: the incremental re-sweep (which recomputes only destinations whose
#: tables referenced the dead cable) could no longer reproduce a full
#: sweep bit for bit.  Dead links influence routing solely by being
#: absent from the graph.
JITTER = 0.05

_M64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def link_dest_jitter_block(
    link_ids: np.ndarray, dlids: Sequence[int]
) -> np.ndarray:
    """Deterministic jitter in [0, 1) per (link id, destination LID), ``(E, K)``.

    A splitmix64-style mix of the two ids — stable across processes and
    re-sweeps (no :mod:`random` state), which the incremental-resweep
    bit-equality contract depends on.  The per-LID salt broadcasts
    across columns, so every cell is the one-LID mix's exact value
    (uint64 arithmetic wraps identically whether batched or not).
    """
    salts = np.asarray(dlids, dtype=np.uint64) * np.uint64(
        0xBF58476D1CE4E5B9
    )
    h = link_ids.astype(np.uint64)[:, None] * np.uint64(0x9E3779B97F4A7C15)
    h = (h + salts[None, :]) & _M64
    h ^= h >> np.uint64(31)
    h = (h * np.uint64(0x94D049BB133111EB)) & _M64
    h ^= h >> np.uint64(29)
    return (h & np.uint64(0xFFFFF)).astype(np.float64) / float(1 << 20)


def dimension_rotation(dlid: int, ndim: int) -> int:
    """The destination's dimension-correction order class (0..ndim-1).

    A splitmix-style hash of the LID, shared by the weight metric and
    the VL layering key so both see the same class.
    """
    return ((dlid * 0x9E3779B97F4A7C15) >> 32) % ndim


def weights_block_core(
    base: np.ndarray,
    sw_ids: np.ndarray,
    sw_dim: np.ndarray,
    sw_src_val: np.ndarray,
    sw_dst_val: np.ndarray,
    sw_src_coords: np.ndarray,
    ndim: int,
    cds: np.ndarray,
    dlids: np.ndarray,
    rotations: np.ndarray | None,
) -> np.ndarray:
    """The edge metric for K destinations at once, ``(num_links, K)``.

    Fed from a :class:`LinkProfile`'s arrays by the tree-job weight spec
    (``_weight_evaluator`` in :mod:`repro.core.parallel`), in pool
    workers and in-process alike — one function, one IEEE operation
    sequence, so every run produces bit-equal weight columns.  The
    align/detour surcharge and the jitter are elementwise, and the
    dimension-order surcharge keeps one ``misaligned @ coeff`` reduction
    per column, so a column never depends on the block around it.
    ``ndim == 0`` means no HyperX shape (``cds`` is ``(K, 0)`` and the
    dimension surcharges vanish); ``dlids`` entries pass through
    :func:`dimension_rotation` as exact Python ints (the hash relies on
    arbitrary-precision multiply, which ``np.int64`` would wrap).
    """
    k = len(dlids)
    w = np.repeat(base[:, None], k, axis=1)
    ids = sw_ids
    if ids.size == 0 or k == 0:
        return w
    if ndim:
        dest_vals = cds[:, sw_dim].T  # (E, K)
        w[ids] += np.where(
            sw_dst_val[:, None] == dest_vals,
            0.0,
            np.where(
                sw_src_val[:, None] == dest_vals,
                AWAY_EXTRA,
                LATERAL_EXTRA,
            ),
        )
        # Dimension-order preference: surcharge every hop per
        # still-misaligned other dimension, coefficients rotated by
        # the destination LID.  The cheapest equal-hop path corrects
        # the expensive dimensions first — a per-destination DOR.
        arange_e = np.arange(ids.size)
        for j in range(k):
            rot = (
                dimension_rotation(int(dlids[j]), ndim)
                if rotations is None
                else int(rotations[j]) % ndim
            )
            coeff = ALIGN * (1.0 + (np.arange(ndim) + rot) % ndim)
            misaligned = sw_src_coords != cds[j][np.newaxis, :]
            misaligned[arange_e, sw_dim] = False
            w[ids, j] += misaligned @ coeff
    w[ids] += JITTER * link_dest_jitter_block(ids, dlids)
    return w


class LinkProfile:
    """Per-sweep, topology-derived link data (no per-destination state).

    Computed once per (re-)sweep from the *current* topology, so a full
    sweep and an incremental recompute on the same fabric see identical
    weights.
    """

    def __init__(self, net: Network) -> None:
        try:
            self.shape: tuple[int, ...] | None = hyperx_shape_of(net)
        except TopologyError:
            self.shape = None

        n = len(net.links)
        base = np.ones(n, dtype=np.float64)
        sw_ids: list[int] = []
        sw_dim: list[int] = []
        sw_src_val: list[int] = []
        sw_dst_val: list[int] = []

        if self.shape is not None:
            sw_src_coords: list[tuple[int, ...]] = []
            for link in net.iter_links():
                if not (net.is_switch(link.src) and net.is_switch(link.dst)):
                    continue
                dim = self._link_dim(net, link)
                cs = net.node_meta(link.src)["coord"]
                sw_ids.append(link.id)
                sw_dim.append(dim)
                sw_src_val.append(cs[dim])
                sw_dst_val.append(net.node_meta(link.dst)["coord"][dim])
                sw_src_coords.append(tuple(cs))
            self.sw_src_coords = np.asarray(sw_src_coords, dtype=np.int64)
        else:
            for link in net.iter_links():
                if net.is_switch(link.src) and net.is_switch(link.dst):
                    sw_ids.append(link.id)
            self.sw_src_coords = np.zeros((len(sw_ids), 0), dtype=np.int64)

        self.base = base
        self.sw_ids = np.asarray(sw_ids, dtype=np.int64)
        self.sw_dim = np.asarray(sw_dim, dtype=np.int64)
        self.sw_src_val = np.asarray(sw_src_val, dtype=np.int64)
        self.sw_dst_val = np.asarray(sw_dst_val, dtype=np.int64)
        self._coord_of: dict[int, tuple[int, ...]] = {}
        if self.shape is not None:
            for sw in net.switches:
                self._coord_of[sw] = tuple(net.node_meta(sw)["coord"])

    @staticmethod
    def _link_dim(net: Network, link) -> int:
        cs = net.node_meta(link.src)["coord"]
        cd = net.node_meta(link.dst)["coord"]
        for i, (a, b) in enumerate(zip(cs, cd)):
            if a != b:
                return i
        raise TopologyError(
            f"switch link {link.id} connects co-located switches"
        )

    @property
    def ndim(self) -> int:
        """Lattice dimensions (0 on non-HyperX topologies)."""
        return 0 if self.shape is None else len(self.shape)

    def dest_coords(self, dest_switches: Sequence[int]) -> np.ndarray:
        """Destination lattice coordinates, ``(K, ndim)`` int64.

        ``(K, 0)`` on non-HyperX topologies — together with the profile
        arrays this is everything :func:`weights_block_core` needs, so a
        pool worker can evaluate the metric from shared memory alone.
        """
        if self.shape is None:
            return np.zeros((len(dest_switches), 0), dtype=np.int64)
        return np.asarray(
            [self._coord_of[sw] for sw in dest_switches], dtype=np.int64
        )


def _fthx_weight_spec(
    profile: LinkProfile,
    dest_switches: Sequence[int],
    dlids: Sequence[int],
    rotations: Sequence[int] | None = None,
) -> dict:
    """A tree-job weight spec evaluating this profile's metric.

    The spec's arrays feed :func:`weights_block_core` column by column
    (see ``_weight_evaluator`` in :mod:`repro.core.parallel`);
    ``rotations`` overrides each column's dimension-order class
    (FatPaths pins one class per layer), ``None`` derives it from the
    LID.
    """
    spec = {
        "kind": "fthx",
        "ndim": profile.ndim,
        "base": profile.base,
        "sw_ids": profile.sw_ids,
        "sw_dim": profile.sw_dim,
        "sw_src_val": profile.sw_src_val,
        "sw_dst_val": profile.sw_dst_val,
        "sw_src_coords": profile.sw_src_coords,
        "cds": profile.dest_coords(dest_switches),
        "dlids": np.asarray(dlids, dtype=np.int64),
    }
    if rotations is not None:
        spec["rotations"] = np.asarray(rotations, dtype=np.int64)
    return spec


class FtHyperxRouting(RoutingEngine):
    """Fault-tolerant dimension-aware shortest paths for HyperX."""

    name = "fthx"
    provides_deadlock_freedom = True  # via the SM's VL layering
    # Trees are pure functions of (topology, destination LID): the
    # dimension classes, fault pressure, and jitter all derive from the
    # current topology and the LID alone, never from other destinations.
    supports_incremental_resweep = True

    def vl_layering_key(self, fabric: Fabric, dlid: int) -> tuple:
        """Group destinations by dimension-order class for VL layering.

        Each class's trees share one dimension-correction order and are
        mutually deadlock-free (DOR); processing classes contiguously
        packs them into about one lane per class instead of scattering
        conflicting orders across every lane.
        """
        net = fabric.net
        try:
            sw = net.attached_switch(fabric.lidmap.node_of(dlid))
            coord = net.node_meta(sw).get("coord")
        except (KeyError, TypeError):
            coord = None
        if not coord:
            return (0, dlid)
        return (dimension_rotation(dlid, len(coord)), dlid)

    def tree_job(self, fabric: Fabric, dlids: list[int]) -> TreeJob:
        # Per-column weights, declared as the profile arrays plus each
        # column's (destination coordinates, LID).
        dsws = destination_switches(fabric, dlids)
        return make_tree_job(
            fabric, dsws, _fthx_weight_spec(LinkProfile(fabric.net), dsws, dlids)
        )
