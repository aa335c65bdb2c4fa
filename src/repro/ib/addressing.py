"""LID assignment: base LIDs, the LMC mask, and quadrant encoding.

InfiniBand addresses endpoints by 16-bit local identifiers (LIDs).  The
LID mask control (LMC) gives every port ``2**lmc`` consecutive LIDs —
``LID0`` (the base) through ``LID(2**lmc - 1)`` — and the subnet manager
routes each LID as if it were a distinct physical endpoint.  PARX sets
``lmc = 2`` (four LIDs per HCA) and encodes the HyperX quadrant of the
attached switch into the base LID so both the routing engine and the
MPI layer can recover the quadrant as ``q = lid // 1000`` (paper
footnotes 5 and 9):

* terminals in quadrant ``q``: base LIDs ``q*1000 + 1, q*1000 + 1 + 2**lmc, ...``
* switches in quadrant ``q``: LIDs ``10000 + q*1000 + index``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import TopologyError
from repro.topology.hyperx import hyperx_quadrant, hyperx_shape_of
from repro.topology.network import Network

#: LID offset that separates switch LIDs from terminal LIDs in the
#: quadrant policy (paper appendix: "see above but add 10000").
SWITCH_LID_OFFSET = 10_000


@dataclass
class LidMap:
    """Bidirectional LID <-> (node, index) mapping for one fabric.

    Attributes
    ----------
    lmc:
        LID mask control; each terminal owns ``2**lmc`` LIDs.
    base:
        node id -> base LID (terminals and switches).
    owner:
        LID -> (node id, lid index).
    """

    lmc: int
    base: dict[int, int] = field(default_factory=dict)
    owner: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def lids_per_port(self) -> int:
        return 1 << self.lmc

    def lid(self, node: int, index: int = 0) -> int:
        """The ``index``-th LID of a node (index 0 is the base LID)."""
        if not 0 <= index < self.lids_per_port:
            raise TopologyError(
                f"lid index {index} out of range for lmc={self.lmc}"
            )
        return self.base[node] + index

    def lids_of(self, node: int) -> list[int]:
        """All LIDs of a terminal, ascending from the base LID."""
        b = self.base[node]
        return list(range(b, b + self.lids_per_port))

    def node_of(self, lid: int) -> int:
        return self.owner[lid][0]

    def index_of(self, lid: int) -> int:
        return self.owner[lid][1]

    def terminal_lids(self, net: Network) -> list[int]:
        """Every routable terminal LID, ascending."""
        out: list[int] = []
        for t in net.terminals:
            out.extend(self.lids_of(t))
        return sorted(out)


def assign_lids_sequential(net: Network, lmc: int = 0) -> LidMap:
    """Plain OpenSM-style assignment: terminals first, then switches.

    Base LIDs start at 1 (LID 0 is reserved in InfiniBand) and are
    aligned to the LMC block size, as real subnet managers do.
    """
    if lmc < 0 or lmc > 7:
        raise TopologyError(f"lmc must be in [0, 7], got {lmc}")
    lm = LidMap(lmc=lmc)
    step = 1 << lmc
    nxt = step  # first aligned block at `step`; keeps LID 0 unused
    for t in net.terminals:
        lm.base[t] = nxt
        for i in range(step):
            lm.owner[nxt + i] = (t, i)
        nxt += step
    for sw in net.switches:
        lm.base[sw] = nxt
        lm.owner[nxt] = (sw, 0)
        nxt += 1
    return lm


def assign_lids_quadrant(net: Network, lmc: int = 2) -> LidMap:
    """The paper's quadrant LID policy for 2-D HyperX fabrics.

    Requires every switch to carry a 2-D ``coord`` (i.e. the network came
    from :func:`repro.topology.hyperx.hyperx`) with even dimensions.
    LID blocks per quadrant start at ``q*1000 + 1``.
    """
    if lmc < 0 or lmc > 7:
        raise TopologyError(f"lmc must be in [0, 7], got {lmc}")
    shape = hyperx_shape_of(net)
    lm = LidMap(lmc=lmc)
    step = 1 << lmc
    next_terminal = {q: q * 1000 + step for q in range(4)}
    next_switch = {q: SWITCH_LID_OFFSET + q * 1000 for q in range(4)}

    for t in net.terminals:
        sw = net.attached_switch(t)
        q = hyperx_quadrant(net.node_meta(sw)["coord"], shape)
        base = next_terminal[q]
        if base + step > (q + 1) * 1000:
            raise TopologyError(
                f"quadrant {q} LID block overflow; fabric too large for the "
                "paper's 1000-LIDs-per-quadrant policy"
            )
        lm.base[t] = base
        for i in range(step):
            lm.owner[base + i] = (t, i)
        next_terminal[q] = base + step

    for sw in net.switches:
        q = hyperx_quadrant(net.node_meta(sw)["coord"], shape)
        lid = next_switch[q]
        lm.base[sw] = lid
        lm.owner[lid] = (sw, 0)
        next_switch[q] = lid + 1
    return lm


def quadrant_of_lid(lid: int | np.ndarray) -> int | np.ndarray:
    """Recover the HyperX quadrant from a quadrant-policy LID.

    Implements the paper's ``q := floor(LID / 1000)`` (footnote 9),
    normalising switch LIDs back into 0..3.  Takes one LID or an array
    of LIDs (the PARX PML decodes a whole phase at once).
    """
    lids = np.asarray(lid)
    q = lids // 1000
    q = np.where(q >= 10, q - SWITCH_LID_OFFSET // 1000, q)
    bad = (q < 0) | (q > 3)
    if bad.any():
        raise TopologyError(
            f"LID {lids[bad].flat[0]} does not follow the quadrant policy"
        )
    return int(q) if q.ndim == 0 else q
