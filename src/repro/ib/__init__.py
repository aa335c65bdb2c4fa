"""InfiniBand-fabric model: LIDs, forwarding tables, virtual lanes.

The paper's PARX routing is built entirely out of InfiniBand mechanisms:
multiple virtual destinations per port (LMC), destination-based linear
forwarding tables computed by the subnet manager, and virtual-lane based
deadlock avoidance.  This package models exactly those mechanisms:

* :mod:`~repro.ib.addressing` — LID assignment incl. the paper's quadrant
  encoding (``q = lid // 1000``),
* :mod:`~repro.ib.fabric` — :class:`Fabric` = network + LIDs + per-switch
  forwarding tables, with table-walking path resolution,
* :mod:`~repro.ib.cdg` — channel-dependency graphs and cycle detection,
* :mod:`~repro.ib.deadlock` — DFSSSP/LASH-style virtual-lane layering,
* :mod:`~repro.ib.subnet_manager` — the OpenSM stand-in that drives a
  routing engine and installs its output.
"""

from repro.ib.addressing import (
    LidMap,
    assign_lids_sequential,
    assign_lids_quadrant,
    quadrant_of_lid,
)
from repro.ib.fabric import FABRIC_FORMAT_VERSION, Fabric
from repro.ib.cdg import (
    channel_dependencies,
    dependencies_by_dest,
    dependency_cycle_exists,
    dest_dependencies_from_tables,
    find_dependency_cycle,
)
from repro.ib.deadlock import (
    CreditLoop,
    assign_layers,
    assign_layers_by_destination,
    find_credit_loop,
    verify_deadlock_free,
)
from repro.ib.subnet_manager import OpenSM, RerouteReport, resweep

__all__ = [
    "LidMap",
    "assign_lids_sequential",
    "assign_lids_quadrant",
    "quadrant_of_lid",
    "FABRIC_FORMAT_VERSION",
    "Fabric",
    "channel_dependencies",
    "dependency_cycle_exists",
    "dest_dependencies_from_tables",
    "dependencies_by_dest",
    "find_dependency_cycle",
    "CreditLoop",
    "assign_layers",
    "assign_layers_by_destination",
    "find_credit_loop",
    "verify_deadlock_free",
    "OpenSM",
    "RerouteReport",
    "resweep",
]
