"""Generalised N-dimensional PARX ("generalizable to higher dimensions",
paper section 3.2.1 — implemented here as the paper's future work).

The 2-D engine assigns four LIDs per port and masks one lattice half
per LID (rules R1-R4).  The N-D generalisation uses ``2N`` LIDs: LID
``2d`` masks the links internal to the *lower* half of dimension ``d``,
LID ``2d+1`` the *upper* half.  For N = 2 and the mapping
``(lower-x, upper-x, lower-y, upper-y) = (left, right, top, bottom)``
this is exactly R1-R4 (dimension 0 is "x", and the paper's "top" is the
lower y half).

The message-size selection rule generalises Table 1 (and *derives* it —
every entry of the paper's printed tables agrees, which the test suite
checks exhaustively):

* **small** (minimal paths wanted): for every dimension where source
  and destination sit in the *same* half, choose a LID masking the
  *opposite* half of that dimension — the shared half, and with it a
  minimal path, survives;
* **large** (detour wanted): for those same dimensions choose the LID
  masking the *shared* half — the minimal paths die and traffic is
  forced through the other half;
* **fully diagonal** pairs (different halves in every dimension)
  already have maximal minimal-path diversity and no maskable detour:
  both cases fall back to the LIDs masking the source-containing
  halves, the paper's convention for the diagonal entries of Table 1.

Everything else — demand-weighted edge updates, fault fallback, the
subnet manager's VL layering — is shared with the 2-D engine.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import make_rng
from repro.core.units import BFO_PML_OVERHEAD
from repro.ib.fabric import Fabric
from repro.mpi.pml import Pml
from repro.routing.parx import ParxRouting
from repro.topology.hyperx import hyperx_shape_of
from repro.topology.network import Network


def half_of(coord: tuple[int, ...], shape: tuple[int, ...], dim: int) -> int:
    """0 if ``coord`` lies in the lower half of ``dim``, else 1."""
    return 0 if coord[dim] < shape[dim] // 2 else 1


def nd_lid_choices(
    src_coord: tuple[int, ...],
    dst_coord: tuple[int, ...],
    shape: tuple[int, ...],
    large: bool,
) -> tuple[int, ...]:
    """Valid destination LID indices for a message (generalised Table 1).

    LID index ``2d + h`` masks half ``h`` of dimension ``d``.
    """
    shared_dims = [
        d for d in range(len(shape))
        if half_of(src_coord, shape, d) == half_of(dst_coord, shape, d)
    ]
    if shared_dims:
        out = []
        for d in shared_dims:
            shared_half = half_of(src_coord, shape, d)
            masked_half = shared_half if large else 1 - shared_half
            out.append(2 * d + masked_half)
        return tuple(out)
    # Fully diagonal: mask a source-containing half (either dimension);
    # small and large coincide (no detour exists or is needed).
    return tuple(
        2 * d + half_of(src_coord, shape, d) for d in range(len(shape))
    )


class NdParxRouting(ParxRouting):
    """PARX for N-dimensional HyperX lattices with even dimensions.

    Needs ``2N`` LIDs per port, i.e. the subnet manager must be run with
    ``lmc >= ceil(log2(2N))``; surplus LID indices (when ``2**lmc >
    2N``) are routed minimally without masking so every LID stays
    routable (and adds no detour pressure on the virtual-lane budget).

    The paper's footnote 8 warns that "PARX may exceed a VL hardware
    limit for larger HPC systems" — that bites in higher dimensions:
    a 3-D lattice can need more than QDR's 8 lanes, so deployments of
    this engine should run the subnet manager with a larger ``max_vls``
    (modern HDR/NDR hardware has 16).
    """

    name = "parx-nd"
    #: Four LIDs per port (enough for the 2-D case's 2N = 4 rules); the
    #: N-D engine keeps sequential LIDs — the quadrant encoding does not
    #: generalise past two dimensions.
    sm_defaults = {"lmc": 2}

    def check_topology(self, net: Network) -> None:
        """N-D PARX needs a HyperX lattice with even dimensions."""
        shape = hyperx_shape_of(net)
        if any(s % 2 for s in shape):
            raise ConfigurationError(
                f"N-D PARX needs even dimensions, got shape {shape}"
            )

    def lids_routed(self, fabric: Fabric, shape: tuple[int, ...]) -> int:
        n_rules = 2 * len(shape)
        if fabric.lidmap.lids_per_port < n_rules:
            raise ConfigurationError(
                f"{len(shape)}-D PARX needs {n_rules} LIDs per port; the "
                f"subnet manager assigned {fabric.lidmap.lids_per_port} "
                f"(use lmc >= {int(np.ceil(np.log2(n_rules)))})"
            )
        return fabric.lidmap.lids_per_port

    def fallback_note(self, nd: int, i: int) -> str:
        return f"parx-nd: fallback to unmasked paths for node {nd} lid index {i}"


class NdParxPml(Pml):
    """Messaging layer for :class:`NdParxRouting` (the Table 1 analogue).

    Chooses among :func:`nd_lid_choices` using switch coordinates looked
    up from the fabric (the quadrant-LID trick does not scale past 2-D,
    so the N-D PML consults the topology directly).
    """

    name = "parx-nd-bfo"
    overhead = BFO_PML_OVERHEAD

    def __init__(self, threshold: int = 512, seed: int = 0) -> None:
        self.threshold = threshold
        self._seed = seed
        self._rng = make_rng(seed)

    def lid_indices(self, fabric, src, dst, sizes) -> np.ndarray:
        net = fabric.net
        shape = hyperx_shape_of(net)
        out = np.empty(len(src), dtype=np.int64)
        for i, (s, d, z) in enumerate(
            zip(src.tolist(), dst.tolist(), sizes.tolist())
        ):
            sc = tuple(net.node_meta(net.attached_switch(s))["coord"])
            dc = tuple(net.node_meta(net.attached_switch(d))["coord"])
            choices = nd_lid_choices(sc, dc, shape, large=z >= self.threshold)
            out[i] = (
                choices[0] if len(choices) == 1
                else choices[self._rng.integers(len(choices))]
            )
        return out

    def reset(self) -> None:
        self._rng = make_rng(self._seed)

