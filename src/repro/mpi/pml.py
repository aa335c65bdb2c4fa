"""Point-to-point messaging layers: the LID choice per message.

With LMC > 0 a destination HCA owns several LIDs, each potentially
routed differently; Open MPI's PML decides which one a given message
addresses.  The paper (section 3.2.4) contrasts three behaviours:

* :class:`Ob1Pml` — the default layer: always the base LID (multi-LID
  only as failover, which the flow model never needs),
* :class:`BfoPml` — the multi-path layer: round-robins over all LIDs of
  a connection per message/segment,
* :class:`ParxBfoPml` — the paper's modification: pick the LID from
  Table 1 based on the (source quadrant, destination quadrant) pair and
  whether the message clears the 512-byte large-message threshold;
  where Table 1 offers two choices, pick randomly.

bfo is "less tuned compared to the ob1 default" (section 5.1, the
2.8x-6.9x Barrier regression) — modelled as the additive per-message
``BFO_PML_OVERHEAD``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import make_rng
from repro.core.units import BFO_PML_OVERHEAD, PARX_SIZE_THRESHOLD
from repro.ib.addressing import quadrant_of_lid
from repro.ib.fabric import Fabric


class Pml(ABC):
    """A messaging layer: chooses a destination LID index per message."""

    name: str = "abstract"
    #: Additional software latency per message relative to ob1.
    overhead: float = 0.0

    @abstractmethod
    def lid_indices(
        self,
        fabric: Fabric,
        src: np.ndarray,
        dst: np.ndarray,
        sizes: np.ndarray,
    ) -> np.ndarray:
        """Destination LID index (0..2**lmc-1) per message of one phase.

        ``src``/``dst``/``sizes`` are parallel arrays in message order;
        stateful layers advance their state exactly as one
        :meth:`lid_index` call per message, in that order, would.
        """

    def lid_index(self, fabric: Fabric, src: int, dst: int, size: float) -> int:
        """Destination LID index for one message."""
        return int(self.lid_indices(
            fabric, np.array([src]), np.array([dst]), np.array([size], float)
        )[0])

    def reset(self) -> None:
        """Clear per-connection state (between independent runs)."""


class Ob1Pml(Pml):
    """Open MPI's default PML: single path via the base LID."""

    name = "ob1"
    overhead = 0.0

    def lid_indices(self, fabric, src, dst, sizes) -> np.ndarray:
        return np.zeros(len(src), dtype=np.int64)


#: Pair key stride for per-connection state: ``src * stride + dst``.
_PAIR_STRIDE = 1 << 32


class BfoPml(Pml):
    """The multi-path PML: LIDs round-robin per connection.

    "The bfo PML iterates through the 2**LMC LIDs in a round-robin
    fashion.  After transferring a message ... the layer increments x or
    resets to 0."  State is per (src, dst) connection, like the real
    per-BTL counters: a message's LID is the connection's carried
    counter plus its occurrence rank among the phase's messages on that
    connection.
    """

    name = "bfo"
    overhead = BFO_PML_OVERHEAD

    def __init__(self) -> None:
        self.reset()

    def lid_indices(self, fabric, src, dst, sizes) -> np.ndarray:
        n_lids = fabric.lidmap.lids_per_port
        keys = np.asarray(src, dtype=np.int64) * _PAIR_STRIDE + dst
        pairs, inverse, counts = np.unique(
            keys, return_inverse=True, return_counts=True
        )
        # Occurrence rank of each message among its pair's messages.
        order = np.argsort(inverse, kind="stable")
        rank = np.empty(len(keys), dtype=np.int64)
        rank[order] = np.arange(len(keys)) - np.repeat(
            counts.cumsum() - counts, counts
        )
        carried = np.array(
            [self._next.get(k, 0) for k in pairs.tolist()], dtype=np.int64
        )
        self._next.update(
            zip(pairs.tolist(), ((carried + counts) % n_lids).tolist())
        )
        return (carried[inverse] + rank) % n_lids

    def reset(self) -> None:
        #: Pair key -> the LID index the connection's next message takes.
        self._next: dict[int, int] = {}


class ParxBfoPml(Pml):
    """The paper's modified bfo: Table 1 selection by quadrant and size.

    Requires the fabric to use the quadrant LID policy (so quadrants are
    recoverable as ``lid // 1000``) and LMC = 2.  Messages of
    ``threshold`` bytes or more are "large" and take the detour LIDs of
    Table 1b; smaller ones take the minimal LIDs of Table 1a.  Where the
    table lists two alternatives one is chosen randomly (seeded): one
    draw per two-choice message, in message order.
    """

    name = "parx-bfo"
    overhead = BFO_PML_OVERHEAD

    def __init__(self, threshold: int = PARX_SIZE_THRESHOLD, seed: int = 0) -> None:
        from repro.routing.parx import LARGE_LID_CHOICE, SMALL_LID_CHOICE

        self.threshold = threshold
        self._seed = seed
        self._rng = make_rng(seed)
        #: Table 1 as ``[large, src quadrant, dst quadrant] -> (first,
        #: second)`` choices; a single choice is repeated.
        self._choices = np.array([
            [[(t[sq, dq][0], t[sq, dq][-1]) for dq in range(4)]
             for sq in range(4)]
            for t in (SMALL_LID_CHOICE, LARGE_LID_CHOICE)
        ])

    def lid_indices(self, fabric, src, dst, sizes) -> np.ndarray:
        if fabric.lidmap.lids_per_port != 4:
            raise ConfigurationError(
                "the PARX PML needs LMC=2 (four LIDs per port)"
            )
        sq = quadrant_of_lid(fabric.base_lids(src))
        dq = quadrant_of_lid(fabric.base_lids(dst))
        large = (np.asarray(sizes) >= self.threshold).astype(np.int64)
        first = self._choices[large, sq, dq, 0]
        second = self._choices[large, sq, dq, 1]
        two = np.flatnonzero(first != second)
        if two.size:
            pick = self._rng.integers(2, size=two.size)
            first[two] = np.where(pick == 1, second[two], first[two])
        return first

    def reset(self) -> None:
        self._rng = make_rng(self._seed)

