"""An MPI job: ranks placed on nodes, operations lowered to programs.

:class:`Job` is the main user-facing handle of the library::

    fabric = OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting())
    job = Job(fabric, nodes=placement, pml=ParxBfoPml())
    result = FlowSimulator(net).run(job.alltoall(1 * MIB))

It binds a routed fabric, a rank-to-node mapping (one rank per node,
the paper's execution model) and a PML, and materialises rank-level
phase lists into :class:`~repro.sim.flows.Program` objects whose phases
are :class:`~repro.sim.batch.MessageBatch` arrays with resolved link
paths.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import ConfigurationError
from repro.ib.fabric import Fabric
from repro.mpi import collectives as coll
from repro.mpi.collectives import RankPhase
from repro.mpi.pml import Ob1Pml, Pml
from repro.sim.batch import MessageBatch
from repro.sim.flows import Phase, Program


def rank_phase_arrays(
    rank_phase: RankPhase,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One rank-level phase as ``(src_ranks, dst_ranks, sizes)`` arrays.

    The rank-space mirror of the simulator's flat-array message batches
    (:mod:`repro.sim.batch`): pattern generators stay list-of-tuples for
    composability, and :meth:`Job.materialize` converts each phase once
    into parallel numpy arrays.
    """
    if not rank_phase:
        return np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0)
    src, dst, sizes = zip(*rank_phase)
    n = len(src)
    return (
        np.fromiter(src, dtype=np.int64, count=n),
        np.fromiter(dst, dtype=np.int64, count=n),
        np.fromiter(sizes, dtype=float, count=n),
    )


class Job:
    """Ranks on nodes over a routed fabric."""

    def __init__(
        self,
        fabric: Fabric,
        nodes: Sequence[int],
        pml: Pml | None = None,
    ) -> None:
        if len(set(nodes)) != len(nodes):
            raise ConfigurationError("duplicate nodes in the allocation")
        for n in nodes:
            if not fabric.net.is_terminal(n):
                raise ConfigurationError(f"node {n} is not a terminal")
        self.fabric = fabric
        self.nodes = list(nodes)
        self.pml = pml or Ob1Pml()
        self._node_of_rank = np.asarray(self.nodes, dtype=np.int64)
        #: Message paths the fabric's bulk walk refused but the per-pair
        #: resolve found (an anomaly: the bulk walk should never miss).
        self.resolve_fallbacks = 0

    @property
    def num_ranks(self) -> int:
        return len(self.nodes)

    def node_of_rank(self, rank: int) -> int:
        return self.nodes[rank]

    # --- lowering ---------------------------------------------------------------
    def materialize(
        self,
        rank_phases: list[RankPhase],
        label: str = "",
        compute_between_phases: float = 0.0,
    ) -> Program:
        """Resolve rank-level phases into a runnable program.

        Each phase is built with whole-phase array operations: ranks map
        to nodes by gather, self-sends (local copies, no network traffic)
        drop out, the PML picks every message's LID index at once, and
        the paths are gathered by :meth:`Fabric.bulk_paths
        <repro.ib.fabric.Fabric.bulk_paths>`; rows its walk refuses go
        through :meth:`Fabric.path <repro.ib.fabric.Fabric.path>`.
        """
        program = Program(
            label=label, compute_between_phases=compute_between_phases
        )
        overhead = float(self.pml.overhead)
        for i, rp in enumerate(rank_phases):
            s_rank, d_rank, sizes = rank_phase_arrays(rp)
            src = self._node_of_rank[s_rank]
            dst = self._node_of_rank[d_rank]
            remote = src != dst
            if not remote.all():
                src, dst, sizes = src[remote], dst[remote], sizes[remote]
            lidx = (
                self.pml.lid_indices(self.fabric, src, dst, sizes) if len(src)
                else np.empty(0, dtype=np.int64)
            )
            lens, flat, refused = self.fabric.bulk_paths(src, dst, lidx)
            batch = MessageBatch(
                sizes, np.full(len(src), overhead), src, dst, lidx, lens, flat
            )
            if refused.size:
                # The per-pair resolve raises its precise diagnostic, or
                # finds a path the bulk walk missed (counted).
                batch = batch.with_paths(refused, [
                    self.fabric.path(int(src[r]), int(dst[r]), int(lidx[r]))
                    for r in refused
                ])
                self.resolve_fallbacks += refused.size
            program.phases.append(Phase(
                label=f"{label}[{i}]" if label else f"phase{i}", batch=batch
            ))
        return program

    # --- MPI operations -----------------------------------------------------------
    def send(self, src_rank: int, dst_rank: int, size: float) -> Program:
        """A single point-to-point transfer."""
        return self.materialize([[(src_rank, dst_rank, size)]], label="send")

    #: Tuned-module switch point from binomial tree to segmented chain
    #: for Bcast/Reduce (Open MPI's decision for large payloads).
    PIPELINE_THRESHOLD: float = 32 * 1024

    def bcast(self, size: float, root: int = 0) -> Program:
        algo = (
            coll.pipeline_bcast
            if size >= self.PIPELINE_THRESHOLD
            else coll.binomial_bcast
        )
        return self.materialize(algo(self.num_ranks, size, root), label="bcast")

    def reduce(self, size: float, root: int = 0) -> Program:
        algo = (
            coll.pipeline_reduce
            if size >= self.PIPELINE_THRESHOLD
            else coll.binomial_reduce
        )
        return self.materialize(algo(self.num_ranks, size, root), label="reduce")

    def gather(self, size: float, root: int = 0, large: bool | None = None) -> Program:
        """Gather; ``large`` forces the linear (incast) algorithm the way
        tuned MPIs switch for big payloads (default: >= 32 KiB)."""
        use_linear = size >= 32 * 1024 if large is None else large
        algo = coll.linear_gather if use_linear else coll.binomial_gather
        return self.materialize(algo(self.num_ranks, size, root), label="gather")

    def scatter(self, size: float, root: int = 0, large: bool | None = None) -> Program:
        use_linear = size >= 32 * 1024 if large is None else large
        algo = coll.linear_scatter if use_linear else coll.binomial_scatter
        return self.materialize(algo(self.num_ranks, size, root), label="scatter")

    def allreduce(self, size: float, algorithm: str = "auto") -> Program:
        """Allreduce; ``algorithm`` in {"auto", "rdbl", "rabenseifner",
        "ring"}.  Auto follows the tuned heuristic: latency-bound
        recursive doubling below 64 KiB, Rabenseifner above."""
        p = self.num_ranks
        if algorithm == "auto":
            algorithm = "rdbl" if size < 64 * 1024 else "rabenseifner"
        if algorithm == "rdbl":
            phases = coll.recursive_doubling_allreduce(p, size)
        elif algorithm == "rabenseifner":
            phases = coll.rabenseifner_allreduce(p, size)
        elif algorithm == "ring":
            phases = coll.ring_allreduce(p, size)
        else:
            raise ConfigurationError(f"unknown allreduce algorithm {algorithm!r}")
        return self.materialize(phases, label=f"allreduce-{algorithm}")

    def allgather(self, size: float, algorithm: str = "auto") -> Program:
        """Allgather; ``algorithm`` in {"auto", "ring", "bruck"}.  Auto
        follows the tuned heuristic: Bruck for small blocks (latency,
        log rounds), ring for large (bandwidth, no payload doubling)."""
        if algorithm == "auto":
            algorithm = "bruck" if size < 32 * 1024 else "ring"
        if algorithm == "ring":
            phases = coll.ring_allgather(self.num_ranks, size)
        elif algorithm == "bruck":
            phases = coll.bruck_allgather(self.num_ranks, size)
        else:
            raise ConfigurationError(f"unknown allgather algorithm {algorithm!r}")
        return self.materialize(phases, label=f"allgather-{algorithm}")

    def reduce_scatter(self, size: float) -> Program:
        """Reduce-scatter of a ``size``-byte vector (each rank keeps its
        reduced ``size/p`` block)."""
        return self.materialize(
            coll.reduce_scatter(self.num_ranks, size), label="reduce_scatter"
        )

    def alltoall(self, size: float) -> Program:
        return self.materialize(
            coll.pairwise_alltoall(self.num_ranks, size), label="alltoall"
        )

    def alltoallv(self, sizes: list[list[float]]) -> Program:
        """Irregular all-to-all: ``sizes[i][j]`` bytes from rank i to j."""
        return self.materialize(
            coll.alltoallv(self.num_ranks, sizes), label="alltoallv"
        )

    def barrier(self) -> Program:
        return self.materialize(
            coll.dissemination_barrier(self.num_ranks), label="barrier"
        )
