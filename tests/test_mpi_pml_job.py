"""Unit tests for PML policies and the Job facade."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError
from repro.core.units import BFO_PML_OVERHEAD, MIB
from repro.ib.addressing import quadrant_of_lid
from repro.ib.subnet_manager import OpenSM
from repro.mpi.job import Job
from repro.mpi.pml import BfoPml, Ob1Pml, ParxBfoPml
from repro.routing.dfsssp import DfssspRouting
from repro.routing.parx import (
    LARGE_LID_CHOICE,
    SMALL_LID_CHOICE,
    ParxRouting,
)
from repro.sim.flows import program_bytes
from repro.topology.hyperx import hyperx


@pytest.fixture(scope="module")
def parx_plane():
    net = hyperx((4, 4), 2)
    fabric = OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting())
    return net, fabric


@pytest.fixture(scope="module")
def plain_plane():
    net = hyperx((4, 4), 2)
    fabric = OpenSM(net, lmc=2).run(DfssspRouting())
    return net, fabric


class TestOb1:
    def test_always_base_lid(self, plain_plane):
        _, fabric = plain_plane
        pml = Ob1Pml()
        t = fabric.net.terminals
        for size in (1, 512, 1 * MIB):
            assert pml.lid_index(fabric, t[0], t[1], size) == 0

    def test_no_overhead(self):
        assert Ob1Pml().overhead == 0.0


class TestBfo:
    def test_round_robin_per_connection(self, plain_plane):
        _, fabric = plain_plane
        pml = BfoPml()
        t = fabric.net.terminals
        seq = [pml.lid_index(fabric, t[0], t[1], 1) for _ in range(6)]
        assert seq == [0, 1, 2, 3, 0, 1]

    def test_connections_independent(self, plain_plane):
        _, fabric = plain_plane
        pml = BfoPml()
        t = fabric.net.terminals
        pml.lid_index(fabric, t[0], t[1], 1)
        assert pml.lid_index(fabric, t[0], t[2], 1) == 0

    def test_reset(self, plain_plane):
        _, fabric = plain_plane
        pml = BfoPml()
        t = fabric.net.terminals
        pml.lid_index(fabric, t[0], t[1], 1)
        pml.reset()
        assert pml.lid_index(fabric, t[0], t[1], 1) == 0

    def test_overhead_is_bfo_penalty(self):
        assert BfoPml().overhead == BFO_PML_OVERHEAD


class TestParxBfo:
    def test_choices_follow_table1(self, parx_plane):
        net, fabric = parx_plane
        pml = ParxBfoPml(seed=0)
        for src in net.terminals[:8]:
            for dst in net.terminals[-8:]:
                if src == dst:
                    continue
                sq = quadrant_of_lid(fabric.lidmap.base[src])
                dq = quadrant_of_lid(fabric.lidmap.base[dst])
                small = pml.lid_index(fabric, src, dst, 8)
                large = pml.lid_index(fabric, src, dst, 1 * MIB)
                assert small in SMALL_LID_CHOICE[(sq, dq)]
                assert large in LARGE_LID_CHOICE[(sq, dq)]

    def test_threshold_boundary(self, parx_plane):
        """512 bytes is already 'large' (paper: threshold 512 B)."""
        net, fabric = parx_plane
        pml = ParxBfoPml(seed=0)
        src, dst = net.terminals[0], net.terminals[1]
        sq = quadrant_of_lid(fabric.lidmap.base[src])
        dq = quadrant_of_lid(fabric.lidmap.base[dst])
        assert pml.lid_index(fabric, src, dst, 512) in LARGE_LID_CHOICE[(sq, dq)]
        assert pml.lid_index(fabric, src, dst, 511) in SMALL_LID_CHOICE[(sq, dq)]

    def test_requires_lmc2(self, parx_plane):
        net, _ = parx_plane
        fabric_lmc0 = OpenSM(net).run(DfssspRouting())
        with pytest.raises(ConfigurationError):
            ParxBfoPml().lid_index(fabric_lmc0, net.terminals[0], net.terminals[1], 1)

    def test_deterministic_after_reset(self, parx_plane):
        net, fabric = parx_plane
        pml = ParxBfoPml(seed=3)
        t = net.terminals
        seq1 = [pml.lid_index(fabric, t[0], t[1], 1) for _ in range(10)]
        pml.reset()
        seq2 = [pml.lid_index(fabric, t[0], t[1], 1) for _ in range(10)]
        assert seq1 == seq2


class TestJob:
    def test_rank_mapping(self, plain_plane):
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:4])
        assert job.num_ranks == 4
        assert job.node_of_rank(2) == net.terminals[2]

    def test_duplicate_nodes_rejected(self, plain_plane):
        net, fabric = plain_plane
        with pytest.raises(ConfigurationError):
            Job(fabric, [net.terminals[0]] * 2)

    def test_switch_as_node_rejected(self, plain_plane):
        net, fabric = plain_plane
        with pytest.raises(ConfigurationError):
            Job(fabric, [net.switches[0]])

    def test_materialize_skips_self_sends(self, plain_plane):
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:2])
        prog = job.materialize([[(0, 0, 100.0), (0, 1, 50.0)]])
        assert len(prog.phases[0]) == 1
        assert program_bytes(prog) == 50.0

    def test_collective_facades_produce_programs(self, plain_plane):
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:6])
        assert len(job.bcast(1024)) == 3
        assert len(job.barrier()) == 3
        assert len(job.alltoall(8)) == 5
        assert len(job.allgather(8)) == 3  # Bruck for small blocks
        assert len(job.allgather(1 * MIB)) == 5  # ring for large
        assert len(job.allreduce(8)) > 0
        assert len(job.reduce(8)) == 3
        assert len(job.gather(8)) > 0
        assert len(job.scatter(8)) > 0
        assert len(job.send(0, 1, 8)) == 1

    def test_allreduce_algorithm_dispatch(self, plain_plane):
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:4])
        assert len(job.allreduce(8, algorithm="ring")) == 6
        with pytest.raises(ConfigurationError):
            job.allreduce(8, algorithm="nope")

    def test_gather_switches_to_linear_for_large(self, plain_plane):
        net, fabric = plain_plane
        job = Job(fabric, net.terminals[:8])
        small = job.gather(1024)
        large = job.gather(1 * MIB)
        assert len(small) == 3  # binomial rounds
        assert len(large) == 1  # linear incast

    def test_path_cache_reused(self, plain_plane):
        net, fabric = plain_plane
        # The fabric walks each destination LID once per table version;
        # later programs gather from the same stacked walks.
        job = Job(fabric, net.terminals[:4])
        job.alltoall(8)
        dlids = fabric.base_lids(np.asarray(net.terminals[:4]))
        walks = fabric.dest_paths(dlids)
        slots = walks.slot.copy()
        job.alltoall(8)
        assert fabric.dest_paths(dlids) is walks
        assert np.array_equal(walks.slot, slots)
        assert (slots[dlids] >= 0).all()

    def test_messages_carry_pml_overhead(self, parx_plane):
        net, fabric = parx_plane
        job = Job(fabric, net.terminals[:4], pml=ParxBfoPml())
        prog = job.bcast(1024)
        for phase in prog:
            for m in phase:
                assert m.overhead == BFO_PML_OVERHEAD
