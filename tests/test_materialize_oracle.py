"""The columnar materialiser against the per-message reference.

``Job.materialize`` builds each phase with whole-phase array operations:
a rank-to-node gather, a vectorised PML pick (``Pml.lid_indices``) and
a gather from the fabric's stacked destination walks.  The oracle here
is the per-message materialiser it replaced: one scalar LID pick and
one ``Fabric.path`` per message, flattened by
``MessageBatch.from_messages``.  The scalar picks are re-implemented
from the paper's definitions (ob1: base LID; bfo: per-connection round
robin; PARX-bfo: Table 1 by quadrant and size, one seeded draw per
two-choice message), so the oracle shares no code with the vectorised
PMLs.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.ib.fabric as fabric_module
from repro.core.rng import make_rng
from repro.core.units import MIB
from repro.ib.addressing import quadrant_of_lid
from repro.ib.subnet_manager import OpenSM
from repro.mpi.job import Job
from repro.mpi.pml import BfoPml, Ob1Pml, ParxBfoPml
from repro.routing.dfsssp import DfssspRouting
from repro.routing.parx import ParxRouting, lid_choices
from repro.sim.batch import MessageBatch
from repro.sim.engine import FlowSimulator
from repro.sim.flows import Message
from repro.topology.hyperx import hyperx

ARRAYS = ("sizes", "overheads", "src", "dst", "lid_index", "lens", "ptr",
          "flat")
NUM_RANKS = 8


# --- the reference materialiser ----------------------------------------------

def reference_picker(name, fabric, seed=0):
    """A scalar ``(src, dst, size) -> lid index`` pick for one PML."""
    if name == "ob1":
        return lambda src, dst, size: 0
    if name == "bfo":
        counter = {}

        def bfo(src, dst, size):
            x = counter.get((src, dst), 0)
            counter[(src, dst)] = (x + 1) % fabric.lidmap.lids_per_port
            return x

        return bfo
    rng = make_rng(seed)

    def parx(src, dst, size):
        choices = lid_choices(
            quadrant_of_lid(fabric.lidmap.base[src]),
            quadrant_of_lid(fabric.lidmap.base[dst]),
            large=size >= 512,
        )
        if len(choices) == 1:
            return choices[0]
        return int(choices[rng.integers(len(choices))])

    return parx


def reference_materialize(fabric, nodes, pick, overhead, rank_phases):
    """One ``MessageBatch`` per phase, built message by message."""
    batches = []
    for rp in rank_phases:
        msgs = []
        for s_rank, d_rank, size in rp:
            src, dst = nodes[s_rank], nodes[d_rank]
            if src == dst:
                continue
            lidx = pick(src, dst, size)
            path = tuple(fabric.path(src, dst, lidx))
            msgs.append(
                Message(src, dst, float(size), path, overhead, lidx)
            )
        batches.append(MessageBatch.from_messages(msgs))
    return batches


def assert_same_batches(got, ref):
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        for name in ARRAYS:
            a, b = getattr(g, name), getattr(r, name)
            assert a.dtype == b.dtype, name
            assert a.tolist() == b.tolist(), name


# --- fabrics -----------------------------------------------------------------

@pytest.fixture(scope="module")
def planes():
    """LMC 0 and LMC 2 DFSSSP planes and a quadrant-LID PARX plane."""
    out = {}
    for lmc in (0, 2):
        net = hyperx((3, 3), 2)
        out[f"dfsssp-lmc{lmc}"] = OpenSM(net, lmc=lmc).run(DfssspRouting())
    net = hyperx((4, 4), 2)
    out["parx"] = OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting())
    return out


CASES = [
    ("ob1", "dfsssp-lmc0"),
    ("ob1", "dfsssp-lmc2"),
    ("bfo", "dfsssp-lmc0"),
    ("bfo", "dfsssp-lmc2"),
    ("parx-bfo", "parx"),
]


def make_pml(name, seed=0):
    if name == "ob1":
        return Ob1Pml()
    if name == "bfo":
        return BfoPml()
    return ParxBfoPml(seed=seed)


def spread_nodes(fabric):
    """Ranks spread over every switch, so walks start at many rows."""
    terminals = fabric.net.terminals
    step = len(terminals) // NUM_RANKS
    return terminals[::step][:NUM_RANKS]


#: Rank phases with self-sends, empty phases and pairs repeated within
#: one phase (the bfo occurrence rank); sizes straddle the PARX 512 B
#: threshold.
phases_strategy = st.lists(
    st.lists(
        st.tuples(
            st.integers(0, NUM_RANKS - 1),
            st.integers(0, NUM_RANKS - 1),
            st.sampled_from([0.0, 8.0, 511.0, 512.0, 4096.0, 1.0 * MIB]),
        ),
        max_size=24,
    ),
    max_size=5,
)


class TestOracleEquivalence:
    @pytest.mark.parametrize("pml_name,plane", CASES)
    @settings(deadline=None, max_examples=40,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rank_phases=phases_strategy, seed=st.integers(0, 3))
    def test_batch_arrays_match_reference(
        self, planes, pml_name, plane, rank_phases, seed
    ):
        fabric = planes[plane]
        nodes = spread_nodes(fabric)
        pml = make_pml(pml_name, seed)
        job = Job(fabric, nodes, pml=pml)
        got = [ph.batch for ph in job.materialize(rank_phases).phases]
        ref = reference_materialize(
            fabric, nodes, reference_picker(pml_name, fabric, seed),
            pml.overhead, rank_phases,
        )
        assert_same_batches(got, ref)
        assert job.resolve_fallbacks == 0

    @pytest.mark.parametrize("pml_name,plane", CASES)
    def test_repeated_pair_and_self_send(self, planes, pml_name, plane):
        fabric = planes[plane]
        nodes = spread_nodes(fabric)
        phases = [
            [(0, 5, 1.0 * MIB)] * 6 + [(3, 3, 8.0), (5, 0, 8.0)],
            [],
            [(0, 5, 8.0), (2, 2, 8.0)],
        ]
        job = Job(fabric, nodes, pml=make_pml(pml_name))
        got = [ph.batch for ph in job.materialize(phases).phases]
        ref = reference_materialize(
            fabric, nodes, reference_picker(pml_name, fabric),
            make_pml(pml_name).overhead, phases,
        )
        assert_same_batches(got, ref)
        assert [b.n for b in got] == [7, 0, 1]
        if pml_name == "bfo" and plane == "dfsssp-lmc2":
            assert got[0].lid_index.tolist() == [0, 1, 2, 3, 0, 1, 0]
            assert got[2].lid_index.tolist() == [2]


class TestRefusedWalks:
    def _stale_plane(self):
        """A plane whose tables still route over a dead cable."""
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net, lmc=2).run(DfssspRouting())
        nodes = spread_nodes(fabric)
        path = fabric.path(nodes[0], nodes[5], 1)
        net.disable_cable(path[1])
        return fabric, nodes

    def test_refused_row_raises_the_reference_error(self):
        fabric, nodes = self._stale_plane()
        phases = [[(i, j, 1.0 * MIB) for i in range(NUM_RANKS)
                   for j in range(NUM_RANKS) if i != j]]
        with pytest.raises(Exception) as ref_err:
            reference_materialize(
                fabric, nodes, reference_picker("bfo", fabric), 0.0,
                [[(0, 5, 8.0)]] + phases,
            )
        job = Job(fabric, nodes, pml=BfoPml())
        with pytest.raises(Exception) as got_err:
            job.materialize([[(0, 5, 8.0)]] + phases)
        assert type(got_err.value) is type(ref_err.value)
        assert str(got_err.value) == str(ref_err.value)

    def test_refused_row_that_resolves_is_counted(self, planes, monkeypatch):
        # Force the bulk walk to refuse its first reachable row for every
        # destination: the per-pair resolve must fill those rows in with
        # the same paths, and the job counts each one.
        real = fabric_module.walk_dest_links

        def refusing(*args, **kwargs):
            ok, lens, steps = real(*args, **kwargs)
            ok = ok.copy()
            ok[:, 0] = False  # every walk from the first switch
            return ok, lens, steps

        net = hyperx((3, 3), 2)
        fabric = OpenSM(net, lmc=2).run(DfssspRouting())
        monkeypatch.setattr(fabric_module, "walk_dest_links", refusing)
        nodes = list(net.terminals)
        job = Job(fabric, nodes)
        phases = [[(i, (i + k) % len(nodes), 64.0) for i in range(len(nodes))]
                  for k in range(1, 4)]
        got = [ph.batch for ph in job.materialize(phases).phases]
        ref = reference_materialize(
            fabric, nodes, reference_picker("ob1", fabric), 0.0, phases
        )
        assert_same_batches(got, ref)
        assert job.resolve_fallbacks > 0


class TestParxDrawStream:
    """PARX LID picks ride on numpy's bounded-integer stream: one bulk
    ``integers(2, size=k)`` call must equal k scalar ``integers(2)``
    draws, across any split into calls.  If a numpy upgrade breaks
    this, PARX picks move silently — this test makes it loud."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        splits=st.lists(st.integers(0, 64), max_size=6),
    )
    def test_bulk_draws_equal_scalar_draws(self, seed, splits):
        k = sum(splits)
        scalar_rng = make_rng(seed)
        scalar = [int(scalar_rng.integers(2)) for _ in range(k)]
        bulk_rng = make_rng(seed)
        bulk = []
        for size in splits:
            if size:
                bulk.extend(bulk_rng.integers(2, size=size).tolist())
        assert bulk == scalar

    def test_split_phases_equal_one_phase(self, planes):
        fabric = planes["parx"]
        nodes = spread_nodes(fabric)
        msgs = [(i, j, 8.0) for i in range(NUM_RANKS)
                for j in range(NUM_RANKS) if i != j]
        one = Job(fabric, nodes, pml=ParxBfoPml(seed=7)).materialize([msgs])
        split = Job(fabric, nodes, pml=ParxBfoPml(seed=7)).materialize(
            [msgs[:13], msgs[13:40], msgs[40:]]
        )
        assert one.phases[0].batch.lid_index.tolist() == [
            x for ph in split.phases for x in ph.batch.lid_index.tolist()
        ]


class TestNoMessageObjects:
    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_alltoall_builds_no_message_objects(self, monkeypatch, mode):
        net = hyperx((4, 4), 4)
        fabric = OpenSM(net).run(DfssspRouting())
        assert net.num_terminals == 64
        made = []
        real_init = Message.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(Message, "__init__", counting_init)
        prog = Job(fabric, net.terminals).alltoall(64 * 1024)
        result = FlowSimulator(net, mode=mode).run(prog)
        assert result.total_time > 0 and len(prog.phases) == 63
        assert made == []
