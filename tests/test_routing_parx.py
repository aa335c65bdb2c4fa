"""Tests for the PARX routing engine — the paper's contribution.

These encode the claims of sections 3.2.1-3.2.3: Table 1's selection
matrices, rules R1-R4, minimal/non-minimal path coexistence, demand
ingestion, fault fallback, and deadlock freedom within 8 VLs.
"""

import itertools

import pytest

from repro.core.errors import ConfigurationError, UnreachableError
from repro.ib.subnet_manager import OpenSM
from repro.routing import audit_fabric
from repro.routing.dfsssp import DfssspRouting
from repro.routing.parx import (
    HALF_REMOVED_BY_LID,
    LARGE_LID_CHOICE,
    SMALL_LID_CHOICE,
    ParxRouting,
    lid_choices,
)
from repro.routing.parx_nd import NdParxRouting
from repro.routing.registry import sm_kwargs_for
from repro.topology.faults import inject_cable_faults
from repro.topology.hyperx import hyperx, hyperx_quadrant
from repro.topology.t2hx import t2hx_hyperx


@pytest.fixture(scope="module")
def fabric44():
    net = hyperx((4, 4), 2)
    return net, OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting())


def _terminal_in_quadrant(net, shape, q):
    for t in net.terminals:
        sw = net.attached_switch(t)
        if hyperx_quadrant(net.node_meta(sw)["coord"], shape) == q:
            return t
    raise AssertionError(f"no terminal in quadrant {q}")


class TestTable1Structure:
    def test_complete(self):
        keys = set(itertools.product(range(4), range(4)))
        assert set(SMALL_LID_CHOICE) == keys
        assert set(LARGE_LID_CHOICE) == keys

    def test_indices_in_range(self):
        for table in (SMALL_LID_CHOICE, LARGE_LID_CHOICE):
            for choices in table.values():
                assert choices
                assert all(0 <= x <= 3 for x in choices)

    def test_same_quadrant_diagonal_has_two_choices(self):
        for q in range(4):
            assert len(SMALL_LID_CHOICE[(q, q)]) == 2
            assert len(LARGE_LID_CHOICE[(q, q)]) == 2

    def test_small_and_large_disjoint_for_same_quadrant(self):
        """For same-quadrant pairs the minimal and detour LIDs differ —
        criterion (3): the choice between (1) and (2) always exists."""
        for q in range(4):
            assert not set(SMALL_LID_CHOICE[(q, q)]) & set(LARGE_LID_CHOICE[(q, q)])

    def test_diagonal_quadrants_share_choices(self):
        """Opposite-corner pairs already have maximal path diversity;
        Table 1a and 1b agree there (no detour is possible/needed)."""
        assert SMALL_LID_CHOICE[(0, 2)] == LARGE_LID_CHOICE[(0, 2)]
        assert SMALL_LID_CHOICE[(2, 0)] == LARGE_LID_CHOICE[(2, 0)]
        assert SMALL_LID_CHOICE[(1, 3)] == LARGE_LID_CHOICE[(1, 3)]
        assert SMALL_LID_CHOICE[(3, 1)] == LARGE_LID_CHOICE[(3, 1)]

    def test_lid_choices_dispatch(self):
        assert lid_choices(0, 1, large=False) == (1,)
        assert lid_choices(0, 1, large=True) == (0,)


class TestRuleSemantics:
    """The defining properties that pin Table 1 to the geometry."""

    @pytest.mark.parametrize("sq,dq", itertools.product(range(4), range(4)))
    def test_small_choices_preserve_minimal_paths(self, fabric44, sq, dq):
        net, fabric = fabric44
        shape = (4, 4)
        src = _terminal_in_quadrant(net, shape, sq)
        dst = _terminal_in_quadrant(net, shape, dq)
        if src == dst:
            return
        base_hops = min(
            net.path_hops(fabric.path(src, dst, i)) for i in range(4)
        )
        for x in SMALL_LID_CHOICE[(sq, dq)]:
            assert net.path_hops(fabric.path(src, dst, x)) == base_hops

    @pytest.mark.parametrize("q", range(4))
    def test_large_choices_force_detour_within_quadrant(self, fabric44, q):
        """Same-quadrant pairs: Table 1b LIDs must take strictly longer
        paths than the minimal distance (the forced detour of Fig. 3b)."""
        net, fabric = fabric44
        shape = (4, 4)
        terms = [
            t for t in net.terminals
            if hyperx_quadrant(
                net.node_meta(net.attached_switch(t))["coord"], shape
            ) == q
        ]
        src, dst = terms[0], terms[-1]
        assert net.attached_switch(src) != net.attached_switch(dst)
        small = min(
            net.path_hops(fabric.path(src, dst, x))
            for x in SMALL_LID_CHOICE[(q, q)]
        )
        for x in LARGE_LID_CHOICE[(q, q)]:
            assert net.path_hops(fabric.path(src, dst, x)) > small

    def test_rules_cover_all_four_halves(self):
        assert sorted(HALF_REMOVED_BY_LID.values()) == [
            "bottom", "left", "right", "top",
        ]


class TestEngineOutput:
    def test_clean_audit(self, fabric44):
        _, fabric = fabric44
        audit = audit_fabric(fabric)
        assert audit.clean
        assert audit.minimal_pairs > 0
        assert audit.non_minimal_pairs > 0  # both path kinds exist

    def test_vl_budget(self, fabric44):
        _, fabric = fabric44
        assert 1 <= fabric.num_vls <= 8

    def test_requires_lmc2(self):
        net = hyperx((4, 4), 1)
        with pytest.raises(ConfigurationError):
            OpenSM(net, lmc=0).run(ParxRouting())

    def test_requires_even_2d(self):
        net = hyperx((3, 4), 1)
        with pytest.raises(ConfigurationError):
            OpenSM(net, lmc=2).run(ParxRouting())

    def test_rejects_bad_demand_values(self):
        with pytest.raises(ConfigurationError):
            ParxRouting({0: {1: 300}})


class TestDemandIngestion:
    def test_demand_separates_hot_paths(self):
        """Two hot source-destination pairs in the same quadrant row
        should end up on disjoint links where possible."""
        net = hyperx((4, 4), 2)
        terms = net.terminals
        hot = {terms[0]: {terms[2]: 255}, terms[1]: {terms[3]: 255}}
        fabric = OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting(hot))
        audit = audit_fabric(fabric)
        assert audit.clean

    def test_empty_demand_equals_uniform(self):
        net = hyperx((4, 4), 1)
        fa = OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting())
        fb = OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting({}))
        t0, t1 = net.terminals[0], net.terminals[-1]
        for i in range(4):
            assert fa.path(t0, t1, i) == fb.path(t0, t1, i)

    def test_profiled_destinations_processed_first(self):
        """Order matters for balancing: a profiled destination is routed
        before unprofiled ones and therefore sees lighter weights."""
        net = hyperx((4, 4), 1)
        terms = net.terminals
        demands = {terms[-1]: {terms[0]: 200}}
        fabric = OpenSM(net, lmc=2, lid_policy="quadrant").run(
            ParxRouting(demands)
        )
        assert audit_fabric(fabric).clean


class TestFaultFallback:
    def test_fallback_notes_recorded_when_masking_isolates(self):
        """Cut a switch's crossing links so a masked tree cannot reach
        it; PARX must fall back (footnote 7) instead of failing."""
        net = hyperx((4, 4), 1)
        # Isolate-ish the top-left corner switch within its half: kill
        # its links to the right half (dim-0 links crossing the split)
        # so the "remove left half" rule leaves it unreachable.
        corner = net.switches[0]
        coord = net.node_meta(corner)["coord"]
        assert coord == (0, 0)
        for link in list(net.out_links(corner)):
            if not net.is_switch(link.dst):
                continue
            other = net.node_meta(link.dst)["coord"]
            if link.meta.get("dim") == 0 and other[0] >= 2:
                net.disable_cable(link.id)
        fabric = OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting())
        assert any("fallback" in n for n in fabric.notes)
        assert audit_fabric(fabric).clean

    @pytest.mark.parametrize("engine", [DfssspRouting, ParxRouting, NdParxRouting])
    def test_partitioned_plane_raises_like_dfsssp(self, engine):
        """A switch with every cable gone is unreachable even unmasked:
        the PARX engines must refuse with DFSSSP's error (first missing
        host switch, first failing LID), not install partial columns
        behind a pile of fallback notes."""
        net = hyperx((4, 4), 1)
        victim = net.switches[0]
        for link in list(net.out_links(victim)):
            if net.is_switch(link.dst):
                net.disable_cable(link.id)
        sm = OpenSM(net, **sm_kwargs_for(engine.name))
        first = net.terminals[0]
        assert net.attached_switch(first) == victim
        want = (f"switch {net.switches[1]} cannot reach destination lid "
                f"{sm.lidmap.lid(first, 0)}$")
        with pytest.raises(UnreachableError, match=want):
            sm.run(engine())

    def test_paper_fault_count_routable(self):
        net = t2hx_hyperx(with_faults=True)
        fabric = OpenSM(net, lmc=2, lid_policy="quadrant").run(ParxRouting())
        audit = audit_fabric(fabric, sample_pairs=1500)
        assert audit.unreachable == 0
        assert audit.loops == 0
        assert fabric.num_vls <= 8
