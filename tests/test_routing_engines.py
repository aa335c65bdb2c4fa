"""Unit/integration tests for MinHop, SSSP, DFSSSP, Up*/Down*, ftree."""

import numpy as np
import pytest

from repro.ib.subnet_manager import OpenSM
from repro.routing import (
    DfssspRouting,
    FtreeRouting,
    MinHopRouting,
    SsspRouting,
    UpDownRouting,
    audit_fabric,
)
from repro.routing.dijkstra import tree_to_destination
from repro.core.errors import RoutingError
from repro.topology.faults import inject_cable_faults
from repro.topology.fattree import k_ary_n_tree, three_level_fattree
from repro.topology.hyperx import hyperx
from tests.oracles import accumulate_tree_loads


class TestDijkstra:
    def test_tree_reaches_all_switches(self):
        net = hyperx((4, 4), 1)
        w = np.ones(len(net.links))
        parent, hops = tree_to_destination(net, net.switches[0], w)
        assert set(parent) == set(net.switches) - {net.switches[0]}
        assert max(hops.values()) <= 2

    def test_mask_forces_detour(self):
        net = hyperx((4,), 1)  # full mesh of 4
        w = np.ones(len(net.links))
        s = net.switches
        direct = net.links_between(s[3], s[0])[0].id
        parent, hops = tree_to_destination(net, s[0], w, masked_links={direct})
        assert parent[s[3]] != direct
        assert hops[s[3]] == 2

    def test_weights_steer_ties(self):
        net = hyperx((3, 3), 1)
        w = np.ones(len(net.links))
        parent0, _ = tree_to_destination(net, net.switches[0], w)
        # Pump weight onto every link the first tree uses; the next tree
        # must differ somewhere (equal-hop alternatives exist in a 3x3).
        for link in parent0.values():
            w[link] += 100
        parent1, _ = tree_to_destination(net, net.switches[0], w)
        assert any(parent0[s] != parent1[s] for s in parent0)

    def test_hop_count_dominates_weight(self):
        # Even a very heavy direct link beats a light two-hop detour:
        # the metric is lexicographic (hops, weight).
        net = hyperx((3,), 1)
        w = np.ones(len(net.links))
        s = net.switches
        direct = net.links_between(s[1], s[0])[0].id
        w[direct] = 1e6
        parent, hops = tree_to_destination(net, s[0], w)
        assert parent[s[1]] == direct
        assert hops[s[1]] == 1

    def test_accumulate_tree_loads(self):
        net = hyperx((4,), 1)
        w = np.ones(len(net.links))
        parent, hops = tree_to_destination(net, net.switches[0], w)
        loads = accumulate_tree_loads(
            net, parent, hops, {sw: 1.0 for sw in net.switches[1:]}
        )
        # Full mesh: each of the three sources sends straight in.
        assert sum(loads.values()) == pytest.approx(3.0)


@pytest.fixture(scope="module")
def hx44():
    return hyperx((4, 4), 2)


class TestMinHop:
    def test_clean_and_minimal(self, hx44):
        fabric = OpenSM(hx44).run(MinHopRouting())
        audit = audit_fabric(fabric)
        assert audit.clean
        assert audit.non_minimal_pairs == 0

    def test_lmc_routes_every_lid(self, hx44):
        fabric = OpenSM(hx44, lmc=1).run(MinHopRouting())
        t0, t1 = hx44.terminals[0], hx44.terminals[-1]
        for idx in range(2):
            path = fabric.path(t0, t1, lid_index=idx)
            assert hx44.path_nodes(path)[-1] == t1


class TestSssp:
    def test_balances_better_than_minhop_on_faulty_tree(self):
        """SSSP's raison d'etre (and why the paper picks it for its
        imperfect Fat-Tree): far lower maximum link load than MinHop's
        deterministic tie-breaks once the topology is irregular."""
        net = three_level_fattree(
            num_edge_switches=8, terminals_per_edge=4,
            uplinks_per_edge=4, num_directors=2,
        )
        inject_cable_faults(net, 5, seed=0)

        def max_load(fabric):
            loads: dict[int, int] = {}
            for a in net.terminals:
                for b in net.terminals:
                    if a != b:
                        for l in fabric.path(a, b):
                            loads[l] = loads.get(l, 0) + 1
            return max(
                c for l, c in loads.items()
                if net.is_switch(net.link(l).src)
                and net.is_switch(net.link(l).dst)
            )

        mh = max_load(OpenSM(net).run(MinHopRouting()))
        ss = max_load(OpenSM(net).run(SsspRouting()))
        assert ss < mh

    def test_deadlock_prone_on_hyperx(self, hx44):
        """The paper's motivation for DFSSSP: plain SSSP's single-lane
        CDG is cyclic on a HyperX."""
        fabric = OpenSM(hx44).run(SsspRouting())
        assert fabric.num_vls == 1
        audit = audit_fabric(fabric)
        assert not audit.deadlock_free

    def test_minimal(self, hx44):
        fabric = OpenSM(hx44).run(SsspRouting())
        audit = audit_fabric(fabric, check_deadlock=False)
        assert audit.non_minimal_pairs == 0
        assert audit.unreachable == 0


class TestDfsssp:
    def test_deadlock_free_within_qdr_budget(self, hx44):
        fabric = OpenSM(hx44).run(DfssspRouting())
        audit = audit_fabric(fabric)
        assert audit.clean
        assert 1 <= fabric.num_vls <= 8

    def test_full_scale_needs_few_vls(self):
        """Paper section 4.4.3: DFSSSP needs only 3 VLs on the 12x8
        HyperX; our conservative layering may use one or two more but
        must stay well within the 8-VL hardware limit."""
        from repro.topology.t2hx import t2hx_hyperx

        fabric = OpenSM(t2hx_hyperx()).run(DfssspRouting())
        assert fabric.num_vls <= 5

    def test_survives_faults(self, ):
        net = hyperx((4, 4), 2)
        inject_cable_faults(net, 6, seed=2)
        fabric = OpenSM(net).run(DfssspRouting())
        audit = audit_fabric(fabric)
        assert audit.clean


class TestUpDown:
    def test_clean_on_hyperx(self, hx44):
        fabric = OpenSM(hx44).run(UpDownRouting())
        audit = audit_fabric(fabric)
        assert audit.clean

    def test_single_vl_suffices(self, hx44):
        """Up*/Down* is deadlock-free by construction: the layering must
        confirm a single lane."""
        sm = OpenSM(hx44, max_vls=1)
        fabric = sm.run(UpDownRouting())
        assert fabric.num_vls == 1

    def test_root_choice_respected(self, hx44):
        fabric = OpenSM(hx44).run(UpDownRouting(root=hx44.switches[5]))
        assert audit_fabric(fabric).clean

    def test_non_minimal_paths_exist(self, hx44):
        """The classic up/down root bottleneck: some pairs detour."""
        fabric = OpenSM(hx44).run(UpDownRouting())
        audit = audit_fabric(fabric)
        assert audit.non_minimal_pairs > 0


class TestFtree:
    def test_clean_minimal_one_vl_on_kary(self):
        net = k_ary_n_tree(4, 2)
        fabric = OpenSM(net, max_vls=1).run(FtreeRouting())
        audit = audit_fabric(fabric)
        assert audit.clean
        assert audit.non_minimal_pairs == 0
        assert fabric.num_vls == 1

    def test_clean_minimal_on_director_tree(self):
        net = three_level_fattree(
            num_edge_switches=8, terminals_per_edge=4,
            uplinks_per_edge=4, num_directors=2,
        )
        fabric = OpenSM(net).run(FtreeRouting())
        audit = audit_fabric(fabric)
        assert audit.clean
        assert audit.non_minimal_pairs == 0

    def test_fault_tolerant(self):
        net = three_level_fattree(
            num_edge_switches=8, terminals_per_edge=4,
            uplinks_per_edge=4, num_directors=2,
        )
        inject_cable_faults(net, 4, seed=1)
        fabric = OpenSM(net).run(FtreeRouting())
        audit = audit_fabric(fabric)
        assert audit.unreachable == 0
        assert audit.loops == 0

    def test_shift_permutation_spreads_uplinks(self):
        """d-mod-k property: consecutive destinations on one leaf take
        distinct up ports from a remote leaf (contention-free shifts)."""
        net = k_ary_n_tree(4, 2)
        fabric = OpenSM(net).run(FtreeRouting())
        leaf0_terms = net.attached_terminals(net.switches[0])
        src = net.attached_terminals(net.switches[1])[0]
        first_up = set()
        for dst in leaf0_terms:
            path = fabric.path(src, dst)
            first_up.add(path[1])  # link leaving the source leaf
        assert len(first_up) == len(leaf0_terms)

    def test_rejects_non_tree(self, hx44):
        with pytest.raises(RoutingError):
            OpenSM(hx44).run(FtreeRouting())
