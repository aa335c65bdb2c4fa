"""Equivalence suite for the routing-sweep engine's array fast paths.

Every performance-critical rewrite in the sweep pipeline keeps its
original implementation alongside as an executable specification:

* hop-level tree kernel         vs ``reference_tree_to_destination``
* Pearce-Kelly lane layering    vs ``reference_assign_layers``
* dense CDG column extraction   vs ``_dest_dependencies_generic``
* bulk matrix path resolution   vs per-pair ``_snapshot_paths``
* dense load estimation         vs ``_estimate_link_loads_reference``
* incremental re-sweeps         vs a forced heavy sweep

This module pins each pair together — down to the dict *key order* the
float-exact load accumulation depends on.  Any divergence is a bug in
the fast path, never accepted drift; the golden LFT digests at the
bottom additionally pin the absolute output bytes across refactors.
"""

import hashlib
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.load import (
    _estimate_link_loads_reference,
    estimate_link_loads,
)
from repro.core.errors import DeadlockError, RoutingError, TopologyError
from repro.core.chunking import chunk_bytes
from repro.ib.cdg import (
    _dest_dependencies_generic,
    dependencies_by_dest,
    dest_dependencies_from_tables,
)
from repro.ib.deadlock import assign_layers
from repro.ib.fabric import FABRIC_FORMAT_VERSION, Fabric
from repro.ib.subnet_manager import (
    UNREACHABLE_SAMPLE_CAP,
    OpenSM,
    _snapshot_paths,
    resweep,
)
from repro.ib.tables import NO_ENTRY, ForwardingTables
from repro.routing.dfsssp import DfssspRouting
from repro.routing.dijkstra import tree_to_destination
from repro.routing.minhop import MinHopRouting
from repro.topology.fattree import k_ary_n_tree
from repro.topology.faults import FabricEvent, inject_cable_faults
from repro.topology.hyperx import hyperx
from repro.topology.torus import torus
from tests.oracles import reference_assign_layers, reference_tree_to_destination


def _small_nets():
    return [
        ("hyperx33", hyperx((3, 3), 2)),
        ("fattree23", k_ary_n_tree(2, 3)),
        ("torus33", torus((3, 3), 1)),
    ]


def _switch_links(net):
    return [
        link.id
        for link in net.iter_links()
        if net.is_switch(link.src) and net.is_switch(link.dst)
    ]


def _assert_trees_equal(net, dsw, weights, masked=()):
    parent, hops = tree_to_destination(net, dsw, weights, masked)
    ref_parent, ref_hops = reference_tree_to_destination(net, dsw, weights, masked)
    assert parent == ref_parent
    assert hops == ref_hops
    # accumulate_tree_loads sorts `parent` stably by depth, so the key
    # (settlement) order is load-bearing for float-exact weight sums.
    assert list(parent) == list(ref_parent)


class TestTreeCoreEquivalence:
    @pytest.mark.parametrize("name,net", _small_nets())
    def test_unit_weights_all_destinations(self, name, net):
        weights = [1.0] * len(net.links)
        for dsw in net.switches:
            _assert_trees_equal(net, dsw, weights)

    @pytest.mark.parametrize("name,net", _small_nets())
    def test_random_weights_and_masks(self, name, net):
        rng = random.Random(7)
        sw_links = _switch_links(net)
        for trial in range(10):
            weights = [1.0 + rng.random() * rng.randrange(1, 50)
                       for _ in range(len(net.links))]
            masked = rng.sample(sw_links, k=rng.randrange(0, 4))
            for dsw in (net.switches[0], net.switches[len(net.switches) // 2],
                        net.switches[-1]):
                _assert_trees_equal(net, dsw, weights, masked)

    def test_faulted_fabric(self):
        net = hyperx((3, 3), 2)
        inject_cable_faults(net, 3, seed=11)
        weights = [1.0] * len(net.links)
        for dsw in net.switches:
            _assert_trees_equal(net, dsw, weights)

    @given(
        st.sampled_from(["hyperx", "torus", "fattree"]),
        st.integers(0, 10 ** 6),
    )
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fuzz_topology_weights_masks(self, kind, seed):
        rng = random.Random(seed)
        if kind == "hyperx":
            shape = tuple(rng.randrange(2, 4) for _ in range(rng.randrange(1, 3)))
            net = hyperx(shape, rng.randrange(1, 3))
        elif kind == "torus":
            shape = tuple(rng.randrange(2, 4) for _ in range(rng.randrange(1, 3)))
            net = torus(shape, rng.randrange(1, 3))
        else:
            net = k_ary_n_tree(2, rng.randrange(2, 4))
        if rng.random() < 0.5:
            try:
                inject_cable_faults(net, rng.randrange(1, 3), seed=seed)
            except TopologyError:
                pass  # tiny fabrics cannot lose that many cables; fine
        weights = [float(rng.randrange(1, 100)) for _ in range(len(net.links))]
        sw_links = _switch_links(net)
        masked = rng.sample(sw_links, k=min(len(sw_links), rng.randrange(0, 5)))
        dsw = rng.choice(net.switches)
        _assert_trees_equal(net, dsw, weights, masked)


def _random_acyclic_dep_sets(rng, channels, dests, max_edges):
    """Per-destination edge sets, each acyclic by construction.

    Orienting every edge along a per-destination random permutation rank
    makes the set a DAG — exactly the shape real destination trees give
    the layering — while cross-destination unions still conflict freely.
    """
    sets = {}
    for dlid in range(dests):
        perm = list(range(channels))
        rng.shuffle(perm)
        rank = {c: i for i, c in enumerate(perm)}
        edges = set()
        for _ in range(rng.randrange(max_edges + 1)):
            a, b = rng.sample(range(channels), 2)
            if rank[a] > rank[b]:
                a, b = b, a
            edges.add((a, b))
        sets[dlid] = frozenset(edges)
    return sets


class TestAssignLayersEquivalence:
    def test_randomized_against_reference(self):
        rng = random.Random(2026)
        for trial in range(150):
            sets = _random_acyclic_dep_sets(
                rng,
                channels=rng.randrange(4, 12),
                dests=rng.randrange(1, 14),
                max_edges=rng.randrange(1, 12),
            )
            max_vls = rng.randrange(1, 5)
            try:
                got = assign_layers(sets, max_vls=max_vls)
            except DeadlockError:
                with pytest.raises(DeadlockError):
                    reference_assign_layers(sets, max_vls=max_vls)
                continue
            assert got == reference_assign_layers(sets, max_vls=max_vls), trial

    def test_real_fixture_dep_sets(self):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(DfssspRouting())
        dep_edges = {
            dlid: dest_dependencies_from_tables(fabric, dlid)
            for dlid in fabric.lidmap.terminal_lids(net)
        }
        vl_of, num = assign_layers(dep_edges)
        assert (vl_of, num) == reference_assign_layers(dep_edges)
        assert (vl_of, num) == (fabric.vl_of_dlid, fabric.num_vls)

    def test_cyclic_single_destination_is_refused(self):
        # Reference silently installed a self-deadlocking destination in
        # a fresh lane; the dynamic-order lane refuses it loudly.  Real
        # destination trees are acyclic, so this only fires on bad input.
        with pytest.raises(DeadlockError, match="cyclic"):
            assign_layers({5: {(1, 2), (2, 1)}})


class TestDenseCdgExtraction:
    def test_matches_generic_per_destination(self):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(DfssspRouting())
        for dlid in fabric.lidmap.terminal_lids(net):
            assert dest_dependencies_from_tables(fabric, dlid) == \
                _dest_dependencies_generic(net, fabric.tables, dlid)

    def test_matches_generic_after_resweep(self):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(MinHopRouting())
        inject_cable_faults(net, 2, seed=5)
        resweep(fabric, MinHopRouting())
        for dlid in fabric.lidmap.terminal_lids(net):
            assert dest_dependencies_from_tables(fabric, dlid) == \
                _dest_dependencies_generic(net, fabric.tables, dlid)

    @pytest.mark.parametrize("budget", [None, 1])
    def test_one_pass_matches_generic_at_any_chunking(self, budget):
        net = hyperx((4, 4), 2)
        fabric = OpenSM(net, lmc=2).run(DfssspRouting())
        inject_cable_faults(net, 2, seed=8)
        resweep(fabric, DfssspRouting())
        dlids = fabric.lidmap.terminal_lids(net)[::-1]
        want = {d: _dest_dependencies_generic(net, fabric.tables, d) for d in dlids}
        if budget is None:
            got = dependencies_by_dest(fabric, dlids)
        else:
            with chunk_bytes(budget):
                got = dependencies_by_dest(fabric, dlids)
        assert got == want
        assert list(got) == dlids

    def test_foreign_rows_fold_in(self):
        net = hyperx((2, 2), 1)
        fabric = OpenSM(net).run(MinHopRouting())
        dlid = fabric.lidmap.terminal_lids(net)[0]
        fake_switch = max(net.switches) + max(net.terminals) + 1
        fabric.tables[fake_switch] = {dlid: _switch_links(net)[0]}
        assert dest_dependencies_from_tables(fabric, dlid) == \
            _dest_dependencies_generic(net, fabric.tables, dlid)
        dlids = fabric.lidmap.terminal_lids(net)
        assert dependencies_by_dest(fabric, dlids) == {
            d: _dest_dependencies_generic(net, fabric.tables, d) for d in dlids
        }


class TestForwardingTablesFacade:
    @pytest.fixture()
    def fabric(self):
        net = hyperx((2, 2), 1)
        return OpenSM(net).run(MinHopRouting())

    def test_setdefault_returns_live_row(self, fabric):
        tables = ForwardingTables(fabric.net, fabric.lidmap)
        sw = fabric.net.switches[0]
        dlid = fabric.lidmap.terminal_lids(fabric.net)[0]
        link = _switch_links(fabric.net)[0]
        # The MutableMapping mixin would return the default dict itself;
        # writes to that object must land in the matrix, so the facade
        # hands back the live row view instead.
        row = tables.setdefault(sw, {})
        row[dlid] = link
        assert tables[sw][dlid] == link
        assert tables.dense[tables.row_of(sw), tables.column_of(dlid)] == link
        assert tables.setdefault(sw, {})[dlid] == link

    def test_behaves_like_dict_of_dicts(self, fabric):
        tables = fabric.tables
        plain = {sw: dict(row) for sw, row in tables.items()}
        assert dict(tables) == {sw: tables[sw] for sw in tables}
        for sw, entries in plain.items():
            assert len(tables[sw]) == len(entries)
            for dlid, link in entries.items():
                assert tables[sw][dlid] == link
                assert dlid in tables[sw]

    def test_overflow_dlid_outside_universe(self, fabric):
        tables = fabric.tables
        sw = fabric.net.switches[0]
        weird_dlid = int(tables.dlids[-1]) + 1000
        assert tables.column_of(weird_dlid) is None
        link = _switch_links(fabric.net)[0]
        tables[sw][weird_dlid] = link
        assert tables[sw][weird_dlid] == link
        assert (sw, weird_dlid, link) in list(tables.overflow_items())
        del tables[sw][weird_dlid]
        assert weird_dlid not in tables[sw]

    def test_foreign_switch_row(self, fabric):
        tables = fabric.tables
        dlid = fabric.lidmap.terminal_lids(fabric.net)[0]
        fake = max(fabric.net.switches) + max(fabric.net.terminals) + 1
        assert tables.row_of(fake) is None
        tables[fake] = {dlid: 0}
        assert fake in tables.foreign_switches()
        assert tables[fake][dlid] == 0
        del tables[fake]
        assert fake not in tables.foreign_switches()
        assert fake not in tables

    def test_clear_column(self, fabric):
        tables = fabric.tables
        dlid = fabric.lidmap.terminal_lids(fabric.net)[0]
        col = tables.column_of(dlid)
        assert (tables.dense[:, col] >= 0).any()
        tables.clear_column(dlid)
        assert (tables.dense[:, col] == NO_ENTRY).all()
        for sw in tables:
            assert dlid not in tables[sw]

    def test_uid_is_process_unique(self, fabric):
        a = ForwardingTables(fabric.net, fabric.lidmap)
        b = ForwardingTables(fabric.net, fabric.lidmap)
        assert a.uid != b.uid
        assert fabric.tables.uid not in (a.uid, b.uid)

    def test_assignment_rewraps_plain_dicts(self, fabric):
        before = fabric.dump_lft()
        plain = {sw: dict(row) for sw, row in fabric.tables.items()}
        fabric.tables = plain
        assert isinstance(fabric.tables, ForwardingTables)
        assert fabric.dump_lft() == before


class TestResolvePathsEquivalence:
    def _cross_check(self, fabric):
        res = fabric.resolve_paths()
        snap = _snapshot_paths(fabric)
        net = fabric.net
        lost = 0
        for (src, dst), path in snap.items():
            if path is None:
                lost += 1
                assert not res.reachable(src, dst)
            else:
                assert res.reachable(src, dst)
                assert res.hop_count(src, dst) == net.path_hops(list(path))
        assert res.num_unreachable == lost
        for t in net.terminals:
            assert not res.reachable(t, t)

    @pytest.mark.parametrize("engine", [MinHopRouting, DfssspRouting])
    def test_healthy_fabric(self, engine):
        net = hyperx((3, 3), 2)
        self._cross_check(OpenSM(net).run(engine()))

    def test_faulted_and_rerouted(self):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(MinHopRouting())
        inject_cable_faults(net, 2, seed=3)
        # Stale tables first: pairs crossing the dead cables must
        # resolve exactly like the per-pair walk (unreachable, not ok).
        self._cross_check(fabric)
        resweep(fabric, MinHopRouting())
        self._cross_check(fabric)

    def test_unreachable_pairs_respects_limit(self):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(MinHopRouting())
        cable = _switch_links(net)[0]
        net.disable_cable(cable)
        res = fabric.resolve_paths()
        if res.num_unreachable:
            assert len(res.unreachable_pairs(limit=1)) == 1
        assert len(res.unreachable_pairs()) == res.num_unreachable


class _ForcedHeavyMinHop(MinHopRouting):
    """MinHop stripped of its incremental capability: forces the heavy
    resweep path so the incremental one can be diffed against it."""

    supports_incremental_resweep = False


class _LossyMinHop(_ForcedHeavyMinHop):
    """MinHop that tolerates unreachable switches instead of raising —
    lets a resweep complete on a partitioned fabric so the report's
    unreachable accounting is exercised."""

    def tree_unreachable(self, switch, dlid):
        pass


class TestIncrementalResweep:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_heavy_sweep_exactly(self, seed):
        fabrics, reports = [], []
        for engine in (MinHopRouting(), _ForcedHeavyMinHop()):
            net = hyperx((3, 3), 2)
            fabric = OpenSM(net).run(engine)
            # Same seed on identically built nets fails the same cables.
            inject_cable_faults(net, 2, seed=seed)
            reports.append(resweep(fabric, engine))
            fabrics.append(fabric)
        inc, heavy = fabrics
        r_inc, r_heavy = reports
        assert inc.dump_lft() == heavy.dump_lft()
        assert inc.vl_of_dlid == heavy.vl_of_dlid
        assert inc.num_vls == heavy.num_vls
        for field in ("dests_affected", "entries_changed", "paths_changed",
                      "pairs_total", "hops_before", "hops_after",
                      "num_unreachable"):
            assert getattr(r_inc, field) == getattr(r_heavy, field), field
        assert r_inc.resweep_ran and r_heavy.resweep_ran
        # The incremental pass only touched the stale destinations.
        assert 0 < r_inc.dests_recomputed < r_heavy.dests_recomputed
        assert r_heavy.dests_recomputed == len(
            inc.lidmap.terminal_lids(inc.net)
        )
        assert r_inc.sweep_seconds > 0 and r_heavy.sweep_seconds > 0

    def test_restore_falls_back_to_heavy(self):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(MinHopRouting())
        cable = inject_cable_faults(net, 1, seed=9)[0]
        report = resweep(fabric, MinHopRouting())
        assert report.dests_recomputed < len(net.terminals)
        net.enable_cable(cable.id)
        report = resweep(
            fabric, MinHopRouting(),
            events=[FabricEvent("restore_cable", phase=0, cable=cable.id)],
        )
        assert report.resweep_ran
        assert report.dests_recomputed == len(
            fabric.lidmap.terminal_lids(net)
        )

    def test_skip_leaves_sweep_seconds_zero(self):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(MinHopRouting())
        report = resweep(fabric, MinHopRouting())
        assert not report.resweep_ran
        assert report.dests_recomputed == 0
        assert report.sweep_seconds == 0.0

    def test_report_to_dict_carries_new_fields(self):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(MinHopRouting())
        inject_cable_faults(net, 1, seed=4)
        payload = resweep(fabric, MinHopRouting()).to_dict()
        assert payload["dests_recomputed"] > 0
        assert payload["sweep_seconds"] > 0
        assert payload["num_unreachable"] == 0

    def test_unreachable_sample_is_capped(self):
        # Isolate one switch of a 27-terminal fabric: 3 terminals x 24
        # partners x 2 directions = 144 lost pairs, over the cap.
        net = hyperx((3, 3), 3)
        fabric = OpenSM(net).run(_LossyMinHop())
        victim = net.switches[0]
        for link_id in _switch_links(net):
            link = net.link(link_id)
            if victim in (link.src, link.dst) and link.enabled:
                net.disable_cable(link.id)
        report = resweep(fabric, _LossyMinHop())
        assert report.num_unreachable == 144
        assert len(report.unreachable_pairs) == UNREACHABLE_SAMPLE_CAP
        assert report.to_dict()["num_unreachable"] == 144


class TestLoadEstimatorEquivalence:
    @pytest.mark.parametrize("engine", [MinHopRouting, DfssspRouting])
    def test_dense_matches_reference(self, engine):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(engine())
        dlids = fabric.lidmap.terminal_lids(net)
        assert estimate_link_loads(fabric) == \
            _estimate_link_loads_reference(fabric, dlids)

    def test_dense_matches_reference_after_faults(self):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(MinHopRouting())
        inject_cable_faults(net, 2, seed=6)
        resweep(fabric, MinHopRouting())
        dlids = fabric.lidmap.terminal_lids(net)
        assert estimate_link_loads(fabric) == \
            _estimate_link_loads_reference(fabric, dlids)

    def test_foreign_rows_take_reference_path(self):
        net = hyperx((2, 2), 1)
        fabric = OpenSM(net).run(MinHopRouting())
        dense = estimate_link_loads(fabric)
        fake = max(net.switches) + max(net.terminals) + 1
        fabric.tables[fake] = {}
        assert estimate_link_loads(fabric) == dense


class TestPayloadRoundtrip:
    def test_v2_roundtrip_is_lossless(self):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(DfssspRouting())
        payload = fabric.to_payload()
        assert payload["format_version"] == FABRIC_FORMAT_VERSION
        clone = Fabric.from_payload(net, payload)
        assert clone.dump_lft() == fabric.dump_lft()
        assert clone.vl_of_dlid == fabric.vl_of_dlid
        assert clone.num_vls == fabric.num_vls

    def test_stale_format_version_is_refused(self):
        net = hyperx((2, 2), 1)
        fabric = OpenSM(net).run(MinHopRouting())
        payload = fabric.to_payload()
        payload["format_version"] = 1
        with pytest.raises(RoutingError, match="format"):
            Fabric.from_payload(net, payload)


#: sha256 of ``Fabric.dump_lft()`` on the seed implementation; the
#: array pipeline must keep producing these exact bytes.
GOLDEN_LFT_DIGESTS = {
    "minhop": "5b2f80266f164077867b35752511087fc336af831f3c7f31b2d99e59a13b8f7c",
    "dfsssp": "83058202690dff61e5cc6123c08a271751b95e90527423fbb6a11b374719265a",
}


class TestGoldenDigests:
    @pytest.mark.parametrize("name,engine", [
        ("minhop", MinHopRouting), ("dfsssp", DfssspRouting),
    ])
    def test_small_hyperx_lft_bytes_are_frozen(self, name, engine):
        net = hyperx((3, 3), 2)
        fabric = OpenSM(net).run(engine())
        digest = hashlib.sha256(fabric.dump_lft().encode()).hexdigest()
        assert digest == GOLDEN_LFT_DIGESTS[name]
