"""Equivalence suite for destination-batched sweeps and chunked passes.

The batched sweep kernel (:func:`repro.routing.arrays.tree_core_batch`)
relaxes a whole block of destination columns per numpy pass; the
sequential :func:`repro.routing.dijkstra.tree_to_destination` stays
alongside as the executable specification.  This module pins them
together three ways:

* hypothesis-fuzzed kernel equivalence on random weights and random
  link masks, column by column against the sequential tree;
* whole-fabric bit-equality (dense matrix, overflow, notes, lanes) of
  an engine's tree-job sweep against the per-LID loop in
  ``tests/oracles.py`` (:func:`reference_tree_sweep`), for every engine
  that declares a tree job — full sweeps, fallbacks, incremental
  re-sweeps after cable faults, and partitioned planes;
* frozen 672-node golden LFT digests per batched engine, and for the
  SSSP family (which routes one LID at a time) golden digests, lane
  counts and notes recorded before its kernel changed.

The chunked dense passes (destination-chunked table walkers, load
estimator and what-if incidence scan) are pinned byte-identical against
themselves under a one-item chunk size, and the narrowed forwarding
dtype's overflow refusal and cache-format bump are covered at the end.
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.load import estimate_link_loads
from repro.analysis.whatif import audit_whatif
from repro.core.chunking import (
    chunk_bytes,
    get_chunk_bytes,
    items_per_chunk,
    set_chunk_bytes,
)
from repro.core.errors import RoutingError
from repro.ib.fabric import Fabric
from repro.ib.subnet_manager import OpenSM, resweep
from repro.ib.tables import table_dtype_for
from repro.routing import create_engine, engine_names
from repro.routing.arrays import UNREACHED_HOPS, tree_core_batch
from repro.routing.base import declares_tree_job
from repro.routing.dijkstra import tree_to_destination
from repro.routing.fthx import link_dest_jitter_block
from repro.routing.parx import ParxRouting
from repro.routing.parx_nd import NdParxRouting
from repro.topology.hyperx import hyperx, hyperx_shape_of
from repro.topology.t2hx import t2hx_hyperx
from repro.topology.torus import torus
from tests.oracles import link_dest_jitter, reference_tree_engine

BATCHED_ENGINES = [
    n for n in engine_names() if declares_tree_job(create_engine(n))
]


def _engine(name, batched):
    """The engine, or (``batched=False``) its per-LID reference sweep."""
    engine = create_engine(name)
    return engine if batched else reference_tree_engine(engine)


def _sweep(name, *, batched, net=None, scale=2, seed=1):
    if net is None:
        net = t2hx_hyperx(with_faults=True, seed=seed, scale=scale)
    return OpenSM(net).run(_engine(name, batched))


def _assert_fabrics_equal(fa, fb):
    assert np.array_equal(fa.tables.dense, fb.tables.dense)
    assert dict(fa.tables.overflow_items()) == dict(fb.tables.overflow_items())
    assert fa.notes == fb.notes
    assert fa.vl_of_dlid == fb.vl_of_dlid
    assert fa.num_vls == fb.num_vls
    assert fa.dump_lft() == fb.dump_lft()


class TestBatchKernelEquivalence:
    """tree_core_batch column-by-column against tree_to_destination."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_weights_and_masks(self, data):
        shape = data.draw(st.sampled_from([(3, 3), (4, 2), (2, 2, 2)]))
        net = hyperx(shape, 1) if len(shape) == 2 else torus(shape, 1)
        graph = net.switch_graph()
        num_links = len(net.links)
        weights = data.draw(st.lists(
            st.floats(0.0, 8.0, allow_nan=False, width=32),
            min_size=num_links, max_size=num_links,
        ))
        cables = [
            l.id for l in net.iter_links()
            if net.is_switch(l.src) and net.is_switch(l.dst)
        ]
        masked = frozenset(data.draw(st.lists(
            st.sampled_from(cables), max_size=3, unique=True,
        )))
        roots = list(range(graph.num_switches))
        view = graph.masked(masked) if masked else graph
        plid, hops = tree_core_batch(view, roots, weights)
        for c, root_u in enumerate(roots):
            dsw = graph.switches[root_u]
            parent, ref_hops = tree_to_destination(net, dsw, weights, masked)
            for u in range(graph.num_switches):
                sw = graph.switches[u]
                if u == root_u:
                    assert plid[u, c] == -1 and hops[u, c] == 0
                elif sw in parent:
                    assert plid[u, c] == parent[sw]
                    assert hops[u, c] == ref_hops[sw]
                else:
                    assert plid[u, c] == -1
                    assert hops[u, c] == UNREACHED_HOPS

    def test_per_column_weight_matrix(self):
        net = hyperx((3, 3), 1)
        graph = net.switch_graph()
        rng = np.random.default_rng(7)
        k = graph.num_switches
        wts = rng.uniform(0.0, 4.0, size=(len(net.links), k))
        roots = list(range(k))
        plid, hops = tree_core_batch(graph, roots, wts)
        for c, root_u in enumerate(roots):
            dsw = graph.switches[root_u]
            parent, ref_hops = tree_to_destination(
                net, dsw, wts[:, c].tolist()
            )
            for u in range(k):
                sw = graph.switches[u]
                if u == root_u:
                    continue
                assert plid[u, c] == parent.get(sw, -1)


class TestBatchedSweepEquality:
    """Whole-fabric bit-equality, tree-job sweep vs per-LID reference."""

    @pytest.mark.parametrize("name", BATCHED_ENGINES)
    def test_full_sweep_matches_sequential(self, name):
        _assert_fabrics_equal(
            _sweep(name, batched=True), _sweep(name, batched=False)
        )

    def test_fatpaths_fallback_notes_match(self):
        # scale=4 collapses the plane to 4 switches, where every layer
        # mask disconnects something: the fallback path must fire and
        # note identically in both modes.
        fa = _sweep("fatpaths", batched=True, scale=4, seed=0)
        fb = _sweep("fatpaths", batched=False, scale=4, seed=0)
        assert fa.notes and any("fallback" in n for n in fa.notes)
        _assert_fabrics_equal(fa, fb)

    @pytest.mark.parametrize("name", BATCHED_ENGINES)
    def test_resweep_after_fault_matches_sequential(self, name):
        reports = []
        fabrics = []
        for batched in (True, False):
            net = t2hx_hyperx(with_faults=True, seed=1, scale=2)
            fab = OpenSM(net).run(_engine(name, batched))
            cable = next(
                l for l in net.iter_links()
                if net.is_switch(l.src) and net.is_switch(l.dst)
            )
            net.disable_cable(cable.id)
            reports.append(resweep(fab, _engine(name, batched)))
            fabrics.append(fab)
        _assert_fabrics_equal(*fabrics)
        ra, rb = reports
        assert ra.dests_affected == rb.dests_affected
        assert ra.entries_changed == rb.entries_changed
        assert ra.pairs_affected == rb.pairs_affected
        assert ra.paths_changed == rb.paths_changed
        assert ra.num_unreachable == rb.num_unreachable
        assert ra.dests_recomputed == rb.dests_recomputed
        # Both runs must have taken the incremental path: only the
        # stale destinations recomputed, not the whole LID space.
        total = len(fabrics[0].lidmap.terminal_lids(fabrics[0].net))
        assert 0 < ra.dests_recomputed == ra.dests_affected < total


class TestJitterBlock:
    @settings(max_examples=50, deadline=None)
    @given(
        dlids=st.lists(st.integers(0, 2**48), min_size=1, max_size=6),
        num_links=st.integers(1, 64),
    )
    def test_every_column_equals_the_scalar_jitter(self, dlids, num_links):
        link_ids = np.arange(num_links, dtype=np.int64)
        block = link_dest_jitter_block(link_ids, dlids)
        assert block.shape == (num_links, len(dlids))
        for j, dlid in enumerate(dlids):
            want = link_dest_jitter(link_ids, dlid)
            assert np.array_equal(
                block[:, j].view(np.uint64), want.view(np.uint64)
            ), dlid

    def test_lids_past_16_bits_are_covered(self):
        link_ids = np.arange(40, dtype=np.int64)
        dlids = [1, 2**16, 2**16 + 1, 2**32 + 7, 2**48]
        block = link_dest_jitter_block(link_ids, dlids)
        for j, dlid in enumerate(dlids):
            assert np.array_equal(block[:, j], link_dest_jitter(link_ids, dlid))


#: sha256 of ``Fabric.dump_lft()`` (and the lane count) on the faulted
#: 672-node plane for every batched engine: the batched kernel must
#: keep producing the exact sequential-era bytes.
GOLDEN_672 = {
    "minhop": (
        "c9f7a3a243c4eafd39a766f891aebff7219d93b8705b73032777b3248ccb598f", 2),
    "fthx": (
        "919c279de2f76d641e3226d7e5361ca4c6d306e6ce59ec8946a846cb6b46eb33", 4),
    "fatpaths": (
        "1e674b9e34288f31c19d86f95af4fdd576fa59675f1ba029862bef84df0d3c5a", 7),
}


class TestGolden672Digests:
    @pytest.mark.parametrize("name", sorted(GOLDEN_672))
    def test_full_plane_lft_bytes_are_frozen(self, name):
        fab = _sweep(name, batched=True, scale=1)
        digest = hashlib.sha256(fab.dump_lft().encode()).hexdigest()
        want_digest, want_vls = GOLDEN_672[name]
        assert digest == want_digest
        assert fab.num_vls == want_vls


#: The SSSP family (weight feedback between destinations, so no
#: destination batching): sha256 of ``Fabric.dump_lft()``, lane count,
#: note count and sha256 of the joined ``fabric.notes`` per case,
#: recorded on the heap-Dijkstra sweep before the array-native feedback
#: kernel replaced it.  ``parx-profiled-fallback`` routes a seeded
#: synthetic profile on a plane whose corner switch is cut off from the
#: right half, so all 672 LID0 trees take the footnote-7 fallback.
GOLDEN_SSSP_FAMILY = {
    "sssp": (
        "387031dad658cb6f78e14ff9a42b9ed068a14deadeab30ed0c2a7c07e87cfa1e",
        1, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "dfsssp": (
        "367f9138661e11127e13b6ad11531688bbd4a45241397ad14ab2f9877e333cde",
        5, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "parx": (
        "e6bef5d5472918936bdb258bda3102309fad1c421d9a2db93bec92e21605b4c7",
        5, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "parx-profiled-fallback": (
        "1e8e898432a0e4288eb511a9758caf709858ecebc26ac9a495eca6c2b5d7497f",
        8, 672,
        "b81a981a6a307aa269ff13a32aebca2b3659dd8629d417e43ec973b8ee3c9893"),
    "parx-nd-4x4x4": (
        "1e9cc2688113b48dc1bef6befc43ce3f37b98a9b1187487f8f502e06e75c6e9d",
        12, 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def _isolate_corner_from_right_half(net):
    """Cut the corner switch's dim-0 cables into the right half, so the
    "remove left half" rule (R1) leaves it unreachable and every LID0
    tree takes the footnote-7 fallback."""
    corner = net.switches[0]
    assert net.node_meta(corner)["coord"] == (0, 0)
    half = hyperx_shape_of(net)[0] // 2
    for link in list(net.out_links(corner)):
        if (link.enabled and net.is_switch(link.dst)
                and link.meta.get("dim") == 0
                and net.node_meta(link.dst)["coord"][0] >= half):
            net.disable_cable(link.id)


def _synthetic_profile(net, seed=7, pairs=400):
    """Seeded normalised (1..255) demands between random terminal pairs."""
    rng = np.random.default_rng(seed)
    terms = net.terminals
    demands = {}
    for _ in range(pairs):
        a, b = rng.choice(len(terms), size=2, replace=False)
        demands.setdefault(terms[a], {})[terms[b]] = int(rng.integers(1, 256))
    return demands


def _family_fabric(case):
    """Route one SSSP-family pin case; see ``GOLDEN_SSSP_FAMILY``."""
    if case == "parx-nd-4x4x4":
        net = hyperx((4, 4, 4), 1)
        return OpenSM(net, lmc=3, max_vls=16).run(NdParxRouting())
    net = t2hx_hyperx(with_faults=True, seed=1, scale=1)
    if case == "parx-profiled-fallback":
        _isolate_corner_from_right_half(net)
        return OpenSM(net).run(ParxRouting(_synthetic_profile(net)))
    return OpenSM(net).run(create_engine(case))


def _notes_digest(fab):
    return hashlib.sha256("\n".join(fab.notes).encode()).hexdigest()


class TestGoldenSsspFamily:
    @pytest.mark.parametrize("case", sorted(GOLDEN_SSSP_FAMILY))
    def test_family_lft_bytes_and_notes_are_frozen(self, case):
        fab = _family_fabric(case)
        digest = hashlib.sha256(fab.dump_lft().encode()).hexdigest()
        want = GOLDEN_SSSP_FAMILY[case]
        assert (digest, fab.num_vls, len(fab.notes), _notes_digest(fab)) == want


class TestChunkedPasses:
    """One-destination chunks must reproduce default-chunk bytes."""

    def test_chunk_knob_roundtrip(self):
        base = get_chunk_bytes()
        prev = set_chunk_bytes(123)
        assert prev == base
        assert get_chunk_bytes() == 123
        assert items_per_chunk(40) == 3
        assert items_per_chunk(10**9) == 1  # never zero items
        set_chunk_bytes(base)

    def test_chunk_context_manager_restores(self):
        base = get_chunk_bytes()
        with chunk_bytes(123):
            assert get_chunk_bytes() == 123
            with chunk_bytes(456):
                assert get_chunk_bytes() == 456
            assert get_chunk_bytes() == 123
        assert get_chunk_bytes() == base

    def test_load_estimate_chunk_invariant(self):
        fab = _sweep("fthx", batched=True)
        with chunk_bytes(1):  # one destination per chunk everywhere
            loads_tiny = estimate_link_loads(fab)
        with chunk_bytes(64 * 1024 * 1024):
            assert estimate_link_loads(fab) == loads_tiny

    def test_whatif_report_chunk_invariant(self):
        fab = _sweep("fthx", batched=True)
        with chunk_bytes(1):
            tiny = json.loads(audit_whatif(fab, k2_samples=4, seed=9).to_json())
        with chunk_bytes(64 * 1024 * 1024):
            big = json.loads(audit_whatif(fab, k2_samples=4, seed=9).to_json())
        tiny["summary"]["elapsed_seconds"] = 0
        big["summary"]["elapsed_seconds"] = 0
        assert tiny == big

    def test_resolve_paths_chunk_invariant(self):
        fab = _sweep("fthx", batched=True)
        with chunk_bytes(1):
            tiny = fab.resolve_paths()
        with chunk_bytes(64 * 1024 * 1024):
            big = fab.resolve_paths()
        for f in tiny.__dataclass_fields__:
            a, b = getattr(tiny, f), getattr(big, f)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f
            else:
                assert a == b, f

    def test_destination_blocks_honour_chunk_bytes(self):
        from repro.routing.base import destination_blocks
        fab = _sweep("minhop", batched=True, scale=4, seed=0)
        dlids = fab.lidmap.terminal_lids(fab.net)
        with chunk_bytes(1):
            blocks = destination_blocks(fab, dlids)
        assert all(len(b) == 1 for b in blocks)
        assert [d for b in blocks for d in b] == list(dlids)


class TestNarrowDtype:
    def test_dtype_for_link_space(self):
        assert table_dtype_for(100) == np.int16
        assert table_dtype_for(np.iinfo(np.int16).max) == np.int16
        assert table_dtype_for(np.iinfo(np.int16).max + 1) == np.int32

    def test_small_fabric_tables_are_int16(self):
        fab = _sweep("minhop", batched=True, scale=4, seed=0)
        assert fab.tables.dense.dtype == np.int16

    def test_scalar_overflow_is_refused(self):
        fab = _sweep("minhop", batched=True, scale=4, seed=0)
        tables = fab.tables
        sw = fab.net.switches[0]
        dlid = int(tables.dlids[0])
        with pytest.raises(RoutingError, match="dtype"):
            tables[sw][dlid] = int(np.iinfo(np.int16).max) + 1

    def test_row_array_overflow_is_refused(self):
        fab = _sweep("minhop", batched=True, scale=4, seed=0)
        tables = fab.tables
        row = np.full(len(tables.dlids), np.iinfo(np.int16).max + 1,
                      dtype=np.int64)
        with pytest.raises(RoutingError, match="dtype"):
            tables.install_row_array(fab.net.switches[0], row)


class TestFormatV4Cache:
    def test_sidecar_records_rows_dtype(self, tmp_path):
        fab = _sweep("minhop", batched=True, scale=4, seed=0)
        path = tmp_path / "fab.json"
        fab.save(path, arrays=True)
        payload = json.loads(path.read_text())
        assert payload["tables"]["rows_dtype"] == "int16"
        clone = Fabric.load(fab.net, path)
        assert np.array_equal(clone.tables.dense, fab.tables.dense)
        assert clone.tables.dense.dtype == fab.tables.dense.dtype

    def test_stale_sidecar_dtype_is_refused(self, tmp_path):
        fab = _sweep("minhop", batched=True, scale=4, seed=0)
        path = tmp_path / "fab.json"
        fab.save(path, arrays=True)
        payload = json.loads(path.read_text())
        sidecar = tmp_path / payload["tables"]["rows_file"]
        np.save(sidecar, np.load(sidecar).astype(np.int32))
        with pytest.raises(RoutingError, match="dtype"):
            Fabric.load(fab.net, path)
