"""Worker-count invariance suite for the shared-memory sweep pool.

The pool (:mod:`repro.core.parallel`) shards destination columns across
spawn workers; because no kernel lets one destination's result feed
another's, the shard boundaries can never change an output bit.  This
module pins that promise from four directions:

* whole-fabric bit-equality (tables, notes, lanes, LFT dump) at worker
  counts 1, 2, and 8 — cold sweeps, faulted fabrics, and incremental
  re-sweeps with identical :class:`RerouteReport` counters — for every
  engine that declares a tree job;
* the frozen 672-node golden LFT digests reproduced *through the pool*;
* hypothesis-fuzzed equivalence of the sharded in-process tree op
  against one whole-block ``tree_core_batch`` call;
* the degraded paths: worker-count/column-floor gates, spawn failure,
  mid-job worker errors, and SIGKILLed workers must all land back on
  the in-process run (or a respawned pool) with identical results.
"""

import hashlib
import os
import signal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.load import estimate_link_loads
from repro.analysis.whatif import audit_whatif
from repro.core import parallel as par
from repro.core.parallel import (
    SweepPoolError,
    column_floor,
    get_column_floor,
    get_sweep_workers,
    parallel_stats,
    reset_parallel_stats,
    run_tree_job,
    set_sweep_workers,
    shutdown_sweep_pool,
    sweep_pool_pids,
    sweep_workers,
)
from repro.core.errors import UnreachableError
from repro.ib.subnet_manager import OpenSM, resweep
from repro.routing import create_engine, engine_names
from repro.routing.arrays import tree_core_batch
from repro.routing.base import declares_tree_job
from repro.topology.hyperx import hyperx
from repro.topology.t2hx import t2hx_hyperx
from tests.oracles import reference_tree_engine
from tests.test_batched_routing import GOLDEN_672, _assert_fabrics_equal

PARALLEL_ENGINES = [
    n for n in engine_names() if declares_tree_job(create_engine(n))
]


@pytest.fixture(autouse=True)
def _pool_hygiene():
    """Every test starts with fresh counters and ends with no pool."""
    reset_parallel_stats()
    yield
    shutdown_sweep_pool()


def _route(name, workers, *, scale=2, seed=1, floor=1):
    with sweep_workers(workers), column_floor(floor):
        net = t2hx_hyperx(with_faults=True, seed=seed, scale=scale)
        return OpenSM(net).run(create_engine(name))


class TestWorkerCountInvariance:
    def test_expected_engines_are_parallel_safe(self):
        assert {"minhop", "fthx", "fatpaths"} <= set(PARALLEL_ENGINES)

    @pytest.mark.parametrize("name", PARALLEL_ENGINES)
    def test_cold_sweep_identical_at_1_2_8(self, name):
        serial = _route(name, 1)
        assert parallel_stats()["parallel_sweeps"] == 0
        for workers in (2, 8):
            reset_parallel_stats()
            fab = _route(name, workers)
            assert parallel_stats()["parallel_sweeps"] >= 1, workers
            _assert_fabrics_equal(serial, fab)

    @pytest.mark.parametrize("name", PARALLEL_ENGINES)
    def test_resweep_after_fault_identical(self, name):
        reports, fabrics = [], []
        for workers in (1, 2):
            with sweep_workers(workers), column_floor(1):
                net = t2hx_hyperx(with_faults=True, seed=1, scale=2)
                fab = OpenSM(net).run(create_engine(name))
                cable = next(
                    l for l in net.iter_links()
                    if net.is_switch(l.src) and net.is_switch(l.dst)
                )
                net.disable_cable(cable.id)
                reset_parallel_stats()
                reports.append(resweep(fab, create_engine(name)))
                fabrics.append(fab)
                if workers > 1:
                    # The incremental recompute itself must have sharded
                    # (the floor is 1), not just the cold sweep before it.
                    assert parallel_stats()["parallel_sweeps"] >= 1
        _assert_fabrics_equal(*fabrics)
        ra, rb = reports
        for field in (
            "dests_affected", "entries_changed", "pairs_affected",
            "paths_changed", "num_unreachable", "dests_recomputed",
        ):
            assert getattr(ra, field) == getattr(rb, field), field

    @pytest.mark.parametrize("name", sorted(GOLDEN_672))
    def test_golden_672_digests_through_the_pool(self, name):
        fab = _route(name, 2, scale=1)
        digest = hashlib.sha256(fab.dump_lft().encode()).hexdigest()
        want_digest, want_vls = GOLDEN_672[name]
        assert digest == want_digest
        assert fab.num_vls == want_vls


#: The first failure each engine reports on the partitioned plane of
#: :class:`TestPartitionedPlane` (fatpaths' LMC 2 puts its first
#: terminal at LID 4).
PARTITION_ERRORS = {
    "minhop": "switch 5 cannot reach destination lid 1",
    "fthx": "switch 5 cannot reach destination lid 1",
    "fatpaths": "switch 5 cannot reach destination lid 4",
}


def _cut_switch_5(net):
    victim = net.switches[5]
    for link in list(net.iter_links()):
        if (net.is_switch(link.src) and net.is_switch(link.dst)
                and victim in (link.src, link.dst)):
            net.disable_cable(link.id)


def _partition_error(name, mode, engine):
    """The UnreachableError message of one cold sweep or re-sweep of a
    4x4 HyperX (2 terminals per switch) with switch 5's cables cut."""
    net = hyperx((4, 4), 2)
    if mode == "cold":
        _cut_switch_5(net)
    else:
        fab = OpenSM(net).run(create_engine(name))
        _cut_switch_5(net)
    with pytest.raises(UnreachableError) as err:
        if mode == "cold":
            OpenSM(net).run(engine)
        else:
            resweep(fab, engine)
    return str(err.value)


class TestPartitionedPlane:
    """A partitioned plane raises the same error on every sweep path."""

    @pytest.mark.parametrize("mode", ["cold", "resweep"])
    @pytest.mark.parametrize("name", sorted(PARTITION_ERRORS))
    def test_same_unreachable_error_pooled_and_in_process(self, name, mode):
        want = PARTITION_ERRORS[name]
        oracle = reference_tree_engine(create_engine(name))
        assert _partition_error(name, mode, oracle) == want
        for workers in (1, 2):
            reset_parallel_stats()
            with sweep_workers(workers), column_floor(1):
                got = _partition_error(name, mode, create_engine(name))
                assert got == want, workers
                if workers > 1:
                    assert parallel_stats()["parallel_sweeps"] >= 1


class TestAnalysisInvariance:
    """Chunked consumers: loads, path walks, what-if scan."""

    @pytest.fixture(scope="class")
    def fthx_fabric(self):
        net = t2hx_hyperx(with_faults=True, seed=1, scale=2)
        return OpenSM(net).run(create_engine("fthx"))

    def test_link_loads(self, fthx_fabric):
        serial = estimate_link_loads(fthx_fabric)
        with sweep_workers(2), column_floor(1):
            assert estimate_link_loads(fthx_fabric) == serial
        assert parallel_stats()["parallel_loads"] >= 1

    def test_resolve_paths(self, fthx_fabric):
        serial = fthx_fabric.resolve_paths()
        with sweep_workers(2), column_floor(1):
            parallel = fthx_fabric.resolve_paths()
        assert parallel_stats()["parallel_walks"] >= 1
        for f in serial.__dataclass_fields__:
            a, b = getattr(serial, f), getattr(parallel, f)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f
            else:
                assert a == b, f

    def test_whatif_report(self, fthx_fabric):
        serial = audit_whatif(fthx_fabric, k2_samples=4, seed=9).to_dict()
        with sweep_workers(2), column_floor(1):
            parallel = audit_whatif(
                fthx_fabric, k2_samples=4, seed=9
            ).to_dict()
        assert parallel_stats()["parallel_scans"] >= 1
        serial["summary"]["elapsed_seconds"] = 0
        parallel["summary"]["elapsed_seconds"] = 0
        assert serial == parallel


class TestSerialFallback:
    def test_workers_one_never_spawns_a_pool(self):
        _route("minhop", 1)
        stats = parallel_stats()
        assert stats["pool_spawns"] == 0
        assert stats["parallel_sweeps"] == 0
        assert sweep_pool_pids() == []

    def test_column_floor_gates_small_fabrics(self):
        serial = _route("minhop", 1)
        fab = _route("minhop", 2, floor=10**6)
        assert parallel_stats()["pool_spawns"] == 0
        _assert_fabrics_equal(serial, fab)

    def test_spawn_failure_latches_and_falls_back(self, monkeypatch):
        serial = _route("minhop", 1)

        class _Broken:
            def __init__(self, workers):
                raise RuntimeError("no processes for you")

        monkeypatch.setattr(par, "_SweepPool", _Broken)
        with sweep_workers(2), column_floor(1):
            net = t2hx_hyperx(with_faults=True, seed=1, scale=2)
            fab = OpenSM(net).run(create_engine("minhop"))
            # The latch holds for the rest of the scope: one failed
            # spawn, then straight to serial without retrying.
            assert par._spawn_broken
        _assert_fabrics_equal(serial, fab)
        stats = parallel_stats()
        assert stats["serial_fallbacks"] >= 1
        assert stats["parallel_sweeps"] == 0
        # Reconfiguring the worker count cleared the latch.
        assert not par._spawn_broken

    def test_mid_job_error_falls_back_and_tears_down(self, monkeypatch):
        serial = _route("minhop", 1)

        def exploding_collect(self, count):
            raise SweepPoolError("worker task failed")

        monkeypatch.setattr(par._SweepPool, "collect", exploding_collect)
        fab = _route("minhop", 2)
        _assert_fabrics_equal(serial, fab)
        assert parallel_stats()["serial_fallbacks"] >= 1
        assert sweep_pool_pids() == []  # failed pool was torn down


class TestPoolLifecycle:
    def test_pool_persists_across_jobs(self):
        with sweep_workers(2), column_floor(1):
            net = t2hx_hyperx(with_faults=True, seed=1, scale=2)
            OpenSM(net).run(create_engine("minhop"))
            first = sweep_pool_pids()
            assert len(first) == 2
            OpenSM(net).run(create_engine("minhop"))
            assert sweep_pool_pids() == first
        assert parallel_stats()["pool_spawns"] == 1

    def test_killed_workers_are_respawned(self):
        serial = _route("minhop", 1)
        with sweep_workers(2), column_floor(1):
            net = t2hx_hyperx(with_faults=True, seed=1, scale=2)
            OpenSM(net).run(create_engine("minhop"))
            first = sweep_pool_pids()
            assert first
            for pid in first:
                os.kill(pid, signal.SIGKILL)
            for proc in par._pool.procs:
                proc.join(timeout=10.0)
                assert not proc.is_alive(), "worker did not die"
            # The next job notices the dead pool, respawns, and still
            # produces the serial bits.
            fab = OpenSM(net).run(create_engine("minhop"))
            _assert_fabrics_equal(serial, fab)
            assert sweep_pool_pids()
            assert set(sweep_pool_pids()) != set(first)
        assert parallel_stats()["pool_spawns"] == 2

    def test_shutdown_is_idempotent(self):
        shutdown_sweep_pool()
        shutdown_sweep_pool()
        assert sweep_pool_pids() == []

    def test_run_tree_job_declines_without_workers(self):
        job = par.TreeJob(
            num_switches=4, num_links=8,
            roots=np.zeros(4, dtype=np.int64),
            dest_switches=[0, 1, 2, 3],
            weights={"kind": "unit", "num_links": 8},
            shards=[], block_cols=4,
        )
        with sweep_workers(1):
            assert run_tree_job(job) is None
        with sweep_workers(2), column_floor(10**6):
            assert run_tree_job(job) is None


class TestKnobs:
    def test_set_sweep_workers_returns_previous_and_clamps(self):
        base = get_sweep_workers()
        prev = set_sweep_workers(3)
        assert prev == base
        assert get_sweep_workers() == 3
        set_sweep_workers(-5)
        assert get_sweep_workers() == 1
        set_sweep_workers(base)

    def test_sweep_workers_context_restores_on_error(self):
        base = get_sweep_workers()
        with pytest.raises(ValueError):
            with sweep_workers(7):
                assert get_sweep_workers() == 7
                raise ValueError("boom")
        assert get_sweep_workers() == base

    def test_column_floor_context(self):
        base = get_column_floor()
        with column_floor(3):
            assert get_column_floor() == 3
            with column_floor(1):
                assert get_column_floor() == 1
            assert get_column_floor() == 3
        assert get_column_floor() == base

    def test_stats_reset(self):
        par._stats["parallel_sweeps"] = 5
        reset_parallel_stats()
        assert all(v == 0 for v in parallel_stats().values())


class TestShardedTreeOp:
    """The worker op, in-process, against one whole-block kernel call."""

    def test_shard_ranges_partition(self):
        for total in (0, 1, 5, 128, 1000):
            for parts in (1, 2, 7, 64):
                ranges = par._shard_ranges(total, parts)
                assert len(ranges) <= parts
                flat = [i for lo, hi in ranges for i in range(lo, hi)]
                assert flat == list(range(total))
                assert all(hi > lo for lo, hi in ranges)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_op_tree_matches_whole_block(self, data):
        net = hyperx((3, 3), 1)
        graph = net.switch_graph()
        k = graph.num_switches
        num_links = len(net.links)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        weights = rng.uniform(0.1, 4.0, size=num_links)
        roots = np.arange(k, dtype=np.int64)

        expect, _ = tree_core_batch(graph, roots, weights)

        parts = data.draw(st.integers(1, 5))
        block = data.draw(st.integers(1, k))
        out = np.full((k, k), -7, dtype=np.int32)
        for lo, hi in par._shard_ranges(k, parts):
            par._op_tree({
                "graph": {
                    "num_switches": k,
                    "in_ptr": graph.in_ptr,
                    "in_src": graph.in_src,
                    "in_link": graph.in_link,
                },
                "out": out,
                "cols": np.arange(lo, hi, dtype=np.int64),
                "roots": roots[lo:hi],
                "weights": {"kind": "array", "data": weights},
                "block_cols": block,
            }, [])
        assert np.array_equal(out, expect)

    def test_maybe_attach_passes_raw_arrays_through(self):
        arr = np.arange(4)
        assert par._maybe_attach(arr, []) is arr
        assert par._maybe_attach({"no": "desc"}, []) == {"no": "desc"}
