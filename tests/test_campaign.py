"""Contract tests for the campaign subsystem (spec, ledger, engine)
and the serialization layers it rests on (RunSpec, Fabric payloads)."""

import json

import pytest

import repro.campaign as campaign_pkg
import repro.experiments as experiments_pkg
from repro.campaign import (
    CampaignSpec,
    Ledger,
    campaign_paths,
    capability_grid,
    run_campaign,
    summarize,
)
from repro.core.errors import ConfigurationError, RoutingError
from repro.experiments import (
    BASELINE,
    RunSpec,
    build_fabric,
    clear_fabric_cache,
    get_combination,
)
from repro.ib.fabric import FABRIC_FORMAT_VERSION, Fabric


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Campaign cache counters are asserted below; isolate from the
    in-memory fabrics other tests may have left behind."""
    clear_fabric_cache()
    yield
    clear_fabric_cache()


def _tiny_spec(benchmarks=("CoMD",), nodes=(8,), name="t"):
    return CampaignSpec(
        name,
        capability_grid(
            ["ft-ftree-linear", "hx-dfsssp-linear"],
            list(benchmarks),
            list(nodes),
            reps=1,
            scale=2,
            sim_mode="static",
        ),
    )


class TestRunSpecRoundTrip:
    def test_json_round_trip(self):
        spec = RunSpec("hx-parx-clustered", "imb:Alltoall:4194304",
                       num_nodes=28, reps=5, scale=2, seed=3,
                       sim_mode="static", faults=False, preflight=False)
        assert RunSpec.from_json(spec.to_json()) == spec
        assert RunSpec.from_dict(json.loads(spec.to_json())) == spec

    def test_defaults_survive(self):
        spec = RunSpec("ft-ftree-linear", "CoMD", num_nodes=8)
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_unknown_fields_rejected(self):
        spec = RunSpec("ft-ftree-linear", "CoMD", num_nodes=8)
        d = spec.to_dict()
        d["surprise"] = 1
        with pytest.raises(ConfigurationError):
            RunSpec.from_dict(d)

    def test_cell_id(self):
        spec = RunSpec("ft-ftree-linear", "CoMD", num_nodes=8, scale=2)
        assert spec.cell_id == "ft-ftree-linear/CoMD/n8/s2"

    def test_combo_resolution(self):
        assert RunSpec("hx-parx-clustered", "x", num_nodes=1).combo.uses_parx
        with pytest.raises(ConfigurationError):
            _ = RunSpec("no-such-combo", "x", num_nodes=1).combo


class TestFabricSerialization:
    def test_round_trip_is_byte_identical(self, tmp_path):
        fabric = build_fabric(BASELINE, scale=2)
        path = tmp_path / "fab.json"
        fabric.save(path)
        loaded = Fabric.load(fabric.net, path)
        assert json.dumps(loaded.to_payload(), sort_keys=True) == json.dumps(
            fabric.to_payload(), sort_keys=True
        )
        # And routing state survives exactly.
        assert loaded.dump_lft() == fabric.dump_lft()
        assert loaded.lidmap.base == fabric.lidmap.base
        assert loaded.vl_of_dlid == fabric.vl_of_dlid

    def test_format_version_stamped_and_enforced(self, tmp_path):
        fabric = build_fabric(BASELINE, scale=2)
        payload = fabric.to_payload()
        assert payload["format_version"] == FABRIC_FORMAT_VERSION
        payload["format_version"] = FABRIC_FORMAT_VERSION + 1
        with pytest.raises(RoutingError):
            Fabric.from_payload(fabric.net, payload)

    def test_wrong_network_rejected(self):
        fabric = build_fabric(BASELINE, scale=2)
        other = build_fabric(get_combination("hx-dfsssp-linear"), scale=2)
        with pytest.raises(RoutingError):
            Fabric.from_payload(other.net, fabric.to_payload())

    def test_sidecar_mmap_and_eager_loads_are_byte_identical(self, tmp_path):
        import numpy as np

        fabric = build_fabric(BASELINE, scale=2)
        path = tmp_path / "fab.json"
        fabric.save(path, arrays=True)
        assert Fabric.rows_sidecar(path).exists()
        eager = Fabric.load(fabric.net, path)
        mm = Fabric.load(fabric.net, path, mmap_mode="c")
        assert not eager.tables.is_mmap_backed
        assert mm.tables.is_mmap_backed
        assert np.array_equal(eager.tables.dense, fabric.tables.dense)
        assert np.array_equal(mm.tables.dense, fabric.tables.dense)
        assert mm.dump_lft() == eager.dump_lft() == fabric.dump_lft()
        assert mm.lidmap.base == fabric.lidmap.base
        assert mm.vl_of_dlid == fabric.vl_of_dlid

    def test_mmap_writes_never_touch_the_cache_file(self, tmp_path):
        """mmap_mode='c' is copy-on-write: a re-sweep mutating the
        attached tables lands in private pages, so the shared cache file
        stays exactly what the first writer stored."""
        import numpy as np

        fabric = build_fabric(BASELINE, scale=2)
        path = tmp_path / "fab.json"
        fabric.save(path, arrays=True)
        sidecar = Fabric.rows_sidecar(path)
        before = sidecar.read_bytes()
        mm = Fabric.load(fabric.net, path, mmap_mode="c")
        sw = fabric.net.switches[0]
        dlid = next(iter(mm.tables[sw]))
        del mm.tables[sw][dlid]  # write to the attached matrix
        assert dlid not in mm.tables[sw]
        assert sidecar.read_bytes() == before
        # A fresh eager load still sees the original entry.
        assert dlid in Fabric.load(fabric.net, path).tables[sw]
        assert np.count_nonzero(
            Fabric.load(fabric.net, path).tables.dense
            != mm.tables.dense
        ) == 1

    def test_sidecar_payload_validates_foreign_links(self, tmp_path):
        import numpy as np

        fabric = build_fabric(BASELINE, scale=2)
        path = tmp_path / "fab.json"
        fabric.save(path, arrays=True)
        sidecar = Fabric.rows_sidecar(path)
        m = np.load(sidecar)
        # Point some switch's first present entry at a link leaving a
        # different switch — the load must refuse the corrupt matrix.
        r, c = np.argwhere(m >= 0)[0]
        links = fabric.net.links
        sw = fabric.tables.switch_ids[r]
        m[r, c] = next(l.id for l in links if l.src != sw)
        with open(sidecar, "wb") as fh:
            np.save(fh, m)
        with pytest.raises(RoutingError, match="foreign link"):
            Fabric.load(fabric.net, path, mmap_mode="c")

    def test_missing_sidecar_fails_loudly(self, tmp_path):
        fabric = build_fabric(BASELINE, scale=2)
        path = tmp_path / "fab.json"
        fabric.save(path, arrays=True)
        payload = json.loads(path.read_text())
        assert "rows_file" in payload["tables"]
        with pytest.raises(RoutingError, match="sidecar"):
            Fabric.from_payload(fabric.net, payload)


class TestLedger:
    def test_records_skip_torn_line(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append({"cell_id": "a", "status": "completed"})
        with open(ledger.path, "ab") as fh:
            fh.write(b'{"cell_id": "b", "stat')  # killed mid-write
        assert [r["cell_id"] for r in ledger.records()] == ["a"]

    def test_append_repairs_torn_tail(self, tmp_path):
        """A record appended after a torn line must not be glued onto
        (and lost with) the torn one."""
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append({"cell_id": "a", "status": "completed"})
        with open(ledger.path, "ab") as fh:
            fh.write(b'{"cell_id": "b", "stat')
        ledger.append({"cell_id": "c", "status": "completed"})
        assert [r["cell_id"] for r in ledger.records()] == ["a", "c"]

    def test_latest_and_completed(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append({"cell_id": "a", "status": "failed", "attempt": 1})
        ledger.append({"cell_id": "a", "status": "completed", "attempt": 2})
        assert ledger.completed_ids() == {"a"}
        assert ledger.latest()["a"]["attempt"] == 2
        assert ledger.attempt_counts() == {"a": 2}


class TestCampaignSpec:
    def test_round_trip_via_directory(self, tmp_path):
        spec = _tiny_spec()
        spec.save(tmp_path)
        assert CampaignSpec.load(tmp_path) == spec

    def test_duplicate_cells_rejected(self):
        cell = RunSpec("ft-ftree-linear", "CoMD", num_nodes=8)
        with pytest.raises(ConfigurationError):
            CampaignSpec("dup", (cell, cell))

    def test_grid_validates_combos_eagerly(self):
        with pytest.raises(ConfigurationError):
            capability_grid(["no-such-combo"], ["CoMD"], [8])


class TestCampaignEngine:
    def test_serial_completes_and_warm_cache_skips_routing(self, tmp_path):
        spec = _tiny_spec(nodes=(8, 12))  # 2 combos x 2 node counts
        status = run_campaign(spec, tmp_path, workers=1)
        assert status.all_completed
        assert status.completed == 4 and status.failed == 0
        # 4 cells share 2 fabrics: each routed once, reused afterwards.
        assert status.fabric_routed == 2
        assert status.fabric_memory_hits == 2
        assert status.fabric_disk_stores == 2

    def test_disk_cache_feeds_fresh_process_state(self, tmp_path):
        spec = _tiny_spec(nodes=(8,))
        run_campaign(spec, tmp_path, workers=1)
        clear_fabric_cache()  # simulate a brand-new worker process
        spec2 = _tiny_spec(nodes=(12,))
        status = run_campaign(spec2, tmp_path / "second", workers=1)
        # Different campaign dir -> different disk cache; still routed.
        assert status.fabric_routed == 2
        clear_fabric_cache()
        status3 = run_campaign(
            _tiny_spec(nodes=(10,), name="t3"), tmp_path, workers=1
        )
        # Same campaign dir: fabrics deserialize from disk, no routing —
        # and every disk hit attaches the dense rows zero-copy via mmap.
        assert status3.fabric_routed == 0
        assert status3.fabric_disk_hits == 2
        assert status3.fabric_mmap_attaches == 2
        assert status3.to_dict()["fabric_cache"]["mmap_attaches"] == 2

    def test_resume_after_kill_skips_completed_cells(self, tmp_path):
        spec = _tiny_spec(nodes=(8, 12))
        partial = run_campaign(spec, tmp_path, workers=1, limit=2)
        assert partial.completed == 2 and partial.pending == 2
        # Simulate the kill tearing the ledger mid-write.
        with open(campaign_paths(tmp_path)["ledger"], "ab") as fh:
            fh.write(b'{"cell_id": "torn')
        resumed = run_campaign(spec, tmp_path, workers=1)
        assert resumed.all_completed
        # Only the two remaining cells ran: one attempt per cell total.
        assert resumed.attempts == 4
        rerun = run_campaign(spec, tmp_path, workers=1)
        assert rerun.attempts == 4  # fully-complete campaign is a no-op

    def test_failed_cell_retried_with_structured_error(self, tmp_path):
        cells = (RunSpec("ft-ftree-linear", "NoSuchApp", num_nodes=8,
                         reps=1, scale=2, sim_mode="static"),)
        spec = CampaignSpec("boom", cells, max_attempts=3)
        status = run_campaign(spec, tmp_path, workers=1)
        assert status.failed == 1 and status.pending == 1
        records = Ledger(campaign_paths(tmp_path)["ledger"]).records()
        assert len(records) == 3  # retried up to max_attempts, then kept
        for rec in records:
            assert rec["status"] == "failed"
            assert rec["error"]["type"]
            assert "NoSuchApp" in rec["error"]["message"]
            assert rec["error"]["traceback"]

    def test_parallel_matches_serial_values(self, tmp_path):
        spec = _tiny_spec(nodes=(8, 12))
        serial = run_campaign(spec, tmp_path / "serial", workers=1)
        clear_fabric_cache()
        parallel = run_campaign(spec, tmp_path / "parallel", workers=2)
        assert serial.all_completed and parallel.all_completed
        s = Ledger(campaign_paths(tmp_path / "serial")["ledger"]).latest()
        p = Ledger(campaign_paths(tmp_path / "parallel")["ledger"]).latest()
        assert set(s) == set(p)
        for cid in s:
            assert s[cid]["values"] == p[cid]["values"], cid

    def test_sweep_counters_recorded_and_summarized(self, tmp_path):
        from repro.core.parallel import sweep_workers

        spec = _tiny_spec()
        # Serial campaigns leave the ambient sweep-pool configuration
        # alone; the ledger records what each cell actually ran with.
        # (Neither campaign engine is parallel_sweep_safe, so no pool
        # spawns — the *configured* width is still recorded.)
        with sweep_workers(2):
            status = run_campaign(spec, tmp_path, workers=1)
        assert status.all_completed
        for rec in Ledger(
            campaign_paths(tmp_path)["ledger"]
        ).latest().values():
            assert rec["sweep"]["workers"] == 2
            assert rec["sweep"]["parallel_sweeps"] == 0
        assert status.sweep_workers == 2
        assert status.parallel_sweeps == 0
        d = status.to_dict()
        assert d["sweep"] == {"workers": 2, "parallel_sweeps": 0}
        assert all(c["sweep"]["workers"] == 2 for c in d["cells"])

    def test_parallel_campaign_pins_nested_sweeps_to_one(self, tmp_path):
        from repro.core.parallel import sweep_workers

        spec = _tiny_spec()
        # Campaign worker processes must not nest their own sweep pools
        # (one process per cell already saturates the machine), even
        # when the parent session has a wide pool configured.
        with sweep_workers(4):
            status = run_campaign(spec, tmp_path, workers=2)
        assert status.all_completed
        for rec in Ledger(
            campaign_paths(tmp_path)["ledger"]
        ).latest().values():
            assert rec["sweep"]["workers"] == 1
        assert status.sweep_workers == 1
        assert status.to_dict()["sweep"]["workers"] == 1

    def test_summarize_counts_pending(self, tmp_path):
        spec = _tiny_spec(nodes=(8, 12))
        run_campaign(spec, tmp_path, workers=1, limit=1)
        status = summarize(spec, Ledger(campaign_paths(tmp_path)["ledger"]))
        assert status.completed == 1
        assert status.pending == 3
        assert not status.all_completed
        d = status.to_dict()
        assert d["total_cells"] == 4
        assert len(d["cells"]) == 4


class TestPublicSurface:
    @pytest.mark.parametrize("pkg", [experiments_pkg, campaign_pkg],
                             ids=["experiments", "campaign"])
    def test_all_exports_resolve(self, pkg):
        assert pkg.__all__, f"{pkg.__name__} must declare __all__"
        for name in pkg.__all__:
            assert getattr(pkg, name, None) is not None, name

    def test_campaign_exports_cover_the_api(self):
        for name in ("CampaignSpec", "Ledger", "run_campaign", "summarize",
                     "capability_grid", "capacity_sweep", "execute_cell"):
            assert name in campaign_pkg.__all__

    def test_experiments_exports_cover_the_api(self):
        for name in ("RunSpec", "run_capability", "build_fabric",
                     "fabric_cache_key", "set_fabric_cache_dir"):
            assert name in experiments_pkg.__all__

    def test_legacy_positional_form_warns(self):
        from repro.experiments import run_capability
        from repro.workloads.proxyapps import PROXY_APPS

        app = PROXY_APPS["CoMD"]
        with pytest.warns(DeprecationWarning):
            run_capability(
                BASELINE, "CoMD",
                measure=lambda job, sim: app.kernel_runtime(job, sim),
                num_nodes=8, reps=1, scale=2, seed=0, sim_mode="static",
            )


class TestAnomalyCounters:
    """Approximations inside a completed cell reach its ledger record
    and the ``campaign status`` rollup."""

    def _run(self, tmp_path, sim_mode="dynamic"):
        spec = CampaignSpec("anomalies", capability_grid(
            ["hx-dfsssp-linear"], ["imb:Alltoall:65536"], [12],
            reps=1, scale=2, sim_mode=sim_mode,
        ))
        status = run_campaign(spec, tmp_path, workers=1)
        assert status.all_completed
        (record,) = Ledger(campaign_paths(tmp_path)["ledger"]).records()
        return status.to_dict(), record

    def test_exact_cell_reports_zero_anomalies(self, tmp_path):
        status, record = self._run(tmp_path)
        zero = {
            "events_truncated": 0, "resolve_fallbacks": 0,
            "cache_rebuilds": 0, "serial_fallbacks": 0,
        }
        assert record["anomalies"] == zero
        assert status["anomalies"] == zero
        assert status["cells"][0]["anomalies"] == zero

    def test_event_valve_truncation_is_counted(self, tmp_path, monkeypatch):
        import repro.sim.engine as engine

        monkeypatch.setattr(engine, "_MAX_EVENTS_PER_PHASE", 1)
        status, record = self._run(tmp_path)
        assert record["anomalies"]["events_truncated"] > 0
        assert (status["anomalies"]["events_truncated"]
                == record["anomalies"]["events_truncated"])

    def test_resolve_fallback_is_counted(self, tmp_path, monkeypatch):
        import numpy as np

        import repro.ib.fabric as fabric_module

        exact = self._run(tmp_path / "exact")[1]
        clear_fabric_cache()
        real = fabric_module.walk_dest_links

        def refusing(*args, **kwargs):
            ok, lens, steps = real(*args, **kwargs)
            ok = ok.copy()
            ok[:, 0] = False  # every walk from the first switch
            return ok, lens, steps

        monkeypatch.setattr(fabric_module, "walk_dest_links", refusing)
        status, record = self._run(tmp_path / "refused")
        assert record["anomalies"]["resolve_fallbacks"] > 0
        assert (status["anomalies"]["resolve_fallbacks"]
                == record["anomalies"]["resolve_fallbacks"])
        # The per-pair resolve found the same paths: values are exact.
        assert record["values"] == exact["values"]

    @pytest.mark.parametrize("victim", ["json", "sidecar"])
    def test_cache_rebuild_is_counted(self, tmp_path, victim):
        import shutil

        exact = self._run(tmp_path / "warm")[1]
        clear_fabric_cache()
        cache = campaign_paths(tmp_path / "torn")["fabric_cache"]
        shutil.copytree(campaign_paths(tmp_path / "warm")["fabric_cache"], cache)
        (payload,) = cache.glob("fabric-*.json")
        torn = payload if victim == "json" else Fabric.rows_sidecar(payload)
        torn.write_bytes(torn.read_bytes()[: torn.stat().st_size // 2])
        status, record = self._run(tmp_path / "torn")
        assert record["fabric_cache"]["load_errors"] == 1
        assert record["fabric_cache"]["routed"] == 1
        assert record["anomalies"]["cache_rebuilds"] == 1
        assert status["anomalies"]["cache_rebuilds"] == 1
        assert record["values"] == exact["values"]

    def test_pool_serial_fallback_is_counted(self, tmp_path, monkeypatch):
        from repro.core import parallel

        exact = self._run(tmp_path / "exact")[1]
        clear_fabric_cache()
        # The pool cannot start: the preflight's one parallel walk falls
        # back to the serial path.
        monkeypatch.setattr(parallel, "_acquire_pool", lambda workers: None)
        with parallel.sweep_workers(2), parallel.column_floor(1):
            status, record = self._run(tmp_path / "serial")
        assert record["anomalies"]["serial_fallbacks"] == 1
        assert status["anomalies"]["serial_fallbacks"] == 1
        assert record["values"] == exact["values"]
