"""Performance benchmarks of the library's hot primitives.

Unlike the ``test_fig*`` modules (which regenerate the paper's science),
these time the engineering: routing a full-size plane, the max-min
fairness kernel, table-walking path resolution, and the virtual-lane
layering.  They guard against performance regressions — the budgets
asserted are ~10x above current numbers, failing only on algorithmic
accidents, not machine noise.

The incremental-fairness cases additionally assert *speedups* against
the pre-engine implementations (kept in-tree as executable specs).
``PERF_SPEEDUP_FLOOR`` relaxes those ratios for noisy shared runners —
the CI perf-smoke job sets it to 3 so only order-of-magnitude
regressions fail the build.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time

import numpy as np
import pytest

from repro.core.rng import make_rng
from repro.core.units import MIB, ru_maxrss_to_bytes
from repro.ib.subnet_manager import OpenSM, _snapshot_paths, resweep
from repro.mpi.job import Job
from repro.routing.dfsssp import DfssspRouting
from repro.routing.dijkstra import tree_to_destination
from repro.routing.minhop import MinHopRouting
from repro.routing.parx import ParxRouting
from repro.sim.engine import FlowSimulator
from repro.sim.fairness import FairnessProblem, max_min_fair_rates
from repro.topology.t2hx import t2hx_hyperx
from tests.oracles import reference_max_min_fair_rates

#: Required new-vs-reference speedup for the incremental engine cases.
#: Default 10 (the engine's design target); CI smoke relaxes to 3.
SPEEDUP_FLOOR = float(os.environ.get("PERF_SPEEDUP_FLOOR", "10"))

#: Required batched-vs-sequential cold-sweep speedup (the batched
#: kernel's acceptance bar is 3x over the pinned sequential timings).
BATCH_SPEEDUP_FLOOR = float(os.environ.get("PERF_BATCH_SPEEDUP_FLOOR", "3"))


def _peak_rss_bytes() -> int:
    """Process high-water RSS, normalized for the ru_maxrss unit quirk
    (KiB on Linux, bytes on macOS)."""
    return ru_maxrss_to_bytes(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@pytest.fixture(scope="module")
def plane():
    net = t2hx_hyperx()
    fabric = OpenSM(net).run(DfssspRouting())
    return net, fabric


def test_perf_dijkstra_full_plane(benchmark, plane):
    """One destination tree over the 96-switch 12x8 lattice."""
    net, _ = plane
    weights = np.ones(len(net.links))

    result = benchmark(lambda: tree_to_destination(net, net.switches[0], weights))
    parent, hops = result
    assert len(parent) == net.num_switches - 1
    assert benchmark.stats["mean"] < 0.05


def test_perf_dfsssp_full_routing(benchmark, plane):
    """Routing the full 672-node HyperX plane with DFSSSP + VL layering."""
    net, _ = plane

    fabric = benchmark.pedantic(
        lambda: OpenSM(t2hx_hyperx()).run(DfssspRouting()),
        rounds=1, iterations=1,
    )
    assert fabric.num_vls <= 8
    assert benchmark.stats["mean"] < 30.0


def test_perf_parx_full_routing(benchmark):
    """PARX's 4-LID routing of the full plane (the paper re-routes the
    fabric before every job start, so this is a production path)."""
    fabric = benchmark.pedantic(
        lambda: OpenSM(
            t2hx_hyperx(), lmc=2, lid_policy="quadrant"
        ).run(ParxRouting()),
        rounds=1, iterations=1,
    )
    assert fabric.num_vls <= 8
    assert benchmark.stats["mean"] < 120.0


def test_perf_fairness_large(benchmark):
    """The max-min kernel with 20k flows over 2k links (an all-to-all's
    worth of concurrent flows)."""
    rng = make_rng(0)
    n_links, n_flows = 2000, 20_000
    flows = [
        list(rng.choice(n_links, size=5, replace=False)) for _ in range(n_flows)
    ]
    caps = np.full(n_links, 3.4e9)

    rates = benchmark(lambda: max_min_fair_rates(flows, caps))
    assert (rates > 0).all()
    assert benchmark.stats["mean"] < 5.0


def test_perf_path_resolution(benchmark, plane):
    """Table-walking 1000 random pairs (the simulator's inner loop)."""
    net, fabric = plane
    rng = make_rng(1)
    terms = net.terminals
    pairs = [
        (terms[int(a)], terms[int(b)])
        for a, b in rng.integers(0, len(terms), (1000, 2))
        if a != b
    ]

    def resolve_all():
        return [fabric.path(a, b) for a, b in pairs]

    paths = benchmark(resolve_all)
    assert all(p for p in paths)
    assert benchmark.stats["mean"] < 1.0


def test_perf_alltoall_simulation(benchmark, plane):
    """Simulating a 112-rank 1 MiB Alltoall (111 phases, 12k flows)."""
    net, fabric = plane
    job = Job(fabric, net.terminals[:112])
    sim = FlowSimulator(net, mode="static")
    program = job.alltoall(1 * MIB)

    result = benchmark.pedantic(lambda: sim.run(program), rounds=1, iterations=1)
    assert result.total_time > 0
    assert benchmark.stats["mean"] < 60.0


# --- the incremental fairness engine -----------------------------------------


@pytest.fixture(scope="module")
def faulted_dynamic():
    """Full 672-node faulted plane + its most event-rich all-to-all phase.

    Dynamic-mode cost is driven by completion events, so the speedup
    case measures the phase with the most of them (fault-skewed rates
    stagger the completions); picking it by scan instead of hard-coding
    an index keeps the benchmark meaningful if fault seeds change.
    """
    net = t2hx_hyperx(with_faults=True)
    fabric = OpenSM(net).run(DfssspRouting())
    job = Job(fabric, net.terminals)
    program = job.alltoall(1 * MIB)
    sim = FlowSimulator(net, mode="dynamic")
    result = sim.run(program)
    n_events, best = max(
        (pr.solves, i) for i, pr in enumerate(result.phases)
    )
    return net, sim, program.phases[best], n_events


def _legacy_dynamic_phase(sim, net, phase) -> float:
    """The pre-engine dynamic ``run_phase``: per-message Python loops and
    a from-scratch reference fairness solve per completion event."""
    msgs = phase.messages
    sim.state.refresh(force=True)
    for m in msgs:
        assert not sim.state.disabled_on(m.path)
        if m.size > 0:
            assert not sim.state.nonpositive_on(m.path)
    hops_cache: dict = {}

    def hops(p):
        if p not in hops_cache:
            hops_cache[p] = net.path_hops(p)
        return hops_cache[p]

    const = np.array(
        [sim.latency.constant_time(hops(m.path), m.overhead) for m in msgs]
    )
    sizes = np.array([m.size for m in msgs], dtype=float)
    paths = [m.path for m in msgs]
    capacity = sim.state.capacities
    remaining = sizes.copy()
    finish = np.zeros(len(msgs))
    active = remaining > 0
    now = 0.0
    while active.any():
        idx = np.flatnonzero(active)
        rates = reference_max_min_fair_rates(
            [paths[i] for i in idx], capacity
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            ttf = remaining[idx] / rates
        dt = float(ttf.min())
        now += dt
        remaining[idx] -= rates * dt
        done = idx[remaining[idx] <= 1e-6 * sizes[idx] + 1e-9]
        finish[done] = now
        remaining[done] = 0.0
        active[done] = False
    return float((const + finish).max())


def test_perf_dynamic_alltoall_phase(benchmark, faulted_dynamic, report_dir):
    """Dynamic-mode 672-node all-to-all phase: the engine's raison
    d'etre.  Asserts the incremental engine beats the per-event-rebuild
    implementation by ``SPEEDUP_FLOOR`` x with identical results."""
    net, sim, phase, n_events = faulted_dynamic

    result = benchmark(lambda: sim.run_phase(phase))

    legacy_best = np.inf
    legacy_duration = 0.0
    for _ in range(3):
        t0 = time.perf_counter()
        legacy_duration = _legacy_dynamic_phase(sim, net, phase)
        legacy_best = min(legacy_best, time.perf_counter() - t0)
    # The speedup must not change the science.
    assert result.duration == pytest.approx(legacy_duration, rel=1e-9)

    new_mean = benchmark.stats["mean"]
    speedup = legacy_best / new_mean
    payload = {
        "events": n_events,
        "messages": len(phase.messages),
        "new_mean_s": new_mean,
        "legacy_best_s": legacy_best,
        "speedup": speedup,
        "floor": SPEEDUP_FLOOR,
    }
    benchmark.extra_info.update(payload)
    (report_dir / "perf_dynamic_phase.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert speedup >= SPEEDUP_FLOOR, payload


def test_perf_incremental_rates_vs_rebuild(benchmark, report_dir):
    """``FairnessProblem.rates(mask)`` vs building the masked sub-problem
    from scratch (what every event did before the engine)."""
    rng = make_rng(0)
    n_links, n_flows = 2000, 20_000
    flows = [
        list(rng.choice(n_links, size=5, replace=False))
        for _ in range(n_flows)
    ]
    caps = np.full(n_links, 3.4e9)
    prob = FairnessProblem(flows, caps)
    mask = rng.random(n_flows) < 0.6
    prob.rates(mask)  # warm: emits the bottleneck-structure hint

    rates = benchmark(lambda: prob.rates(mask))
    assert (rates[mask] > 0).all()
    assert (rates[~mask] == 0).all()

    sub = [f for f, m in zip(flows, mask) if m]
    rebuild_best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        FairnessProblem(sub, caps).rates()
        rebuild_best = min(rebuild_best, time.perf_counter() - t0)

    speedup = rebuild_best / benchmark.stats["mean"]
    floor = 3.0 * SPEEDUP_FLOOR / 10.0
    payload = {
        "flows": n_flows,
        "active": int(mask.sum()),
        "masked_mean_s": benchmark.stats["mean"],
        "rebuild_best_s": rebuild_best,
        "speedup": speedup,
        "floor": floor,
    }
    benchmark.extra_info.update(payload)
    (report_dir / "perf_incremental_rates.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert speedup >= floor, payload


def test_perf_path_cache_hit(benchmark, plane, report_dir):
    """``Fabric.path`` memo hits: the collective builders resolve the
    same pairs once per phase, so the hit path must be dict-cheap."""
    net, fabric = plane
    rng = make_rng(1)
    terms = net.terminals
    pairs = [
        (terms[int(a)], terms[int(b)])
        for a, b in rng.integers(0, len(terms), (1000, 2))
        if a != b
    ]

    t0 = time.perf_counter()
    cold = [fabric.path(a, b) for a, b in pairs]
    cold_s = time.perf_counter() - t0

    paths = benchmark(lambda: [fabric.path(a, b) for a, b in pairs])
    assert paths == cold
    payload = {
        "pairs": len(pairs),
        "cold_s": cold_s,
        "hit_mean_s": benchmark.stats["mean"],
        "speedup": cold_s / benchmark.stats["mean"],
    }
    benchmark.extra_info.update(payload)
    (report_dir / "perf_path_cache.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert benchmark.stats["mean"] < 0.05


# --- the routing-sweep engine -------------------------------------------------

#: Measurements and LFT digests of the pre-engine (dict-of-dicts,
#: per-pair-walk) implementation on this machine, captured immediately
#: before the array rewrite.  The digests are hard equality gates —
#: the engine must produce the same bytes; the seed seconds only feed
#: the speedup bookkeeping in the JSON reports (the asserted budgets
#: are absolute and sit well above the engine, well below the seed).
SEED_T2HX = {
    "parx_digest":
        "0f451536cdedb74229d0aa5f20e77208c9ce5bae15245a188612a2b536a7bb9b",
    "parx_num_vls": 4,
    "parx_seconds": 6.108,
    "resweep_digest":
        "06351e7ded50f102459e8c0b34edb87a76bd0dd87c8cba6a3cb8ea48ac6a4405",
    "resweep_seconds": 7.373,
    "resweep_report": {
        "dests_affected": 81, "entries_changed": 2930,
        "paths_changed": 20510, "pairs_total": 450912,
        "hops_before": 807282, "hops_after": 807282,
    },
}


def _lft_digest(fabric) -> str:
    return hashlib.sha256(fabric.dump_lft().encode()).hexdigest()


def _failed_used_cable(net, fabric):
    """Fail a cable on the fabric's first-to-last terminal route."""
    src = net.attached_terminals(net.switches[0])[0]
    dst = net.attached_terminals(net.switches[-1])[0]
    cable = net.link(fabric.path(src, dst)[1])
    net.disable_cable(cable.id)
    return cable


def test_perf_parx_cold_sweep(benchmark, report_dir):
    """Cold PARX sweep of the full plane on the array pipeline.

    The issue's headline case: 4-LID PARX routing of all 672 nodes,
    required >= 5x under the pre-engine 6.1 s.  The asserted budget is
    absolute (the seed implementation cannot pass it); the digest pins
    the output bytes to the seed's."""
    fabric = benchmark.pedantic(
        lambda: OpenSM(
            t2hx_hyperx(), lmc=2, lid_policy="quadrant"
        ).run(ParxRouting()),
        rounds=1, iterations=1,
    )
    assert _lft_digest(fabric) == SEED_T2HX["parx_digest"]
    assert fabric.num_vls == SEED_T2HX["parx_num_vls"]

    new_s = benchmark.stats["mean"]
    payload = {
        "new_s": new_s,
        "seed_s": SEED_T2HX["parx_seconds"],
        "speedup_vs_seed": SEED_T2HX["parx_seconds"] / new_s,
        "digest": SEED_T2HX["parx_digest"],
    }
    benchmark.extra_info.update(payload)
    (report_dir / "perf_parx_cold_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert new_s < 3.5, payload


def test_perf_registry_cold_sweeps(benchmark, report_dir):
    """Cold sweeps of the registry's fault-tolerant engines (fthx,
    fatpaths) on the full 672-node t2hx plane.

    Both engines route through the same array pipeline as PARX, so their
    cold sweeps must land in the same ballpark: budgets are ~10x above
    current numbers (fthx ~0.5 s, fatpaths ~2 s with its 4 LMC layers)
    and only catch algorithmic accidents.  VL counts are pinned exactly
    — a lane-budget regression is a routing bug, not noise."""
    from repro.routing import create_engine

    payload = {}

    def sweep(name):
        t0 = time.perf_counter()
        fabric = OpenSM(t2hx_hyperx()).run(create_engine(name))
        payload[name] = {
            "seconds": time.perf_counter() - t0,
            "num_vls": fabric.num_vls,
            "digest": _lft_digest(fabric),
        }
        return fabric

    fthx = benchmark.pedantic(
        lambda: sweep("fthx"), rounds=1, iterations=1
    )
    fatpaths = sweep("fatpaths")

    assert fthx.num_vls == 2, payload
    assert fatpaths.num_vls <= 8, payload
    assert payload["fthx"]["seconds"] < 5.0, payload
    assert payload["fatpaths"]["seconds"] < 20.0, payload

    payload["peak_rss_bytes"] = _peak_rss_bytes()
    benchmark.extra_info.update(payload)
    (report_dir / "perf_registry_cold_sweeps.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )


#: Required hop-level-plan vs heap-sweep speedup of the SSSP family's
#: ``compute`` (measured ~3x on a 2-core host; shared runners only
#: need to catch a return to per-destination heaps).
SSSP_FAMILY_FLOOR = 1.5


def _timed_sweep(engine, heap: bool, rounds: int = 3):
    """(fabric, best ``compute`` seconds) routing the faulted plane.

    ``heap`` swaps the engine's sweep for the heap-Dijkstra oracle of
    ``tests/oracles.py`` over the same per-LID declarations; the subnet
    manager's VL layering runs on both, so their LFT dumps compare.
    """
    from tests.oracles import reference_feedback_sweep

    sweep = engine.compute
    if heap:
        def sweep(fabric):
            reference_feedback_sweep(fabric, engine.feedback_trees(fabric))
    spent = []

    def timed(fabric):
        t0 = time.perf_counter()
        sweep(fabric)
        spent.append(time.perf_counter() - t0)

    engine.compute = timed
    try:
        for _ in range(rounds):
            fabric = OpenSM(t2hx_hyperx(with_faults=True, seed=1)).run(engine)
    finally:
        del engine.compute
    return fabric, min(spent)


def test_perf_sssp_family_sweep(benchmark, report_dir):
    """DFSSSP and PARX ``compute`` on cached hop-level plans vs the
    per-destination heap sweep they replaced, in one process.

    Both sides route the faulted 672-node plane from the same per-LID
    declarations (PARX with a seeded synthetic profile) and must dump
    identical LFTs; the plans must beat the heap sweep by
    ``SSSP_FAMILY_FLOOR``.
    """
    from repro.routing import create_engine

    rng = make_rng(7)
    terms = t2hx_hyperx().terminals
    profile: dict[int, dict[int, int]] = {}
    for _ in range(2000):
        a, b = rng.choice(len(terms), size=2, replace=False)
        profile.setdefault(terms[a], {})[terms[b]] = int(rng.integers(1, 256))
    payload = {"floor": SSSP_FAMILY_FLOOR}

    def compare(name, engine):
        fast, fast_s = _timed_sweep(engine, heap=False)
        slow, heap_s = _timed_sweep(engine, heap=True)
        payload[name] = {
            "plans_s": fast_s,
            "heap_s": heap_s,
            "speedup": heap_s / fast_s,
            "num_vls": fast.num_vls,
            "digest": _lft_digest(fast),
            "identical": fast.dump_lft() == slow.dump_lft()
            and fast.notes == slow.notes,
        }

    benchmark.pedantic(
        lambda: compare("dfsssp", create_engine("dfsssp")),
        rounds=1, iterations=1,
    )
    compare("parx", ParxRouting(profile))
    payload["peak_rss_bytes"] = _peak_rss_bytes()
    benchmark.extra_info.update(payload)
    (report_dir / "perf_sssp_family_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    for name in ("dfsssp", "parx"):
        assert payload[name]["identical"], payload
        assert payload[name]["speedup"] >= SSSP_FAMILY_FLOOR, payload


#: Full-plane cold-sweep seconds of the sequential (one Dijkstra per
#: destination) path, pinned on this class of machine immediately
#: before the batched kernel landed.  The batched sweeps must beat them
#: by ``BATCH_SPEEDUP_FLOOR``; the JSON report records both sides.
SEQUENTIAL_COLD_SWEEP_SECONDS = {"fthx": 1.2, "fatpaths": 7.0}


def test_perf_batched_cold_sweep_speedup(benchmark, report_dir):
    """Destination-batched cold sweeps vs the pinned sequential timings.

    fthx routes one weight *column* per destination (per-column weight
    matrix); fatpaths adds per-layer masked views and the layer-0
    fallback scan — together they exercise every mode of
    ``tree_core_batch``.  Both must reproduce the engines' golden
    digests (pinned in tests/test_batched_routing.py) while clearing
    the speedup floor over the sequential implementation they replaced.
    """
    from repro.routing import create_engine

    payload = {}

    def sweep(name):
        t0 = time.perf_counter()
        fabric = OpenSM(t2hx_hyperx()).run(create_engine(name))
        new_s = time.perf_counter() - t0
        seed_s = SEQUENTIAL_COLD_SWEEP_SECONDS[name]
        payload[name] = {
            "new_s": new_s,
            "sequential_s": seed_s,
            "speedup": seed_s / new_s,
            "floor": BATCH_SPEEDUP_FLOOR,
            "num_vls": fabric.num_vls,
            "digest": _lft_digest(fabric),
        }
        return fabric

    benchmark.pedantic(lambda: sweep("fthx"), rounds=1, iterations=1)
    sweep("fatpaths")

    payload["peak_rss_bytes"] = _peak_rss_bytes()
    benchmark.extra_info.update(payload)
    (report_dir / "perf_batched_speedup.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    for name in SEQUENTIAL_COLD_SWEEP_SECONDS:
        assert payload[name]["speedup"] >= BATCH_SPEEDUP_FLOOR, payload


def test_perf_bulk_path_resolution(benchmark, plane, report_dir):
    """All-pairs matrix walk vs the per-pair reference resolver.

    ``Fabric.resolve_paths`` walks all 672x672 pairs simultaneously as
    column vectors; ``_snapshot_paths`` (kept as the executable spec,
    and what every resweep used to do twice) resolves them one by one."""
    net, fabric = plane

    res = benchmark(fabric.resolve_paths)

    snap_best = np.inf
    for _ in range(2):
        t0 = time.perf_counter()
        snap = _snapshot_paths(fabric)
        snap_best = min(snap_best, time.perf_counter() - t0)
    # The speedup must not change a single verdict.
    lost = sum(1 for p in snap.values() if p is None)
    assert res.num_unreachable == lost
    for (src, dst), path in list(snap.items())[::5001]:
        assert res.reachable(src, dst) == (path is not None)

    speedup = snap_best / benchmark.stats["mean"]
    payload = {
        "pairs": len(res.terminals) * (len(res.terminals) - 1),
        "bulk_mean_s": benchmark.stats["mean"],
        "per_pair_best_s": snap_best,
        "speedup": speedup,
        "floor": SPEEDUP_FLOOR,
    }
    benchmark.extra_info.update(payload)
    (report_dir / "perf_bulk_resolution.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert speedup >= SPEEDUP_FLOOR, payload


def test_perf_resweep_single_cable(benchmark, report_dir):
    """Single-cable heavy resweep of the full DFSSSP plane.

    The issue's second headline: >= 10x under the pre-engine 7.4 s
    (dominated by two per-pair snapshots).  Budget is absolute; the
    post-resweep digest and every report counter are pinned to the
    seed implementation's output."""
    net = t2hx_hyperx()
    fabric = OpenSM(net).run(DfssspRouting())
    _failed_used_cable(net, fabric)

    report = benchmark.pedantic(
        lambda: resweep(fabric, DfssspRouting()), rounds=1, iterations=1
    )
    assert _lft_digest(fabric) == SEED_T2HX["resweep_digest"]
    for key, want in SEED_T2HX["resweep_report"].items():
        assert getattr(report, key) == want, key
    assert report.num_unreachable == 0

    new_s = benchmark.stats["mean"]
    payload = {
        "new_s": new_s,
        "seed_s": SEED_T2HX["resweep_seconds"],
        "speedup_vs_seed": SEED_T2HX["resweep_seconds"] / new_s,
        "sweep_seconds": report.sweep_seconds,
        "dests_recomputed": report.dests_recomputed,
        "digest": SEED_T2HX["resweep_digest"],
    }
    benchmark.extra_info.update(payload)
    (report_dir / "perf_resweep_single_cable.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert new_s < 2.5, payload


class _ForcedHeavyMinHop(MinHopRouting):
    supports_incremental_resweep = False


def test_perf_incremental_resweep(benchmark, report_dir):
    """Destination-scoped incremental resweep vs the forced heavy sweep,
    on identically faulted copies of the full MinHop plane."""
    planes = []
    for engine in (MinHopRouting(), _ForcedHeavyMinHop()):
        net = t2hx_hyperx()
        fabric = OpenSM(net).run(engine)
        _failed_used_cable(net, fabric)
        planes.append((fabric, engine))
    (inc_fabric, inc_engine), (heavy_fabric, heavy_engine) = planes

    inc_report = benchmark.pedantic(
        lambda: resweep(inc_fabric, inc_engine), rounds=1, iterations=1
    )
    t0 = time.perf_counter()
    heavy_report = resweep(heavy_fabric, heavy_engine)
    heavy_s = time.perf_counter() - t0

    # Byte-identical outcome, a fraction of the destinations recomputed.
    assert inc_fabric.dump_lft() == heavy_fabric.dump_lft()
    assert inc_fabric.vl_of_dlid == heavy_fabric.vl_of_dlid
    assert inc_report.paths_changed == heavy_report.paths_changed
    # The real guarantee is the work reduction: only the stale
    # destinations get re-routed.  Wall-clock gains are smaller than
    # the 6x destination ratio because both paths share the report
    # diff and the full VL relayer, so the time floor stays modest.
    assert inc_report.dests_recomputed * 5 <= heavy_report.dests_recomputed

    speedup = heavy_s / benchmark.stats["mean"]
    floor = 1.5 * SPEEDUP_FLOOR / 10.0
    payload = {
        "incremental_mean_s": benchmark.stats["mean"],
        "heavy_s": heavy_s,
        "speedup": speedup,
        "floor": floor,
        "dests_incremental": inc_report.dests_recomputed,
        "dests_heavy": heavy_report.dests_recomputed,
    }
    benchmark.extra_info.update(payload)
    (report_dir / "perf_incremental_resweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert speedup >= floor, payload


def test_perf_whatif_exhaustive_audit(benchmark, plane, report_dir):
    """Exhaustive k=1 what-if certification of the full DFSSSP plane.

    The verifier's acceptance bar: every switch cable of the 672-node
    12x8 HyperX judged (affected pairs, disconnection, residual-CDG
    deadlock freedom, load-shift bound) in seconds, straight off the
    dense matrices — no simulation, no re-routing.  Budget is absolute
    and ~10x the current ~0.5 s."""
    from repro.analysis.whatif import audit_whatif

    net, fabric = plane
    report = benchmark.pedantic(
        lambda: audit_whatif(fabric), rounds=1, iterations=1
    )
    assert len(report.cables) == len(net.switch_cables())
    assert report.bridges == []
    assert not any(v.credit_loop_exposed for v in report.cables)
    assert sorted(v.rank for v in report.cables) == list(
        range(1, len(report.cables) + 1)
    )

    payload = {
        "audit_s": benchmark.stats["mean"],
        "cables": len(report.cables),
        "pairs_total": report.pairs_total,
        "per_cable_ms": 1e3 * benchmark.stats["mean"] / len(report.cables),
    }
    benchmark.extra_info.update(payload)
    (report_dir / "perf_whatif_audit.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert benchmark.stats["mean"] < 5.0, payload
