#!/usr/bin/env python3
"""Campaign-cell benchmark of the HyperX / fat-tree simulator.

    python3 perfbench/run.py --workload a2a-warm --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout.  One process is one run: it
imports the program from ``src/``, sets up (routes and stores the
workload's base planes, several times, reporting the median), then runs
passes over the workload's cell grid through ``run_campaign`` with one
inline worker until ``--seconds`` of passes are used up.  Times are
reported in seconds at a reference host speed, measured by a probe
kernel timed between the measured spans (see ``host_probe``).  Every
cell is checked (status, values, workload invariants, and the value
digest pinned in ``digests.json`` for the default seed).  The last
stdout line is the result JSON; the line before it holds the host
fingerprint, raw seconds, probes and per-cell detail.  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer
metrics (raw seconds) instead.  See README.md.
"""

import os

# Thread hygiene, set before numpy is first imported here and inherited
# by every spawned sweep-pool worker: BLAS/OpenMP would otherwise start
# nproc threads per process.  The sweep pool runs at its cpu_count size.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_SWEEP_WORKERS"] = "auto"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
PIN_FILE = HERE / "digests.json"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: No pass starts if the run would then pass this many seconds.
RUN_CEILING_S = 150.0
#: Seconds the host probe takes at the reference speed.  Time metrics
#: are scaled by this over the probe's measured time (see host_probe).
PROBE_REF_S = 0.05

END_TO_END = {
    "wall_s": ("s", "lower"),
    "cell_p50_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "cells_ok": ("share", "higher"),
}

#: Per-layer metrics of a traced pass.  ``*_s`` metrics are self time.
PER_LAYER = {
    "topology.build_s": ("s", "lower"),
    "routing.compute_s": ("s", "lower"),
    "routing.computes": ("count", "lower"),
    "routing.recompute_s": ("s", "lower"),
    "ib.sm_run_s": ("s", "lower"),
    "ib.resweep_s": ("s", "lower"),
    "ib.resweeps": ("count", "lower"),
    "ib.dests_recomputed": ("count", "lower"),
    "ib.vl_layering_s": ("s", "lower"),
    "ib.vl_layering_calls": ("count", "lower"),
    "ib.fabric_load_s": ("s", "lower"),
    "ib.dest_paths_s": ("s", "lower"),
    "ib.dest_paths_calls": ("count", "lower"),
    "experiments.build_fabric_s": ("s", "lower"),
    "experiments.cache_hits": ("count", "higher"),
    "experiments.cache_routed": ("count", "lower"),
    "experiments.cache_hit_ratio": ("ratio", "higher"),
    "analysis.preflight_s": ("s", "lower"),
    "analysis.preflight_calls": ("count", "lower"),
    "analysis.whatif_s": ("s", "lower"),
    "analysis.whatif_calls": ("count", "lower"),
    "mpi.expand_s": ("s", "lower"),
    "mpi.phases": ("count", "lower"),
    "mpi.messages": ("count", "lower"),
    "mpi.materialize_s": ("s", "lower"),
    "mpi.materialized_messages": ("count", "lower"),
    "mpi.materialize_ns_per_msg": ("ns", "lower"),
    "mpi.distinct_paths": ("count", "lower"),
    "mpi.distinct_path_ratio": ("ratio", "lower"),
    "mpi.profile_s": ("s", "lower"),
    "sim.run_s": ("s", "lower"),
    "sim.solve_s": ("s", "lower"),
    "sim.solves": ("count", "lower"),
    "sim.phases": ("count", "lower"),
    "sim.solves_per_phase": ("ratio", "lower"),
    "sim.messages_rerouted": ("count", "lower"),
    "sim.events_truncated": ("count", "lower"),
    "workloads.measure_s": ("s", "lower"),
    "campaign.run_s": ("s", "lower"),
    "campaign.cell_self_s": ("s", "lower"),
    "campaign.ledger_append_s": ("s", "lower"),
    "campaign.cells_failed": ("count", "lower"),
    "parallel.parallel_sweeps": ("count", "higher"),
    "parallel.parallel_walks": ("count", "higher"),
    "parallel.serial_fallbacks": ("count", "lower"),
    "parallel.pool_spawns": ("count", "lower"),
    "parallel.offload_ratio": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}

#: Span name -> per-layer metric holding its summed self time.
SELF_TIME = {
    "topology.build": "topology.build_s",
    "routing.compute": "routing.compute_s",
    "routing.recompute": "routing.recompute_s",
    "ib.sm_run": "ib.sm_run_s",
    "ib.resweep": "ib.resweep_s",
    "ib.vl_layering": "ib.vl_layering_s",
    "ib.fabric_load": "ib.fabric_load_s",
    "ib.dest_paths": "ib.dest_paths_s",
    "experiments.build_fabric": "experiments.build_fabric_s",
    "analysis.preflight": "analysis.preflight_s",
    "analysis.whatif": "analysis.whatif_s",
    "mpi.expand": "mpi.expand_s",
    "mpi.materialize": "mpi.materialize_s",
    "mpi.profile": "mpi.profile_s",
    "sim.run": "sim.run_s",
    "sim.solve": "sim.solve_s",
    "workloads.measure": "workloads.measure_s",
    "campaign.run_campaign": "campaign.run_s",
    "campaign.cell": "campaign.cell_self_s",
    "campaign.ledger_append": "campaign.ledger_append_s",
}

#: Span name -> per-layer metric holding its call count.
CALLS = {
    "routing.compute": "routing.computes",
    "ib.vl_layering": "ib.vl_layering_calls",
    "ib.dest_paths": "ib.dest_paths_calls",
    "analysis.preflight": "analysis.preflight_calls",
    "analysis.whatif": "analysis.whatif_calls",
    "sim.solve": "sim.solves",
}

#: Counters the wrappers in spans.py accumulate.
COUNTERS = (
    "ib.resweeps", "ib.dests_recomputed", "mpi.phases", "mpi.messages",
    "mpi.materialized_messages", "mpi.distinct_paths", "sim.phases",
    "sim.messages_rerouted", "sim.events_truncated",
)

PARALLEL_JOBS = (
    "parallel_sweeps", "parallel_walks", "parallel_loads", "parallel_scans",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale", type=int, default=1,
        help="plane shrink factor (the self-test uses 2: 168 nodes)",
    )
    ap.add_argument(
        "--pins", type=Path, default=PIN_FILE,
        help="pinned digests file (the self-test passes a corrupted copy)",
    )
    return ap.parse_args(argv)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def cell_key(record: dict[str, Any]) -> str:
    return f"{record['cell_id']}/{record['spec']['sim_mode']}"


def cell_digest(record: dict[str, Any]) -> str:
    """Digest of a cell's simulated results (never of host timings)."""
    reroutes = record.get("reroutes")
    payload = {
        "values": record.get("values"),
        "reroutes": None if reroutes is None else {
            k: reroutes[k] for k in (
                "events_applied", "messages_rerouted", "paths_changed",
                "unreachable_pairs",
            )
        },
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_pins(
    path: Path, workload: str, seed: int, scale: int
) -> dict[str, str] | None:
    """Pinned digests of this workload, or None when none apply."""
    data = json.loads(path.read_text())
    if data["seed"] != seed or data["scale"] != scale:
        return None
    return data["workloads"].get(workload)


def host_probe() -> float:
    """Seconds a fixed reference kernel takes now.

    A shared host's speed swings by up to half, in spells of seconds to
    minutes, and moves whole sets of runs.  The probe is timed between
    the measured spans: around each set-up, before each grid and after
    each cell.  Scaling a span by ``PROBE_REF_S`` over the median probe
    of its pass (or of set-up) gives its seconds at the reference
    speed, which cancels most of the swing; one probe alone is too
    noisy to scale one cell by.  The kernel mixes what the cells do:
    small-object churn and dict lookups in Python, and a numpy sort and
    scan.
    """
    t0 = time.perf_counter()
    index: dict[tuple[int, int], int] = {}
    for i in range(60_000):
        key = (i % 331, i % 127)
        index[key] = index.get(key, 0) + i
    _PROBE_DATA.sort(kind="stable")
    _PROBE_DATA.cumsum()
    _PROBE_DATA[:] = _PROBE_SHUFFLED
    return time.perf_counter() - t0


_PROBE_DATA: Any = None
_PROBE_SHUFFLED: Any = None


def init_probe() -> None:
    global _PROBE_DATA, _PROBE_SHUFFLED
    import numpy as np

    _PROBE_SHUFFLED = np.random.default_rng(0).random(300_000)
    _PROBE_DATA = _PROBE_SHUFFLED.copy()


def set_up(workload, seed: int, scale: int, cache_dir: Path) -> float:
    """Spawn the sweep pool, cold-route and store the base planes;
    returns the seconds taken.

    Starts from no sweep pool and an empty in-process fabric cache, and
    leaves the in-process cache empty again, so every set-up and every
    pass start from the same state.
    """
    from repro.core import parallel
    from repro.experiments import configs

    parallel.shutdown_sweep_pool()
    configs.clear_fabric_cache()
    t0 = time.perf_counter()
    # The pool otherwise spawns lazily inside whichever cell first
    # shards work, which would make the first pass unlike the others.
    # Without this (private) hook it still spawns lazily.
    acquire_pool = getattr(parallel, "_acquire_pool", None)
    if acquire_pool is not None:
        acquire_pool(parallel.get_sweep_workers())
    configs.set_fabric_cache_dir(cache_dir)
    try:
        for key in workload.base_planes:
            configs.build_fabric(configs.get_combination(key), scale=scale, seed=seed)
    finally:
        configs.set_fabric_cache_dir(None)
    seconds = time.perf_counter() - t0
    configs.clear_fabric_cache()
    return seconds


def stop_processes() -> None:
    """Stop every process the run started and wait for each to end.

    That is the sweep pool's workers and multiprocessing's resource
    tracker.  The tracker is started with the first spawned worker or
    shared-memory segment and is never waited for by multiprocessing:
    left alone it outlives the run and, once orphaned, stays behind
    unreaped.  Call once, after the last parallel job.
    """
    import gc
    import multiprocessing
    import threading
    from multiprocessing import resource_tracker

    from repro.core.parallel import shutdown_sweep_pool

    shutdown_sweep_pool()
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join()
    # A closed queue's feeder thread holds two of its semaphores until
    # it ends; once the threads are gone, finalise the dropped queues so
    # their semaphores are unregistered while the tracker still runs.
    for thread in threading.enumerate():
        if thread.name == "QueueFeederThread":
            thread.join(timeout=5.0)
    gc.collect()
    # Any later (un)register, say from a finaliser at exit, would start
    # a new tracker that nothing waits for.  With the pool down and its
    # segments unlinked there is nothing left for one to clean up, and
    # semaphores and segments are still unlinked by their own cleanup.
    # Swap the calls out before the stop, so none can slip in between.
    resource_tracker.register = resource_tracker.unregister = _no_tracker
    resource_tracker._resource_tracker._stop()


def _no_tracker(name: str, rtype: str) -> None:
    """Stand-in for the stopped resource tracker's (un)register."""


def run_pass(specs, cache_dir: Path, pass_dir: Path, tracer=None) -> dict[str, Any]:
    """One pass over the grid in fresh campaign directories.

    Each campaign directory gets hard links to the set-up's stored
    planes; the in-process fabric cache (and its preflight
    certifications) is cleared first.  Per-cell seconds come from the
    gaps between ``run_campaign`` progress callbacks.  An untraced
    pass probes the host before every grid and after every cell (the
    probes would land in the campaign spans of a traced one) and
    reports their median; its wall leaves the probes out.
    """
    from repro.campaign import engine as campaign_engine
    from repro.core.parallel import parallel_stats
    from repro.experiments import configs
    from spans import instrument

    configs.clear_fabric_cache()
    for spec in specs:
        shutil.copytree(
            cache_dir, pass_dir / spec.name / "fabric-cache",
            copy_function=os.link,
        )
    cells: list[dict[str, Any]] = []
    clock = [0.0]
    probes: list[float] = []

    def probe() -> float:
        seconds = host_probe() if tracer is None else 0.0
        probes.append(seconds)
        return seconds

    def progress(record: dict[str, Any]) -> None:
        now = time.perf_counter()
        cells.append({
            "record": record,
            "seconds": now - clock[0],
            "parallel": parallel_stats(),
        })
        probe()
        clock[0] = time.perf_counter()

    with instrument(tracer) if tracer is not None else nullcontext():
        t0 = time.perf_counter()
        for spec in specs:
            probe()
            clock[0] = time.perf_counter()
            campaign_engine.run_campaign(
                spec, pass_dir / spec.name, workers=1, progress=progress
            )
        wall = time.perf_counter() - t0 - sum(probes)
    return {"wall": wall, "cells": cells, "probe": statistics.median(probes)}


def check_cells(workload, cells, pins) -> dict[str, str]:
    """Problem per failed cell key (empty when every cell is good)."""
    problems: dict[str, str] = {}
    for cell in cells:
        rec = cell["record"]
        key = cell_key(rec)
        if rec["status"] != "completed":
            err = rec.get("error", {})
            problems[key] = f"{err.get('type')}: {err.get('message')}"
            continue
        values = rec["values"]
        if not values or not all(math.isfinite(v) and v > 0 for v in values):
            problems[key] = f"bad values {values}"
            continue
        problem = workload.check(rec)
        if problem is None and pins is not None and pins.get(key) != cell_digest(rec):
            problem = f"digest {cell_digest(rec)} != pinned {pins.get(key)}"
        if problem is not None:
            problems[key] = problem
    return problems


def layer_metrics(
    tracer, traced: dict[str, Any], overhead_s: float, failed: int
) -> dict[str, float]:
    own = tracer.self_times()
    calls = tracer.calls()
    m: dict[str, float] = {
        metric: own.get(span, 0.0) for span, metric in SELF_TIME.items()
    }
    m.update({metric: calls[span] for span, metric in CALLS.items()})
    m.update({name: tracer.counters[name] for name in COUNTERS})
    records = [c["record"] for c in traced["cells"]]
    hits = sum(
        r["fabric_cache"]["memory_hits"] + r["fabric_cache"]["disk_hits"]
        for r in records
    )
    routed = sum(r["fabric_cache"]["routed"] for r in records)
    par = {
        k: sum(c["parallel"][k] for c in traced["cells"])
        for k in (*PARALLEL_JOBS, "serial_fallbacks", "pool_spawns")
    }
    jobs = sum(par[k] for k in PARALLEL_JOBS)
    m.update({
        "experiments.cache_hits": hits,
        "experiments.cache_routed": routed,
        "experiments.cache_hit_ratio": ratio(hits, hits + routed),
        "mpi.materialize_ns_per_msg": 1e9 * ratio(
            m["mpi.materialize_s"], m["mpi.materialized_messages"]
        ),
        "mpi.distinct_path_ratio": ratio(
            m["mpi.distinct_paths"], m["mpi.materialized_messages"]
        ),
        "sim.solves_per_phase": ratio(m["sim.solves"], m["sim.phases"]),
        "campaign.cells_failed": failed,
        "parallel.parallel_sweeps": par["parallel_sweeps"],
        "parallel.parallel_walks": par["parallel_walks"],
        "parallel.serial_fallbacks": par["serial_fallbacks"],
        "parallel.pool_spawns": par["pool_spawns"],
        "parallel.offload_ratio": ratio(jobs, jobs + par["serial_fallbacks"]),
        "trace.overhead_s": overhead_s,
    })
    return m


def fingerprint() -> dict[str, Any]:
    import numpy
    import scipy

    from repro.core.parallel import get_sweep_workers

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "sweep_workers": get_sweep_workers(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    t_start = time.perf_counter()
    if not (SRC / "repro").is_dir():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Imports are part of set-up: everything a cell would otherwise
    # import lazily is loaded here.
    import numpy  # noqa: F401
    import repro.campaign.engine  # noqa: F401
    import repro.workloads.netbench  # noqa: F401
    import repro.workloads.proxyapps  # noqa: F401
    import repro.workloads.x500  # noqa: F401
    from grids import WORKLOADS
    from spans import Tracer

    import_s = time.perf_counter() - t_start
    init_probe()
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.scale < 1:
        print("error: --scale must be >= 1", file=sys.stderr)
        return 2
    specs = workload.build(args.seed, args.scale)
    pins = load_pins(args.pins, workload.name, args.seed, args.scale)

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        setups: list[float] = []
        setup_probes = [host_probe()]
        for k in range(SETUP_REPEATS):
            setups.append(
                set_up(workload, args.seed, args.scale, work / f"setup{k}")
            )
            setup_probes.append(host_probe())
        cache_dir = work / f"setup{SETUP_REPEATS - 1}"
        if args.trace:
            tracer = Tracer()
            passes = [
                run_pass(specs, cache_dir, work / "pass0"),
                run_pass(specs, cache_dir, work / "pass1", tracer),
            ]
        else:
            passes = []
            t_measure = time.perf_counter()
            while True:
                passes.append(run_pass(specs, cache_dir, work / f"pass{len(passes)}"))
                now = time.perf_counter()
                last = passes[-1]["wall"]
                if (now - t_measure + last > args.seconds
                        or now - t_start + last > RUN_CEILING_S):
                    break
    finally:
        stop_processes()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    all_cells = [c for p in passes for c in p["cells"]]
    problems = check_cells(workload, all_cells, pins)
    failed = sum(cell_key(c["record"]) in problems for c in all_cells)
    digests = [
        {cell_key(c["record"]): cell_digest(c["record"]) for c in p["cells"]}
        for p in passes
    ]
    consistent = all(d == digests[0] for d in digests)
    expected = sum(len(spec.cells) for spec in specs) * len(passes)
    correct = failed == 0 and consistent and len(all_cells) == expected
    info: dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "host": fingerprint(),
        "import_s": import_s,
        "setups_s": setups,
        "setup_probes_s": setup_probes,
        "pass_walls_s": [p["wall"] for p in passes],
        "pass_probes_s": [p["probe"] for p in passes],
        "cell_seconds": [
            {cell_key(c["record"]): c["seconds"] for c in p["cells"]}
            for p in passes
        ],
        "digests": digests[0],
        "digests_pinned": pins is not None,
        "problems": problems,
    }
    if args.trace:
        span_problems = tracer.check_nesting()
        untraced, traced_pass = passes
        metrics = layer_metrics(
            tracer, traced_pass, traced_pass["wall"] - untraced["wall"], failed
        )
        correct = correct and not span_problems and metrics["sim.events_truncated"] == 0
        info["spans"] = len(tracer.spans)
        info["span_problems"] = span_problems[:20]
        info["missing_boundaries"] = tracer.missing
        units = PER_LAYER
    else:
        # Seconds at the reference speed (see host_probe).
        cell_times: dict[str, list[float]] = {}
        for p in passes:
            for c in p["cells"]:
                cell_times.setdefault(cell_key(c["record"]), []).append(
                    c["seconds"] * PROBE_REF_S / p["probe"]
                )
        metrics = {
            "wall_s": statistics.median(
                p["wall"] * PROBE_REF_S / p["probe"] for p in passes
            ),
            "cell_p50_s": statistics.median(
                statistics.median(times) for times in cell_times.values()
            ),
            "setup_s": (import_s + statistics.median(setups))
            * PROBE_REF_S / statistics.median(setup_probes),
            "peak_rss_mib": peak_rss_mib,
            "cells_ok": 1.0 - ratio(failed, len(all_cells)),
        }
        units = END_TO_END
    info["passes"] = len(passes)
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(all_cells),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name][0]}
            for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
