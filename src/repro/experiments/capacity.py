"""Capacity / system-throughput evaluation (paper §4.4.2 and Figure 7).

Fourteen applications run concurrently for three hours, each on a
dedicated allocation (32 or 56 nodes, 664 of 672 nodes busy); the
reported number is how many runs each application completes.  Jobs
interfere only through the network — which is exactly what the flow
model captures.

Simulating three wall-clock hours message-by-message is unnecessary:
every application repeats the same program, so its completion rate is
its single-run time *under the steady background load of the other
thirteen*.  The model:

1. run every app standalone on its allocation -> per-link average
   byte rates (its steady-state footprint) and solo runtime,
2. for each app, shrink link capacities by the other apps' summed
   footprints (floored at 5% — credit flow control never truly
   starves a flow) and re-simulate -> interfered runtime,
3. completed runs = floor(3 h / (interfered runtime + startup cost)).

This is the quantitative version of the paper's qualitative comparison
(their §5.3 explicitly recommends simulation for the quantitative
question).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import derive_seed
from repro.core.units import MIB
from repro.experiments.configs import Combination, build_fabric, make_pml
from repro.mpi.job import Job
from repro.mpi.profiler import merge_demands
from repro.placement import placement
from repro.sim.batch import MessageBatch
from repro.sim.engine import FlowSimulator
from repro.sim.flows import Program
from repro.workloads.proxyapps import PROXY_APPS
from repro.workloads.x500 import X500_APPS

#: The fourteen concurrent applications of Figure 7 with their node
#: counts: the power-of-two-scaling codes (and MuPP) use 32 nodes, the
#: rest 56 — 9 x 56 + 5 x 32 = 664 nodes, 98.8% of the machine.
CAPACITY_APPS: tuple[tuple[str, int], ...] = (
    ("AMG", 56),
    ("CoMD", 56),
    ("FFVC", 32),
    ("GraD", 32),
    ("HPCG", 56),
    ("HPL", 56),
    ("MILC", 32),
    ("MiFE", 56),
    ("mVMC", 56),
    ("NTCh", 56),
    ("Qbox", 56),
    ("FFT", 32),
    ("MuPP", 32),
    ("EmDL", 56),
)

#: Experiment duration (3 hours) and per-run launch overhead (mpirun,
#: wire-up, I/O) in seconds.
WINDOW_SECONDS = 3 * 3600.0
STARTUP_SECONDS = 15.0


@dataclass(frozen=True)
class CapacityTuning:
    """Per-app capacity-run calibration.

    The capability experiments (Figure 6) size their inputs for 1-5 min
    runs at *varying* scale; the capacity mix re-tunes each app for its
    fixed 32/56-node allocation so that single-run durations land in
    the band the paper's Figure 7 counts imply (e.g. AMG ~140 s/run,
    MuPP ~53 s/run for the baseline).  ``iterations`` overrides the
    app's solver-iteration count; ``extra_overhead`` adds per-run pre-/
    post-processing the kernel metric excludes but wallclock pays
    (graph construction + validation for Graph500, input I/O, etc.).
    """

    iterations: int | None = None
    extra_overhead: float = 0.0


#: Calibration per capacity app (see :class:`CapacityTuning`).
CAPACITY_TUNING: dict[str, CapacityTuning] = {
    "AMG": CapacityTuning(iterations=18),
    "CoMD": CapacityTuning(iterations=25),
    "FFVC": CapacityTuning(iterations=45),
    "GraD": CapacityTuning(extra_overhead=30.0),  # construct + validate
    "HPCG": CapacityTuning(iterations=700),
    "HPL": CapacityTuning(),
    "MILC": CapacityTuning(iterations=45),
    "MiFE": CapacityTuning(iterations=65),
    "mVMC": CapacityTuning(iterations=50),
    "NTCh": CapacityTuning(extra_overhead=60.0),  # taxol integral I/O
    "Qbox": CapacityTuning(iterations=16),
    "FFT": CapacityTuning(iterations=25),
    "MuPP": CapacityTuning(extra_overhead=30.0),  # full IMB suite setup
    "EmDL": CapacityTuning(iterations=1500),
}

#: Interference floor: a link never drops below this capacity share.
MIN_CAPACITY_FRACTION = 0.05


@dataclass
class CapacityResult:
    """Completed-run counts of one combination (one Figure 7 panel)."""

    combo_key: str
    runs: dict[str, int] = field(default_factory=dict)
    solo_seconds: dict[str, float] = field(default_factory=dict)
    interfered_seconds: dict[str, float] = field(default_factory=dict)
    #: Approximations inside the result (see ``CapabilityResult``).
    anomalies: dict[str, int] = field(default_factory=dict)

    @property
    def total_runs(self) -> int:
        return sum(self.runs.values())


def _app_single_run(
    name: str, job: Job, sim: FlowSimulator
) -> tuple[Program, float, int, float, int]:
    """One run of a capacity app: (one-comm-round program, compute gap,
    iteration count, per-run overhead, comm rounds per iteration).
    Total runtime = iters x (rounds x sim(program) + gap) + overhead."""
    tune = CAPACITY_TUNING.get(name, CapacityTuning())
    p = job.num_ranks
    if name in PROXY_APPS or name in X500_APPS:
        app = PROXY_APPS.get(name) or X500_APPS[name]
        program = job.materialize(app.rank_phases(p), label=name)
        iters = tune.iterations or app.iterations
        return (program, app.compute_time(p), iters, tune.extra_overhead,
                app.comm_rounds)
    if name == "MuPP":
        # A full IMB Multi-PingPong size sweep: pairs (i, i+P/2) ping-
        # pong 100 rounds per message size, 1 KiB .. 4 MiB.
        half = p // 2
        phases = []
        for exp in range(10, 23):  # 1 KiB .. 4 MiB
            size = float(2**exp)
            ping = [(i, i + half, size) for i in range(half)]
            pong = [(i + half, i, size) for i in range(half)]
            phases.extend([ping, pong] * 100)
        program = job.materialize(phases, label="mupp")
        return program, 0.0, tune.iterations or 1, tune.extra_overhead, 1
    if name == "EmDL":
        # Deep-learning emulation: 100 MiB ring allreduce + 0.1 s
        # compute per training step (paper footnote 12).
        program = job.allreduce(100 * MIB, algorithm="ring")
        return program, 0.1, tune.iterations or 120, tune.extra_overhead, 1
    raise ConfigurationError(f"unknown capacity app {name!r}")


def run_capacity(
    combo: Combination,
    scale: int = 1,
    seed: int = 0,
    apps: tuple[tuple[str, int], ...] = CAPACITY_APPS,
    window_seconds: float = WINDOW_SECONDS,
    sim_mode: str = "static",
) -> CapacityResult:
    """Figure 7 for one combination: runs completed per app in 3 hours."""
    fabric = build_fabric(combo, scale=scale, seed=seed)
    net = fabric.net
    pool = list(net.terminals)
    scale_nodes = max(4, len(pool) // 672)

    # Carve the machine into per-app allocations using the combination's
    # placement policy over the remaining pool.
    allocations: dict[str, list[int]] = {}
    jobs: dict[str, Job] = {}
    profiler_demands = []
    fallbacks = 0
    for i, (name, nodes_full) in enumerate(apps):
        n = max(2, nodes_full * len(pool) // 672)
        n -= n % 2  # MuPP and power-of-two codes want even counts
        alloc = placement(
            combo.placement, pool, n,
            seed=derive_seed(seed, "capacity", combo.key, i),
        )
        allocations[name] = alloc
        pool = [x for x in pool if x not in set(alloc)]

    # PARX re-routes once against the merged demand files of all apps
    # (the paper's "one (or more) application" re-routing interface).
    # Each app's program is profiled at node granularity directly — our
    # programs already carry resolved node pairs and byte counts.
    if combo.uses_parx:
        for name, alloc in allocations.items():
            dummy_job = Job(fabric, alloc, pml=make_pml(combo))
            program, _, _, _, _ = _app_single_run(name, dummy_job, FlowSimulator(net))
            fallbacks += dummy_job.resolve_fallbacks
            totals: dict[tuple[int, int], float] = {}
            for ph in program:
                for m in ph:
                    if m.size > 0:
                        key = (m.src, m.dst)
                        totals[key] = totals.get(key, 0.0) + m.size
            d: dict[int, dict[int, int]] = {}
            if totals:
                peak = max(totals.values())
                for (src, dst), b in totals.items():
                    level = max(1, math.ceil(255 * b / peak))
                    d.setdefault(src, {})[dst] = min(255, level)
            profiler_demands.append(d)
        merged = merge_demands(*profiler_demands)
        fabric = build_fabric(combo, scale=scale, seed=seed, demands=merged)
        net = fabric.net

    for name, alloc in allocations.items():
        jobs[name] = Job(fabric, alloc, pml=make_pml(combo))

    # Pass 1: standalone runtimes and per-link steady-state footprints.
    result = CapacityResult(combo.key)
    sim = FlowSimulator(net, mode=sim_mode)
    footprints: dict[str, dict[int, float]] = {}
    programs: dict[str, tuple[Program, float, int]] = {}
    for name, job in jobs.items():
        program, gap, iters, overhead, rounds = _app_single_run(name, job, sim)
        programs[name] = (program, gap, iters, overhead, rounds)
        res = sim.run(program)
        solo = iters * (rounds * res.total_time + gap) + overhead
        result.solo_seconds[name] = solo
        # Steady-state bytes/second on each link while the app runs;
        # the program's bytes repeat every (round time + gap share).
        per_iter = res.total_time + gap / max(1, rounds)
        loads: dict[int, float] = {}
        if per_iter > 0 and program.phases:
            b = MessageBatch.concat([phase.batch for phase in program])
            busy = np.bincount(
                b.flat, np.repeat(b.sizes / per_iter, b.lens), len(net.links)
            )
            loads = {int(l): float(busy[l]) for l in np.flatnonzero(busy)}
        footprints[name] = loads

    truncated = sim.events_truncated

    # Pass 2: re-simulate each app against the other apps' background.
    base_caps = [l.capacity for l in net.links]
    for name, job in jobs.items():
        program, gap, iters, overhead, rounds = programs[name]
        background: dict[int, float] = {}
        for other, loads in footprints.items():
            if other == name:
                continue
            for l, v in loads.items():
                background[l] = background.get(l, 0.0) + v
        for lid, v in background.items():
            floor = MIN_CAPACITY_FRACTION * base_caps[lid]
            net.links[lid].capacity = max(floor, base_caps[lid] - v)
        res = FlowSimulator(net, mode=sim_mode).run(program)
        truncated += res.events_truncated
        interfered = iters * (rounds * res.total_time + gap) + overhead
        result.interfered_seconds[name] = interfered
        result.runs[name] = int(window_seconds // (interfered + STARTUP_SECONDS))
        # Restore capacities for the next app.
        for lid in background:
            net.links[lid].capacity = base_caps[lid]
    result.anomalies = {
        "events_truncated": truncated,
        "resolve_fallbacks": fallbacks + sum(
            job.resolve_fallbacks for job in jobs.values()
        ),
    }
    return result
