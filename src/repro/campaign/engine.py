"""The campaign execution engine: parallel, cached, resumable sweeps.

Cells fan out across a :class:`~concurrent.futures.ProcessPoolExecutor`;
every attempt is appended to the JSONL run ledger the moment it
finishes, so a killed campaign resumes exactly where it stopped
(completed cells are skipped, failed cells are retried up to the spec's
``max_attempts`` with structured error records — never silently
dropped).  Workers share a persistent on-disk fabric cache inside the
campaign directory: the first worker to touch a configuration pays the
OpenSM + routing-engine cost, everyone else deserializes the routed
plane (the per-cell ``fabric_cache`` counters in the ledger make the
warm path auditable).

Results are bit-identical between serial and parallel execution: every
stochastic stream inside a cell is derived from the cell's own RunSpec
content (:func:`repro.core.rng.derive_seed`), never from worker
identity or completion order.
"""

from __future__ import annotations

import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Any, Callable

from repro.campaign.ledger import (
    STATUS_COMPLETED,
    STATUS_FAILED,
    CampaignStatus,
    Ledger,
    summarize,
)
from repro.campaign.spec import CampaignSpec, campaign_paths
from repro.core.errors import ConfigurationError
from repro.core.parallel import (
    get_sweep_workers,
    parallel_stats,
    reset_parallel_stats,
    set_sweep_workers,
)
from repro.core.units import MIB
from repro.experiments.capacity import run_capacity
from repro.experiments.configs import (
    fabric_cache_key,
    fabric_cache_stats,
    get_fabric_cache_dir,
    get_fabric_cache_mmap,
    reset_fabric_cache_stats,
    set_fabric_cache_dir,
    set_fabric_cache_mmap,
)
from repro.experiments.runner import RunSpec, run_capability

#: Default payload of ``imb:<Op>`` cells without an explicit size.
DEFAULT_IMB_BYTES = 1.0 * MIB

ProgressFn = Callable[[dict[str, Any]], None]


def _init_worker(
    cache_dir: str | None,
    use_mmap: bool = True,
    sweep_workers: int | None = None,
) -> None:
    """Executor initializer: point the worker at the shared fabric cache.

    With ``use_mmap`` the worker attaches to cached forwarding tables
    copy-on-write (``np.load(..., mmap_mode="c")``) instead of
    deserialising its own copy — N workers over the same combination
    share one set of page-cache pages for the dense rows.

    ``sweep_workers`` pins the routing sweep pool size inside this
    worker (:mod:`repro.core.parallel`).  The parallel campaign path
    passes 1: campaign cells are already one-process-per-cell, and a
    nested sweep pool per cell would oversubscribe the machine without
    speeding anything up.  ``None`` leaves the ambient configuration
    (env / caller) alone — the serial in-process path uses that, so a
    single-worker campaign still benefits from parallel sweeps.
    """
    set_fabric_cache_dir(cache_dir)
    set_fabric_cache_mmap(use_mmap)
    if sweep_workers is not None:
        set_sweep_workers(sweep_workers)


def _imb_profile(op: str, num_nodes: int, size: float):
    """The rank-phase profile PARX re-routes with for an IMB operation
    (mirrors the Figure 4/5 benchmarks)."""
    from repro.mpi.collectives import (
        binomial_bcast,
        binomial_gather,
        binomial_reduce,
        binomial_scatter,
        pairwise_alltoall,
        recursive_doubling_allreduce,
    )

    builders = {
        "Bcast": binomial_bcast,
        "Gather": binomial_gather,
        "Scatter": binomial_scatter,
        "Reduce": binomial_reduce,
        "Allreduce": recursive_doubling_allreduce,
        "Alltoall": pairwise_alltoall,
    }
    builder = builders.get(op)
    return builder(num_nodes, size) if builder is not None else None


def resolve_measure(spec: RunSpec):
    """Resolve a cell's benchmark name to ``(measure, profile, hib)``.

    The measure callable cannot ride in the (serializable) RunSpec, so
    workers resolve it from the benchmark name:

    * a proxy/x500 app abbreviation (``CoMD``, ``HPL``, ...) — the
      app's kernel runtime, profiled for PARX re-routing;
    * ``imb:<Op>`` or ``imb:<Op>:<bytes>`` — one IMB data point
      (operation latency), e.g. ``imb:Alltoall:4194304``;
    * ``capacity`` is handled by :func:`execute_cell` directly.
    """
    if spec.benchmark.startswith("imb:"):
        parts = spec.benchmark.split(":")
        if len(parts) not in (2, 3) or not parts[1]:
            raise ConfigurationError(
                f"bad IMB benchmark {spec.benchmark!r}; expected "
                "imb:<Op> or imb:<Op>:<bytes>"
            )
        op = parts[1]
        size = float(parts[2]) if len(parts) == 3 else DEFAULT_IMB_BYTES
        from repro.workloads.netbench import IMB_COLLECTIVES, imb_latency

        if op not in IMB_COLLECTIVES:
            raise ConfigurationError(
                f"unknown IMB operation {op!r}; available: {IMB_COLLECTIVES}"
            )

        def measure(job, sim, op=op, size=size):
            return imb_latency(job, sim, op, size)

        return measure, _imb_profile(op, spec.num_nodes, size), False

    from repro.workloads.proxyapps import get_app

    app = get_app(spec.benchmark)

    def measure(job, sim, app=app):
        return app.kernel_runtime(job, sim)

    return measure, app.rank_phases(spec.num_nodes), app.higher_is_better


def execute_cell(payload: dict[str, Any]) -> dict[str, Any]:
    """Run one cell in this process; always returns a ledger record.

    Exceptions never propagate: a failure becomes a structured error
    record (type, message, traceback) so the engine can retry and the
    ledger keeps the evidence.
    """
    spec = RunSpec.from_dict(payload["spec"])
    base_key = fabric_cache_key(
        spec.combo, scale=spec.scale, with_faults=spec.faults, seed=spec.seed
    )
    record: dict[str, Any] = {
        "cell_id": spec.cell_id,
        "spec": spec.to_dict(),
        "worker_pid": os.getpid(),
    }
    reset_fabric_cache_stats()
    reset_parallel_stats()
    t0 = time.perf_counter()
    try:
        if spec.benchmark == "capacity":
            if spec.fault_timeline:
                raise ConfigurationError(
                    "capacity cells do not support a fault timeline; the "
                    "capacity scheduler owns its own simulators"
                )
            res = run_capacity(
                spec.combo, scale=spec.scale, seed=spec.seed,
                sim_mode=spec.sim_mode,
            )
            record["status"] = STATUS_COMPLETED
            record["values"] = [float(res.total_runs)]
            record["best"] = float(res.total_runs)
            record["higher_is_better"] = True
            record["capacity"] = {
                "runs": res.runs,
                "solo_seconds": res.solo_seconds,
                "interfered_seconds": res.interfered_seconds,
            }
            record["anomalies"] = res.anomalies
        else:
            measure, profile, higher_is_better = resolve_measure(spec)
            res = run_capability(
                spec, measure,
                rank_phases_for_profile=profile,
                higher_is_better=higher_is_better,
            )
            record["status"] = STATUS_COMPLETED
            record["values"] = list(res.values)
            record["best"] = float(res.best)
            record["higher_is_better"] = higher_is_better
            record["anomalies"] = res.anomalies
            if spec.fault_timeline:
                record["reroutes"] = {
                    "events_applied": res.events_applied,
                    "messages_rerouted": res.messages_rerouted,
                    "paths_changed": res.paths_changed,
                    "unreachable_pairs": res.unreachable_pairs,
                    "reports": res.reroutes,
                }
    except Exception as exc:  # noqa: BLE001 - every failure must land in the ledger
        record["status"] = STATUS_FAILED
        record["error"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
    stats = fabric_cache_stats()
    stats["cache_key"] = base_key
    stats["preflighted"] = spec.preflight
    record["fabric_cache"] = stats
    par = parallel_stats()
    record["sweep"] = {
        "workers": get_sweep_workers(),
        "parallel_sweeps": par["parallel_sweeps"],
    }
    # Degradations that left the values exact but cost time: a cached
    # plane that failed to load and was re-routed, and pool jobs that
    # fell back to the serial sweep.
    record.setdefault("anomalies", {}).update(
        cache_rebuilds=stats["load_errors"],
        serial_fallbacks=par["serial_fallbacks"],
    )
    record["duration_s"] = time.perf_counter() - t0
    return record


def _interleave_by_fabric(cells: list[RunSpec]) -> list[RunSpec]:
    """Round-robin cells across their fabric cache keys.

    Workers pick cells in submission order; if the first ``N`` cells all
    need the same fabric, every worker routes it concurrently before any
    of them can populate the cache (a thundering herd).  Interleaving
    groups puts each worker on a *different* fabric first, so later
    cells of a group hit the in-memory or on-disk cache instead.
    Deterministic — it only permutes submission order, never results.
    """
    groups: dict[str, list[RunSpec]] = {}
    for cell in cells:
        key = fabric_cache_key(
            cell.combo, scale=cell.scale, with_faults=cell.faults,
            seed=cell.seed,
        )
        groups.setdefault(key, []).append(cell)
    out: list[RunSpec] = []
    queues = list(groups.values())
    while queues:
        queues = [q for q in queues if q]
        for q in queues:
            if q:
                out.append(q.pop(0))
    return out


def run_campaign(
    spec: CampaignSpec,
    campaign_dir: str | Path,
    workers: int = 1,
    limit: int | None = None,
    fabric_cache: bool = True,
    progress: ProgressFn | None = None,
) -> CampaignStatus:
    """Execute (or continue) a campaign; returns its final status.

    Cells already completed in the ledger are skipped, which is all
    resume is: re-invoke with the same spec and directory.  ``limit``
    caps how many pending cells this invocation processes (the CI smoke
    test uses it to stop a campaign mid-flight deterministically before
    resuming it).  ``workers <= 1`` runs inline — same code path as a
    worker, no pool — which parallel runs are bit-identical to.
    """
    paths = campaign_paths(campaign_dir)
    paths["dir"].mkdir(parents=True, exist_ok=True)
    spec.save(paths["dir"])
    ledger = Ledger(paths["ledger"])
    attempts = ledger.attempt_counts()
    completed = ledger.completed_ids()
    pending = [c for c in spec.cells if c.cell_id not in completed]
    if workers > 1:
        # Interleave before applying the limit, so a limited batch also
        # spans fabrics breadth-first: concurrent workers start on
        # different planes, and the next resume finds them cached.
        pending = _interleave_by_fabric(pending)
    if limit is not None:
        pending = pending[:limit]
    cache_dir = str(paths["fabric_cache"]) if fabric_cache else None

    def book(cell: RunSpec, record: dict[str, Any]) -> int:
        """Append one attempt; returns this cell's attempt count."""
        n = attempts.get(cell.cell_id, 0) + 1
        attempts[cell.cell_id] = n
        record["attempt"] = n
        ledger.append(record)
        if progress is not None:
            progress(record)
        return n

    t0 = time.perf_counter()
    if workers <= 1:
        previous_dir = get_fabric_cache_dir()
        previous_mmap = get_fabric_cache_mmap()
        _init_worker(cache_dir)
        try:
            for cell in pending:
                while True:
                    record = execute_cell({"spec": cell.to_dict()})
                    n = book(cell, record)
                    if (record["status"] == STATUS_COMPLETED
                            or n >= spec.max_attempts):
                        break
        finally:
            set_fabric_cache_dir(previous_dir)
            set_fabric_cache_mmap(previous_mmap)
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            # sweep_workers=1: one process per cell already saturates the
            # machine; nested sweep pools would only oversubscribe it.
            initargs=(cache_dir, True, 1),
        ) as pool:
            futures = {
                pool.submit(execute_cell, {"spec": c.to_dict()}): c
                for c in pending
            }
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for fut in done:
                    cell = futures.pop(fut)
                    try:
                        record = fut.result()
                    except Exception as exc:  # worker died (OOM, signal)
                        record = {
                            "cell_id": cell.cell_id,
                            "spec": cell.to_dict(),
                            "status": STATUS_FAILED,
                            "duration_s": 0.0,
                            "error": {
                                "type": type(exc).__name__,
                                "message": str(exc),
                                "traceback": traceback.format_exc(),
                            },
                        }
                    n = book(cell, record)
                    if (record["status"] == STATUS_FAILED
                            and n < spec.max_attempts):
                        futures[
                            pool.submit(execute_cell, {"spec": cell.to_dict()})
                        ] = cell
    return summarize(spec, ledger, wall_seconds=time.perf_counter() - t0)
