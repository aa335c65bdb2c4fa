"""Cold vs warm campaign-cell wall clock over the batched phase pipeline.

The tentpole claim of the batching + mmap-cache work, measured end to
end: a *warm* 672-node t2hx campaign cell — fabric attached zero-copy
from the shared ``.rows.npy`` sidecar, phases materialised as
:class:`~repro.sim.batch.MessageBatch` arrays gathered from the fabric's
stacked destination walks, simulated straight from those arrays —
completes in well under a second of wall clock, and produces values
bit-identical to the cold (freshly routed) cell.

Two cells are pinned:

* ``imb:Allreduce:1048576`` — a Figure 4/5-style IMB cell; its warm
  wall clock is asserted against :data:`WARM_CELL_BUDGET` (default 1 s,
  relaxable via ``PERF_WARM_CELL_BUDGET`` for noisy CI runners).
* ``imb:Alltoall:1048576`` — the paper's heaviest collective (671
  phases x 671 messages); recorded for the report JSON and checked
  for cold/warm value identity, budget-free.  Its warm cost is split
  between materialising the phases (``Job.materialize``) and simulating
  them (``FlowSimulator.run``, mostly the fairness solves); the report
  records both, since materialisation used to dominate.

JSON artifacts land in ``benchmarks/out/`` for the perf-smoke upload.
"""

from __future__ import annotations

import json
import os
import time

from repro.campaign.engine import execute_cell
from repro.mpi.job import Job
from repro.sim.engine import FlowSimulator
from repro.campaign.ledger import STATUS_COMPLETED
from repro.experiments.configs import (
    clear_fabric_cache,
    get_fabric_cache_dir,
    reset_fabric_cache_stats,
    set_fabric_cache_dir,
)
from repro.experiments.runner import RunSpec

import pytest

#: Wall-clock ceiling for the warm Allreduce cell (seconds).
WARM_CELL_BUDGET = float(os.environ.get("PERF_WARM_CELL_BUDGET", "1.0"))

#: The paper's full-machine scale: 672 terminals on the t2hx HyperX.
NUM_NODES = 672


@pytest.fixture()
def cache_dir(tmp_path_factory):
    """A fresh shared fabric-cache directory, worker-attached like a
    campaign's (:func:`repro.campaign.engine._init_worker` defaults).

    Function-scoped so each test's first cell really routes cold — a
    shared directory would let the second test's "cold" run attach to
    the first test's sidecar."""
    d = tmp_path_factory.mktemp("fabric-cache")
    previous = get_fabric_cache_dir()
    set_fabric_cache_dir(str(d))
    yield d
    set_fabric_cache_dir(previous)


def _spec(benchmark_name: str) -> RunSpec:
    return RunSpec(
        "hx-dfsssp-linear",
        benchmark_name,
        num_nodes=NUM_NODES,
        reps=1,
        scale=1,
        sim_mode="static",
        preflight=False,
    )


def _run_cell(benchmark_name: str) -> tuple[float, dict]:
    """One cell in this process, memory cache dropped first so the cell
    pays the disk/mmap path a fresh worker would."""
    clear_fabric_cache()
    reset_fabric_cache_stats()
    t0 = time.perf_counter()
    record = execute_cell({"spec": _spec(benchmark_name).to_dict()})
    elapsed = time.perf_counter() - t0
    assert record["status"] == STATUS_COMPLETED, record.get("error")
    return elapsed, record


def test_perf_warm_allreduce_cell(cache_dir, report_dir):
    """Warm 672-node Allreduce cell: mmap attach + batched phases < 1 s."""
    cold_s, cold = _run_cell("imb:Allreduce:1048576")
    assert cold["fabric_cache"]["routed"] == 1, cold["fabric_cache"]

    warm_times = []
    for _ in range(3):
        warm_s, warm = _run_cell("imb:Allreduce:1048576")
        fc = warm["fabric_cache"]
        assert fc["routed"] == 0 and fc["disk_hits"] == 1, fc
        assert fc["mmap_attaches"] == 1, fc
        assert warm["values"] == cold["values"]  # bit-identical
        warm_times.append(warm_s)

    payload = {
        "cell": "hx-dfsssp-linear/imb:Allreduce:1048576",
        "num_nodes": NUM_NODES,
        "cold_s": cold_s,
        "warm_s": min(warm_times),
        "warm_runs_s": warm_times,
        "warm_budget_s": WARM_CELL_BUDGET,
        "value": cold["best"],
    }
    (report_dir / "perf_phase_batch_cell.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert min(warm_times) < WARM_CELL_BUDGET, payload


def _timed(stages: dict[str, float], name: str, fn):
    """``fn`` that adds its wall time to ``stages[name]``."""

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stages[name] += time.perf_counter() - t0

    return wrapper


def test_perf_warm_alltoall_cell(cache_dir, report_dir, monkeypatch):
    """Warm 672-node Alltoall cell (671 phases): value-identical to the
    cold cell; wall clock and its materialise/simulate split recorded
    for the report, not budgeted."""
    cold_s, cold = _run_cell("imb:Alltoall:1048576")
    assert cold["fabric_cache"]["routed"] == 1, cold["fabric_cache"]
    stages = {"materialize_s": 0.0, "simulate_s": 0.0}
    monkeypatch.setattr(
        Job, "materialize", _timed(stages, "materialize_s", Job.materialize)
    )
    monkeypatch.setattr(
        FlowSimulator, "run", _timed(stages, "simulate_s", FlowSimulator.run)
    )
    warm_s, warm = _run_cell("imb:Alltoall:1048576")
    fc = warm["fabric_cache"]
    assert fc["routed"] == 0 and fc["mmap_attaches"] == 1, fc
    assert warm["values"] == cold["values"]  # bit-identical

    payload = {
        "cell": "hx-dfsssp-linear/imb:Alltoall:1048576",
        "num_nodes": NUM_NODES,
        "cold_s": cold_s,
        "warm_s": warm_s,
        **stages,
        "value": cold["best"],
    }
    (report_dir / "perf_phase_batch_alltoall.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
