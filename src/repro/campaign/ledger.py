"""The append-only JSONL run ledger of a campaign.

One line per cell *attempt*: status, attempt number, duration, values,
fabric-cache counters, and — for failures — a structured error record.
Appends are flushed per line, so a campaign killed mid-run loses at most
the line being written; :meth:`Ledger.records` skips a torn trailing
line instead of refusing to load, which is what makes kill-and-resume
safe.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Terminal cell states recorded in the ledger.
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"


class Ledger:
    """Append/replay access to one campaign's ``ledger.jsonl``."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, record: dict[str, Any]) -> None:
        """Write one attempt record durably (flush + fsync per line)."""
        record = dict(record)
        record.setdefault("finished_at", time.time())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a+b") as fh:
            # A campaign killed mid-write leaves a torn line without a
            # trailing newline; terminate it so this record is not glued
            # onto (and lost with) the torn one.
            if fh.tell() > 0:
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    fh.write(b"\n")
            fh.write(json.dumps(record, sort_keys=True).encode("utf-8") + b"\n")
            fh.flush()
            os.fsync(fh.fileno())

    def records(self) -> list[dict[str, Any]]:
        """All attempt records, oldest first; torn lines are skipped."""
        if not self.path.exists():
            return []
        out: list[dict[str, Any]] = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write from a killed campaign
            if isinstance(rec, dict) and "cell_id" in rec:
                out.append(rec)
        return out

    def latest(self) -> dict[str, dict[str, Any]]:
        """The most recent record per cell."""
        latest: dict[str, dict[str, Any]] = {}
        for rec in self.records():
            latest[rec["cell_id"]] = rec
        return latest

    def completed_ids(self) -> set[str]:
        """Cells whose latest record is a success (resume skips these)."""
        return {
            cid for cid, rec in self.latest().items()
            if rec.get("status") == STATUS_COMPLETED
        }

    def attempt_counts(self) -> dict[str, int]:
        """Attempts recorded so far per cell."""
        counts: dict[str, int] = {}
        for rec in self.records():
            counts[rec["cell_id"]] = counts.get(rec["cell_id"], 0) + 1
        return counts


@dataclass
class CampaignStatus:
    """Aggregate view of a campaign's ledger against its spec."""

    name: str
    total_cells: int
    completed: int
    failed: int
    pending: int
    attempts: int
    wall_seconds: float
    cell_seconds: float
    fabric_routed: int
    fabric_memory_hits: int
    fabric_disk_hits: int
    fabric_disk_stores: int
    #: Disk hits that attached the dense rows zero-copy via mmap.
    fabric_mmap_attaches: int = 0
    #: Largest sweep-pool size any cell ran with (1 = serial sweeps).
    sweep_workers: int = 0
    #: Total parallel routing sweeps executed across all attempts.
    parallel_sweeps: int = 0
    cells: list[dict[str, Any]] = field(default_factory=list)
    #: Fault-timeline totals over the latest record of each cell.
    reroute_events: int = 0
    reroute_messages: int = 0
    reroute_paths_changed: int = 0
    reroute_unreachable: int = 0
    #: Anomaly counters (``events_truncated``, ``resolve_fallbacks``)
    #: summed over the latest record of each cell.
    anomalies: dict[str, int] = field(default_factory=dict)

    @property
    def all_completed(self) -> bool:
        return self.completed == self.total_cells

    @property
    def cells_per_second(self) -> float:
        """Completed-cell throughput against summed cell time."""
        return self.completed / self.cell_seconds if self.cell_seconds > 0 else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "total_cells": self.total_cells,
            "completed": self.completed,
            "failed": self.failed,
            "pending": self.pending,
            "attempts": self.attempts,
            "wall_seconds": self.wall_seconds,
            "cell_seconds": self.cell_seconds,
            "cells_per_second": self.cells_per_second,
            "fabric_cache": {
                "routed": self.fabric_routed,
                "memory_hits": self.fabric_memory_hits,
                "disk_hits": self.fabric_disk_hits,
                "disk_stores": self.fabric_disk_stores,
                "mmap_attaches": self.fabric_mmap_attaches,
            },
            "sweep": {
                "workers": self.sweep_workers,
                "parallel_sweeps": self.parallel_sweeps,
            },
            "reroutes": {
                "events_applied": self.reroute_events,
                "messages_rerouted": self.reroute_messages,
                "paths_changed": self.reroute_paths_changed,
                "unreachable_pairs": self.reroute_unreachable,
            },
            "anomalies": dict(self.anomalies),
            "cells": self.cells,
        }


def summarize(spec, ledger: Ledger, wall_seconds: float = 0.0) -> CampaignStatus:
    """Fold a ledger into a :class:`CampaignStatus` for ``spec``.

    ``pending`` counts spec cells with no successful record — including
    failed-out cells' grid points, which a later resume (or a raised
    retry budget) may still complete; ``failed`` counts cells whose
    *latest* record is a failure, so nothing is ever silently dropped.
    """
    latest = ledger.latest()
    spec_ids = [c.cell_id for c in spec.cells]
    completed = sum(
        1 for cid in spec_ids
        if latest.get(cid, {}).get("status") == STATUS_COMPLETED
    )
    failed = sum(
        1 for cid in spec_ids
        if latest.get(cid, {}).get("status") == STATUS_FAILED
    )
    records = [r for r in ledger.records() if r["cell_id"] in set(spec_ids)]
    cache_totals = {"routed": 0, "memory_hits": 0, "disk_hits": 0,
                    "disk_stores": 0, "mmap_attaches": 0}
    cell_seconds = 0.0
    sweep_workers = 0
    parallel_sweeps = 0
    for rec in records:
        cell_seconds += float(rec.get("duration_s", 0.0))
        fc = rec.get("fabric_cache", {})
        for k in cache_totals:
            cache_totals[k] += int(fc.get(k, 0))
        sw = rec.get("sweep", {})
        sweep_workers = max(sweep_workers, int(sw.get("workers", 0)))
        parallel_sweeps += int(sw.get("parallel_sweeps", 0))
    cells = []
    reroute_totals = {"events_applied": 0, "messages_rerouted": 0,
                      "paths_changed": 0, "unreachable_pairs": 0}
    anomaly_totals: dict[str, int] = {}
    for cid in spec_ids:
        rec = latest.get(cid)
        if rec is None:
            cells.append({"cell_id": cid, "status": "pending"})
            continue
        cell: dict[str, Any] = {
            "cell_id": cid,
            "status": rec.get("status"),
            "attempt": rec.get("attempt"),
            "duration_s": rec.get("duration_s"),
            "best": rec.get("best"),
            "fabric_cache": rec.get("fabric_cache", {}),
            "sweep": rec.get("sweep", {}),
            "error": rec.get("error"),
        }
        anomalies = rec.get("anomalies")
        if anomalies is not None:
            cell["anomalies"] = anomalies
            for k, v in anomalies.items():
                anomaly_totals[k] = anomaly_totals.get(k, 0) + int(v)
        rr = rec.get("reroutes")
        if rr:
            cell["reroutes"] = rr
            for k in reroute_totals:
                reroute_totals[k] += int(rr.get(k, 0))
        cells.append(cell)
    return CampaignStatus(
        name=spec.name,
        total_cells=len(spec_ids),
        completed=completed,
        failed=failed,
        pending=len(spec_ids) - completed,
        attempts=len(records),
        wall_seconds=wall_seconds,
        cell_seconds=cell_seconds,
        fabric_routed=cache_totals["routed"],
        fabric_memory_hits=cache_totals["memory_hits"],
        fabric_disk_hits=cache_totals["disk_hits"],
        fabric_disk_stores=cache_totals["disk_stores"],
        fabric_mmap_attaches=cache_totals["mmap_attaches"],
        sweep_workers=sweep_workers,
        parallel_sweeps=parallel_sweeps,
        cells=cells,
        reroute_events=reroute_totals["events_applied"],
        reroute_messages=reroute_totals["messages_rerouted"],
        reroute_paths_changed=reroute_totals["paths_changed"],
        reroute_unreachable=reroute_totals["unreachable_pairs"],
        anomalies=anomaly_totals,
    )
