"""Self-test of the benchmark on 168-node planes (``--scale 2``).

    PYTHONPATH=src python3 -m pytest perfbench/test_smoke.py -q

Every workload runs traced and untraced for a few seconds each.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int, pins: Path | None = None):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "0", "--seconds", "1", "--trace", str(trace), "--scale", "2",
    ]
    if pins is not None:
        cmd += ["--pins", str(pins)]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in declared}
    for m in declared:
        assert emitted[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(emitted[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload(workload: str, tmp_path: Path) -> None:
    info, traced = run_bench(workload, trace=1)
    assert_metrics(traced, BENCH["per_layer"])
    assert traced["correct"], info["problems"]
    assert traced["failed"] == 0 and traced["attempted"] >= 2
    assert info["span_problems"] == [] and info["spans"] > 0
    assert info["missing_boundaries"] == []
    assert traced["metrics"]["sim.events_truncated"]["value"] == 0

    # Pin this run's digests with one corrupted: exactly that cell fails.
    digests = dict(info["digests"])
    bad = sorted(digests)[0]
    digests[bad] = "0" * 16
    pins = tmp_path / "digests.json"
    pins.write_text(json.dumps(
        {"seed": 0, "scale": 2, "workloads": {workload: digests}}
    ))
    info, plain = run_bench(workload, trace=0, pins=pins)
    assert_metrics(plain, BENCH["end_to_end"])
    assert not plain["correct"]
    assert plain["failed"] == info["passes"]
    assert list(info["problems"]) == [bad]
    assert plain["metrics"]["cells_ok"]["value"] < 1.0


def test_nesting_check_flags_a_child_outside_its_parent() -> None:
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert tracer.check_nesting() == []
    own = tracer.self_times()
    assert own["outer"] >= 0 and own["inner"] >= 0
    outer, inner = tracer.spans
    inner[1], inner[2] = outer[1] - 10, outer[2] + 10  # inner encloses outer
    problems = tracer.check_nesting()
    assert any("outside parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)


#: Starts the sweep pool (and with it multiprocessing's resource
#: tracker), prints their pids, then stops them the way a run ends.
_START_AND_STOP = """
import sys
sys.path[:0] = sys.argv[1:]
import run
from multiprocessing import resource_tracker
from repro.core import parallel
if parallel._acquire_pool(2) is None:
    sys.exit(3)
print(parallel.sweep_pool_pids() + [resource_tracker._resource_tracker._pid])
run.stop_processes()
"""


def test_a_run_leaves_no_process_behind() -> None:
    proc = subprocess.run(
        [sys.executable, "-c", _START_AND_STOP, str(HERE), str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode == 3:
        pytest.skip("no sweep pool could be spawned here")
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr  # no leak warnings
    pids = json.loads(proc.stdout)
    assert len(pids) == 3 and all(pids)
    for pid in pids:  # an orphaned zombie would still answer signal 0
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
