"""Persistent shared-memory worker pool for destination-sharded passes.

The routing sweep, the re-sweep diff walk, and the static analyses all
iterate over *destination columns* — and columns are independent: no
kernel in this codebase lets one destination's result feed another's
(the SSSP family, which does, cannot batch and never reaches this
module).  That independence is the whole parallelisation story:

* shard the destination columns of a pass across worker processes,
* let every worker run the *same* per-column kernels on its shard,
* merge with an order-independent reduction (disjoint column writes,
  integer sums, set unions).

Results are therefore **bit-identical at any worker count**, including
one — the only thing sharding changes is which process executes a
column, never the operations applied to it.

Mechanics
---------
Workers are persistent ``spawn`` processes (one pool per process,
reused across jobs) fed through per-worker task queues.  Bulk inputs —
the CSR switch-graph arrays, the engine's weight-profile blocks, the
dense next-hop matrix — travel through ``multiprocessing.shared_memory``
segments that workers attach zero-copy; only small descriptors and
per-shard index arrays ride the queues.  Outputs land either directly
in a shared dense buffer (tree sweeps write plid columns; table walks
write verdict columns) or come back over the result queue when they are
small per-worker partials (per-link load sums, incidence key sets).

Every entry point degrades gracefully: worker count of one, column
counts under :func:`get_column_floor`, pool spawn failure, or a worker
dying mid-job all return the caller to the in-process run of the same
job (failures count a ``serial_fallbacks`` stat).  For tree sweeps that
run is :func:`tree_job_blocks`, which drives the worker's own column op
block by block.
A failed pool is torn down and respawned on the next job.

Control surface
---------------
``REPRO_SWEEP_WORKERS`` (env, at import; ``auto``/``0`` = cpu count) or
:func:`set_sweep_workers` / ``with sweep_workers(4): ...`` at runtime;
``REPRO_SWEEP_FLOOR`` / :func:`set_column_floor` for the column floor;
:func:`parallel_stats` mirrors the fabric-cache counters for ledgers.
"""

from __future__ import annotations

import atexit
import itertools
import os
import queue as queue_mod
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import get_context
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable, Iterator

import numpy as np

#: Sweep workers when ``REPRO_SWEEP_WORKERS`` is unset: serial.  Tests
#: and single-core CI stay deterministic-and-cheap by default; callers
#: opt into parallelism explicitly.
DEFAULT_SWEEP_WORKERS = 1

#: Minimum destination columns before a pass is worth sharding: below
#: this the spawn/attach overhead beats the kernel time.  Doubles as
#: the incremental re-sweep threshold — a fabric event touching fewer
#: columns recomputes them serially.
DEFAULT_COLUMN_FLOOR = 128


def _workers_from_env() -> int:
    raw = os.environ.get("REPRO_SWEEP_WORKERS", "").strip().lower()
    if not raw:
        return DEFAULT_SWEEP_WORKERS
    if raw in {"auto", "0"}:
        return max(1, os.cpu_count() or 1)
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_SWEEP_WORKERS


_sweep_workers = _workers_from_env()
_column_floor = max(
    1, int(os.environ.get("REPRO_SWEEP_FLOOR", DEFAULT_COLUMN_FLOOR))
)

_stats = {
    "parallel_sweeps": 0,
    "parallel_walks": 0,
    "parallel_loads": 0,
    "parallel_scans": 0,
    "serial_fallbacks": 0,
    "pool_spawns": 0,
}


def get_sweep_workers() -> int:
    """The configured sweep worker count (1 = serial)."""
    return _sweep_workers


def set_sweep_workers(n: int) -> int:
    """Set the sweep worker count; returns the previous value.

    Values below 1 clamp to 1 (serial).  Also clears the broken-spawn
    latch, so explicitly re-enabling parallelism retries a pool that
    previously failed to start.
    """
    global _sweep_workers, _spawn_broken
    previous = _sweep_workers
    _sweep_workers = max(1, int(n))
    _spawn_broken = False
    return previous


@contextmanager
def sweep_workers(n: int) -> Iterator[None]:
    """``with sweep_workers(4): ...`` — scoped worker-count override."""
    previous = set_sweep_workers(n)
    try:
        yield
    finally:
        set_sweep_workers(previous)


def get_column_floor() -> int:
    """Minimum columns before any pass goes parallel."""
    return _column_floor


def set_column_floor(n: int) -> int:
    """Set the parallel column floor; returns the previous value."""
    global _column_floor
    previous = _column_floor
    _column_floor = max(1, int(n))
    return previous


@contextmanager
def column_floor(n: int) -> Iterator[None]:
    """Scoped override of the parallel column floor (tests)."""
    previous = set_column_floor(n)
    try:
        yield
    finally:
        set_column_floor(previous)


def parallel_stats() -> dict[str, int]:
    """Counters since the last reset (jobs by kind, fallbacks, spawns)."""
    return dict(_stats)


def reset_parallel_stats() -> None:
    for key in _stats:
        _stats[key] = 0


class SweepPoolError(RuntimeError):
    """A sweep worker died or errored mid-job (caller falls back serial)."""


# --------------------------------------------------------------------------
# Worker side: ops over attached arrays.
#
# Each task is a dict of small values plus *descriptors* for the bulk
# arrays ({"name", "shape", "dtype"} of a shared-memory segment).  The
# helpers accept plain ndarrays in the same slots, so every op is also
# callable in-process — the fuzz tests drive them without a pool.
# --------------------------------------------------------------------------


class _ArrayGraph:
    """Attribute bag satisfying the kernels' graph-view Protocols."""

    def __init__(self, **arrays: Any) -> None:
        self.__dict__.update(arrays)


def _attach(desc: dict[str, Any], shms: list[SharedMemory]) -> np.ndarray:
    # Python 3.11 registers attach-side segments with the resource
    # tracker too; pool workers inherit the *parent's* tracker process,
    # whose name cache is a set, so the attach registration is an
    # idempotent re-add of the parent's create-side entry and the
    # parent's unlink() unregisters it exactly once.  (An explicit
    # unregister here would remove the parent's entry instead.)
    shm = SharedMemory(name=desc["name"])
    shms.append(shm)
    return np.ndarray(
        tuple(desc["shape"]), dtype=np.dtype(desc["dtype"]), buffer=shm.buf
    )


def _maybe_attach(obj: Any, shms: list[SharedMemory]) -> Any:
    if isinstance(obj, dict) and "name" in obj and "dtype" in obj:
        return _attach(obj, shms)
    return obj


def _weight_evaluator(
    spec: dict[str, Any], shms: list[SharedMemory]
) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a weight spec into ``cols -> (num_links,) | (num_links, k)``.

    ``cols`` are *global* column indices of the sweep; per-column specs
    evaluate exactly the engine's per-column expressions, so pool
    workers and the in-process run produce bit-equal weights
    (see ``weights_block_core`` in :mod:`repro.routing.fthx`).
    """
    kind = spec["kind"]
    if kind == "unit":
        unit = np.ones(int(spec["num_links"]), dtype=np.float64)
        return lambda cols: unit
    if kind == "array":
        data = _maybe_attach(spec["data"], shms)
        return lambda cols: data
    if kind == "fthx":
        from repro.routing.fthx import weights_block_core

        arr = {
            key: _maybe_attach(spec[key], shms)
            for key in (
                "base", "sw_ids", "sw_dim", "sw_src_val", "sw_dst_val",
                "sw_src_coords", "cds", "dlids",
            )
        }
        rotations = (
            _maybe_attach(spec["rotations"], shms)
            if "rotations" in spec else None
        )
        ndim = int(spec["ndim"])

        def evaluate(cols: np.ndarray) -> np.ndarray:
            return weights_block_core(
                arr["base"], arr["sw_ids"], arr["sw_dim"],
                arr["sw_src_val"], arr["sw_dst_val"], arr["sw_src_coords"],
                ndim, arr["cds"][cols], arr["dlids"][cols],
                None if rotations is None else rotations[cols],
            )

        return evaluate
    raise ValueError(f"unknown weight spec kind {kind!r}")


def _op_tree(task: dict[str, Any], shms: list[SharedMemory]) -> None:
    """Route a shard of destination columns into the shared plid buffer.

    Splits the shard into ``block_cols``-wide kernel calls (the same
    budget the in-process sweep uses); columns are independent, so the
    sub-block boundaries cannot change a single output bit.  Global
    column ``c`` lands in ``out[:, c - col0]`` (``col0`` is 0 for the
    pool's full-width buffer, the block start for in-process blocks).
    """
    from repro.routing.arrays import tree_core_batch

    graph_desc = task["graph"]
    graph = _ArrayGraph(
        num_switches=int(graph_desc["num_switches"]),
        in_ptr=_maybe_attach(graph_desc["in_ptr"], shms),
        in_src=_maybe_attach(graph_desc["in_src"], shms),
        in_link=_maybe_attach(graph_desc["in_link"], shms),
    )
    out = _maybe_attach(task["out"], shms)
    cols = np.asarray(task["cols"], dtype=np.int64)
    roots = np.asarray(task["roots"], dtype=np.int64)
    col0 = int(task.get("col0", 0))
    block = max(1, int(task["block_cols"]))
    evaluate = _weight_evaluator(task["weights"], shms)
    for lo in range(0, cols.size, block):
        sub = cols[lo : lo + block]
        weights = evaluate(sub)
        plid, _ = tree_core_batch(graph, roots[lo : lo + block], weights)
        out[:, sub - col0] = plid


def _op_walk(task: dict[str, Any], shms: list[SharedMemory]) -> None:
    """Walk a destination-column range into the shared verdict buffers."""
    from repro.ib.tables import _walk_dest_block

    matrix = _maybe_attach(task["matrix"], shms)
    old = task.get("old_matrix")
    old_matrix = None if old is None else _maybe_attach(old, shms)
    graph = _ArrayGraph(
        link_dst_node=_maybe_attach(task["link_dst_node"], shms),
        link_dst_index=_maybe_attach(task["link_dst_index"], shms),
        link_enabled=_maybe_attach(task["link_enabled"], shms),
    )
    ok = _maybe_attach(task["ok"], shms)
    hops = _maybe_attach(task["hops"], shms)
    changed = (
        _maybe_attach(task["changed"], shms)
        if task.get("changed") is not None else None
    )
    dest_cols = np.asarray(task["dest_cols"])
    dest_nodes = np.asarray(task["dest_nodes"])
    lo = int(task["lo"])
    chunk = max(1, int(task["chunk"]))
    for off in range(0, dest_cols.size, chunk):
        hi = min(off + chunk, dest_cols.size)
        _walk_dest_block(
            matrix, graph,
            dest_cols[off:hi], dest_nodes[off:hi], old_matrix,
            ok[:, lo + off : lo + hi],
            hops[:, lo + off : lo + hi],
            None if changed is None else changed[:, lo + off : lo + hi],
        )


def _op_loads(
    task: dict[str, Any], shms: list[SharedMemory]
) -> np.ndarray:
    """Accumulate a column range into a private per-link load partial.

    The partial comes back over the result queue; the parent sums the
    partials — int64 addition is order-independent, so the merged loads
    equal the serial accumulation bit for bit.
    """
    from repro.routing.arrays import accumulate_column_loads

    matrix = _maybe_attach(task["matrix"], shms)
    graph = _ArrayGraph(
        num_switches=int(task["num_switches"]),
        link_dst_index=_maybe_attach(task["link_dst_index"], shms),
        link_enabled=_maybe_attach(task["link_enabled"], shms),
        attached_counts=_maybe_attach(task["attached_counts"], shms),
    )
    cols = np.asarray(task["cols"], dtype=np.int64)
    roots = np.asarray(task["roots"], dtype=np.int64)
    chunk = max(1, int(task["chunk"]))
    loads = np.zeros(int(task["num_links"]), dtype=np.int64)
    for off in range(0, cols.size, chunk):
        hi = min(off + chunk, cols.size)
        accumulate_column_loads(
            matrix, graph, cols[off:hi], roots[off:hi], loads
        )
    return loads


def _op_scan(
    task: dict[str, Any], shms: list[SharedMemory]
) -> tuple[np.ndarray, int]:
    """Incidence-scan a column range; returns (unique keys, dest count).

    Columns partition across tasks, so the union of per-task key sets
    and the sum of per-task distinct-column counts equal the serial
    full-matrix scan exactly.
    """
    from repro.routing.arrays import incidence_scan_block

    dense = _maybe_attach(task["matrix"], shms)
    cable_of_link = _maybe_attach(task["cable_of_link"], shms)
    lo, hi = int(task["lo"]), int(task["hi"])
    chunk = max(1, int(task["chunk"]))
    n_cols = int(task["n_cols"])
    num_links = int(task["num_links"])
    parts: list[np.ndarray] = []
    dests = 0
    for clo in range(lo, hi, chunk):
        chi = min(clo + chunk, hi)
        keys, ndests = incidence_scan_block(
            dense[:, clo:chi], cable_of_link, clo, n_cols, num_links
        )
        parts.append(keys)
        dests += ndests
    keys = (
        np.unique(np.concatenate(parts))
        if parts else np.empty(0, dtype=np.int64)
    )
    return keys, dests


_OPS: dict[str, Callable[[dict[str, Any], list[SharedMemory]], Any]] = {
    "tree": _op_tree,
    "walk": _op_walk,
    "loads": _op_loads,
    "scan": _op_scan,
}


def _worker_main(task_q: Any, result_q: Any) -> None:
    """Worker loop: attach, compute, detach; errors become result records."""
    while True:
        task = task_q.get()
        if task.get("op") == "stop":
            break
        shms: list[SharedMemory] = []
        try:
            payload = _OPS[task["op"]](task, shms)
            result_q.put(("ok", task.get("id"), payload))
        except BaseException:
            try:
                result_q.put(("err", task.get("id"), traceback.format_exc()))
            except Exception:
                break
        finally:
            for shm in shms:
                try:
                    shm.close()
                except BufferError:
                    pass  # a traceback frame still pins a view; GC frees it
                except Exception:
                    pass


# --------------------------------------------------------------------------
# Parent side: pool lifecycle and shared-segment bookkeeping.
# --------------------------------------------------------------------------

_seg_counter = itertools.count()


class _JobSegments:
    """Shared-memory segments of one job (created, then always unlinked)."""

    def __init__(self) -> None:
        self._shms: list[SharedMemory] = []

    def share(self, array: np.ndarray) -> dict[str, Any]:
        """Copy an array into a fresh segment; returns its descriptor."""
        array = np.ascontiguousarray(array)
        shm = SharedMemory(
            create=True,
            size=max(1, array.nbytes),
            name=f"rsw{os.getpid()}_{next(_seg_counter)}",
        )
        self._shms.append(shm)
        if array.nbytes:
            np.ndarray(array.shape, array.dtype, buffer=shm.buf)[...] = array
        return {
            "name": shm.name, "shape": array.shape, "dtype": array.dtype.str,
        }


    def alloc(
        self, shape: tuple[int, ...], dtype: Any, fill: Any = 0
    ) -> tuple[dict[str, Any], np.ndarray]:
        """A fresh output segment; returns (descriptor, parent view)."""
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        shm = SharedMemory(
            create=True,
            size=max(1, nbytes),
            name=f"rsw{os.getpid()}_{next(_seg_counter)}",
        )
        self._shms.append(shm)
        view = np.ndarray(shape, dtype=dt, buffer=shm.buf)
        view[...] = fill
        return (
            {"name": shm.name, "shape": shape, "dtype": dt.str},
            view,
        )

    def release(self) -> None:
        """Unlink every segment (close is best-effort: a live caller view
        keeps the mapping until GC, but the name goes away now)."""
        for shm in self._shms:
            try:
                shm.close()
            except BufferError:
                pass
            except Exception:
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
            except Exception:
                pass
        self._shms.clear()


class _SweepPool:
    """N spawn workers with per-worker task queues + one result queue."""

    def __init__(self, workers: int) -> None:
        ctx = get_context("spawn")
        self.workers = workers
        self.owner_pid = os.getpid()
        self.result_q = ctx.Queue()
        self.task_qs = []
        self.procs = []
        try:
            for i in range(workers):
                task_q = ctx.Queue()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(task_q, self.result_q),
                    name=f"repro-sweep-{i}",
                    daemon=True,
                )
                proc.start()
                self.task_qs.append(task_q)
                self.procs.append(proc)
        except BaseException:
            self.shutdown()
            raise

    def alive(self) -> bool:
        return bool(self.procs) and all(p.is_alive() for p in self.procs)

    def pids(self) -> list[int]:
        return [p.pid for p in self.procs if p.pid is not None]

    def submit(self, index: int, task: dict[str, Any]) -> None:
        self.task_qs[index % self.workers].put(task)

    def collect(self, count: int) -> list[tuple[Any, Any, Any]]:
        """Wait for ``count`` ok-results; worker death or error raises."""
        got: list[tuple[Any, Any, Any]] = []
        while len(got) < count:
            try:
                result = self.result_q.get(timeout=1.0)
            except queue_mod.Empty:
                if not self.alive():
                    raise SweepPoolError(
                        "sweep worker died mid-job"
                    ) from None
                continue
            if result[0] == "err":
                raise SweepPoolError(
                    f"sweep worker task failed:\n{result[2]}"
                )
            got.append(result)
        return got

    def shutdown(self) -> None:
        for task_q in self.task_qs:
            try:
                task_q.put({"op": "stop"})
            except Exception:
                pass
        for proc in self.procs:
            proc.join(timeout=2.0)
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for q in [*self.task_qs, self.result_q]:
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        self.procs = []
        self.task_qs = []


_pool: _SweepPool | None = None
_spawn_broken = False


def _acquire_pool(workers: int) -> _SweepPool | None:
    """The live pool of the requested size, (re)spawning as needed.

    Returns None — after latching — when spawn fails; the latch clears
    on the next :func:`set_sweep_workers` call.  A pool inherited
    through ``fork`` (campaign executors) is abandoned, not driven: its
    processes belong to the parent.
    """
    global _pool, _spawn_broken
    if _pool is not None and _pool.owner_pid != os.getpid():
        _pool = None
    if _pool is not None and (_pool.workers != workers or not _pool.alive()):
        _teardown_pool()
    if _pool is None:
        if _spawn_broken:
            return None
        try:
            _pool = _SweepPool(workers)
        except Exception:
            _spawn_broken = True
            return None
        _stats["pool_spawns"] += 1
    return _pool


def _teardown_pool() -> None:
    global _pool
    if _pool is not None and _pool.owner_pid == os.getpid():
        _pool.shutdown()
    _pool = None


def shutdown_sweep_pool() -> None:
    """Stop the worker pool (idempotent; respawns on next parallel job)."""
    _teardown_pool()


def sweep_pool_pids() -> list[int]:
    """Worker pids of the live pool (empty when no pool is up; tests)."""
    if _pool is None or _pool.owner_pid != os.getpid():
        return []
    return _pool.pids()


atexit.register(shutdown_sweep_pool)


def _shard_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ≤ ``parts`` contiguous non-empty runs."""
    parts = max(1, min(parts, total))
    bounds = np.linspace(0, total, parts + 1, dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(parts)
        if bounds[i + 1] > bounds[i]
    ]


# --------------------------------------------------------------------------
# Tree-sweep jobs (routing engines).
# --------------------------------------------------------------------------


@dataclass
class TreeShard:
    """One graph view and the (ascending) global sweep columns routed over it."""

    graph: Any
    cols: np.ndarray


@dataclass
class TreeJob:
    """A full routing sweep, declaratively: shards x shared weight spec.

    ``weights`` is a plain dict (``kind`` of ``unit`` / ``array`` /
    ``fthx`` plus raw ndarrays) — :func:`run_tree_job` moves the arrays
    into shared memory; the in-process run passes them through as-is.
    ``extra`` carries engine context (e.g. fatpaths' per-column layers)
    from job construction to column installation untouched.
    """

    num_switches: int
    num_links: int
    roots: np.ndarray
    dest_switches: list[int]
    weights: dict[str, Any]
    shards: list[TreeShard]
    block_cols: int
    extra: Any = None


@dataclass
class SweepResult:
    """Shared plid buffer of a finished sweep; ``release()`` when installed."""

    plid: np.ndarray
    _segs: _JobSegments

    def release(self) -> None:
        self._segs.release()


def _share_weight_spec(
    spec: dict[str, Any], segs: _JobSegments
) -> dict[str, Any]:
    return {
        key: segs.share(value) if isinstance(value, np.ndarray) else value
        for key, value in spec.items()
    }


def _tree_graph(graph: Any, share: Callable[[np.ndarray], Any]) -> dict:
    return {
        "num_switches": int(graph.num_switches),
        "in_ptr": share(graph.in_ptr),
        "in_src": share(graph.in_src),
        "in_link": share(graph.in_link),
    }


def route_tree_columns(
    job: TreeJob, graph: Any, cols: np.ndarray, out: np.ndarray, col0: int
) -> None:
    """Run the worker's tree op in-process: ``cols`` over ``graph``.

    Global column ``c`` is written to ``out[:, c - col0]``.  Pooled or
    not, every tree sweep's kernel calls happen in :func:`_op_tree`.
    """
    _op_tree({
        "graph": _tree_graph(graph, lambda a: a),
        "out": out,
        "cols": cols,
        "col0": col0,
        "roots": job.roots[cols],
        "weights": job.weights,
        "block_cols": job.block_cols,
    }, [])


def tree_job_blocks(job: TreeJob) -> Iterator[tuple[int, np.ndarray]]:
    """The in-process run of a tree job, one block at a time.

    Yields ``(lo, plid)`` for consecutive ``block_cols``-wide column
    ranges starting at ``lo``; ``plid`` is the ``(num_switches, width)``
    int32 buffer the pool would have filled for those columns, so
    callers can install and drop each block before the next is routed.
    """
    k = int(job.roots.size)
    width = max(1, job.block_cols)
    for lo in range(0, k, width):
        hi = min(k, lo + width)
        out = np.full((job.num_switches, hi - lo), -1, dtype=np.int32)
        for shard in job.shards:
            cols = np.asarray(shard.cols, dtype=np.int64)
            a, b = np.searchsorted(cols, [lo, hi])
            if b > a:
                route_tree_columns(job, shard.graph, cols[a:b], out, lo)
        yield lo, out


def run_tree_job(job: TreeJob) -> SweepResult | None:
    """Execute a sweep on the pool; None means "run it in-process instead".

    The returned ``(num_switches, K)`` int32 plid buffer holds, column
    for column, exactly what :func:`tree_job_blocks` yields for the same
    job (columns are independent and the weight spec reproduces the
    engine's per-column weights bit for bit).
    """
    workers = get_sweep_workers()
    k = int(job.roots.size)
    if workers <= 1 or k < get_column_floor():
        return None
    pool = _acquire_pool(workers)
    if pool is None:
        _stats["serial_fallbacks"] += 1
        return None
    segs = _JobSegments()
    try:
        out_desc, out_view = segs.alloc(
            (job.num_switches, k), np.int32, fill=-1
        )
        weight_spec = _share_weight_spec(job.weights, segs)
        graph_descs: dict[int, dict[str, Any]] = {}
        tasks: list[dict[str, Any]] = []
        for shard in job.shards:
            gd = graph_descs.get(id(shard.graph))
            if gd is None:
                gd = graph_descs[id(shard.graph)] = _tree_graph(
                    shard.graph, segs.share
                )
            cols = np.asarray(shard.cols, dtype=np.int64)
            for lo, hi in _shard_ranges(cols.size, workers):
                part = cols[lo:hi]
                tasks.append({
                    "op": "tree",
                    "graph": gd,
                    "out": out_desc,
                    "cols": part,
                    "roots": job.roots[part],
                    "weights": weight_spec,
                    "block_cols": job.block_cols,
                })
        for i, task in enumerate(tasks):
            task["id"] = i
            pool.submit(i, task)
        pool.collect(len(tasks))
    except SweepPoolError:
        _teardown_pool()
        segs.release()
        _stats["serial_fallbacks"] += 1
        return None
    except BaseException:
        _teardown_pool()
        segs.release()
        raise
    _stats["parallel_sweeps"] += 1
    return SweepResult(plid=out_view, _segs=segs)


# --------------------------------------------------------------------------
# Walk / loads / scan jobs (path resolution and static analysis).
# --------------------------------------------------------------------------


def run_walk_job(
    matrix: np.ndarray,
    graph: Any,
    dest_cols: np.ndarray,
    dest_nodes: np.ndarray,
    old_matrix: np.ndarray | None,
    ok: np.ndarray,
    hops: np.ndarray,
    changed: np.ndarray | None,
    chunk: int,
) -> bool:
    """Parallel ``walk_dest_columns`` body; False means "walk serially".

    Shards the destination range across workers, each running the same
    ``_walk_dest_block`` chunk loop into shared verdict buffers, then
    copies the verdicts into the caller's output arrays.
    """
    workers = get_sweep_workers()
    n_dests = int(len(dest_cols))
    if workers <= 1 or n_dests < get_column_floor():
        return False
    pool = _acquire_pool(workers)
    if pool is None:
        _stats["serial_fallbacks"] += 1
        return False
    segs = _JobSegments()
    try:
        base = {
            "op": "walk",
            "matrix": segs.share(matrix),
            "old_matrix": (
                None if old_matrix is None else segs.share(old_matrix)
            ),
            "link_dst_node": segs.share(graph.link_dst_node),
            "link_dst_index": segs.share(graph.link_dst_index),
            "link_enabled": segs.share(graph.link_enabled),
            "chunk": chunk,
        }
        ok_desc, ok_view = segs.alloc(ok.shape, np.bool_, fill=False)
        hops_desc, hops_view = segs.alloc(hops.shape, np.int32, fill=0)
        base["ok"] = ok_desc
        base["hops"] = hops_desc
        changed_view = None
        if changed is not None:
            changed_desc, changed_view = segs.alloc(
                changed.shape, np.bool_, fill=False
            )
            base["changed"] = changed_desc
        dest_cols = np.asarray(dest_cols)
        dest_nodes = np.asarray(dest_nodes)
        tasks = []
        for lo, hi in _shard_ranges(n_dests, workers):
            tasks.append({
                **base,
                "dest_cols": dest_cols[lo:hi],
                "dest_nodes": dest_nodes[lo:hi],
                "lo": lo,
            })
        for i, task in enumerate(tasks):
            task["id"] = i
            pool.submit(i, task)
        pool.collect(len(tasks))
        np.copyto(ok, ok_view)
        np.copyto(hops, hops_view)
        if changed is not None and changed_view is not None:
            np.copyto(changed, changed_view)
    except SweepPoolError:
        _teardown_pool()
        segs.release()
        _stats["serial_fallbacks"] += 1
        return False
    except BaseException:
        _teardown_pool()
        segs.release()
        raise
    segs.release()
    _stats["parallel_walks"] += 1
    return True


def run_loads_job(
    matrix: np.ndarray,
    graph: Any,
    cols: np.ndarray,
    roots: np.ndarray,
    loads: np.ndarray,
    chunk: int,
) -> bool:
    """Parallel load accumulation; False means "accumulate serially".

    Workers return private per-link partials; the parent sums them into
    ``loads`` — integer sums are order-independent, so the result equals
    the serial chunk loop bit for bit.
    """
    workers = get_sweep_workers()
    cols = np.asarray(cols, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64)
    if workers <= 1 or cols.size < get_column_floor():
        return False
    pool = _acquire_pool(workers)
    if pool is None:
        _stats["serial_fallbacks"] += 1
        return False
    segs = _JobSegments()
    try:
        base = {
            "op": "loads",
            "matrix": segs.share(matrix),
            "num_switches": int(graph.num_switches),
            "link_dst_index": segs.share(graph.link_dst_index),
            "link_enabled": segs.share(graph.link_enabled),
            "attached_counts": segs.share(graph.attached_counts),
            "num_links": int(loads.size),
            "chunk": chunk,
        }
        tasks = []
        for lo, hi in _shard_ranges(cols.size, workers):
            tasks.append({
                **base, "cols": cols[lo:hi], "roots": roots[lo:hi],
            })
        for i, task in enumerate(tasks):
            task["id"] = i
            pool.submit(i, task)
        for _, _, partial in pool.collect(len(tasks)):
            loads += partial
    except SweepPoolError:
        _teardown_pool()
        segs.release()
        _stats["serial_fallbacks"] += 1
        return False
    except BaseException:
        _teardown_pool()
        segs.release()
        raise
    segs.release()
    _stats["parallel_loads"] += 1
    return True


def run_scan_job(
    dense: np.ndarray,
    cable_of_link: np.ndarray,
    chunk: int,
) -> tuple[np.ndarray, int] | None:
    """Parallel incidence scan; None means "scan serially".

    Returns the sorted unique (cable, column) key array and the count
    of distinct non-empty columns — identical to the serial column-block
    scan because columns partition across tasks.
    """
    workers = get_sweep_workers()
    n_cols = int(dense.shape[1])
    if workers <= 1 or n_cols < get_column_floor():
        return None
    pool = _acquire_pool(workers)
    if pool is None:
        _stats["serial_fallbacks"] += 1
        return None
    segs = _JobSegments()
    try:
        base = {
            "op": "scan",
            "matrix": segs.share(dense),
            "cable_of_link": segs.share(cable_of_link),
            "chunk": chunk,
            "n_cols": n_cols,
            "num_links": int(cable_of_link.size),
        }
        tasks = []
        for lo, hi in _shard_ranges(n_cols, workers):
            tasks.append({**base, "lo": lo, "hi": hi})
        for i, task in enumerate(tasks):
            task["id"] = i
            pool.submit(i, task)
        parts = [payload for _, _, payload in pool.collect(len(tasks))]
    except SweepPoolError:
        _teardown_pool()
        segs.release()
        _stats["serial_fallbacks"] += 1
        return None
    except BaseException:
        _teardown_pool()
        segs.release()
        raise
    segs.release()
    _stats["parallel_scans"] += 1
    key_parts = [keys for keys, _ in parts]
    dests_total = sum(ndests for _, ndests in parts)
    keys = (
        np.unique(np.concatenate(key_parts))
        if key_parts else np.empty(0, dtype=np.int64)
    )
    return keys, dests_total
