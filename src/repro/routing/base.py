"""Routing-engine interface and shared helpers.

An engine's job is to fill the per-switch linear forwarding tables of a
:class:`~repro.ib.fabric.Fabric` — one out-link per (switch, destination
LID) pair, the only thing InfiniBand hardware can express.  Everything
else (LID assignment, terminal hops, VL layering) is the subnet
manager's business.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
)

import numpy as np

from repro.core.chunking import items_per_chunk
from repro.core.errors import UnreachableError
from repro.ib.fabric import Fabric
from repro.routing.arrays import (
    BatchGraphView,
    LevelPlan,
    feed_tree_loads,
    feedback_tree,
    level_plan,
)

if TYPE_CHECKING:
    from repro.core.parallel import TreeJob
    from repro.topology.network import Network

_batched_sweep = True


def batched_sweep_enabled() -> bool:
    """Whether batched-capable engines route destination blocks.

    On by default; the equivalence tests flip it off to force the
    sequential per-destination path and compare outputs bit for bit.
    """
    return _batched_sweep


def set_batched_sweep(enabled: bool) -> bool:
    """Toggle the batched sweep globally; returns the previous value."""
    global _batched_sweep
    previous = _batched_sweep
    _batched_sweep = bool(enabled)
    return previous


@contextmanager
def batched_sweep(enabled: bool) -> Iterator[None]:
    """``with batched_sweep(False): ...`` — scoped toggle override.

    Restores the previous setting on exit even when the body raises, so
    a failing equivalence test cannot leave the whole suite running the
    sequential path.
    """
    previous = set_batched_sweep(enabled)
    try:
        yield
    finally:
        set_batched_sweep(previous)


class RoutingEngine(ABC):
    """Base class for forwarding-table generators.

    Attributes
    ----------
    name:
        Engine identifier used in reports (mirrors OpenSM's
        ``--routing_engine`` values).
    provides_deadlock_freedom:
        If True the subnet manager runs the virtual-lane layering over
        this engine's output and guarantees (or refuses) deadlock
        freedom.  Plain SSSP sets this False — the paper's initial tests
        with it on the HyperX hit exactly that gap (section 3.2).
    """

    name: str = "abstract"
    provides_deadlock_freedom: bool = True
    #: Engines that install their own lane assignment during
    #: :meth:`compute` (LASH's per-pair layers, Nue's budgeted lanes)
    #: set this True and ``provides_deadlock_freedom`` False: the SM
    #: must not overwrite their lanes, yet the result is still
    #: deadlock-free — the catalogue reports the union of both flags.
    self_layering: bool = False
    #: Engines whose trees depend only on the current topology (no
    #: weight feedback between destinations) can recompute a subset of
    #: destination trees with bit-identical results; they set this True
    #: and implement :meth:`recompute_destinations`.
    supports_incremental_resweep: bool = False
    #: Engines whose per-destination weights are independent of other
    #: destinations can route whole destination blocks per numpy pass
    #: (:func:`repro.routing.arrays.tree_core_batch`) instead of one
    #: tree per LID, with bit-identical tables; they set this True.  The
    #: sequential path stays available behind :func:`set_batched_sweep`
    #: as the executable spec.
    supports_batched_sweep: bool = False
    #: Batched engines whose per-column weights can be *declared* — as
    #: shared arrays plus a per-column recipe — rather than computed,
    #: additionally implement :meth:`_sweep_job`/:meth:`_install_sweep`
    #: and set this True: their cold sweeps and large re-sweeps then
    #: shard destination columns across the worker pool
    #: (:mod:`repro.core.parallel`) with bit-identical tables at any
    #: worker count.  Engines with cross-destination weight feedback
    #: (the SSSP family, routed by :func:`feedback_sweep`) can never
    #: set this.
    parallel_sweep_safe: bool = False
    #: Subnet-manager settings this engine needs to operate (e.g. PARX
    #: declares ``{"lmc": 2, "lid_policy": "quadrant"}``).  Consumed by
    #: :meth:`repro.ib.subnet_manager.OpenSM.run` for every parameter
    #: the caller did not set explicitly — callers no longer re-supply
    #: the engine's tuple at each construction site.
    sm_defaults: Mapping[str, Any] = {}
    #: When True the subnet manager's virtual-lane layering processes
    #: destinations grouped by LID index (layer) instead of plain LID
    #: order, giving layered multi-LID engines (FatPaths) layer -> VL
    #: affinity: each layer's destinations pack into lanes together.
    vl_group_by_lid_index: bool = False

    def vl_layering_key(self, fabric: Fabric, dlid: int) -> tuple:
        """Sort key ordering destinations for the VL layering.

        Greedy first-fit layering is order-dependent: destinations whose
        trees share a path discipline should be processed contiguously
        so they pack into the same lanes before a differently-shaped
        family opens new ones.  The default honours
        :attr:`vl_group_by_lid_index` and otherwise keeps plain LID
        order; engines with their own tree families (e.g. per-
        destination dimension orders) override this.  The key must be a
        pure function of (fabric, dlid) — every re-layering of the same
        fabric must reproduce the same order.
        """
        if self.vl_group_by_lid_index:
            return (fabric.lidmap.index_of(dlid), dlid)
        return (0, dlid)

    def check_topology(self, net: "Network") -> None:
        """Validate the engine/topology pairing before any LID work.

        The subnet manager calls this at the start of :meth:`run` —
        before LIDs are resolved from :attr:`sm_defaults` — so an engine
        can refuse an unsupported topology with its own diagnostic
        (e.g. PARX raising :class:`~repro.core.errors.ConfigurationError`
        for an odd-shaped lattice) rather than the LID policy failing
        first with a less specific error.  The default accepts anything.
        """

    @abstractmethod
    def compute(self, fabric: Fabric) -> None:
        """Fill ``fabric.tables``.

        The terminal hops (switch -> owned terminal) are already
        installed when this is called; the engine must add an entry for
        every (other switch, terminal LID) pair it can serve.
        """

    def recompute_destinations(
        self, fabric: Fabric, dlids: Collection[int]
    ) -> None:
        """Recompute only the given destination LIDs' trees in place.

        Must leave every (switch, dlid) entry for ``dlids`` exactly as a
        full :meth:`compute` on the current topology would, and touch no
        other destination's entries.  Only meaningful when
        :attr:`supports_incremental_resweep` is True.
        """
        raise NotImplementedError(
            f"{self.name} does not support incremental re-sweeps"
        )

    def _sweep_job(
        self, fabric: Fabric, dlids: list[int]
    ) -> "TreeJob | None":
        """Describe a full sweep over ``dlids`` as a pool job.

        ``parallel_sweep_safe`` engines return a
        :class:`~repro.core.parallel.TreeJob` whose weight spec and
        graph shards reproduce the serial block loop's kernel inputs
        column for column; ``None`` declines (weights not shareable for
        this fabric) and keeps the sweep serial.
        """
        return None

    def _install_sweep(
        self,
        fabric: Fabric,
        dlids: list[int],
        job: "TreeJob",
        plid: np.ndarray,
    ) -> None:
        """Install a finished pool sweep's plid buffer into the tables.

        Runs parent-side, in global LID order, with the engine's own
        unreachable handling — the exact installation the serial path
        performs, just fed from the shared buffer.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def parallel_route_columns(
    engine: RoutingEngine,
    fabric: Fabric,
    dlids: Sequence[int],
    *,
    before_install: Callable[[], None] | None = None,
) -> bool:
    """Try to run one sweep over ``dlids`` on the worker pool.

    Returns True when the pool routed *and installed* every column —
    the caller's serial block loop is then already done.  False means
    "route serially": the engine is not pool-safe, parallelism is off,
    the column count is under the floor, the engine declined to build a
    job, or the pool failed (spawn failure / worker death — both count
    a ``serial_fallbacks`` stat and tear the pool down).

    ``before_install`` runs after the pool has produced the full result
    but before any column is installed — re-sweeps pass their
    column-reset pass here, so a pool failure leaves the old tables
    fully intact for the serial fallback.
    """
    if not getattr(engine, "parallel_sweep_safe", False):
        return False
    from repro.core import parallel as par

    if par.get_sweep_workers() <= 1 or len(dlids) < par.get_column_floor():
        return False
    job = engine._sweep_job(fabric, list(dlids))
    if job is None:
        return False
    result = par.run_tree_job(job)
    if result is None:
        return False
    try:
        if before_install is not None:
            before_install()
        engine._install_sweep(fabric, list(dlids), job, result.plid)
    finally:
        result.release()
    return True


def install_tree(fabric: Fabric, dlid: int, parent: dict[int, int]) -> None:
    """Install a destination tree into the tables.

    ``parent`` maps each switch to its out-link toward the destination
    (as produced by :func:`repro.routing.dijkstra.tree_to_destination`);
    the destination's own switch keeps its pre-installed terminal hop.

    Equivalent to ``fabric.set_route`` per entry — including the
    leaves-this-switch validation, done as one vectorised check — but
    writes the whole destination column with a single scatter.
    """
    tables = fabric.tables
    col = tables.column_of(dlid) if hasattr(tables, "column_of") else None
    if col is None or not parent:
        for switch, link_id in parent.items():
            fabric.set_route(switch, dlid, link_id)
        return
    graph = fabric.net.switch_graph()
    switches = np.fromiter(parent.keys(), np.int64, len(parent))
    links = np.fromiter(parent.values(), np.int64, len(parent))
    bad = np.flatnonzero(graph.link_src_node[links] != switches)
    if bad.size:
        # Same diagnostic set_route would raise for the first offender.
        fabric.set_route(int(switches[bad[0]]), dlid, int(links[bad[0]]))
    tables.install_column(col, graph.index[switches], links, switches)


def destination_block_width(fabric: Fabric) -> int:
    """Kernel block width under the shared chunk budget, never below 1.

    Each destination column costs one per-link weight column plus the
    kernel's per-switch state; the width keeps a block's transient
    working set under the :mod:`repro.core.chunking` budget regardless
    of fabric size.  Pool workers receive this width *resolved* by the
    parent (spawned processes would otherwise miss runtime
    ``set_chunk_bytes`` overrides) so their kernel sub-blocks match the
    serial loop's.
    """
    net = fabric.net
    per_dlid = len(net.links) * 8 + net.num_switches * 32
    return items_per_chunk(per_dlid)


def destination_blocks(
    fabric: Fabric, dlids: Sequence[int]
) -> list[list[int]]:
    """Split a destination list into kernel-sized blocks.

    Block width is bounded by the shared chunk budget — see
    :func:`destination_block_width`.
    """
    k = destination_block_width(fabric)
    return [list(dlids[i : i + k]) for i in range(0, len(dlids), k)]


def column_tree(
    graph: Any, plid_col: np.ndarray, hops_col: np.ndarray | None = None
) -> tuple[dict[int, int], dict[int, int]]:
    """Rebuild the sequential ``(parent, hops)`` dicts from one kernel column.

    Only used on the unreachable-destination slow path, where an
    engine's overridable ``_check_reach`` expects the dict view the
    per-destination loop (:func:`~repro.routing.dijkstra.tree_to_destination`)
    would have handed it.  ``hops`` is empty when ``hops_col`` is not
    supplied (engines whose reach check ignores it).
    """
    from repro.routing.arrays import UNREACHED_HOPS

    switches = graph.switches
    parent = {
        switches[u]: int(plid_col[u])
        for u in np.flatnonzero(plid_col >= 0).tolist()
    }
    hops: dict[int, int] = {}
    if hops_col is not None:
        hops = {
            switches[u]: int(hops_col[u])
            for u in np.flatnonzero(hops_col != UNREACHED_HOPS).tolist()
        }
    return parent, hops


def install_tree_columns(
    fabric: Fabric,
    dlids: Sequence[int],
    dest_switches: Sequence[int],
    plid: np.ndarray,
    *,
    on_unreachable: Callable[[int, int, int], None] | None = None,
) -> None:
    """Check reach and install one kernel output block, column by column.

    ``plid`` is :func:`repro.routing.arrays.tree_core_batch` output for
    ``dlids`` (column ``j`` routes ``dlids[j]`` toward node id
    ``dest_switches[j]``).  Columns are checked *and* installed in
    ``dlids`` order, so an unreachable destination mid-block raises the
    sequential path's exact :class:`UnreachableError` — first failing
    LID, first failing switch in ``host_switches`` order — with every
    earlier column already installed, just as the per-destination loop
    would leave the tables.

    ``on_unreachable(j, dlid, dsw)`` replaces the default raise: engines
    pass an adapter that routes the failure through their overridable
    ``_check_reach`` hook (see :func:`column_tree`), so subclasses that
    tolerate partitioned fabrics behave identically batched and
    sequential — the column installs with unreached rows left at ``-1``.
    """
    graph = fabric.net.switch_graph()
    tables = fabric.tables
    switch_arr = np.asarray(graph.switches, dtype=np.int64)
    host = graph.host_switches
    for j, dlid in enumerate(dlids):
        dsw = dest_switches[j]
        column = plid[:, j]
        missing = host[column[host] < 0]
        for u in missing.tolist():
            sw = graph.switches[u]
            if sw != dsw:
                if on_unreachable is None:
                    raise UnreachableError(
                        f"switch {sw} cannot reach destination lid {dlid}"
                    )
                on_unreachable(j, dlid, dsw)
                break
        rows = np.flatnonzero(column >= 0)
        links = column[rows]
        switches = switch_arr[rows]
        bad = np.flatnonzero(graph.link_src_node[links] != switches)
        if bad.size:
            # Same diagnostic set_route would raise for the offender.
            fabric.set_route(int(switches[bad[0]]), dlid, int(links[bad[0]]))
        tables.install_column(tables.column_of(dlid), rows, links, switches)


#: One destination LID of a feedback sweep, as an engine declares it:
#: ``(dlid, root, view, fallback, note, sources)`` — the dense index of
#: the destination's switch, the (possibly masked) graph view to route
#: on, the view to retry on when ``view`` cannot reach every
#: terminal-hosting switch (``None``: no retry), the fabric note that
#: retry records, and the per-switch injected demand (dense float64).
FeedbackTree = tuple[int, int, BatchGraphView, BatchGraphView | None, str, np.ndarray]


def terminal_sources(graph: Any, root: int) -> np.ndarray:
    """SSSP's "+1 per path" demand toward a destination switch.

    Every terminal sources one path per destination, except the
    destination itself: its own switch injects one path less.
    """
    sources = graph.attached_counts.copy()
    sources[root] = max(0.0, sources[root] - 1.0)
    return sources


def feedback_sweep(fabric: Fabric, trees: Iterable[FeedbackTree]) -> None:
    """Route and install destination trees one LID at a time, feeding
    each tree's link loads into the weights of the next (SSSP, DFSSSP,
    PARX, PARX-ND).

    Weights start at 1.0 per link.  Per LID the tree runs on ``view``;
    when that misses a terminal-hosting switch the ``fallback`` view is
    used instead and ``note`` is appended to ``fabric.notes`` (PARX's
    footnote 7).  If the tree still misses one, the sweep raises
    :class:`UnreachableError` for the first such switch, with every
    earlier LID already installed.  The column is installed in
    settlement order, then the tree's loads under ``sources`` are added
    to the weights.

    The hop-level plan of a (view, root) pair depends only on the graph,
    so it is built once and shared by every LID routed toward that root.
    Engines route a switch's terminals back to back, so only the current
    root's plans are kept: plan memory stays one root's worth at any
    fabric size.
    """
    net = fabric.net
    graph = net.switch_graph()
    tables = fabric.tables
    switch_ids = np.asarray(graph.switches, dtype=np.int64)
    hosts = graph.host_switches
    weights = np.ones(len(net.links))
    wsum = np.empty(graph.num_switches)
    plans: dict[Any, LevelPlan] = {}
    plans_root = -1

    def plan_for(view: BatchGraphView, root: int) -> LevelPlan:
        plan = plans.get(view)
        if plan is None:
            plan = plans[view] = level_plan(view, root, hosts)
        return plan

    for dlid, root, view, fallback, note, sources in trees:
        if root != plans_root:
            plans.clear()
            plans_root = root
        plan = plan_for(view, root)
        if plan.missing.size and fallback is not None:
            plan = plan_for(fallback, root)
            fabric.notes.append(note)
        if plan.missing.size:
            raise UnreachableError(
                f"switch {graph.switches[plan.missing[0]]} cannot reach "
                f"destination lid {dlid}"
            )
        levels = feedback_tree(plan, weights, wsum)
        if levels:
            rows = np.concatenate([level[0] for level in levels])
            links = np.concatenate([level[1] for level in levels])
            tables.install_column(
                tables.column_of(dlid), rows, links, switch_ids[rows]
            )
        feed_tree_loads(levels, sources, graph.link_dst_index, weights)
