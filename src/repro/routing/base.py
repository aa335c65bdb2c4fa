"""Routing-engine interface and shared helpers.

An engine's job is to fill the per-switch linear forwarding tables of a
:class:`~repro.ib.fabric.Fabric` — one out-link per (switch, destination
LID) pair, the only thing InfiniBand hardware can express.  Everything
else (LID assignment, terminal hops, VL layering) is the subnet
manager's business.
"""

from __future__ import annotations

from abc import ABC
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    Iterable,
    Mapping,
    Sequence,
)

import numpy as np

from repro.core import parallel
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
    from repro.topology.network import Network

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
    #: destination trees with bit-identical results; they set this True.
    #: Tree-job engines (see :meth:`tree_job`) get the matching
    #: :meth:`recompute_destinations` for free.
    supports_incremental_resweep: bool = False
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

    def compute(self, fabric: Fabric) -> None:
        """Fill ``fabric.tables``.

        The terminal hops (switch -> owned terminal) are already
        installed when this is called; the engine must add an entry for
        every (other switch, terminal LID) pair it can serve.  The
        default runs the engine's :meth:`tree_job` over every terminal
        LID; engines with any other sweep override this.
        """
        self._run_tree_job(fabric, fabric.lidmap.terminal_lids(fabric.net))

    def recompute_destinations(
        self, fabric: Fabric, dlids: Collection[int]
    ) -> None:
        """Recompute only the given destination LIDs' trees in place.

        Leaves every (switch, dlid) entry for ``dlids`` exactly as a
        full :meth:`compute` on the current topology would, and touches
        no other destination's entries: each column (its ejection hop
        included) is dropped and rebuilt from the engine's
        :meth:`tree_job` over just those LIDs.  Only meaningful when
        :attr:`supports_incremental_resweep` is True.
        """
        self._run_tree_job(fabric, sorted(dlids), reset=True)

    def tree_job(
        self, fabric: Fabric, dlids: list[int]
    ) -> parallel.TreeJob:
        """Declare a sweep over ``dlids`` as independent destination trees.

        Engines whose per-destination weights do not depend on other
        destinations return a :class:`~repro.core.parallel.TreeJob`:
        column ``j`` routes ``dlids[j]``, with a weight spec and graph
        shards that fully determine its kernel inputs.  The base class
        runs the job on the worker pool or in-process with the same
        bits either way.  Engines with cross-destination feedback (the
        SSSP family, see :func:`feedback_sweep`) cannot declare one.
        """
        raise NotImplementedError(
            f"{self.name} does not route independent destination trees"
        )

    def tree_fallback(
        self,
        fabric: Fabric,
        job: parallel.TreeJob,
        dlids: Sequence[int],
        lo: int,
        plid: np.ndarray,
    ) -> None:
        """Repair routed columns ``lo ..`` of ``job`` before installation.

        ``plid[:, j]`` holds the tree of ``dlids[j]`` (global column
        ``lo + j``).  Called in LID order on every block, pooled or
        in-process; the default leaves the columns as routed.
        """

    def tree_unreachable(self, switch: int, dlid: int) -> None:
        """A tree leaves terminal-hosting ``switch`` without a route to ``dlid``.

        Raises :class:`UnreachableError` by default; an engine that
        tolerates partitioned fabrics returns instead, and the column
        installs with the unreached rows left empty.
        """
        raise UnreachableError(
            f"switch {switch} cannot reach destination lid {dlid}"
        )

    def _run_tree_job(
        self, fabric: Fabric, dlids: list[int], *, reset: bool = False
    ) -> None:
        """Route ``dlids`` through :meth:`tree_job` and install the columns.

        The pool runs the whole job when it is configured and the job is
        over the column floor; otherwise (or when the pool fails) the
        job runs in-process, block by block, each block installed and
        dropped before the next is routed.  ``reset`` (re-sweeps) drops
        each old column only once its replacement is in hand, so a pool
        failure leaves the old tables intact for the in-process run.
        """
        job = self.tree_job(fabric, dlids)
        result = parallel.run_tree_job(job)
        if result is not None:
            try:
                self._install_tree_block(fabric, job, dlids, 0, result.plid, reset)
            finally:
                result.release()
            return
        for lo, plid in parallel.tree_job_blocks(job):
            self._install_tree_block(fabric, job, dlids, lo, plid, reset)

    def _install_tree_block(
        self,
        fabric: Fabric,
        job: parallel.TreeJob,
        dlids: list[int],
        lo: int,
        plid: np.ndarray,
        reset: bool,
    ) -> None:
        block = dlids[lo : lo + plid.shape[1]]
        self.tree_fallback(fabric, job, block, lo, plid)
        if reset:
            for dlid in block:
                self._reset_column(fabric, dlid)
        install_tree_columns(
            fabric, block, job.dest_switches[lo : lo + len(block)], plid,
            on_unreachable=self.tree_unreachable,
        )

    @staticmethod
    def _reset_column(fabric: Fabric, dlid: int) -> None:
        """Drop a destination column, keeping only its ejection hop."""
        net = fabric.net
        fabric.tables.clear_column(dlid)
        t = fabric.lidmap.node_of(dlid)
        down = net.terminal_uplink(t).reverse_id
        fabric.set_route(net.attached_switch(t), dlid, down)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


def declares_tree_job(engine: RoutingEngine) -> bool:
    """Whether ``engine`` routes through :meth:`RoutingEngine.tree_job`.

    Exactly these engines run on the sweep pool (the catalogue's
    ``parallel_sweep`` column) and get the base class's incremental
    :meth:`~RoutingEngine.recompute_destinations`.
    """
    return type(engine).tree_job is not RoutingEngine.tree_job


def destination_switches(fabric: Fabric, dlids: Sequence[int]) -> list[int]:
    """The switch each destination LID's terminal hangs off, in order."""
    net, lidmap = fabric.net, fabric.lidmap
    return [net.attached_switch(lidmap.node_of(d)) for d in dlids]


def make_tree_job(
    fabric: Fabric,
    dest_switches: list[int],
    weights: dict[str, Any],
    *,
    shards: list[parallel.TreeShard] | None = None,
    extra: Any = None,
) -> parallel.TreeJob:
    """A :class:`~repro.core.parallel.TreeJob` toward ``dest_switches``.

    Column ``j`` is rooted at ``dest_switches[j]``; ``shards`` default
    to one shard routing every column over the live switch graph, and
    blocks are :func:`destination_block_width` columns wide.
    """
    net = fabric.net
    graph = net.switch_graph()
    if shards is None:
        cols = np.arange(len(dest_switches), dtype=np.int64)
        shards = [parallel.TreeShard(graph=graph, cols=cols)]
    return parallel.TreeJob(
        num_switches=graph.num_switches,
        num_links=len(net.links),
        roots=graph.index[np.asarray(dest_switches, dtype=np.int64)],
        dest_switches=dest_switches,
        weights=weights,
        shards=shards,
        block_cols=destination_block_width(fabric),
        extra=extra,
    )


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
    in-process run's.
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


def install_tree_columns(
    fabric: Fabric,
    dlids: Sequence[int],
    dest_switches: Sequence[int],
    plid: np.ndarray,
    *,
    on_unreachable: Callable[[int, int], None] | None = None,
) -> None:
    """Check reach and install one kernel output block, column by column.

    ``plid`` is :func:`repro.routing.arrays.tree_core_batch` output for
    ``dlids`` (column ``j`` routes ``dlids[j]`` toward node id
    ``dest_switches[j]``).  Columns are checked *and* installed in
    ``dlids`` order, so an unreachable destination mid-block raises for
    the first failing LID and its first failing switch in
    ``host_switches`` order, with every earlier column installed.

    ``on_unreachable(switch, dlid)`` replaces the default raise (see
    :meth:`RoutingEngine.tree_unreachable`): when it returns, the
    column installs with its unreached rows left empty.
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
                on_unreachable(sw, dlid)
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
