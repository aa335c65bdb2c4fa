"""The OpenSM stand-in: drive a routing engine, install its output.

Real deployments run OpenSM on a management node: it assigns LIDs
(optionally pinned through a ``guid2lid`` file — how the paper
implements the quadrant policy), invokes the configured routing engine
to compute linear forwarding tables, and programs SL/VL mappings for
deadlock freedom.  :class:`OpenSM` does the same against a
:class:`~repro.ib.fabric.Fabric`:

>>> sm = OpenSM(net, lmc=2, lid_policy="quadrant")
>>> fabric = sm.run(ParxRouting(demands))
>>> fabric.num_vls
5
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.core.errors import ConfigurationError, DeadlockError, ReproError
from repro.ib.addressing import (
    LidMap,
    assign_lids_quadrant,
    assign_lids_sequential,
)
from repro.ib.cdg import dependencies_by_dest
from repro.ib.deadlock import assign_layers
from repro.ib.fabric import Fabric
from repro.topology.faults import FabricEvent
from repro.topology.network import Network

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.routing.base import RoutingEngine

#: Virtual lanes available on the paper's QDR hardware.
QDR_MAX_VLS = 8

#: How many unreachable pairs a report keeps as a sample; the exact
#: count survives in :attr:`RerouteReport.num_unreachable` (a wholesale
#: partition failure would otherwise store hundreds of thousands of
#: pairs on every report in a campaign ledger).
UNREACHABLE_SAMPLE_CAP = 64


@dataclass(slots=True)
class RerouteReport:
    """What an SM re-sweep changed, in auditable numbers.

    The paper's machine ran with missing cables from day one (section
    2.3), so every fault event in our model ends in a re-sweep; this
    report is the record a fabric operator would pull from the SM log —
    how many destinations were affected, how many forwarding entries and
    end-to-end paths moved, and whether anything became unreachable.
    """

    engine: str
    #: The fabric events (as dicts) that triggered this re-sweep.
    events: list[dict[str, Any]] = field(default_factory=list)
    #: Destination LIDs that had at least one stale table entry.
    dests_affected: int = 0
    #: Ordered terminal pairs whose pre-re-sweep path was already dead
    #: under the degraded topology (the pre-repair black-hole exposure;
    #: on a previously clean fabric this equals the static
    #: ``affected_pairs`` the what-if verifier predicts for the failed
    #: cable).
    pairs_affected: int = 0
    #: Static criticality certificate of the failed cable, attached by
    #: callers that audited the fabric before the failure (see
    #: :meth:`repro.analysis.whatif.VulnerabilityReport.criticality_of`).
    cable_criticality: dict[str, Any] | None = None
    #: Forwarding entries (switch, dlid) whose out link changed.
    entries_changed: int = 0
    #: Terminal pairs whose end-to-end path changed.
    paths_changed: int = 0
    #: Ordered terminal pairs examined (``T * (T - 1)``).
    pairs_total: int = 0
    #: Total switch hops over pairs reachable both before and after.
    hops_before: int = 0
    hops_after: int = 0
    #: Sample of terminal pairs with no route after the re-sweep, capped
    #: at :data:`UNREACHABLE_SAMPLE_CAP` in source-major order; the
    #: exact count is :attr:`num_unreachable`.
    unreachable_pairs: list[tuple[int, int]] = field(default_factory=list)
    #: Exact number of unreachable ordered terminal pairs.
    num_unreachable: int = 0
    #: ``False`` when the incremental check found nothing stale and the
    #: routing engine was never invoked.
    resweep_ran: bool = True
    #: Destination trees the routing engine recomputed (all of them on a
    #: heavy sweep, the affected subset on an incremental one, 0 when
    #: the sweep was skipped).
    dests_recomputed: int = 0
    #: Wall-clock seconds the re-sweep spent (recompute + layering +
    #: diff).
    sweep_seconds: float = 0.0

    @property
    def hops_delta(self) -> int:
        """Extra switch hops the surviving pairs pay after rerouting."""
        return self.hops_after - self.hops_before

    def to_dict(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "events": list(self.events),
            "dests_affected": self.dests_affected,
            "pairs_affected": self.pairs_affected,
            "cable_criticality": self.cable_criticality,
            "entries_changed": self.entries_changed,
            "paths_changed": self.paths_changed,
            "pairs_total": self.pairs_total,
            "hops_before": self.hops_before,
            "hops_after": self.hops_after,
            "hops_delta": self.hops_delta,
            "unreachable_pairs": [list(p) for p in self.unreachable_pairs],
            "num_unreachable": self.num_unreachable,
            "resweep_ran": self.resweep_ran,
            "dests_recomputed": self.dests_recomputed,
            "sweep_seconds": self.sweep_seconds,
        }

    def __str__(self) -> str:
        if not self.resweep_ran:
            return f"RerouteReport({self.engine}: no stale entries, skipped)"
        return (
            f"RerouteReport({self.engine}: {self.paths_changed}/"
            f"{self.pairs_total} paths changed, {self.entries_changed} "
            f"entries rewritten, hops {self.hops_before}->{self.hops_after}, "
            f"{self.num_unreachable} unreachable)"
        )


def _stale_entries(fabric: Fabric) -> list[tuple[int, int]]:
    """``(switch, dlid)`` forwarding entries that point at disabled links.

    The dense part is one boolean mask over the whole table matrix;
    overflow and foreign-row entries (out-of-universe writes, test-only)
    are checked entry by entry like before.
    """
    net = fabric.net
    tables = fabric.tables
    graph = net.switch_graph()
    m = tables.dense
    present = m >= 0
    stale_mask = present & ~graph.link_enabled[np.where(present, m, 0)]
    switch_ids = tables.switch_ids
    dlids = tables.dlids
    out = [
        (switch_ids[r], int(dlids[c]))
        for r, c in zip(*np.nonzero(stale_mask))
    ]
    for sw, dlid, link_id in tables.overflow_items():
        if not net.link(link_id).enabled:
            out.append((sw, dlid))
    for sw in tables.foreign_switches():
        for dlid, link_id in tables[sw].items():
            if not net.link(link_id).enabled:
                out.append((sw, dlid))
    return out


def _snapshot_paths(
    fabric: Fabric,
) -> dict[tuple[int, int], tuple[int, ...] | None]:
    """Resolve every ordered terminal pair; ``None`` marks unreachable."""
    paths: dict[tuple[int, int], tuple[int, ...] | None] = {}
    terminals = fabric.net.terminals
    for src in terminals:
        for dst in terminals:
            if src == dst:
                continue
            try:
                paths[(src, dst)] = tuple(fabric.path(src, dst))
            except ReproError:
                paths[(src, dst)] = None
    return paths


def resweep(
    fabric: Fabric,
    engine: "RoutingEngine",
    max_vls: int = QDR_MAX_VLS,
    events: Iterable[FabricEvent] = (),
) -> RerouteReport:
    """Recompute a fabric's forwarding state after fabric events.

    Three speeds, chosen automatically:

    * **skip** — no forwarding entry references a disabled link and no
      event restored a cable (which could open better paths): the
      tables are already consistent and the routing engine is not
      invoked (``resweep_ran=False``) — degrades change capacities, not
      reachability.
    * **incremental** — the engine declares
      ``supports_incremental_resweep`` and only cables failed: just the
      destination trees with stale entries are recomputed
      (``engine.recompute_destinations``), then the full deterministic
      VL layering re-runs over the result — byte-identical tables and
      lanes to a heavy sweep, at the cost of the affected destinations
      only.  A restore event, out-of-universe stale entries, or a
      layering failure fall back to the heavy sweep.  When sweep
      workers are configured and the stale-destination count crosses
      the parallel column floor (:mod:`repro.core.parallel`), the
      recompute itself shards across the worker pool — same bits,
      same report counters, at any worker count.
    * **heavy** — tables and virtual-lane layering recomputed from
      scratch on the current (degraded) topology.

    Either way the report diffs old against new state — entries
    rewritten, paths changed, hop inflation, pairs lost — via matrix
    walks over the dense tables (:func:`repro.ib.tables.walk_dest_columns`)
    instead of resolving every pair in Python.

    Mutates ``fabric`` in place, mirroring a real OpenSM sweep.
    """
    t_start = time.perf_counter()
    net = fabric.net
    event_dicts = [e.to_dict() for e in events]
    stale = _stale_entries(fabric)
    restored = any(e.action == "restore_cable" for e in events)
    report = RerouteReport(engine=engine.name, events=event_dicts)
    if not stale and not restored:
        report.resweep_ran = False
        return report

    stale_dlids = sorted({dlid for _, dlid in stale})
    report.dests_affected = len(stale_dlids)

    tables = fabric.tables
    old_dense = tables.dense_copy()
    old_overflow = tables.overflow_copy()
    old_foreign = {sw: dict(tables[sw]) for sw in tables.foreign_switches()}
    ok_old, hops_old, _ = fabric._resolve_pair_matrices(old_dense, None)

    terminal_dlids = fabric.lidmap.terminal_lids(net)
    in_universe = set(terminal_dlids)
    incremental = (
        engine.supports_incremental_resweep
        and not restored
        and all(d in in_universe for d in stale_dlids)
        and not old_overflow
        and not old_foreign
    )
    done = False
    if incremental:
        try:
            engine.recompute_destinations(fabric, stale_dlids)
            if engine.provides_deadlock_freedom:
                _relayer(fabric, max_vls, engine)
            report.dests_recomputed = len(stale_dlids)
            done = True
        except DeadlockError:
            # A smaller per-lane CDG could in principle layer
            # differently; trust the heavy sweep for the verdict.
            done = False
    if not done:
        fabric.tables = {}
        fabric.vl_of_dlid = {}
        fabric.num_vls = 1
        fabric.install_terminal_hops()
        engine.compute(fabric)
        if engine.provides_deadlock_freedom:
            _relayer(fabric, max_vls, engine)
        report.dests_recomputed = len(terminal_dlids)

    new_tables = fabric.tables
    new_dense = new_tables.dense
    report.entries_changed = int(
        ((new_dense >= 0) & (new_dense != old_dense)).sum()
    )
    for sw, dlid, link_id in new_tables.overflow_items():
        if old_overflow.get(sw, {}).get(dlid) != link_id:
            report.entries_changed += 1
    for sw in new_tables.foreign_switches():
        old_row = old_foreign.get(sw, {})
        report.entries_changed += sum(
            1 for dlid, link_id in new_tables[sw].items()
            if old_row.get(dlid) != link_id
        )

    ok_new, hops_new, entry_diff = fabric._resolve_pair_matrices(
        new_dense, old_dense
    )
    terminals = net.terminals
    n = len(terminals)
    off_diag = ~np.eye(n, dtype=bool)
    report.pairs_total = n * (n - 1)
    # Pairs already dead before the re-sweep, judged under the current
    # (degraded) topology — the black-hole exposure the repair fixes.
    report.pairs_affected = int((off_diag & ~ok_old).sum())
    both = ok_old & ok_new
    report.hops_before = int(hops_old[both].sum())
    report.hops_after = int(hops_new[both].sum())
    # A pair's path changed iff it resolves now and either did not
    # before, or some table entry along the (shared-prefix) walk moved.
    report.paths_changed = int((ok_new & (~ok_old | entry_diff)).sum())
    unreachable = np.argwhere(off_diag & ~ok_new)
    report.num_unreachable = len(unreachable)
    report.unreachable_pairs = [
        (terminals[i], terminals[j])
        for i, j in unreachable[:UNREACHABLE_SAMPLE_CAP].tolist()
    ]
    report.sweep_seconds = time.perf_counter() - t_start
    fabric.notes.append(f"resweep after {len(event_dicts)} event(s): {report}")
    return report


def _assign_lids(net: Network, policy: str, lmc: int) -> LidMap:
    """Build a LID map for a validated policy name."""
    if policy == "quadrant":
        return assign_lids_quadrant(net, lmc)
    return assign_lids_sequential(net, lmc)


def _layering_order(
    fabric: Fabric, engine: "RoutingEngine", dlids: list[int]
) -> list[int] | None:
    """Destination order for the greedy VL layering.

    ``None`` keeps :func:`~repro.ib.deadlock.assign_layers`'s plain
    sorted-LID order.  Engines refine the order through
    :meth:`~repro.routing.base.RoutingEngine.vl_layering_key` — layered
    multi-LID engines (FatPaths) group destinations by LID index, fthx
    groups them by dimension-order class — so each tree family packs
    into virtual lanes together before the next family opens new ones.
    """
    key = getattr(engine, "vl_layering_key", None)
    if key is None:
        return None
    return sorted(dlids, key=lambda d: key(fabric, d))


def _relayer(fabric: Fabric, max_vls: int, engine: "RoutingEngine") -> None:
    """Full deterministic VL layering over the fabric's current tables.

    Run in full even after an incremental table update: greedy first-fit
    layering is order-dependent, so only the complete deterministic run
    (in the same destination order :class:`OpenSM.run` used) guarantees
    the same lanes a heavy sweep would assign.
    """
    dlids = fabric.lidmap.terminal_lids(fabric.net)
    vl_of, num = assign_layers(
        dependencies_by_dest(fabric, dlids), max_vls=max_vls,
        order=_layering_order(fabric, engine, dlids),
    )
    fabric.vl_of_dlid = vl_of
    fabric.num_vls = num


#: LID policies the subnet manager knows how to assign.
LID_POLICIES = ("sequential", "quadrant")


class OpenSM:
    """Subnet manager driving one network plane.

    Parameters
    ----------
    net:
        The plane to manage.
    lmc:
        LID mask control (0 for single-path engines, 2 for PARX).
        ``None`` (the default) defers to the routing engine's declared
        :attr:`~repro.routing.base.RoutingEngine.sm_defaults` at
        :meth:`run` time, falling back to 0.
    lid_policy:
        ``"sequential"`` (default OpenSM behaviour) or ``"quadrant"``
        (the paper's guid2lid pinning for 2-D HyperX planes).  ``None``
        defers to the engine's ``sm_defaults`` like ``lmc``; an explicit
        policy is validated — and its LID map built — eagerly at
        construction, exactly as before the engine-default redesign.
    max_vls:
        Virtual-lane budget for the deadlock layering.
    """

    def __init__(
        self,
        net: Network,
        lmc: int | None = None,
        lid_policy: str | None = None,
        max_vls: int = QDR_MAX_VLS,
    ) -> None:
        self.net = net
        self.max_vls = max_vls
        if lid_policy is not None and lid_policy not in LID_POLICIES:
            raise ConfigurationError(f"unknown lid_policy {lid_policy!r}")
        self._explicit_lmc = lmc
        self._explicit_policy = lid_policy
        self.lmc = 0 if lmc is None else lmc
        self.lid_policy = lid_policy or "sequential"
        self._lidmap: LidMap | None = None
        if lid_policy is not None:
            # An explicitly requested policy fails fast (e.g. quadrant
            # LIDs on a coordinate-less Fat-Tree raise TopologyError at
            # construction, not mid-run).
            self._lidmap = _assign_lids(net, self.lid_policy, self.lmc)

    @property
    def lidmap(self) -> LidMap:
        """The LID map in force (built on demand for deferred settings)."""
        if self._lidmap is None:
            self._lidmap = _assign_lids(self.net, self.lid_policy, self.lmc)
        return self._lidmap

    def _resolve_lidmap(self, engine: "RoutingEngine") -> LidMap:
        """LID settings for this run: explicit args beat engine defaults.

        Each parameter resolves independently — ``OpenSM(net, lmc=0)``
        run with PARX keeps the explicit ``lmc=0`` but adopts the
        engine's declared quadrant policy.
        """
        defaults = getattr(engine, "sm_defaults", None) or {}
        lmc = (
            self._explicit_lmc
            if self._explicit_lmc is not None
            else int(defaults.get("lmc", 0))
        )
        policy = (
            self._explicit_policy
            if self._explicit_policy is not None
            else str(defaults.get("lid_policy", "sequential"))
        )
        if policy not in LID_POLICIES:
            raise ConfigurationError(
                f"engine {engine.name!r} declares unknown lid_policy "
                f"{policy!r} in sm_defaults"
            )
        if self._lidmap is None or (lmc, policy) != (self.lmc, self.lid_policy):
            self._lidmap = _assign_lids(self.net, policy, lmc)
        self.lmc = lmc
        self.lid_policy = policy
        return self._lidmap

    def run(self, engine: "RoutingEngine") -> Fabric:
        """Compute and install a routing; returns the ready fabric.

        The engine's :meth:`~repro.routing.base.RoutingEngine.check_topology`
        hook runs first, then LID settings not given explicitly resolve
        from the engine's declared ``sm_defaults``.  If the engine
        declares ``provides_deadlock_freedom`` the subnet manager
        performs the destination-granularity VL layering on the engine's
        paths (raising if the VL budget does not suffice); otherwise the
        fabric is left on a single lane, which for cyclic topologies may
        be deadlock-prone — exactly the behaviour the paper saw with
        plain SSSP on the HyperX.

        With sweep workers configured (:mod:`repro.core.parallel`),
        engines that declare a tree job shard the cold sweep's
        destination columns across the worker pool inside
        ``engine.compute`` — tables, lanes, and notes stay bit-identical
        at any worker count.
        """
        engine.check_topology(self.net)
        lidmap = self._resolve_lidmap(engine)
        fabric = Fabric(self.net, lidmap, engine_name=engine.name)
        fabric.install_terminal_hops()
        engine.compute(fabric)

        if engine.provides_deadlock_freedom:
            dlids = lidmap.terminal_lids(self.net)
            vl_of, num = assign_layers(
                dependencies_by_dest(fabric, dlids),
                max_vls=self.max_vls,
                order=_layering_order(fabric, engine, dlids),
            )
            fabric.vl_of_dlid = vl_of
            fabric.num_vls = num
        return fabric

    def resweep(
        self,
        fabric: Fabric,
        engine: "RoutingEngine",
        events: Iterable[FabricEvent] = (),
    ) -> RerouteReport:
        """Heavy-sweep a fabric this SM routed after fabric events.

        Thin wrapper over the module-level :func:`resweep` carrying this
        SM's virtual-lane budget.
        """
        return resweep(fabric, engine, max_vls=self.max_vls, events=events)
