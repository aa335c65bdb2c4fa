"""Resilience sweep: the five combinations under scaled cable-fault levels.

The paper never ran on a pristine machine — 15 of the HyperX plane's
AOCs and 197 of the Fat-Tree's links were missing (§2.3), so every
routing had to route *around* dead cables from day one.  This sweep
makes that condition a measured axis: for each combination it injects a
multiple of the paper's missing-cable count (level 0.0 = pristine,
1.0 = as-built, 2.0 = twice as degraded), routes the degraded plane,
runs an all-to-all, and — to exercise the recovery path — fails one
more cable mid-run and lets the SM re-sweep.  Reported per cell: run
time, slowdown versus pristine, reroute counters, and the statically
verified unreachable-pair count (which must be zero while the switch
graph stays connected).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.analysis.linter import lint_fabric
from repro.analysis.whatif import VulnerabilityReport, audit_whatif
from repro.core.errors import TopologyError
from repro.core.rng import derive_seed
from repro.core.units import MIB
from repro.experiments.configs import (
    THE_FIVE,
    get_combination,
    make_engine,
    make_job,
)
from repro.ib.subnet_manager import OpenSM, resweep
from repro.sim.engine import FlowSimulator
from repro.topology.faults import (
    FabricEvent,
    FaultTimeline,
    _switch_graph_connected,
    inject_cable_faults,
)
from repro.topology.t2hx import paper_fault_count, t2hx_fattree, t2hx_hyperx

#: Fault levels as multiples of the paper's missing-cable count.
DEFAULT_LEVELS = (0.0, 1.0, 2.0)

#: How a sweep picks which cables to fail.
FAILURE_MODES = ("random", "adversarial")


@dataclass
class ResilienceCell:
    """One (combination, fault level) measurement."""

    combo_key: str
    level: float
    #: Cables disabled before routing (level x the paper's count).
    faults_injected: int
    #: The plane's paper-equivalent missing-cable count (level 1.0).
    paper_faults: int
    num_nodes: int
    time: float
    #: time / the same combination's first-level (usually 0.0) time.
    slowdown: float
    #: Statically verified unreachable terminal pairs (FAB001).
    unreachable_pairs: int
    #: Mid-run recovery accounting (zero when midrun_failure is off).
    events_applied: int = 0
    messages_rerouted: int = 0
    paths_changed: int = 0
    resweep_unreachable: int = 0
    reroutes: list[dict[str, Any]] = field(default_factory=list)
    #: Top utilised links of the (possibly degraded) run, hottest first,
    #: as ``[link_id, utilisation]`` pairs.
    hottest_links: list[list[float]] = field(default_factory=list)
    #: How this cell's cables were chosen ("random" or "adversarial").
    failure_mode: str = "random"
    #: The mid-run failed cable and its static criticality (rank 1 =
    #: most critical of ``midrun_of`` audited cables), from the what-if
    #: audit of the routed degraded plane taken *before* the run.
    midrun_cable: int | None = None
    midrun_rank: int | None = None
    midrun_of: int | None = None
    midrun_affected_pairs: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "combo_key": self.combo_key,
            "level": self.level,
            "faults_injected": self.faults_injected,
            "paper_faults": self.paper_faults,
            "num_nodes": self.num_nodes,
            "time": self.time,
            "slowdown": self.slowdown,
            "unreachable_pairs": self.unreachable_pairs,
            "events_applied": self.events_applied,
            "messages_rerouted": self.messages_rerouted,
            "paths_changed": self.paths_changed,
            "resweep_unreachable": self.resweep_unreachable,
            "reroutes": self.reroutes,
            "hottest_links": self.hottest_links,
            "failure_mode": self.failure_mode,
            "midrun_cable": self.midrun_cable,
            "midrun_rank": self.midrun_rank,
            "midrun_of": self.midrun_of,
            "midrun_affected_pairs": self.midrun_affected_pairs,
        }


@dataclass
class ResilienceResult:
    """The full sweep: cells ordered by (combination, level)."""

    scale: int
    seed: int
    levels: tuple[float, ...]
    failure_mode: str = "random"
    cells: list[ResilienceCell] = field(default_factory=list)

    @property
    def total_unreachable(self) -> int:
        return sum(c.unreachable_pairs + c.resweep_unreachable
                   for c in self.cells)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scale": self.scale,
            "seed": self.seed,
            "levels": list(self.levels),
            "failure_mode": self.failure_mode,
            "total_unreachable": self.total_unreachable,
            "cells": [c.to_dict() for c in self.cells],
        }


def _build_plane(topology: str, scale: int):
    if topology == "hyperx":
        return t2hx_hyperx(with_faults=False, scale=scale)
    return t2hx_fattree(with_faults=False, scale=scale)


def _fail_worst_cables(net, combo, num_faults: int) -> list[int]:
    """Adversarial injection: disable the statically worst-ranked cables.

    Routes a probe fabric on the pristine plane with the combination's
    own engine, ranks every cable with the what-if verifier, then walks
    the ranking greedily — a cable whose removal would disconnect the
    switch graph is skipped (mirroring ``inject_cable_faults``'s
    keep-connected contract, so the two modes stay comparable).
    Returns the disabled representative link ids.
    """
    engine, sm_kwargs = make_engine(combo)
    probe = OpenSM(net, **sm_kwargs).run(engine)
    audit = audit_whatif(probe)
    failed: list[int] = []
    for v in audit.cables:  # rank order: worst first
        if len(failed) == num_faults:
            break
        net.disable_cable(v.cable)
        if not _switch_graph_connected(net):
            net.enable_cable(v.cable)
            continue
        failed.append(v.cable)
    if len(failed) < num_faults:
        for cable in failed:
            net.enable_cable(cable)
        raise TopologyError(
            f"could only fail {len(failed)} of {num_faults} cables while "
            "keeping the switch graph connected"
        )
    return failed


def _worst_surviving_cable(net, audit: "VulnerabilityReport") -> int | None:
    """Highest-ranked enabled cable whose loss keeps the graph connected."""
    for v in audit.cables:
        if not net.link(v.cable).enabled:
            continue
        net.disable_cable(v.cable)
        connected = _switch_graph_connected(net)
        net.enable_cable(v.cable)
        if connected:
            return v.cable
    return None


def run_resilience(
    combo_keys: Sequence[str] | None = None,
    levels: Sequence[float] = DEFAULT_LEVELS,
    scale: int = 2,
    seed: int = 0,
    num_nodes: int | None = None,
    sim_mode: str = "static",
    msg_bytes: float = 1.0 * MIB,
    midrun_failure: bool = True,
    failure_mode: str = "random",
) -> ResilienceResult:
    """Sweep fault levels across combinations; returns all cells.

    Each cell builds its plane fresh (never through the fabric cache —
    the sweep mutates topologies), injects ``round(level x paper
    count)`` cable faults keep-connected, routes with the combination's
    engine, and times an all-to-all over ``num_nodes`` nodes.  With
    ``midrun_failure`` one extra cable dies before the all-to-all's
    second phase: the SM re-sweep must recover every pair (the
    ``resweep_unreachable`` column stays 0 on a connected fabric) and
    the stale paths are rerouted live.

    ``failure_mode`` picks the cables: ``"random"`` draws seeded
    keep-connected picks (the paper's as-built condition), while
    ``"adversarial"`` fails the worst cables by static what-if
    criticality rank (:func:`repro.analysis.whatif.audit_whatif`) — the
    certified worst case at the same failure count.  Either way the
    mid-run cable's criticality certificate is recorded on the cell and
    on its :class:`~repro.ib.subnet_manager.RerouteReport`.
    """
    if failure_mode not in FAILURE_MODES:
        raise ValueError(
            f"unknown failure_mode {failure_mode!r}; "
            f"expected one of {FAILURE_MODES}"
        )
    keys = list(combo_keys) if combo_keys else [c.key for c in THE_FIVE]
    result = ResilienceResult(
        scale=scale, seed=seed, levels=tuple(levels),
        failure_mode=failure_mode,
    )
    for key in keys:
        combo = get_combination(key)
        base_time: float | None = None
        for level in levels:
            net = _build_plane(combo.topology, scale)
            paper_faults = paper_fault_count(combo.topology, net)
            faults = round(level * paper_faults)
            if faults:
                if failure_mode == "adversarial":
                    _fail_worst_cables(net, combo, faults)
                else:
                    inject_cable_faults(
                        net, faults,
                        seed=derive_seed(seed, "resilience", key, str(level)),
                    )
            engine, sm_kwargs = make_engine(combo)
            sm = OpenSM(net, **sm_kwargs)
            fabric = sm.run(engine)
            n = num_nodes or min(16, net.num_terminals)
            job = make_job(combo, fabric, n, seed=seed)
            program = job.alltoall(msg_bytes)

            timeline = FaultTimeline()
            midrun_cable: int | None = None
            midrun_crit: dict[str, Any] | None = None
            if midrun_failure and len(program.phases) > 1:
                # Audit the routed (possibly degraded) plane *before*
                # the run: the simulator mutates the net, and the event
                # choice must be reproducible either way.
                audit = audit_whatif(fabric)
                if failure_mode == "adversarial":
                    midrun_cable = _worst_surviving_cable(net, audit)
                else:
                    pick = FabricEvent(
                        "fail_cable", phase=1, cable=None,
                        seed=derive_seed(seed, "midrun", key, str(level)),
                    ).resolve_cable(net)  # deterministic dry run
                    midrun_cable = pick.id
                if midrun_cable is not None:
                    midrun_crit = audit.criticality_of(midrun_cable)
                    timeline = FaultTimeline((
                        FabricEvent(
                            "fail_cable", phase=1, cable=midrun_cable,
                        ),
                    ))

            def on_event(events, phase_index, fabric=fabric,
                         engine=engine, sm=sm):
                return sm.resweep(fabric, engine, events=events)

            sim = FlowSimulator(
                net, mode=sim_mode, timeline=timeline,
                on_fabric_event=on_event, reroute=fabric.reroute,
            )
            res = sim.run(program)
            # Stamp the failed cable's static certificate on each
            # re-sweep report that handled it.
            for r in sim.reroute_reports:
                if midrun_crit is not None and any(
                    e.get("cable") == midrun_cable for e in r.events
                ):
                    r.cable_criticality = dict(midrun_crit)
            # Reuse the run's own SimResult for the utilisation readout
            # instead of simulating the program a second time.
            hot = sim.hottest_links(program, top=3, result=res)
            # Static verification of the end state: every pair must
            # still be reachable on the re-swept tables.
            lint = lint_fabric(fabric, rules={"FAB001"})
            unreachable = int(lint.stats.get("blackholed_pairs", 0))

            if base_time is None:
                base_time = res.total_time
            cell = ResilienceCell(
                combo_key=key,
                level=float(level),
                faults_injected=faults,
                paper_faults=paper_faults,
                num_nodes=n,
                time=res.total_time,
                slowdown=res.total_time / base_time if base_time > 0 else 1.0,
                unreachable_pairs=unreachable,
                events_applied=res.events_applied,
                messages_rerouted=res.messages_rerouted,
                paths_changed=sum(
                    r.paths_changed for r in sim.reroute_reports
                ),
                resweep_unreachable=sum(
                    r.num_unreachable for r in sim.reroute_reports
                ),
                reroutes=[r.to_dict() for r in sim.reroute_reports],
                hottest_links=[[int(l), float(u)] for l, u in hot],
                failure_mode=failure_mode,
                midrun_cable=midrun_cable,
                midrun_rank=(
                    midrun_crit["rank"] if midrun_crit else None
                ),
                midrun_of=midrun_crit["of"] if midrun_crit else None,
                midrun_affected_pairs=(
                    midrun_crit["affected_pairs"] if midrun_crit else None
                ),
            )
            result.cells.append(cell)
    return result
