"""The benchmark's workloads: fixed grids of campaign cells.

Every workload is a tuple of :class:`~repro.campaign.spec.CampaignSpec`
grids run back to back through ``run_campaign``, plus the base planes
that set-up routes and stores in the fabric cache.  Node counts are
given for the full 672-node machine (``scale=1``) and divided by
``scale**2`` for the smaller planes the self-test uses.  The workload
seed becomes ``RunSpec.seed`` (cable faults, random placement, run
noise) and the seed of the timeline's cable picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.campaign.spec import CampaignSpec, capability_grid, engine_race_grid
from repro.topology.faults import FabricEvent
from repro.topology.t2hx import t2hx_hyperx

#: Benchmarks each PARX cell profiles and re-routes for: a halo proxy
#: app and a log-depth collective.
PARX_BENCHMARKS = ("CoMD", "imb:Allreduce")

#: Phases the fault timeline fires at.  The shortest program of the
#: grid (Allreduce at 224 nodes) has more phases than the last of
#: them, so all three events fire in every cell, as each cell checks.
FAIL_PHASES = (1, 3)
RESTORE_PHASE = 5


@dataclass(frozen=True)
class Workload:
    name: str
    #: Combination keys set-up routes and stores before the first cell.
    base_planes: tuple[str, ...]
    build: Callable[[int, int], tuple[CampaignSpec, ...]]
    #: Extra per-record check; returns a problem or ``None``.
    check: Callable[[dict[str, Any]], str | None]


def _nodes(n: int, scale: int) -> int:
    return n // (scale * scale)


def _a2a_warm(seed: int, scale: int) -> tuple[CampaignSpec, ...]:
    # RunSpec.cell_id ignores sim_mode, so the static and dynamic cells
    # of one plane would collide in one spec: each mode is its own grid.
    return tuple(
        CampaignSpec(
            f"a2a-warm-{mode}",
            capability_grid(
                ("hx-dfsssp-linear", "ft-ftree-linear"),
                ("imb:Alltoall",),
                (_nodes(336, scale),), scale=scale, seed=seed, sim_mode=mode,
            ),
            max_attempts=1,
        )
        for mode in ("static", "dynamic")
    )


def _parx_profiled(seed: int, scale: int) -> tuple[CampaignSpec, ...]:
    cells = capability_grid(
        ("hx-parx-clustered",), PARX_BENCHMARKS,
        (_nodes(448, scale), _nodes(672, scale)),
        scale=scale, seed=seed, sim_mode="dynamic",
    )
    return (CampaignSpec("parx-profiled", cells, max_attempts=1),)


def fault_timeline(seed: int, scale: int) -> tuple[FabricEvent, ...]:
    """Fail two seeded cables, then restore the first one.

    The restore names the first failure's cable explicitly: it is the
    cable a seeded pick chooses on the freshly faulted plane, which is
    what every cell's plane is when the first event fires.
    """
    first = FabricEvent("fail_cable", phase=FAIL_PHASES[0], seed=seed)
    net = t2hx_hyperx(with_faults=True, seed=seed, scale=scale)
    cable = first.resolve_cable(net).id
    return (
        first,
        FabricEvent("fail_cable", phase=FAIL_PHASES[1], seed=seed),
        FabricEvent("restore_cable", phase=RESTORE_PHASE, cable=cable),
    )


def _fault_timeline(seed: int, scale: int) -> tuple[CampaignSpec, ...]:
    cells = engine_race_grid(
        ("fthx", "dfsssp"), ("imb:Alltoall:65536", "imb:Allreduce"),
        (_nodes(224, scale),),
        scale=scale, seed=seed, sim_mode="dynamic",
        fault_timeline=fault_timeline(seed, scale),
    )
    return (CampaignSpec("fault-timeline", cells, max_attempts=1),)


def _all_cache_hits(record: dict[str, Any]) -> str | None:
    routed = record.get("fabric_cache", {}).get("routed")
    return None if routed == 0 else f"expected a warm plane, routed={routed}"


def _all_events_fired(record: dict[str, Any]) -> str | None:
    want = len(record["spec"]["fault_timeline"])
    got = record.get("reroutes", {}).get("events_applied")
    return None if got == want else f"{got} of {want} timeline events fired"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "a2a-warm", ("hx-dfsssp-linear", "ft-ftree-linear"),
            _a2a_warm, _all_cache_hits,
        ),
        Workload(
            "parx-profiled", ("hx-parx-clustered",),
            _parx_profiled, lambda record: None,
        ),
        Workload(
            "fault-timeline", ("hx-fthx-linear", "hx-dfsssp-linear"),
            _fault_timeline, _all_events_fired,
        ),
    )
}
