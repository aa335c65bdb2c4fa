"""Capability evaluation: one benchmark, one configuration, one scale.

The paper's capability mode (§4.4.1): exclusive access, one job at a
time, scaling from a single switch (7 nodes, or 4 for power-of-two
codes) by doubling up to the full machine, 10 repetitions each.

:func:`run_capability` reproduces that flow for one :class:`RunSpec`
cell: build the routed plane, place the job, (for PARX) profile the
workload and re-route against the demand file, simulate, and add seeded
run-to-run noise standing in for system noise [32] — the flow model
itself is deterministic, the real machine was not.

A cell is fully described by its :class:`RunSpec`, which is frozen and
JSON-round-trippable so the campaign engine (:mod:`repro.campaign`) can
ship cells to worker processes and persist them in the run ledger.
"""

from __future__ import annotations

import copy
import json
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.analysis import assert_fabric_clean
from repro.analysis.whatif import audit_whatif
from repro.core.errors import ConfigurationError, ReproError
from repro.core.rng import derive_seed, make_rng
from repro.experiments.configs import (
    Combination,
    build_fabric,
    get_combination,
    make_engine,
    make_job,
    mark_preflighted,
    was_preflighted,
)
from repro.ib.fabric import Fabric
from repro.ib.subnet_manager import resweep
from repro.mpi.job import Job
from repro.mpi.profiler import CommunicationProfiler
from repro.sim.engine import FlowSimulator
from repro.topology.faults import FabricEvent, FaultTimeline

#: The paper's capability node counts (7-based and power-of-two tracks).
NODE_COUNTS_7 = (7, 14, 28, 56, 112, 224, 448, 672)
NODE_COUNTS_POW2 = (4, 8, 16, 32, 64, 128, 256, 512)

#: Multiplicative system-noise sigma applied per repetition.
RUN_NOISE_SIGMA = 0.01


@dataclass(frozen=True)
class RunSpec:
    """One capability cell of an experiment sweep, fully serialized.

    Everything :func:`run_capability` needs except the measure callable
    (which is process-local and resolved from the benchmark name by the
    campaign engine).  Frozen so cells can key dictionaries and ride in
    sets; round-trips through JSON for the campaign ledger and worker
    hand-off.
    """

    combo_key: str
    benchmark: str
    num_nodes: int
    reps: int = 3
    scale: int = 1
    seed: int = 0
    sim_mode: str = "dynamic"
    faults: bool = True
    preflight: bool = True
    #: Mid-run fabric events (cable failures / degrades / restores) the
    #: simulator applies at phase boundaries; empty for pristine runs.
    fault_timeline: tuple[FabricEvent, ...] = ()

    @property
    def combo(self) -> Combination:
        """The full combination this cell runs under."""
        return get_combination(self.combo_key)

    @property
    def cell_id(self) -> str:
        """Stable ledger identity of this cell (excludes reps/modes that
        do not change *which* grid point it is)."""
        base = f"{self.combo_key}/{self.benchmark}/n{self.num_nodes}/s{self.scale}"
        if self.fault_timeline:
            base += f"/evt{len(self.fault_timeline)}"
        return base

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        data["fault_timeline"] = [e.to_dict() for e in self.fault_timeline]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunSpec":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigurationError(
                f"unknown RunSpec fields {sorted(extra)}"
            )
        data = dict(data)
        timeline = data.pop("fault_timeline", ())
        events = tuple(
            e if isinstance(e, FabricEvent) else FabricEvent.from_dict(e)
            for e in timeline
        )
        return cls(fault_timeline=events, **data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def with_(self, **changes: Any) -> "RunSpec":
        """A copy with some fields replaced (``dataclasses.replace``)."""
        return replace(self, **changes)


def preflight_fabric(fabric: Fabric, context: str = "") -> None:
    """Static-verification gate run before every simulation.

    Delegates to :func:`repro.analysis.assert_fabric_clean` (the cheap
    correctness rules: black holes, forwarding loops, credit loops, LID
    conflicts) and raises
    :class:`~repro.core.errors.FabricLintError` on any error — a broken
    routing must never silently shape experiment results.

    Certification is tracked by the fabric's *content* cache key
    (combination/scale/faults/seed), not object identity: identical
    configurations lint once per process, a hand-built fabric
    (``cache_key is None``) lints every time, and the campaign ledger
    can persist the certified keys.
    """
    if was_preflighted(fabric.cache_key):
        return
    assert_fabric_clean(fabric, context=context)
    mark_preflighted(fabric.cache_key)


@dataclass
class CapabilityResult:
    """Measurements of one (combination, benchmark, node count) cell."""

    combo_key: str
    benchmark: str
    num_nodes: int
    values: list[float] = field(default_factory=list)
    higher_is_better: bool = False
    #: Fault-timeline accounting (zero / empty for pristine cells).
    events_applied: int = 0
    messages_rerouted: int = 0
    paths_changed: int = 0
    unreachable_pairs: int = 0
    #: Serialized :class:`~repro.ib.subnet_manager.RerouteReport` dicts,
    #: one per re-sweep the run triggered.
    reroutes: list[dict[str, Any]] = field(default_factory=list)
    #: Approximations inside the values: flows the dynamic simulator's
    #: event valve finished early (``events_truncated``) and message
    #: paths the bulk walk refused but the per-pair resolve found
    #: (``resolve_fallbacks``).  All zero for an exact result.
    anomalies: dict[str, int] = field(default_factory=dict)

    @property
    def best(self) -> float:
        return min(self.values) if not self.higher_is_better else max(self.values)


#: Legacy keyword parameters of the pre-RunSpec ``run_capability`` in
#: positional order, for the back-compat shim.
_LEGACY_PARAMS = (
    "measure", "num_nodes", "reps", "scale", "seed", "sim_mode",
    "rank_phases_for_profile", "higher_is_better", "with_faults",
    "preflight",
)


def run_capability(spec, *args, **kwargs) -> CapabilityResult:
    """Measure one benchmark at one scale under one combination.

    Primary form::

        run_capability(spec, measure,
                       rank_phases_for_profile=None,
                       higher_is_better=False)

    where ``spec`` is a :class:`RunSpec` and ``measure(job, sim)``
    returns the benchmark's metric for a single run.

    The pre-1.1 keyword form ``run_capability(combo, benchmark,
    measure=..., num_nodes=..., ...)`` still works through a thin shim
    (deprecated; it will be removed one minor release after 1.1 — see
    README "Migrating to RunSpec").
    """
    if isinstance(spec, RunSpec):
        return _run_capability(spec, *args, **kwargs)
    if not isinstance(spec, Combination):
        raise ConfigurationError(
            f"run_capability expects a RunSpec (or legacy Combination), "
            f"got {type(spec).__name__}"
        )
    warnings.warn(
        "run_capability(combo, benchmark, ...) is deprecated; build a "
        "RunSpec and call run_capability(spec, measure, ...)",
        DeprecationWarning,
        stacklevel=2,
    )
    if args and isinstance(args[0], str):
        benchmark, args = args[0], args[1:]
    else:
        benchmark = kwargs.pop("benchmark")
    params = dict(zip(_LEGACY_PARAMS, args))
    overlap = set(params) & set(kwargs)
    if overlap:
        raise TypeError(
            f"run_capability got multiple values for {sorted(overlap)}"
        )
    params.update(kwargs)
    legacy_spec = RunSpec(
        combo_key=spec.key,
        benchmark=benchmark,
        num_nodes=params.pop("num_nodes"),
        reps=params.pop("reps", 3),
        scale=params.pop("scale", 1),
        seed=params.pop("seed", 0),
        sim_mode=params.pop("sim_mode", "dynamic"),
        faults=params.pop("with_faults", True),
        preflight=params.pop("preflight", True),
    )
    return _run_capability(legacy_spec, params.pop("measure"), **params)


def _run_capability(
    spec: RunSpec,
    measure: Callable[[Job, FlowSimulator], float],
    rank_phases_for_profile=None,
    higher_is_better: bool = False,
) -> CapabilityResult:
    """The real capability flow, RunSpec form.

    For PARX combinations, ``rank_phases_for_profile`` (the workload's
    expanded communication, if the caller has it) is profiled and turned
    into the node-based demand file PARX re-routes with — the paper's
    SAR-style interface; without it PARX routes with the uniform
    profile.
    """
    combo = spec.combo
    result = CapabilityResult(
        combo.key, spec.benchmark, spec.num_nodes,
        higher_is_better=higher_is_better,
    )

    # Placement is part of the configuration: one allocation per cell
    # (the paper pins host lists per experiment, repetitions reuse them).
    fabric = build_fabric(
        combo, scale=spec.scale, seed=spec.seed, with_faults=spec.faults
    )
    job = make_job(
        combo, fabric, spec.num_nodes,
        seed=derive_seed(spec.seed, spec.benchmark),
    )

    demands = None
    if combo.uses_parx and rank_phases_for_profile is not None:
        profiler = CommunicationProfiler()
        profiler.record(rank_phases_for_profile)
        demands = profiler.demands_for_nodes(job.nodes)
        fabric = build_fabric(
            combo, scale=spec.scale, seed=spec.seed,
            with_faults=spec.faults, demands=demands,
        )
        job = Job(fabric, job.nodes, pml=job.pml)

    if spec.preflight:
        preflight_fabric(fabric, context=f"{combo.key}/{spec.benchmark}")

    if spec.fault_timeline:
        # Timeline events mutate the network in place; fabrics are shared
        # through the in-process cache, so this cell degrades a private
        # deep copy instead of poisoning every later cell.
        fabric = copy.deepcopy(fabric)
        job = Job(fabric, job.nodes, pml=job.pml)
        # Re-sweeps recompute with the engine (and, for PARX, the demand
        # file) the plane was originally routed with.
        engine, _ = make_engine(combo, demands)
        # Static criticality of every cable, audited before any timeline
        # event fires; each re-sweep report carries the certificate of
        # the cable(s) it repaired, and the ledger keeps it per cell.
        try:
            whatif = audit_whatif(fabric)
        except ReproError:
            whatif = None

        def on_event(events, phase_index, fabric=fabric):
            report = resweep(fabric, engine, events=events)
            if whatif is not None:
                failed = [
                    cable_id
                    for event, cable_id in sim.events_applied[-len(events):]
                    if event.action == "fail_cable"
                ]
                crits = [
                    c for c in map(whatif.criticality_of, failed)
                    if c is not None
                ]
                if len(crits) == 1:
                    report.cable_criticality = crits[0]
                elif crits:
                    report.cable_criticality = {"cables": crits}
            return report

        sim = FlowSimulator(
            fabric.net,
            mode=spec.sim_mode,
            timeline=FaultTimeline(spec.fault_timeline),
            on_fabric_event=on_event,
            reroute=fabric.reroute,
        )
    else:
        sim = FlowSimulator(fabric.net, mode=spec.sim_mode)
    base_value = None
    noise = make_rng(
        derive_seed(
            spec.seed, "noise", combo.key, spec.benchmark, spec.num_nodes
        )
    )
    for _ in range(spec.reps):
        job.pml.reset()
        if base_value is None:
            base_value = measure(job, sim)
        # System noise: the deterministic flow model yields the
        # noise-free value; repetitions scatter around it.
        result.values.append(
            float(base_value * np.exp(noise.normal(0.0, RUN_NOISE_SIGMA)))
        )
    result.anomalies = {
        "events_truncated": sim.events_truncated,
        "resolve_fallbacks": job.resolve_fallbacks,
    }
    if spec.fault_timeline:
        result.events_applied = len(sim.events_applied)
        result.messages_rerouted = sim.messages_rerouted
        result.reroutes = [r.to_dict() for r in sim.reroute_reports]
        result.paths_changed = sum(r.paths_changed for r in sim.reroute_reports)
        result.unreachable_pairs = sum(
            r.num_unreachable for r in sim.reroute_reports
        )
    return result


def node_counts_for(benchmark_scaling: str, max_nodes: int = 672) -> tuple[int, ...]:
    """The paper's scaling track for a benchmark: 7-based doubling for
    most codes, power-of-two for codes that need it (Table 2 figures)."""
    track = NODE_COUNTS_POW2 if benchmark_scaling == "pow2" else NODE_COUNTS_7
    return tuple(n for n in track if n <= max_nodes)
