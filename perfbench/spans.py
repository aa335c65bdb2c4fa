"""In-memory span tracer and the wrappers that feed it.

A span is ``[name, start_ns, end_ns, parent_index, cell_id]``; spans
live in one list and are reduced to per-layer metrics when the traced
pass ends.  Spans are recorded around calls into each layer's public
functions, wrapped where their callers look them up (module globals of
every loaded ``repro`` module, class attributes for methods, instance
attributes for routing engines).  Boundaries are coarse: per cell,
per routing sweep, per collective expansion, per destination walk, per
fairness solve -- never per message.

A layer's self time is its span time minus the time of its direct
children.  Spans named ``trace.*`` hold the tracer's own bookkeeping;
their time is trace overhead, not layer time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

NAME, START, END, PARENT, CELL = range(5)


class Tracer:
    """Span stack plus named counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: Counter[str] = Counter()
        #: Layer boundaries :func:`instrument` could not find.
        self.missing: list[str] = []
        self._stack: list[int] = []
        self.cell_id: str | None = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.cell_id]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = time.perf_counter_ns()
            self._stack.pop()

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        out: dict[str, float] = {}
        for i, rec in enumerate(self.spans):
            own = rec[END] - rec[START] - child_ns[i]
            out[rec[NAME]] = out.get(rec[NAME], 0.0) + own / 1e9
        return out

    def calls(self) -> Counter[str]:
        return Counter(rec[NAME] for rec in self.spans)

    def check_nesting(self) -> list[str]:
        """Problems with the span tree; empty when every span is closed,
        lies inside its parent, shares its parent's cell and has
        non-negative self time."""
        problems: list[str] = []
        child_ns = [0] * len(self.spans)
        for i, rec in enumerate(self.spans):
            if rec[END] < rec[START]:
                problems.append(f"span {i} {rec[NAME]} ends before it starts")
            p = rec[PARENT]
            if p < 0:
                continue
            parent = self.spans[p]
            if not (parent[START] <= rec[START] and rec[END] <= parent[END]):
                problems.append(
                    f"span {i} {rec[NAME]} lies outside parent {parent[NAME]}"
                )
            # Cells begin under the campaign span; below a cell the id
            # is inherited.
            if parent[NAME] != "campaign.run_campaign" and rec[CELL] != parent[CELL]:
                problems.append(f"span {i} {rec[NAME]} changed cell id")
            child_ns[p] += rec[END] - rec[START]
        for i, rec in enumerate(self.spans):
            if rec[END] - rec[START] - child_ns[i] < 0:
                problems.append(f"span {i} {rec[NAME]} has negative self time")
        return problems


def traced(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    after: Callable[[Any, tuple, dict], None] | None = None,
) -> Callable[..., Any]:
    """``fn`` inside a span called ``name``.

    ``after(result, args, kwargs)`` runs inside the span to update
    counters.  A call made while a span of the same name is innermost
    (a collective built from another) is passed through untraced, so
    nothing is counted twice.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer.innermost() == name:
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
        return result

    return wrapper


class Patches:
    """Attribute replacements that :meth:`undo` restores in reverse.

    A boundary that no longer exists is recorded in ``missing`` instead
    of failing the run; its metrics then read 0.
    """

    def __init__(self, missing: list[str]) -> None:
        self._saved: list[tuple[Any, str, Any]] = []
        self.missing = missing

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function(self, fn: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.set(mod, attr, wrapper)
                    found = True
        if not found:
            self.missing.append(getattr(fn, "__qualname__", repr(fn)))

    def method(
        self, cls: type, attr: str, wrap: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``cls.attr`` (plain or classmethod) with ``wrap(fn)``."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        if isinstance(raw, classmethod):
            self.set(cls, attr, classmethod(wrap(raw.__func__)))
        else:
            self.set(cls, attr, wrap(raw))

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _distinct_routes(program: Any) -> int:
    return len({
        (m.src, m.dst, m.path) for ph in program.phases for m in ph.messages
    })


@contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Wrap the layer boundaries of the campaign path for one pass."""
    from repro.analysis import assert_fabric_clean
    from repro.analysis.whatif import audit_whatif
    from repro.campaign import engine as campaign_engine
    from repro.campaign.ledger import Ledger
    from repro.experiments import configs
    from repro.experiments.runner import RunSpec
    from repro.ib import subnet_manager
    from repro.ib.fabric import Fabric
    from repro.mpi import collectives
    from repro.mpi.job import Job
    from repro.mpi.profiler import CommunicationProfiler
    from repro.sim.engine import FlowSimulator
    from repro.sim.fairness import FairnessProblem
    from repro.topology import t2hx

    c = tracer.counters
    p = Patches(tracer.missing)

    def span(name: str, after=None) -> Callable[[Callable], Callable]:
        return lambda fn: traced(tracer, name, fn, after)

    def wrap(fn: Callable, name: str, after=None) -> None:
        p.function(fn, traced(tracer, name, fn, after))

    # campaign: one span per cell (carrying the cell id) and per append.
    execute_cell = campaign_engine.execute_cell

    # The cell id stays set after the cell returns, so the ledger append
    # that books the cell carries it too.
    def cell(payload: dict[str, Any]) -> dict[str, Any]:
        spec = RunSpec.from_dict(payload["spec"])
        tracer.cell_id = f"{spec.cell_id}/{spec.sim_mode}"
        with tracer.span("campaign.cell"):
            return execute_cell(payload)

    run_campaign = span("campaign.run_campaign")(campaign_engine.run_campaign)

    def campaign(*args: Any, **kwargs: Any):
        try:
            return run_campaign(*args, **kwargs)
        finally:
            tracer.cell_id = None

    p.function(execute_cell, cell)
    p.function(campaign_engine.run_campaign, campaign)
    p.method(Ledger, "append", span("campaign.ledger_append"))

    # workloads: the benchmark's measure callable, resolved per cell.
    resolve_measure = campaign_engine.resolve_measure

    def resolve(spec):
        measure, profile, hib = resolve_measure(spec)
        return span("workloads.measure")(measure), profile, hib

    p.function(resolve_measure, resolve)

    # experiments / topology / ib / routing: plane construction.
    wrap(configs.build_fabric, "experiments.build_fabric")
    wrap(t2hx.t2hx_hyperx, "topology.build")
    wrap(t2hx.t2hx_fattree, "topology.build")
    p.method(Fabric, "load", span("ib.fabric_load"))
    p.method(subnet_manager.OpenSM, "run", span("ib.sm_run"))
    wrap(subnet_manager.assign_layers, "ib.vl_layering")
    make_engine = configs.make_engine

    def engine_factory(*args: Any, **kwargs: Any):
        engine, sm_kwargs = make_engine(*args, **kwargs)
        engine.compute = span("routing.compute")(engine.compute)
        engine.recompute_destinations = span("routing.recompute")(
            engine.recompute_destinations
        )
        return engine, sm_kwargs

    p.function(make_engine, engine_factory)

    def count_resweep(report, args, kwargs) -> None:
        c["ib.resweeps"] += 1
        c["ib.dests_recomputed"] += report.dests_recomputed

    wrap(subnet_manager.resweep, "ib.resweep", count_resweep)
    p.method(Fabric, "dest_paths", span("ib.dest_paths"))

    # analysis: preflight lint and the what-if audit.
    wrap(assert_fabric_clean, "analysis.preflight")
    wrap(audit_whatif, "analysis.whatif")

    # mpi: collective expansion, path materialisation, profiling.
    def count_expand(phases, args, kwargs) -> None:
        if isinstance(phases, list):
            c["mpi.phases"] += len(phases)
            c["mpi.messages"] += sum(len(rp) for rp in phases)

    for attr, fn in list(vars(collectives).items()):
        if (callable(fn) and not attr.startswith("_")
                and getattr(fn, "__module__", "") == collectives.__name__):
            wrap(fn, "mpi.expand", count_expand)

    materialize = span("mpi.materialize")(Job.materialize)

    def materialize_counted(self, *args: Any, **kwargs: Any):
        program = materialize(self, *args, **kwargs)
        with tracer.span("trace.bookkeeping"):
            c["mpi.materialized_messages"] += sum(
                len(ph.messages) for ph in program.phases
            )
            c["mpi.distinct_paths"] += _distinct_routes(program)
        return program

    p.set(Job, "materialize", functools.wraps(materialize)(materialize_counted))
    for attr in ("record", "demands_for_nodes"):
        p.method(CommunicationProfiler, attr, span("mpi.profile"))

    # sim: whole program runs and the fairness solves inside them.
    def count_run(result, args, kwargs) -> None:
        c["sim.phases"] += len(result.phases)
        c["sim.events_truncated"] += result.events_truncated
        c["sim.messages_rerouted"] += result.messages_rerouted

    p.method(FlowSimulator, "run", span("sim.run", count_run))
    for attr in ("rates", "solve_classes"):
        p.method(FairnessProblem, attr, span("sim.solve"))
    try:
        yield
    finally:
        p.undo()
