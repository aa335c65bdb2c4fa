"""The phase-stepping flow simulator.

Executes a :class:`~repro.sim.flows.Program`: for every phase, its
messages become concurrent flows that share link bandwidth max-min
fairly; the phase ends when the last message lands.  Two fidelity modes:

* ``dynamic`` (default) — a discrete-event loop *within* each phase:
  when a flow finishes, the remaining flows' rates are recomputed, so
  late flows inherit freed bandwidth.  Exact for the flow model.
* ``static`` — one fairness computation per phase; each flow keeps its
  initial rate.  A conservative (never optimistic) approximation that
  is much cheaper on full-machine all-to-alls; benchmarks that sweep
  hundreds of configurations use it.

Both modes add the constant latency part (software overhead + per-hop
pipeline) on top of the serialisation time.

Phases are independent until the fabric changes, so :meth:`FlowSimulator.run`
works on *segments*: maximal runs of phases with no timeline event
between them.  A segment's phases are simulated together, in chunks of
at most ``_CHUNK_MESSAGES`` messages, as the *blocks* of one
block-diagonal :class:`~repro.sim.fairness.FairnessProblem` — one block
per phase.  Every block runs the arithmetic it would run alone (in
dynamic mode the blocks' event loops step in lockstep, each with its
own clock and valve count), so results are bit-identical to simulating
the phases one at a time while numpy's per-call cost is paid once per
step, not once per phase.  :meth:`FlowSimulator.run_phase` is a
one-block segment.

The simulator reads link capacities through a live
:class:`~repro.topology.state.FabricState` view, refreshed at every
phase boundary, so fault injection after construction is honoured.  A
:class:`~repro.topology.faults.FaultTimeline` schedules mid-run events
(cable failures, degrades, restores) at phase boundaries; paths that
cross a disabled link are rerouted through the ``reroute`` callback when
one is provided, and rejected with a stale-LFT diagnostic otherwise —
a dead cable must never simulate at line rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.errors import SimulationError
from repro.sim.batch import MessageBatch, run_starts, spread
from repro.sim.fairness import FairnessProblem
from repro.sim.flows import Message, Phase, Program
from repro.sim.latency import QDR_LATENCY, LatencyModel
from repro.topology.faults import FabricEvent, FaultTimeline
from repro.topology.network import Network
from repro.topology.state import FabricState

#: Dynamic-mode safety valve: after this many rate recomputations per
#: phase the remaining flows are finished at their current rates.
_MAX_EVENTS_PER_PHASE = 2000

#: Most messages one block-diagonal fairness problem holds; longer
#: segments run as several problems, which keeps peak memory flat.
_CHUNK_MESSAGES = 8192

#: Called after the simulator applies fabric events before a phase:
#: ``(events, phase_index) -> report or None``.  The usual hook is an SM
#: re-sweep (:func:`repro.ib.subnet_manager.resweep`); whatever it
#: returns is collected in :attr:`FlowSimulator.reroute_reports`.
FabricEventHook = Callable[[list[FabricEvent], int], Any]

#: Maps ``(src, dst, lid_index)`` of a message with a stale path to a
#: fresh link-id path through the same destination LID (after a
#: re-sweep), or ``None`` when the pair is unreachable.
RerouteFn = Callable[[int, int, int], Sequence[int] | None]


@dataclass(slots=True)
class PhaseResult:
    """Timing of one executed phase."""

    label: str
    duration: float
    num_messages: int
    bytes_moved: float
    #: Serialisation time of the phase: when the last flow drained,
    #: excluding the constant latency part.  Utilisation accounting
    #: divides by this, not by wall time with compute gaps.
    transfer_time: float = 0.0
    #: Per-message completion times, aligned with the phase's message
    #: list; only populated when the simulator collects details.
    message_times: list[float] | None = None
    #: Link ids this phase moved bytes over, and the busy seconds each
    #: accumulated (bytes / capacity *in effect while the phase ran*).
    #: Utilisation accounting sums these per-phase snapshots, so a
    #: mid-run degrade/restore is charged against the right denominator.
    #: ``None`` only on hand-built results that predate the fields.
    link_ids: np.ndarray | None = None
    link_busy: np.ndarray | None = None
    #: Flows the dynamic mode's safety valve finished at their current
    #: rates after ``_MAX_EVENTS_PER_PHASE`` rate recomputations (0 in
    #: static mode and whenever the event loop converged).  Non-zero
    #: means the phase's late completions are approximate.
    events_truncated: int = 0
    #: Rate recomputations (fairness solves) the phase took: 1 in static
    #: mode, one per completion event (plus the valve's) in dynamic mode.
    solves: int = 0



@dataclass(slots=True)
class SimResult:
    """Timing of a whole program."""

    label: str
    total_time: float
    phases: list[PhaseResult] = field(default_factory=list)
    #: Fabric events the simulator's timeline applied during this run.
    events_applied: int = 0
    #: Messages whose stale paths were healed via the reroute callback.
    messages_rerouted: int = 0
    #: Sum of the phases' :attr:`PhaseResult.events_truncated` — flows
    #: whose finish times the dynamic safety valve approximated.
    events_truncated: int = 0

    @property
    def bytes_moved(self) -> float:
        return sum(p.bytes_moved for p in self.phases)

    @property
    def transfer_time(self) -> float:
        """Total serialisation time across phases (no gaps, no latency)."""
        return sum(p.transfer_time for p in self.phases)


class FlowSimulator:
    """Max-min fair flow simulator over one network plane.

    Parameters
    ----------
    timeline:
        Optional :class:`~repro.topology.faults.FaultTimeline`; its
        events are applied (once per simulator) at the phase boundary
        they name, before the phase runs.
    on_fabric_event:
        Hook invoked with ``(events, phase_index)`` right after events
        are applied — typically an SM re-sweep; a non-``None`` return is
        appended to :attr:`reroute_reports`.
    reroute:
        Given ``(src, dst, lid_index)`` of a message whose path crosses
        a disabled link, returns a fresh path through the same
        destination LID (from the re-swept fabric) or ``None`` when the
        pair is unreachable.  Without it, stale paths raise.
    """

    def __init__(
        self,
        net: Network,
        latency: LatencyModel = QDR_LATENCY,
        mode: str = "dynamic",
        timeline: FaultTimeline | Sequence[FabricEvent] | None = None,
        on_fabric_event: FabricEventHook | None = None,
        reroute: RerouteFn | None = None,
    ) -> None:
        if mode not in ("dynamic", "static"):
            raise SimulationError(f"unknown mode {mode!r}")
        self.net = net
        self.latency = latency
        self.mode = mode
        self.state = FabricState(net)
        if timeline is not None and not isinstance(timeline, FaultTimeline):
            timeline = FaultTimeline(tuple(timeline))
        self.timeline = timeline or FaultTimeline()
        self.on_fabric_event = on_fabric_event
        self.reroute = reroute
        #: ``(event, representative link id)`` pairs, in firing order.
        self.events_applied: list[tuple[FabricEvent, int]] = []
        self.messages_rerouted = 0
        #: Flows the dynamic safety valve approximated, over all runs.
        self.events_truncated = 0
        #: Whatever ``on_fabric_event`` returned, per event batch
        #: (RerouteReports when the hook is an SM re-sweep).
        self.reroute_reports: list[Any] = []
        self._fired: set[int] = set()  # timeline indices already applied
        # Per-link "joins two switches" mask for vectorised hop counts.
        # Link endpoints are immutable and links are append-only, so the
        # link count alone keys the cache (unlike capacities, which need
        # the version counter).
        self._swsw_mask: np.ndarray = np.empty(0, dtype=bool)

    @property
    def _capacity(self) -> np.ndarray:
        """Live per-link capacities (back-compat alias for the state view)."""
        return self.state.capacities

    # --- public API -----------------------------------------------------------
    def run(self, program: Program, collect_messages: bool = False) -> SimResult:
        """Execute a program; returns per-phase and total timing.

        Timeline events scheduled for phase ``i`` fire just before phase
        ``i`` is simulated (events past the last phase never fire); each
        event fires at most once per simulator, so repeated ``run`` calls
        do not compound degrades.

        The phases between two firings form a *segment*: its events
        fire and the hook runs, the whole segment is healed, and then
        its phases are simulated as blocks of one fairness problem (see
        :meth:`_run_segment`).
        """
        result = SimResult(label=program.label, total_time=0.0)
        events_before = len(self.events_applied)
        rerouted_before = self.messages_rerouted
        phases = program.phases
        start = 0
        while start < len(phases):
            fired = self._apply_events(start)
            if fired and self.on_fabric_event is not None:
                report = self.on_fabric_event(fired, start)
                if report is not None:
                    self.reroute_reports.append(report)
            stop = min(
                [e.phase for i, e in enumerate(self.timeline)
                 if i not in self._fired] + [len(phases)]
            )
            segment = [self._heal_phase(ph) for ph in phases[start:stop]]
            result.phases += self._run_segment(segment, collect_messages)
            start = stop
        for i, pr in enumerate(result.phases):
            result.total_time += pr.duration
            result.events_truncated += pr.events_truncated
            if i + 1 < len(phases):
                result.total_time += program.compute_between_phases
        self.events_truncated += result.events_truncated
        result.events_applied = len(self.events_applied) - events_before
        result.messages_rerouted = self.messages_rerouted - rerouted_before
        return result

    def run_phase(self, phase: Phase, collect_messages: bool = False) -> PhaseResult:
        """Execute one synchronised round of messages (a one-block segment).

        Works on the phase's :class:`~repro.sim.batch.MessageBatch`
        arrays only; no message objects are built.
        """
        return self._run_segment([phase], collect_messages)[0]

    def link_utilization(
        self, program: Program, result: SimResult | None = None
    ) -> dict[int, float]:
        """Average utilisation (0..1) of every link a program touches.

        Utilisation = bytes carried / (capacity x transfer time), where
        transfer time is the sum of per-phase serialisation times —
        compute gaps and the constant latency floor carry no bytes, so
        counting them would under-report hot links in multi-phase
        programs.  This mirrors the paper's port-counter methodology
        (section 2.3's cable-filter criterion and the ibprof-based
        profiling both read hardware counters like this).

        Bytes are charged against the capacity *in effect while each
        phase ran* (the per-phase busy-seconds snapshots the run
        recorded), so a :class:`~repro.topology.faults.FaultTimeline`
        degrade or restore mid-run divides each phase's bytes by that
        phase's capacity — not by whatever the capacity happens to be
        after the run.

        Pass a ``result`` from a previous :meth:`run` of the *same*
        program to reuse its transfer time instead of simulating again —
        one run then yields both timing and utilisation.
        """
        if result is None:
            result = self.run(program)
        elif len(result.phases) != len(program.phases):
            raise SimulationError(
                f"program has {len(program.phases)} phases but the supplied "
                f"result recorded {len(result.phases)}; pass the result of "
                "running this same program"
            )
        transfer = result.transfer_time
        if transfer <= 0:
            return {}
        caps = self.state.capacities
        if all(pr.link_ids is not None for pr in result.phases):
            busy_total = np.zeros(len(caps))
            for pr in result.phases:
                busy_total[pr.link_ids] += pr.link_busy
            return {
                int(l): float(busy_total[l] / transfer)
                for l in np.flatnonzero(busy_total)
            }
        # Hand-built results without per-phase snapshots: accumulate
        # bytes via the shared batch kernel and divide by the current
        # capacities (the only view available after the fact).
        bytes_total = np.zeros(len(caps))
        for phase in program.phases:
            bytes_total += phase.batch.bytes_per_link(len(caps))
        return {
            int(l): float(bytes_total[l] / (caps[l] * transfer))
            for l in np.flatnonzero(bytes_total)
        }

    def hottest_links(
        self, program: Program, top: int = 5, result: SimResult | None = None
    ) -> list[tuple[int, float]]:
        """The ``top`` most utilised links of a program, hottest first.

        ``result`` is forwarded to :meth:`link_utilization`: supply the
        program's existing :class:`SimResult` to avoid a second run.
        """
        util = self.link_utilization(program, result=result)
        # Ties break on link id, so the cut at ``top`` never depends on
        # dict insertion order.
        return sorted(util.items(), key=lambda kv: (-kv[1], kv[0]))[:top]

    def phase_bandwidths(self, phase: Phase) -> np.ndarray:
        """Observable bandwidth per message of a concurrent phase.

        The mpiGraph-style metric, in batch row order: payload divided
        by completion time (including the latency floor).  Zero-byte
        messages report 0.
        """
        pr = self.run_phase(phase, collect_messages=True)
        times = np.asarray(pr.message_times, dtype=float)
        sizes = phase.batch.sizes
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where((sizes > 0) & (times > 0), sizes / times, 0.0)

    def pair_bandwidths(
        self, phase: Phase
    ) -> list[tuple[Message, float]]:
        """:meth:`phase_bandwidths` paired with the message objects."""
        return list(zip(phase.messages, self.phase_bandwidths(phase).tolist()))

    # --- fault timeline ----------------------------------------------------------
    def _apply_events(self, phase_index: int) -> list[FabricEvent]:
        """Fire all not-yet-applied events due at or before ``phase_index``."""
        fired: list[FabricEvent] = []
        for idx, event in enumerate(self.timeline):
            if idx in self._fired or event.phase > phase_index:
                continue
            cable = event.apply(self.net)
            self._fired.add(idx)
            self.events_applied.append((event, cable.id))
            fired.append(event)
        return fired

    @staticmethod
    def _rows_crossing(batch: MessageBatch, mask: np.ndarray) -> np.ndarray:
        """Rows of ``batch`` whose path crosses a link set in ``mask``."""
        csum = np.concatenate(([0], mask[batch.flat].cumsum()))
        return np.flatnonzero(csum[batch.ptr[1:]] > csum[batch.ptr[:-1]])

    def _heal_phase(self, phase: Phase) -> Phase:
        """Replace stale paths over disabled links via the reroute callback.

        Only the dead rows are re-resolved (each through the LID index it
        was materialised with); their new paths are spliced into a copy
        of the batch.  Without a callback the phase is returned untouched
        and :meth:`run_phase` raises the stale-LFT diagnostic instead.
        """
        if self.reroute is None or not self.state.disabled:
            return phase
        batch = phase.batch
        rows = self._rows_crossing(batch, self.state.disabled_mask).tolist()
        if not rows:
            return phase
        paths = []
        for r in rows:
            src, dst = int(batch.src[r]), int(batch.dst[r])
            dead = self.state.disabled_on(batch.path(r))
            new_path = self.reroute(src, dst, int(batch.lid_index[r]))
            if new_path is None:
                raise SimulationError(
                    f"message {src}->{dst} in phase {phase.label!r} "
                    f"cannot be rerouted: pair unreachable after cable "
                    f"failure (dead link(s) {dead})"
                )
            still_dead = self.state.disabled_on(new_path)
            if still_dead:
                raise SimulationError(
                    f"reroute for message {src}->{dst} still crosses "
                    f"disabled link(s) {still_dead}; the forwarding "
                    "tables were not re-swept after the failure"
                )
            paths.append(new_path)
        self.messages_rerouted += len(rows)
        return Phase(label=phase.label, batch=batch.with_paths(rows, paths))

    def _check_paths(self, phase: Phase) -> None:
        """Refuse stale paths over dead links and flows that cannot progress.

        The scan is a pair of mask gathers over the phase's flattened
        link-id paths; only the (cold) failure path walks one message in
        Python to name the offending links.
        """
        dis = self.state.disabled_mask
        npos = self.state.nonpositive_mask
        if not (dis.any() or npos.any()):
            return
        batch = phase.batch
        dead = self._rows_crossing(batch, dis)
        if dead.size:
            i = int(dead[0])
            raise SimulationError(
                f"message {batch.src[i]}->{batch.dst[i]} in phase "
                f"{phase.label!r} uses disabled link(s) "
                f"{self.state.disabled_on(batch.path(i))}: its path predates "
                "a cable failure, so the forwarding table entry is stale. "
                "Re-sweep the fabric (OpenSM.resweep) and rebuild the "
                "program's paths before simulating."
            )
        starved = self._rows_crossing(batch, npos)
        starved = starved[batch.sizes[starved] > 0]
        if starved.size:
            i = int(starved[0])
            raise SimulationError(
                f"message {batch.src[i]}->{batch.dst[i]} in phase "
                f"{phase.label!r} is starved: link(s) "
                f"{self.state.nonpositive_on(batch.path(i))} on its path "
                "have zero capacity, so the flow would never finish"
            )

    # --- internals ---------------------------------------------------------------
    def _run_segment(
        self, phases: Sequence[Phase], collect_messages: bool
    ) -> list[PhaseResult]:
        """Simulate phases that no fabric event separates.

        Phases of a segment see one fabric, so they are independent
        fairness problems: each runs in chunks of at most
        ``_CHUNK_MESSAGES`` messages, one block per phase, through one
        block-diagonal :class:`~repro.sim.fairness.FairnessProblem`.
        Every block runs the arithmetic it would run alone, so results
        are bit-identical to simulating the phases one at a time.
        """
        out: list[PhaseResult] = []
        chunk: list[Phase] = []
        size = 0
        for phase in phases:
            if chunk and size + phase.batch.n > _CHUNK_MESSAGES:
                out += self._run_blocks(chunk, collect_messages)
                chunk, size = [], 0
            chunk.append(phase)
            size += phase.batch.n
        if chunk:
            out += self._run_blocks(chunk, collect_messages)
        return out

    def _run_blocks(
        self, phases: list[Phase], collect_messages: bool
    ) -> list[PhaseResult]:
        """One fairness problem for ``phases``, one block per non-empty phase.

        Errors surface as if the phases ran in order: a phase's stale
        or starved path is raised only after every earlier phase ran
        clean (an earlier phase's own error wins).
        """
        live = [ph for ph in phases if ph.batch.n]
        if live:
            # Every mutation — including direct ``link.capacity = x``
            # field writes, which bump the version via the Link setters —
            # moves the version counter, so the cheap check suffices.
            self.state.refresh()
            for j, phase in enumerate(live):
                try:
                    self._check_paths(phase)
                except SimulationError:
                    self._run_blocks(live[:j], collect_messages)
                    raise
            batch = MessageBatch.concat([ph.batch for ph in live])
            block = np.repeat(np.arange(len(live)), [ph.batch.n for ph in live])
            const = self._constant_times(batch)
            caps = self.state.capacities
            problem = FairnessProblem(
                None, caps, prebuilt_flat=(batch.lens, batch.flat),
                blocks=block,
            )
            if self.mode == "static":
                finish = self._static_finish(batch, problem)
                truncated = np.zeros(len(live), dtype=np.intp)
                solves = np.ones(len(live), dtype=np.intp)
            else:
                finish, truncated, solves = self._dynamic_finish(
                    batch, problem, block, len(live)
                )
            times = const + finish
            ends = np.cumsum([ph.batch.n for ph in live]).tolist()
        out: list[PhaseResult] = []
        b = 0
        for phase in phases:
            n = phase.batch.n
            if n == 0:
                out.append(PhaseResult(
                    label=phase.label,
                    duration=0.0,
                    num_messages=0,
                    bytes_moved=0.0,
                    transfer_time=0.0,
                    message_times=[] if collect_messages else None,
                    link_ids=np.empty(0, dtype=np.intp),
                    link_busy=np.empty(0),
                ))
                continue
            s, e = ends[b] - n, ends[b]
            # Per-phase busy-seconds snapshot: bytes over each link
            # divided by the capacity in effect *now*, while the phase's
            # bytes move.  ``_check_paths`` already refused flows over
            # zero-capacity links, so every touched link divides by a
            # positive capacity.
            bytes_on = phase.batch.bytes_per_link(len(caps))
            touched = np.flatnonzero(bytes_on)
            out.append(PhaseResult(
                label=phase.label,
                duration=float(times[s:e].max()),
                num_messages=n,
                bytes_moved=float(phase.batch.sizes.sum()),
                transfer_time=float(finish[s:e].max()),
                message_times=(
                    times[s:e].tolist() if collect_messages else None
                ),
                link_ids=touched,
                link_busy=bytes_on[touched] / caps[touched],
                events_truncated=int(truncated[b]),
                solves=int(solves[b]),
            ))
            b += 1
        return out

    def _constant_times(self, batch: MessageBatch) -> np.ndarray:
        """Latency floor per message: software overhead + per-hop pipeline.

        Switch-switch hops come from a cumsum-difference over the flat
        link array — one pass, no per-path Python loop.
        """
        hop_csum = np.concatenate(
            ([0], self._switch_switch_mask()[batch.flat].cumsum())
        ).astype(np.intp)
        hops = hop_csum[batch.ptr[1:]] - hop_csum[batch.ptr[:-1]]
        return self.latency.constant_times(hops, batch.overheads)

    def _switch_switch_mask(self) -> np.ndarray:
        """Per-link-id bool array: link connects two switches.

        Gathered from the cached switch graph's per-link endpoint
        arrays — two vectorised compares instead of a Python generator
        over every link.  Endpoint kinds are immutable, so any graph
        version yields the same mask.
        """
        n = len(self.net.links)
        if len(self._swsw_mask) != n:
            g = self.net.switch_graph()
            self._swsw_mask = (
                (g.index[g.link_src_node] >= 0) & (g.link_dst_index >= 0)
            )
        return self._swsw_mask

    def _raise_if_starved(
        self, batch: MessageBatch, idx: np.ndarray, bad: np.ndarray
    ) -> None:
        """Turn a non-finite time-to-finish into a named error.

        A flow with max-min rate 0 has infinite time-to-finish; the old
        behaviour mapped that to 0.0, so starved flows "completed"
        instantly — the exact opposite of the truth.  ``idx`` is in
        flow order, so the first bad flow is in the lowest bad block.
        (Paths over dead or zero-capacity links never get here, so a
        bad flow is a payload-carrying link-less one, which every block
        reaches on the same lockstep step.)
        """
        first = int(idx[int(np.flatnonzero(bad)[0])])
        raise SimulationError(
            f"flow {batch.src[first]}->{batch.dst[first]} "
            f"({batch.sizes[first]:.0f} B) is starved: "
            "its max-min fair rate is 0, so it would never finish"
        )

    def _static_finish(
        self, batch: MessageBatch, problem: FairnessProblem
    ) -> np.ndarray:
        sizes = batch.sizes
        rates = problem.rates()
        with np.errstate(invalid="ignore"):
            finish = np.where(sizes > 0, sizes / rates, 0.0)
        bad = ~np.isfinite(finish)
        if bad.any():
            self._raise_if_starved(batch, np.arange(batch.n), bad)
        return finish

    def _dynamic_finish(
        self,
        batch: MessageBatch,
        problem: FairnessProblem,
        block: np.ndarray,
        n_blocks: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Finish times, plus per block the valve-truncated flows and the
        rate recomputations.

        Every block's event loop steps in lockstep: one
        :meth:`~repro.sim.fairness.FairnessProblem.solve_classes` call
        re-rates every block that still has flows, each block advances
        its own clock by its own next completion (a segmented min), and
        the ``_MAX_EVENTS_PER_PHASE`` valve counts per block — all
        blocks start together, so they reach it on the same step.
        """
        sizes = batch.sizes
        finish = np.zeros(batch.n)
        # The loop state lives in arrays aligned with the *active* flow
        # subset (``idx`` maps back to message order, ``blk`` to the
        # block) and shrinks as flows complete; the per-class
        # multiplicities are maintained incrementally, so one step is a
        # handful of O(active) numpy ops plus the class-level solve.
        idx = np.flatnonzero(sizes > 0)
        rem = sizes[idx]
        tol = 1e-6 * rem + 1e-9
        fc = problem.flow_class[idx]
        blk = block[idx]
        linked = fc >= 0
        all_linked = bool(linked.all())
        counts = np.bincount(
            fc if all_linked else fc[linked], minlength=problem.n_classes
        ).astype(float)
        now = np.zeros(n_blocks)
        truncated = np.zeros(n_blocks, dtype=np.intp)
        # Solves a flow's block had run when the flow left the loop (a
        # block takes part in every step until its last flow leaves).
        left_at = np.zeros(batch.n, dtype=np.intp)

        def step_rates() -> tuple[np.ndarray, np.ndarray]:
            crates = problem.solve_classes(counts)
            if all_linked:
                rates = crates[fc]
            else:
                rates = np.where(linked, crates[np.maximum(fc, 0)], np.inf)
            ttf = rem / rates
            if not np.isfinite(ttf).all():
                self._raise_if_starved(batch, idx, ~np.isfinite(ttf))
            return rates, ttf

        with np.errstate(invalid="ignore", divide="ignore"):
            for step in range(1, _MAX_EVENTS_PER_PHASE + 1):
                if idx.size == 0:
                    break
                starts = run_starts(blk)
                rates, ttf = step_rates()
                dt = np.minimum.reduceat(ttf, starts)
                now[blk[starts]] += dt
                rem = rem - rates * spread(dt, starts, blk.size)
                # Everything within a relative hair of zero lands now;
                # the tolerance batches symmetric flows into one event.
                done = rem <= tol
                if done.any():
                    gone = idx[done]
                    finish[gone] = now[blk[done]]
                    left_at[gone] = step
                    dfc = fc[done]
                    counts -= np.bincount(
                        dfc if all_linked else dfc[dfc >= 0],
                        minlength=problem.n_classes,
                    )
                    keep = ~done
                    idx = idx[keep]
                    rem = rem[keep]
                    tol = tol[keep]
                    fc = fc[keep]
                    blk = blk[keep]
                    if not all_linked:
                        linked = linked[keep]
                        all_linked = bool(linked.all())
            else:
                # Safety valve: finish stragglers at their current
                # rates, and count them so callers can see the
                # approximation.
                if idx.size:
                    truncated = np.bincount(blk, minlength=n_blocks)
                    finish[idx] = now[blk] + step_rates()[1]
                    left_at[idx] = _MAX_EVENTS_PER_PHASE + 1
        solves = np.zeros(n_blocks, dtype=np.intp)
        np.maximum.at(solves, block, left_at)
        return finish, truncated, solves
