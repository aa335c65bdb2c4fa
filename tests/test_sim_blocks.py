"""Lockstep phase blocks: ``run`` is bit-identical to phase-by-phase.

:meth:`FlowSimulator.run` solves every phase between two fabric events
as one block of a block-diagonal fairness problem.  Each block must run
exactly the arithmetic it would run alone, so every observable of a
program run — durations, serialisation times, per-message times,
per-link busy seconds, valve truncations — must equal, bit for bit,
what :meth:`FlowSimulator.run_phase` (a one-block problem) gives each
phase on its own.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.engine as engine
from repro.core.errors import SimulationError
from repro.core.units import KIB, MIB
from repro.ib.subnet_manager import OpenSM, resweep
from repro.mpi.job import Job
from repro.routing.dfsssp import DfssspRouting
from repro.sim.engine import FlowSimulator, PhaseResult
from repro.sim.flows import Message, Phase, Program
from repro.topology.faults import FabricEvent
from repro.topology.hyperx import hyperx

MODES = ["static", "dynamic"]


def _plane():
    net = hyperx((3, 3), 2)
    return net, OpenSM(net).run(DfssspRouting())


@pytest.fixture(scope="module")
def plane():
    return _plane()


def _observables(pr: PhaseResult) -> tuple:
    """Everything a phase result reports, as exact bytes."""
    return (
        pr.label,
        np.float64(pr.duration).tobytes(),
        np.float64(pr.transfer_time).tobytes(),
        np.asarray(pr.message_times, dtype=float).tobytes(),
        np.asarray(pr.link_ids).tobytes(),
        np.asarray(pr.link_busy).tobytes(),
        pr.num_messages,
        np.float64(pr.bytes_moved).tobytes(),
        pr.events_truncated,
        pr.solves,
    )


def _assert_blocks_match_phases(net, program, mode):
    whole = FlowSimulator(net, mode=mode).run(program, collect_messages=True)
    alone = FlowSimulator(net, mode=mode)
    solo = [alone.run_phase(ph, collect_messages=True) for ph in program]
    assert [_observables(p) for p in whole.phases] == [
        _observables(p) for p in solo
    ]
    assert whole.events_truncated == sum(p.events_truncated for p in solo)
    return whole, solo


@st.composite
def _programs(draw, terminals):
    """Small random programs: repeated pairs, self-sends of zero bytes,
    empty phases and very uneven sizes (many dynamic events)."""
    sizes = st.sampled_from([0.0, 1.0, 4 * KIB, 64 * KIB, 1 * MIB, 3 * MIB])
    phases = []
    for i in range(draw(st.integers(1, 6))):
        msgs = []
        for _ in range(draw(st.integers(0, 14))):
            src = draw(st.sampled_from(terminals))
            dst = draw(st.sampled_from(terminals))
            size = 0.0 if src == dst else draw(sizes)
            msgs.append((src, dst, size))
        phases.append(msgs)
    return phases


def _build(fabric, phases) -> Program:
    return Program([
        Phase(
            [Message(s, d, z, tuple(fabric.path(s, d)) if s != d else ())
             for s, d, z in msgs],
            label=f"p{i}",
        )
        for i, msgs in enumerate(phases)
    ])


class TestBlocksMatchPhases:
    @pytest.mark.parametrize("mode", MODES)
    def test_random_programs(self, plane, mode):
        net, fabric = plane

        @given(_programs(net.terminals[:12]))
        @settings(
            max_examples=40, deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        def check(phases):
            _assert_blocks_match_phases(net, _build(fabric, phases), mode)

        check()

    @pytest.mark.parametrize("mode", MODES)
    def test_alltoall(self, plane, mode):
        net, fabric = plane
        program = Job(fabric, net.terminals).alltoall(1 * MIB)
        whole, _ = _assert_blocks_match_phases(net, program, mode)
        if mode == "dynamic":
            assert sum(p.solves for p in whole.phases) > len(program)

    @pytest.mark.parametrize("mode", MODES)
    def test_program_longer_than_one_chunk(self, plane, mode, monkeypatch):
        net, fabric = plane
        program = Job(fabric, net.terminals[:10]).alltoall(256 * KIB)
        monkeypatch.setattr(engine, "_CHUNK_MESSAGES", 25)
        assert sum(len(ph) for ph in program) > 3 * engine._CHUNK_MESSAGES
        _assert_blocks_match_phases(net, program, mode)

    def test_valve_truncates_per_phase(self, plane, monkeypatch):
        net, fabric = plane
        monkeypatch.setattr(engine, "_MAX_EVENTS_PER_PHASE", 1)
        program = _build(fabric, [
            [(net.terminals[0], net.terminals[-1], 3 * MIB),
             (net.terminals[1], net.terminals[-2], 1 * MIB),
             (net.terminals[2], net.terminals[-3], 64 * KIB)],
            [(net.terminals[3], net.terminals[5], 1 * MIB)],
            [(net.terminals[0], net.terminals[7], 1 * MIB),
             (net.terminals[1], net.terminals[7], 2 * MIB)],
        ])
        whole, _ = _assert_blocks_match_phases(net, program, "dynamic")
        assert [p.events_truncated for p in whole.phases] == [2, 0, 1]
        assert [p.solves for p in whole.phases] == [2, 1, 2]


def _timeline_run(mode, lockstep):
    """Run an Alltoall under failures at phases 1 and 3, either through
    ``run`` or phase by phase the way ``run`` worked before segments."""
    net, fabric = _plane()
    program = Job(fabric, net.terminals[:9]).alltoall(1 * MIB)
    hooked = []

    def hook(events, phase):
        hooked.append(phase)
        return resweep(fabric, DfssspRouting(), events=events)

    sim = FlowSimulator(
        net, mode=mode, on_fabric_event=hook, reroute=fabric.reroute,
        timeline=[
            FabricEvent("fail_cable", phase=1, seed=3),
            FabricEvent("fail_cable", phase=3, seed=4),
        ],
    )
    if lockstep:
        phases = sim.run(program, collect_messages=True).phases
    else:
        phases = []
        for i, phase in enumerate(program.phases):
            fired = sim._apply_events(i)
            if fired:
                sim.reroute_reports.append(hook(fired, i))
            phases.append(
                sim.run_phase(sim._heal_phase(phase), collect_messages=True)
            )
    return phases, hooked, sim.messages_rerouted


@pytest.mark.parametrize("mode", MODES)
def test_timeline_splits_segments_and_heals_as_before(mode):
    phases, hooked, rerouted = _timeline_run(mode, lockstep=True)
    ref, ref_hooked, ref_rerouted = _timeline_run(mode, lockstep=False)
    assert hooked == ref_hooked == [1, 3]
    assert rerouted == ref_rerouted > 0
    assert [_observables(p) for p in phases] == [
        _observables(p) for p in ref
    ]


class TestStarvedFlowOrder:
    """Errors name the phase a phase-by-phase run would have failed in."""

    def _first_error(self, sim_factory, phases):
        for ph in phases:
            try:
                sim_factory().run_phase(ph)
            except SimulationError as err:
                return str(err)
        raise AssertionError("no phase fails")

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_capacity_link_raises_for_lowest_phase(self, mode):
        net, fabric = _plane()
        t = net.terminals
        program = _build(fabric, [
            [(t[0], t[5], 1 * MIB)],
            [(t[1], t[9], 1 * MIB), (t[2], t[6], 1 * MIB)],
            [(t[3], t[7], 1 * MIB)],
            [(t[1], t[9], 2 * MIB)],
        ])
        path = program.phases[1].messages[0].path
        net.set_capacity(path[len(path) // 2], 0.0)
        expected = self._first_error(
            lambda: FlowSimulator(net, mode=mode), program.phases
        )
        assert "starved" in expected
        with pytest.raises(SimulationError) as err:
            FlowSimulator(net, mode=mode).run(program)
        assert str(err.value) == expected

    def test_rate_zero_flow_raises_for_lowest_phase(self):
        """A payload-carrying self-send never finishes in dynamic mode.
        The first phase with one is reported, although a later phase's
        path check (which runs before any solve) fails too."""
        net, fabric = _plane()
        t = net.terminals
        program = Program([
            Phase([Message(t[0], t[5], 1 * MIB, tuple(fabric.path(t[0], t[5])))]),
            Phase([
                Message(t[1], t[6], 1 * MIB, tuple(fabric.path(t[1], t[6]))),
                Message(t[2], t[2], 2 * MIB, ()),
            ]),
            Phase([Message(t[3], t[3], 1 * MIB, ())]),
            Phase([Message(t[4], t[8], 1 * MIB, tuple(fabric.path(t[4], t[8])))]),
        ])
        path = program.phases[3].messages[0].path
        net.set_capacity(path[len(path) // 2], 0.0)
        expected = self._first_error(
            lambda: FlowSimulator(net, mode="dynamic"), program.phases
        )
        assert f"{t[2]}->{t[2]}" in expected
        with pytest.raises(SimulationError) as err:
            FlowSimulator(net, mode="dynamic").run(program)
        assert str(err.value) == expected
