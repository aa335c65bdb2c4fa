"""Fault-awareness regressions for the flow simulator.

Three bug classes this file pins down:

* a simulator constructed before fault injection must see the degraded
  capacities (the old code snapshotted ``net.links`` in ``__init__``),
* a flow whose max-min rate is zero must raise, not finish instantly,
* a path crossing a disabled link must be refused with a stale-LFT
  diagnostic unless a reroute callback heals it.
"""

import pytest

from repro.core.errors import SimulationError
from repro.core.units import MIB
from repro.ib.subnet_manager import OpenSM, resweep
from repro.mpi.job import Job
from repro.routing.dfsssp import DfssspRouting
from repro.sim.engine import FlowSimulator
from repro.topology.faults import FabricEvent, FaultTimeline
from repro.topology.hyperx import hyperx


@pytest.fixture()
def env():
    net = hyperx((3, 3), 2)
    fabric = OpenSM(net).run(DfssspRouting())
    return net, fabric


def _cross_switch_send(net, fabric, size=16 * MIB):
    """A single message between terminals on different switches."""
    src = net.attached_terminals(net.switches[0])[0]
    dst = net.attached_terminals(net.switches[-1])[0]
    job = Job(fabric, [src, dst])
    return job.send(0, 1, size)


class TestLiveCapacity:
    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_degrade_after_construction_slows_the_flow(self, env, mode):
        """Regression: capacities were cached at simulator construction,
        so faults injected afterwards were silently ignored."""
        net, fabric = env
        prog = _cross_switch_send(net, fabric)
        sim = FlowSimulator(net, mode=mode)  # constructed BEFORE the fault
        pristine = sim.run(prog).total_time
        link = net.link(prog.phases[0].messages[0].path[0])
        net.set_capacity(link.id, link.capacity / 4)
        degraded = sim.run(prog).total_time
        assert degraded > pristine * 2

    def test_direct_field_write_is_seen_at_phase_boundary(self, env):
        """A direct ``link.capacity`` write goes through the versioned
        property setter, so the simulator's cheap version check observes
        it — run_phase no longer force-refreshes every phase to paper
        over bypassing mutations."""
        net, fabric = env
        prog = _cross_switch_send(net, fabric)
        sim = FlowSimulator(net, mode="static")
        pristine = sim.run(prog).total_time
        v = net.version
        link = net.link(prog.phases[0].messages[0].path[0])
        link.capacity /= 2  # property setter bumps the version
        assert net.version > v
        assert sim.run(prog).total_time > pristine * 1.5


class TestStarvedFlows:
    @pytest.mark.parametrize("mode", ["static", "dynamic"])
    def test_zero_capacity_link_raises_naming_the_message(self, env, mode):
        """Regression: a non-finite time-to-finish was mapped to 0.0, so
        a starved flow 'completed' instantly."""
        net, fabric = env
        prog = _cross_switch_send(net, fabric)
        msg = prog.phases[0].messages[0]
        net.set_capacity(msg.path[0], 0.0)
        sim = FlowSimulator(net, mode=mode)
        with pytest.raises(SimulationError, match="starved"):
            sim.run(prog)
        with pytest.raises(SimulationError, match=f"{msg.src}->{msg.dst}"):
            sim.run(prog)

    def test_zero_byte_messages_are_not_starved(self, env):
        net, fabric = env
        job = Job(fabric, net.terminals[:4])
        prog = job.barrier()
        cable = net.switch_cables()[0]
        net.set_capacity(cable.id, 0.0)
        # Zero-byte barriers carry nothing; they must still complete.
        assert FlowSimulator(net, mode="static").run(prog).total_time >= 0


class TestStalePaths:
    def test_path_over_disabled_link_refused(self, env):
        """Regression: a disabled link still simulated at full capacity
        because the snapshot predated the failure."""
        net, fabric = env
        prog = _cross_switch_send(net, fabric)
        path = prog.phases[0].messages[0].path
        net.disable_cable(path[1])
        sim = FlowSimulator(net, mode="static")
        with pytest.raises(SimulationError, match="stale"):
            sim.run(prog)
        with pytest.raises(SimulationError, match="resweep"):
            sim.run(prog)

    def test_reroute_callback_heals_stale_paths(self, env):
        net, fabric = env
        prog = _cross_switch_send(net, fabric)
        msg = prog.phases[0].messages[0]
        dead = msg.path[1]

        def reroute(src, dst, lid_index):
            return fabric.path(src, dst, lid_index)

        sim = FlowSimulator(net, mode="static", reroute=reroute)
        pristine = sim.run(prog).total_time
        net.disable_cable(dead)
        resweep(fabric, DfssspRouting())
        res = sim.run(prog)
        assert res.messages_rerouted == 1
        assert res.total_time >= pristine

    def test_reroute_must_follow_a_resweep(self, env):
        """A reroute that still crosses the dead link is a table bug."""
        net, fabric = env
        prog = _cross_switch_send(net, fabric)
        msg = prog.phases[0].messages[0]
        net.disable_cable(msg.path[1])
        sim = FlowSimulator(
            net, mode="static", reroute=lambda src, dst, lid: msg.path
        )
        with pytest.raises(SimulationError, match="not re-swept"):
            sim.run(prog)

    def test_unreachable_reroute_raises(self, env):
        net, fabric = env
        prog = _cross_switch_send(net, fabric)
        net.disable_cable(prog.phases[0].messages[0].path[1])
        sim = FlowSimulator(net, mode="static", reroute=lambda src, dst, lid: None)
        with pytest.raises(SimulationError, match="unreachable"):
            sim.run(prog)


class TestFaultTimeline:
    def test_events_fire_once_per_simulator(self, env):
        net, fabric = env
        job = Job(fabric, net.terminals[:6])
        prog = job.alltoall(256 * 1024)
        assert len(prog.phases) > 1
        cable = net.switch_cables()[0]
        timeline = FaultTimeline((
            FabricEvent("degrade_cable", phase=1, cable=cable.id,
                        capacity_factor=0.5),
        ))
        before = cable.capacity
        sim = FlowSimulator(net, mode="static", timeline=timeline)
        res = sim.run(prog)
        assert res.events_applied == 1
        assert cable.capacity == pytest.approx(before / 2)
        # Re-running the same simulator must not compound the degrade.
        res2 = sim.run(prog)
        assert res2.events_applied == 0
        assert cable.capacity == pytest.approx(before / 2)

    def test_event_hook_sees_the_batch(self, env):
        net, fabric = env
        job = Job(fabric, net.terminals[:4])
        prog = job.alltoall(64 * 1024)
        cable = net.switch_cables()[0]
        seen = []

        def hook(events, phase_index):
            seen.append((tuple(e.action for e in events), phase_index))
            return {"phase": phase_index}

        sim = FlowSimulator(
            net, mode="static",
            timeline=[FabricEvent("degrade_cable", phase=1, cable=cable.id)],
            on_fabric_event=hook,
        )
        sim.run(prog)
        assert seen == [(("degrade_cable",), 1)]
        assert sim.reroute_reports == [{"phase": 1}]

    def test_restore_event_reenables(self, env):
        net, fabric = env
        job = Job(fabric, net.terminals[:4])
        prog = job.alltoall(64 * 1024)
        cable = net.switch_cables()[-1]
        net.disable_cable(cable.id)
        sim = FlowSimulator(
            net, mode="static",
            timeline=[FabricEvent("restore_cable", phase=0, cable=cable.id)],
        )
        sim.run(prog)
        assert net.link(cable.id).enabled

    def test_monotone_total_under_midrun_degrade(self, env):
        """Degrading mid-run can only slow the remaining phases."""
        net, fabric = env
        job = Job(fabric, net.terminals[:6])
        prog = job.alltoall(1 * MIB)
        pristine = FlowSimulator(net, mode="static").run(prog).total_time
        hot = FlowSimulator(net, mode="static").hottest_links(prog, top=1)
        cable = net.link(hot[0][0])
        faulted = FlowSimulator(
            net, mode="static",
            timeline=[FabricEvent("degrade_cable", phase=1, cable=cable.id,
                                  capacity_factor=0.25)],
        ).run(prog)
        assert faulted.total_time >= pristine
