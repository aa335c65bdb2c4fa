"""The SSSP family's hop-level kernel against the heap oracles.

:func:`repro.routing.arrays.feedback_tree` settles a destination tree
one BFS level at a time over a cached :func:`~repro.routing.arrays.level_plan`,
and :func:`~repro.routing.arrays.feed_tree_loads` feeds its loads back
into the weights.  Both replaced the per-destination heap Dijkstra and
the dict load walk, which live on in ``tests/oracles.py``.  This module
pins them together bit for bit — parent links, hop counts, settlement
order, unreachable switches and the float weights after feedback — on
masked HyperX / fat-tree / torus views, trunked parallel cables, heavy
weight ties, integer-valued and fractional weights, and partitioned
graphs; then whole engine sweeps against the oracle sweep.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import TopologyError, UnreachableError
from repro.ib.fabric import Fabric
from repro.ib.subnet_manager import OpenSM
from repro.routing import create_engine
from repro.routing.arrays import (
    UNREACHED_HOPS,
    feed_tree_loads,
    feedback_tree,
    level_plan,
)
from repro.routing.parx import ParxRouting
from repro.routing.parx_nd import NdParxRouting
from repro.topology.fattree import k_ary_n_tree
from repro.topology.faults import inject_cable_faults
from repro.topology.hyperx import hyperx
from repro.topology.torus import torus
from tests.oracles import (
    accumulate_tree_loads,
    reference_feedback_sweep,
    tree_core,
)


def _random_net(rng, kind):
    if kind == "hyperx":
        dims = rng.randrange(1, 3)
        shape = tuple(rng.randrange(2, 5) for _ in range(dims))
        trunking = tuple(rng.randrange(1, 3) for _ in range(dims))
        net = hyperx(shape, rng.randrange(1, 3), trunking=trunking)
    elif kind == "torus":
        net = torus(tuple(rng.randrange(2, 4) for _ in range(2)), 1)
    else:
        net = k_ary_n_tree(2, rng.randrange(2, 4))
    if rng.random() < 0.6:
        try:
            inject_cable_faults(net, rng.randrange(1, 4), seed=rng.randrange(1000))
        except TopologyError:
            pass  # tiny fabrics cannot lose that many cables; fine
    return net


def _random_weights(rng, n_links, style):
    if style == "ties":
        return [float(rng.randrange(1, 3)) for _ in range(n_links)]
    if style == "integer":
        return [float(rng.randrange(1, 200)) for _ in range(n_links)]
    return [rng.choice((0.1, 0.2, 0.3)) * rng.randrange(1, 9) + rng.random()
            for _ in range(n_links)]


def _check_tree_and_loads(net, view, root, weights, sources):
    graph = net.switch_graph()
    n = graph.num_switches
    w_arr = np.array(weights)
    plan = level_plan(view, root, graph.host_switches)
    levels = feedback_tree(plan, w_arr, np.full(n, np.nan))

    parent_ref, hops_ref, order_ref = tree_core(view, root, weights)
    parent = np.full(n, -1)
    hops = np.full(n, UNREACHED_HOPS)
    hops[root] = 0
    order = [root]
    for h, (nodes, links) in enumerate(levels, start=1):
        parent[nodes] = links
        hops[nodes] = h
        order += nodes.tolist()
    assert parent.tolist() == parent_ref
    assert hops.tolist() == hops_ref
    assert order == order_ref
    hosts = graph.host_switches.tolist()
    assert plan.missing.tolist() == [
        u for u in hosts if u != root and hops_ref[u] == UNREACHED_HOPS
    ]

    # Loads: the array feedback must leave the same float weights as
    # the dict walk over the oracle's settlement-ordered parent dict.
    switches = graph.switches
    parent_d = {switches[u]: parent_ref[u] for u in order_ref if parent_ref[u] >= 0}
    hops_d = {switches[u]: hops_ref[u] for u in order_ref}
    loads = accumulate_tree_loads(
        net, parent_d, hops_d,
        {switches[u]: float(s) for u, s in enumerate(sources)},
    )
    want = list(weights)
    for link_id, load in loads.items():
        want[link_id] += load
    feed_tree_loads(levels, sources, graph.link_dst_index, w_arr)
    assert w_arr.tolist() == want
    return want


class TestKernelAgainstHeapOracle:
    @given(
        st.sampled_from(["hyperx", "torus", "fattree"]),
        st.sampled_from(["ties", "integer", "fractional"]),
        st.integers(0, 10 ** 6),
    )
    @settings(
        max_examples=80, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_tree_order_and_loads_are_bit_identical(self, kind, style, seed):
        rng = random.Random(seed)
        net = _random_net(rng, kind)
        graph = net.switch_graph()
        sw_links = graph.in_link.tolist()
        masked = rng.sample(sw_links, k=min(len(sw_links), rng.randrange(0, 8)))
        view = graph.masked(masked)
        weights = _random_weights(rng, len(net.links), style)
        if style == "fractional":
            sources = np.array([rng.random() * 5 for _ in range(graph.num_switches)])
        else:
            sources = graph.attached_counts * rng.randrange(1, 4)
        # Several trees in a row with feedback, like a sweep.
        for _ in range(3):
            root = rng.randrange(graph.num_switches)
            weights = _check_tree_and_loads(net, view, root, weights, sources)

    def test_isolated_switch_is_missing_not_settled(self):
        net = hyperx((3, 3), 1)
        victim = net.switches[4]
        for link in list(net.out_links(victim)):
            if net.is_switch(link.dst):
                net.disable_cable(link.id)
        graph = net.switch_graph()
        plan = level_plan(graph, 0, graph.host_switches)
        assert plan.missing.tolist() == [4]
        weights = [1.0] * len(net.links)
        _check_tree_and_loads(net, graph, 0, weights, graph.attached_counts)

    def test_trunked_parallel_links_tie_break_on_link_id(self):
        net = hyperx((2, 2), 1, trunking=(3, 2))
        graph = net.switch_graph()
        weights = [1.0] * len(net.links)
        for root in range(graph.num_switches):
            _check_tree_and_loads(net, graph, root, weights, graph.attached_counts)


def _profile(net, seed, pairs=60):
    rng = np.random.default_rng(seed)
    terms = net.terminals
    demands = {}
    for _ in range(pairs):
        a, b = rng.choice(len(terms), size=2, replace=False)
        demands.setdefault(terms[a], {})[terms[b]] = int(rng.integers(1, 256))
    return demands


def _both_sweeps(net, engine, **sm_kwargs):
    """(array sweep fabric, oracle sweep fabric) of one engine."""
    sm = OpenSM(net, **sm_kwargs)
    fast = sm.run(engine)
    slow = Fabric(net, fast.lidmap, engine_name=engine.name)
    slow.install_terminal_hops()
    reference_feedback_sweep(slow, engine.feedback_trees(slow))
    # Same entries, and switches made present in the same order.
    assert np.array_equal(fast.tables.dense, slow.tables.dense)
    assert list(fast.tables) == list(slow.tables)
    assert fast.notes == slow.notes
    return fast, slow


class TestSweepAgainstHeapSweep:
    @pytest.mark.parametrize("name", ["sssp", "dfsssp", "parx"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_engine_sweep_matches_oracle(self, name, seed):
        net = hyperx((4, 4), 2)
        inject_cable_faults(net, 3, seed=seed)
        _both_sweeps(net, create_engine(name))

    def test_profiled_parx_with_fallbacks_matches_oracle(self):
        net = hyperx((4, 4), 2)
        corner = net.switches[0]
        for link in list(net.out_links(corner)):
            if (net.is_switch(link.dst) and link.meta.get("dim") == 0
                    and net.node_meta(link.dst)["coord"][0] >= 2):
                net.disable_cable(link.id)
        fast, _ = _both_sweeps(net, ParxRouting(_profile(net, 5)))
        assert any("fallback" in n for n in fast.notes)

    def test_parx_nd_3d_matches_oracle(self):
        net = hyperx((2, 4, 2), 1)
        engine = NdParxRouting(_profile(net, 9, pairs=20))
        _both_sweeps(net, engine, lmc=3, max_vls=16)

    def test_fat_tree_sssp_matches_oracle(self):
        net = k_ary_n_tree(4, 2)
        _both_sweeps(net, create_engine("sssp"))

    def test_oracle_sweep_refuses_partitions_too(self):
        net = hyperx((3, 3), 1)
        for link in list(net.out_links(net.switches[0])):
            if net.is_switch(link.dst):
                net.disable_cable(link.id)
        engine = create_engine("dfsssp")
        fab = Fabric(net, OpenSM(net).lidmap, engine_name=engine.name)
        fab.install_terminal_hops()
        with pytest.raises(UnreachableError):
            reference_feedback_sweep(fab, engine.feedback_trees(fab))
