"""Reference implementations the fast paths are tested against.

Each function here is the original, deliberately simple implementation
of a kernel the library has since rewritten for speed.  They are kept
as executable specifications only: the equivalence tests and the perf
benchmarks compare the production code against them, and nothing in
``src/`` calls them.
"""

from __future__ import annotations

import heapq
from typing import Any, Collection, Iterable, Mapping, Sequence, Set

import numpy as np

from repro.core.errors import DeadlockError, SimulationError, UnreachableError
from repro.core.parallel import _weight_evaluator
from repro.ib.cdg import addition_creates_cycle
from repro.routing.base import install_tree
from repro.routing.dijkstra import tree_to_destination
from repro.routing.fatpaths import FatPathsRouting, layer_masks
from repro.sim.fairness import _EPS

#: Hop count marking an unreached switch in :func:`tree_core`'s arrays.
UNREACHED_HOPS = 1 << 30


def reference_max_min_fair_rates(
    flow_links: Sequence[Sequence[int]],
    link_capacity: Mapping[int, float] | Sequence[float] | np.ndarray,
) -> np.ndarray:
    """The pre-incremental max-min solver.

    Rebuilds the scipy CSR incidence from Python lists on every call —
    exactly what :class:`repro.sim.fairness.FairnessProblem` exists to
    avoid.  The equivalence tests assert the incremental engine matches
    this function to 1e-9, and the perf benchmarks measure the speedup
    against it.
    """
    from scipy import sparse

    n_flows = len(flow_links)
    if n_flows == 0:
        return np.zeros(0)

    used_links: dict[int, int] = {}
    rows: list[int] = []
    cols: list[int] = []
    empty_flows: list[int] = []
    for f, links in enumerate(flow_links):
        if not links:
            empty_flows.append(f)
            continue
        for lid in links:
            rows.append(used_links.setdefault(lid, len(used_links)))
            cols.append(f)
    n_links = len(used_links)
    rates = np.zeros(n_flows)
    if empty_flows:
        rates[empty_flows] = np.inf
    if n_links == 0:
        return rates

    if isinstance(link_capacity, Mapping):
        caps = np.array([link_capacity[lid] for lid in used_links], dtype=float)
    else:
        cap_arr = np.asarray(link_capacity, dtype=float)
        caps = np.array([cap_arr[lid] for lid in used_links], dtype=float)
    if np.any(caps <= 0):
        raise SimulationError("links must have positive capacity")

    a = sparse.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(n_links, n_flows)
    )
    at = a.T.tocsr()

    active = np.ones(n_flows, dtype=bool)
    active[empty_flows] = False
    cap_left = caps.copy()
    level = np.zeros(n_flows)

    for _ in range(n_links + 1):
        if not active.any():
            break
        n_active = a @ active.astype(float)
        crossed = n_active > 0
        if not crossed.any():
            break
        inc = np.min(cap_left[crossed] / n_active[crossed])
        level[active] += inc
        cap_left -= inc * n_active
        saturated = crossed & (cap_left <= _EPS * caps)
        if not saturated.any():
            idx = np.argmin(np.where(crossed, cap_left / np.maximum(n_active, 1), np.inf))
            saturated = np.zeros_like(crossed)
            saturated[idx] = True
        frozen = (at @ saturated.astype(float)) > 0
        newly = frozen & active
        if not newly.any():
            raise SimulationError("progressive filling failed to converge")
        rates[newly] = level[newly]
        active &= ~newly
    else:
        raise SimulationError("progressive filling exceeded its iteration bound")

    rates[active] = level[active]  # pathological leftovers (shouldn't occur)
    return rates


def reference_assign_layers(
    dep_edges_by_dest: Mapping[int, Set[tuple[int, int]]],
    max_vls: int = 8,
) -> tuple[dict[int, int], int]:
    """The original first-fit layering (full DFS cycle test per fit).

    The executable specification :func:`repro.ib.deadlock.assign_layers`
    is equivalence-tested against (``tests/test_routing_arrays.py``).
    """
    if max_vls < 1:
        raise DeadlockError(f"need at least one virtual lane, got {max_vls}")

    layers: list[dict[int, set[int]]] = []  # per-lane CDG adjacency
    vl_of_dlid: dict[int, int] = {}

    for dlid in sorted(dep_edges_by_dest):
        deps = dep_edges_by_dest[dlid]
        placed = False
        for vl, adj in enumerate(layers):
            if not addition_creates_cycle(adj, deps):
                _merge(adj, deps)
                vl_of_dlid[dlid] = vl
                placed = True
                break
        if placed:
            continue
        if len(layers) >= max_vls:
            raise DeadlockError(
                f"destination lid {dlid} fits no lane; routing needs more "
                f"than the {max_vls} available virtual lanes"
            )
        adj: dict[int, set[int]] = {}
        _merge(adj, deps)
        layers.append(adj)
        vl_of_dlid[dlid] = len(layers) - 1

    return vl_of_dlid, max(1, len(layers))


def _merge(adj: dict[int, set[int]], deps: Set[tuple[int, int]]) -> None:
    for a, b in deps:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set())


def tree_core(
    graph: Any,
    root: int,
    weights: Sequence[float],
) -> tuple[list[int], list[int], list[int]]:
    """The per-destination heap Dijkstra over a CSR graph view.

    The kernel the SSSP family swept with before the hop-level plans
    (:func:`repro.routing.arrays.feedback_tree`), which must reproduce
    its parent links, hop counts and settlement order bit for bit.  The
    heap only receives *strictly improving* entries of the per-node best
    ``(hops, weight_sum, parent_link_weight, parent_link_id)``, so the
    first pop of a node settles that full-tuple minimum.

    Returns dense ``(parent_link, hops, order)`` lists over switch
    index: the chosen out-link id (-1 for the root and unreached
    switches), the hop count (:data:`UNREACHED_HOPS` when unreached) and
    the settlement order.
    """
    n = graph.num_switches
    hops = [UNREACHED_HOPS] * n
    wsum = [0.0] * n
    plw = [0.0] * n
    plid = [-1] * n
    parent = [-1] * n
    done = [False] * n
    order: list[int] = []
    hops[root] = 0
    heap: list[tuple[int, float, float, int, int]] = [(0, 0.0, 0.0, -1, root)]
    ptr, src, lnk = _csr_lists(graph)
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        h_u, w_u, _, pl, u = pop(heap)
        if done[u]:
            continue
        done[u] = True
        parent[u] = pl
        order.append(u)
        h_v = h_u + 1
        for k in range(ptr[u], ptr[u + 1]):
            v = src[k]
            if done[v]:
                continue
            lid = lnk[k]
            wt = weights[lid]
            h0 = hops[v]
            if h_v < h0:
                better = True
            elif h_v > h0:
                better = False
            else:
                w_v = w_u + wt
                w0 = wsum[v]
                if w_v < w0:
                    better = True
                elif w_v > w0:
                    better = False
                else:
                    p0 = plw[v]
                    if wt < p0:
                        better = True
                    elif wt > p0:
                        better = False
                    else:
                        better = lid < plid[v] or plid[v] < 0
            if better:
                hops[v] = h_v
                wsum[v] = w_u + wt
                plw[v] = wt
                plid[v] = lid
                push(heap, (h_v, w_u + wt, wt, lid, v))
    return parent, hops, order


def _csr_lists(graph: Any) -> tuple[list[int], list[int], list[int]]:
    """The in-link CSR as plain lists (list indexing beats numpy scalar
    extraction in the heap loop by ~3x), memoised per view object as
    the graph views themselves once kept them."""
    lists = _CSR_LISTS.get(id(graph))
    if lists is None or lists[0] is not graph:
        if len(_CSR_LISTS) >= 64:
            _CSR_LISTS.clear()
        lists = (graph, graph.in_ptr.tolist(), graph.in_src.tolist(),
                 graph.in_link.tolist())
        _CSR_LISTS[id(graph)] = lists
    return lists[1], lists[2], lists[3]


_CSR_LISTS: dict[int, tuple] = {}


def reference_tree_to_destination(
    net: Any,
    dest_switch: int,
    weights: Sequence[float],
    masked_links: Collection[int] = (),
) -> tuple[dict[int, int], dict[int, int]]:
    """The original object-graph Dijkstra over :class:`Link` objects.

    The executable specification of
    :func:`repro.routing.dijkstra.tree_to_destination`: same
    ``(parent, hops)`` dicts, keyed in settlement order.
    """
    masked = masked_links if isinstance(masked_links, (set, frozenset)) else set(masked_links)

    # dist keys: (hops, weight_sum); parent choice tie-broken explicitly.
    dist: dict[int, tuple[int, float]] = {dest_switch: (0, 0.0)}
    parent: dict[int, int] = {}
    done: set[int] = set()
    # heap entries: (hops, weight_sum, parent_link_weight, parent_link_id, node)
    heap: list[tuple[int, float, float, int, int]] = [(0, 0.0, 0.0, -1, dest_switch)]
    unreached = (1 << 30, float("inf"))

    while heap:
        hops_u, w_u, _, plink, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        if plink >= 0:
            parent[u] = plink
        # Relax the *in*-links of u: a switch v with link v->u can reach
        # the destination through u.
        for link in net.in_links(u):
            v = link.src
            if v in done or not net.is_switch(v) or link.id in masked:
                continue
            cand = (hops_u + 1, w_u + float(weights[link.id]))
            best = dist.get(v, unreached)
            if cand < best:
                dist[v] = cand
                heapq.heappush(
                    heap, (cand[0], cand[1], float(weights[link.id]), link.id, v)
                )
            elif cand == best:
                # Same (hops, weight): deterministic preference for the
                # lighter, lower-id link.  Push it; the pop order of the
                # full tuple settles the choice.
                heapq.heappush(
                    heap, (cand[0], cand[1], float(weights[link.id]), link.id, v)
                )

    hops = {u: d[0] for u, d in dist.items() if u in done}
    return parent, hops


def accumulate_tree_loads(
    net: Any,
    parent: dict[int, int],
    hops: dict[int, int],
    source_weight: dict[int, float],
) -> dict[int, float]:
    """Traffic each tree link carries, given per-switch source weight.

    The dict specification of :func:`repro.routing.arrays.feed_tree_loads`:
    switches drain deepest first, each level in ``parent``'s key
    (settlement) order, pushing a switch's carry onto its parent link
    and into its parent's carry.
    """
    carry = dict(source_weight)
    load: dict[int, float] = {}
    levels: dict[int, list[int]] = {}
    for u in parent:
        levels.setdefault(hops[u], []).append(u)
    link_dst = net.switch_graph().link_dst_node.tolist()
    for h in sorted(levels, reverse=True):
        for u in levels[h]:
            w = carry.get(u, 0.0)
            if w == 0.0:
                continue
            link_id = parent[u]
            load[link_id] = load.get(link_id, 0.0) + w
            nxt = link_dst[link_id]
            carry[nxt] = carry.get(nxt, 0.0) + w
    return load


def reference_feedback_sweep(fabric: Any, trees: Iterable[tuple]) -> None:
    """The heap sweep :func:`repro.routing.base.feedback_sweep` replaced.

    Takes the same per-LID declarations (an engine's
    ``feedback_trees(fabric)``) and routes each with :func:`tree_core`,
    installs it through ``install_tree`` and feeds the dict loads back
    into a plain float weight list — the loop SSSP, PARX and PARX-ND
    each ran before.
    """
    net = fabric.net
    graph = net.switch_graph()
    switches = graph.switches
    hosts = graph.host_switches.tolist()
    weights = [1.0] * len(net.links)
    for dlid, root, view, fallback, note, sources in trees:
        parent_arr, hops_arr, order = tree_core(view, root, weights)
        if fallback is not None and any(
            parent_arr[u] < 0 for u in hosts if u != root
        ):
            parent_arr, hops_arr, order = tree_core(fallback, root, weights)
            fabric.notes.append(note)
        for u in hosts:
            if u != root and parent_arr[u] < 0:
                raise UnreachableError(
                    f"switch {switches[u]} cannot reach destination lid {dlid}"
                )
        parent = {switches[u]: parent_arr[u] for u in order if parent_arr[u] >= 0}
        hops = {switches[u]: hops_arr[u] for u in order}
        install_tree(fabric, dlid, parent)
        source_weight = {switches[u]: float(w) for u, w in enumerate(sources)}
        for link_id, load in accumulate_tree_loads(
            net, parent, hops, source_weight
        ).items():
            weights[link_id] += load


def link_dest_jitter(link_ids: np.ndarray, dlid: int) -> np.ndarray:
    """fthx's tie-break jitter for one destination LID, in [0, 1).

    The scalar splitmix64 mix :func:`repro.routing.fthx.link_dest_jitter_block`
    broadcasts across a block of LIDs; every column of the block must
    equal this bit for bit.  The salt is an exact Python-int product
    masked to 64 bits, the reference for the block's wrapping uint64
    multiply.
    """
    m64 = np.uint64(0xFFFFFFFFFFFFFFFF)
    salt = np.uint64((dlid * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF)
    h = link_ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    h = (h + salt) & m64
    h ^= h >> np.uint64(31)
    h = (h * np.uint64(0x94D049BB133111EB)) & m64
    h ^= h >> np.uint64(29)
    return (h & np.uint64(0xFFFFF)).astype(np.float64) / float(1 << 20)


def reference_tree_sweep(
    engine: Any, fabric: Any, dlids: Sequence[int], *, reset: bool = False
) -> None:
    """The per-LID loop minhop, fthx and fatpaths each ran before tree jobs.

    One :func:`~repro.routing.dijkstra.tree_to_destination` per LID, on
    the weights the engine's tree job declares for that LID's column.
    FatPaths LIDs route over their layer's mask and fall back to the
    full graph (with the engine's note) when the mask cuts off a
    terminal-hosting switch.  A switch that still cannot reach the
    destination goes to ``engine.tree_unreachable``; the tree is then
    installed through ``install_tree``.  ``reset`` drops each column
    first, as an incremental re-sweep does.
    """
    net = fabric.net
    graph = net.switch_graph()
    hosts = [graph.switches[u] for u in graph.host_switches.tolist()]
    dlids = list(dlids)
    job = engine.tree_job(fabric, dlids)
    evaluate = _weight_evaluator(job.weights, [])
    masks = [frozenset()]
    if isinstance(engine, FatPathsRouting):
        masks = layer_masks(net, fabric.lidmap.lids_per_port)
    for j, dlid in enumerate(dlids):
        if reset:
            engine._reset_column(fabric, dlid)
        dsw = job.dest_switches[j]
        w = evaluate(np.array([j]))
        weights = (w if w.ndim == 1 else w[:, 0]).tolist()
        layer = fabric.lidmap.index_of(dlid) % len(masks)
        parent, _ = tree_to_destination(net, dsw, weights, masks[layer])
        if layer and any(sw != dsw and sw not in parent for sw in hosts):
            parent, _ = tree_to_destination(net, dsw, weights)
            fabric.notes.append(
                f"fatpaths: fallback to layer 0 for lid {dlid} "
                f"(layer {layer} mask disconnects it)"
            )
        for sw in hosts:
            if sw != dsw and sw not in parent:
                engine.tree_unreachable(sw, dlid)
                break
        install_tree(fabric, dlid, parent)


def reference_tree_engine(engine: Any) -> Any:
    """``engine`` with its sweeps swapped for :func:`reference_tree_sweep`.

    Cold sweeps and incremental re-sweeps both take the per-LID loop, so
    an ``OpenSM.run`` / ``resweep`` pair on the returned engine is the
    executable specification of the same pair on a fresh engine.
    """
    engine.compute = lambda fabric: reference_tree_sweep(
        engine, fabric, fabric.lidmap.terminal_lids(fabric.net)
    )
    engine.recompute_destinations = lambda fabric, dlids: reference_tree_sweep(
        engine, fabric, sorted(dlids), reset=True
    )
    return engine
