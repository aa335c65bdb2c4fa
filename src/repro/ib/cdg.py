"""Channel-dependency graphs (Dally & Seitz) and cycle detection.

A routing is deadlock-free on wormhole/credit-based hardware iff its
channel-dependency graph — nodes are directed links ("channels"), with
an edge ``a -> b`` whenever some packet may hold ``a`` while requesting
``b`` — is acyclic.  The paper's criterion (4) demands this; DFSSSP and
PARX achieve it by splitting destinations across virtual lanes so that
each lane's CDG is acyclic (see :mod:`repro.ib.deadlock`).

Only switch-to-switch channels matter: terminal injection links have no
predecessors and ejection links no successors, so they can never lie on
a dependency cycle.
"""

from __future__ import annotations

from typing import Collection, Iterable, Iterator, Sequence

import numpy as np

from repro.core.chunking import items_per_chunk
from repro.topology.network import Network


def channel_dependencies(
    net: Network,
    paths: Iterable[list[int]],
) -> set[tuple[int, int]]:
    """Collect the CDG edge set induced by a set of link-id paths."""
    deps: set[tuple[int, int]] = set()
    for path in paths:
        prev = -1
        for link_id in path:
            link = net.link(link_id)
            is_sw_sw = net.is_switch(link.src) and net.is_switch(link.dst)
            if is_sw_sw:
                if prev >= 0:
                    deps.add((prev, link_id))
                prev = link_id
        # ejection hop ends the chain; nothing to add
    return deps


def dest_dependencies_from_tables(fabric, dlid: int) -> set[tuple[int, int]]:
    """CDG edges of one destination, read straight off the tables.

    A destination's forwarding entries form a tree: switch ``u`` sends
    on ``tab[u]`` into switch ``s = dst(tab[u])``, which continues on
    ``tab[s]`` — so ``(tab[u], tab[s])`` is a channel dependency.  This
    O(#switches) extraction is what lets the subnet manager layer a
    full-size fabric without resolving all O(N^2) source paths.

    It is mildly conservative: entries at switches no real source routes
    through still contribute edges.  Those extra edges are part of the
    same destination tree, so each destination's set stays acyclic and
    deadlock freedom is never *under*-reported.

    One-destination view of :func:`dependencies_by_dest`.
    """
    return dependencies_by_dest(fabric, [dlid])[dlid]


def dependencies_by_dest(
    fabric, dlids: Sequence[int]
) -> dict[int, set[tuple[int, int]]]:
    """CDG edge sets of many destinations in one pass over the tables.

    Equal, set for set (and element insertion order), to calling
    :func:`dest_dependencies_from_tables` per destination; see
    :func:`iter_dependencies`.
    """
    return dict(iter_dependencies(fabric, dlids))


def iter_dependencies(
    fabric, dlids: Sequence[int]
) -> Iterator[tuple[int, set[tuple[int, int]]]]:
    """``(dlid, CDG edge set)`` per destination, in ``dlids`` order.

    When the tables carry the dense matrix, destination columns are
    gathered in blocks under the :mod:`repro.core.chunking` budget and
    every block's dependencies come out of a handful of numpy gathers;
    each set is built in ascending switch-row order.  Entries outside
    the matrix universe (foreign switch rows, LIDs without a column,
    plain-dict tables) take the reference per-entry rules.  Lazy, so a
    consumer that folds the sets (per-lane unions) never holds them all.
    """
    net = fabric.net
    table = fabric.tables
    if not hasattr(table, "column_of"):
        for dlid in dlids:
            yield dlid, _dest_dependencies_generic(net, table, dlid)
        return
    dst_index = net.switch_graph().link_dst_index
    dense = table.dense
    foreign = list(table.foreign_switches())
    # Blocks of at most 256 columns: wider ones save no numpy passes
    # worth having, and their gathers and pair list would sit on top of
    # the sets being built.
    width = min(256, items_per_chunk(dense.shape[0] * 48))
    for lo in range(0, len(dlids), width):
        block = dlids[lo:lo + width]
        cols = [table.column_of(d) for d in block]
        l_in = dense[:, [c or 0 for c in cols]].T.astype(np.int64)   # (K, S)
        # First hop must land on a switch (ejection ends the chain) ...
        nxt = np.where(l_in >= 0, dst_index[np.maximum(l_in, 0)], -1)
        # ... which must itself forward onto a switch.
        l_out = np.take_along_axis(l_in, np.maximum(nxt, 0), axis=1)
        chained = (nxt >= 0) & (l_out >= 0)
        chained &= dst_index[np.maximum(l_out, 0)] >= 0
        pairs = list(zip(l_in[chained].tolist(), l_out[chained].tolist()))
        ends = np.cumsum(chained.sum(axis=1)).tolist()
        start = 0
        for dlid, col, end in zip(block, cols, ends):
            if col is None:
                yield dlid, _dest_dependencies_generic(net, table, dlid)
            else:
                deps = set(pairs[start:end])
                for sw in foreign:
                    _fold_foreign(net, table, sw, dlid, deps)
                yield dlid, deps
            start = end


def _fold_foreign(net, table, sw: int, dlid: int, deps: set) -> None:
    """Add the dependency of a row outside the matrix universe."""
    l_in = table[sw].get(dlid)
    if l_in is None:
        return
    link_in = net.link(l_in)
    if not net.is_switch(link_in.dst):
        return
    l_out = table.get(link_in.dst, {}).get(dlid)
    if l_out is not None and net.is_switch(net.link(l_out).dst):
        deps.add((l_in, l_out))


def _dest_dependencies_generic(net, table, dlid: int) -> set[tuple[int, int]]:
    """Reference per-entry extraction (any mapping-of-mappings tables)."""
    deps: set[tuple[int, int]] = set()
    for u, entries in table.items():
        l_in = entries.get(dlid)
        if l_in is None:
            continue
        link_in = net.link(l_in)
        if not net.is_switch(link_in.dst):
            continue  # ejection hop: chain ends
        s = link_in.dst
        l_out = table.get(s, {}).get(dlid)
        if l_out is None:
            continue
        link_out = net.link(l_out)
        if net.is_switch(link_out.dst):
            deps.add((l_in, l_out))
    return deps


def lane_dependency_edges(fabric) -> dict[int, set[tuple[int, int]]]:
    """Per-virtual-lane CDG edge sets of a routed fabric.

    Destination-granularity extraction (one pass via
    :func:`iter_dependencies`), grouped by the lane the fabric
    assigns each destination.  This is the per-lane view the
    linter's credit-loop rule certifies and the what-if verifier probes
    for post-failure cycle exposure.

    Fabrics with a per-pair lane map (LASH's ``vl_of_pair``) are finer
    grained than destinations; this view is then *conservative* (it can
    report a cycle a per-pair split avoids) and callers that need the
    exact verdict must resolve per-pair paths instead.
    """
    per_lane: dict[int, set[tuple[int, int]]] = {}
    dlids = fabric.lidmap.terminal_lids(fabric.net)
    for dlid, deps in iter_dependencies(fabric, dlids):
        per_lane.setdefault(fabric.vl(dlid), set()).update(deps)
    return per_lane


def find_dependency_cycle_excluding(
    edges: Iterable[tuple[int, int]],
    banned: Collection[int],
) -> list[int] | None:
    """Cycle search on the residual CDG after killing some channels.

    Drops every dependency edge that holds or requests a channel in
    ``banned`` (the two directed links of a failed cable carry no
    packets, so neither side of their dependencies can arise), then runs
    :func:`find_dependency_cycle` on what survives.  Returns the ordered
    channel-list witness, or ``None`` when the residual graph is
    acyclic.
    """
    return find_dependency_cycle(
        (a, b) for a, b in edges if a not in banned and b not in banned
    )


def find_dependency_cycle(
    edges: Iterable[tuple[int, int]],
) -> list[int] | None:
    """Find one directed cycle in the dependency edge set, if any.

    Returns the cycle as an ordered channel (link-id) list
    ``[c0, c1, ..., ck]`` where every consecutive pair — and the wrap
    ``ck -> c0`` — is a dependency edge, or ``None`` when the graph is
    acyclic.  The ordered list is the *witness* the fabric linter
    attaches to a credit-loop diagnostic: it names the exact channels a
    deadlocked packet chain would hold.

    Iterative three-colour DFS (the graphs easily exceed Python's
    recursion limit on full-size fabrics).
    """
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, [])
    WHITE, GREY, BLACK = 0, 1, 2
    colour = dict.fromkeys(adj, WHITE)
    for start in adj:
        if colour[start] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        colour[start] = GREY
        while stack:
            node, idx = stack[-1]
            if idx < len(adj[node]):
                stack[-1] = (node, idx + 1)
                nxt = adj[node][idx]
                if colour[nxt] == GREY:
                    # `nxt` is on the DFS stack: the stack suffix from
                    # its position onward is the cycle.
                    chain = [n for n, _ in stack]
                    return chain[chain.index(nxt):]
                if colour[nxt] == WHITE:
                    colour[nxt] = GREY
                    stack.append((nxt, 0))
            else:
                colour[node] = BLACK
                stack.pop()
    return None


def dependency_cycle_exists(edges: Iterable[tuple[int, int]]) -> bool:
    """Whether the dependency edge set contains a directed cycle."""
    return find_dependency_cycle(edges) is not None


def addition_creates_cycle(
    adj: dict[int, set[int]],
    new_edges: Iterable[tuple[int, int]],
) -> bool:
    """Would adding ``new_edges`` to the acyclic graph ``adj`` close a cycle?

    Any new cycle must traverse at least one new edge, so it suffices to
    check, for each new edge ``a -> b``, whether ``a`` is reachable from
    ``b`` in the combined graph.  ``adj`` is *not* modified.

    Used by the incremental virtual-lane layering, where destinations
    are added to a lane one at a time.
    """
    extra: dict[int, set[int]] = {}
    fresh: list[tuple[int, int]] = []
    for a, b in new_edges:
        if b not in adj.get(a, ()) and b not in extra.get(a, ()):
            extra.setdefault(a, set()).add(b)
            fresh.append((a, b))

    def successors(u: int):
        yield from adj.get(u, ())
        yield from extra.get(u, ())

    for a, b in fresh:
        if a == b:
            return True
        seen = {b}
        frontier = [b]
        while frontier:
            u = frontier.pop()
            for v in successors(u):
                if v == a:
                    return True
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return False
