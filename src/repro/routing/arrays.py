"""Array-backed core of the routing sweep.

Destination trees are shortest-path trees under the lexicographic
metric ``(hops, weight_sum)`` with ties broken toward the lighter, then
lower-id parent link.  Because hops dominate, every switch settled at
hop ``h + 1`` takes its parent among the in-links from hop level ``h``,
so a tree is one pass per BFS level instead of a heap walk:

* :func:`tree_core_batch` advances a whole block of destination
  columns per numpy pass, for engines whose per-destination weights are
  independent of other destinations;
* :func:`level_plan` + :func:`feedback_tree` serve the SSSP family,
  whose load feedback forces one tree at a time: the BFS levels and
  each level's candidate in-links depend only on the (masked) graph and
  the root, so they are planned once and every tree toward the same
  root only re-runs the weighted minimum per level.

Both are bit-identical to the heap Dijkstra they replaced (kept in
``tests/oracles.py`` as the executable specification): a switch's
winner is in both the lexicographic minimum of
``(weight_sum, link_weight, link_id)`` over the same candidates, the
candidate ``weight_sum`` is the same single IEEE addition
``wsum[u] + weights[link]``, and link ids are unique per candidate set,
so the minimum is unique and the reduction order cannot matter.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Protocol, Sequence

import numpy as np

#: Hop count marking an unreached switch in the dense arrays.
UNREACHED_HOPS = 1 << 30


class BatchGraphView(Protocol):
    """What :func:`tree_core_batch` needs: the same CSR, as numpy arrays."""

    num_switches: int
    in_ptr: np.ndarray
    in_src: np.ndarray
    in_link: np.ndarray


def accumulate_column_loads(
    matrix: np.ndarray,
    graph: "DenseGraphView",
    dest_cols: Iterable[int],
    dest_switch_rows: Iterable[int],
    loads: np.ndarray,
) -> np.ndarray:
    """Per-link table-walk traversal counts over destination columns.

    The frontier-wave Kahn pass shared by the static load estimator
    (:mod:`repro.analysis.load`, FAB011) and the what-if vulnerability
    verifier (:mod:`repro.analysis.whatif`): for each destination column
    of the dense next-hop ``matrix``, every switch is seeded with its
    attached-terminal count (minus one at the destination's own switch —
    a node never sends to itself), and the per-destination functional
    graph drains in topological waves, accumulating how many (source
    terminal, destination) walks traverse each link into ``loads``
    (indexed by link id, mutated in place and returned).

    Switches on a forwarding cycle never reach in-degree 0 and are
    skipped; black-holed walks stop where they die.  The drain order
    never affects the totals — every predecessor of a switch settles
    before it.

    Parameters
    ----------
    matrix:
        ``(S, D)`` dense next-hop matrix (``ForwardingTables.dense``).
    graph:
        Current ``Network.switch_graph()`` (judges link liveness).
    dest_cols, dest_switch_rows:
        Parallel iterables: the matrix column of each destination LID
        and the dense switch index the destination terminal attaches to.
    loads:
        ``(num_links,)`` int64 accumulator, mutated in place.
    """
    n = graph.num_switches
    link_dst_index = graph.link_dst_index
    link_enabled = graph.link_enabled
    attached = graph.attached_counts.astype(np.int64)

    for col, droot in zip(dest_cols, dest_switch_rows):
        column = matrix[:, col]
        # Out-of-range ids (corrupt "unknown link" entries) carry no
        # load, same as absent entries; clamping keeps gathers in bounds.
        valid = (column >= 0) & (column < len(link_enabled))
        safe = np.where(valid, column, 0)
        # A hop exists when the entry's link is enabled and lands on a
        # switch (ejection entries and black holes have no successor).
        succ = link_dst_index[safe]
        has_hop = valid & link_enabled[safe] & (succ >= 0)
        succ = np.where(has_hop, succ, -1)
        indeg = np.bincount(succ[has_hop], minlength=n)

        total = attached.copy()
        total[droot] -= 1

        frontier = np.flatnonzero(indeg == 0)
        while frontier.size:
            f = frontier[succ[frontier] >= 0]
            if not f.size:
                break
            amounts = total[f]
            np.add.at(loads, column[f], amounts)
            np.add.at(total, succ[f], amounts)
            np.add.at(indeg, succ[f], -1)
            nxt = np.unique(succ[f])
            frontier = nxt[indeg[nxt] == 0]
    return loads


class DenseGraphView(Protocol):
    """What :func:`accumulate_column_loads` needs from a switch graph."""

    num_switches: int
    link_dst_index: np.ndarray
    link_enabled: np.ndarray
    attached_counts: np.ndarray


def incidence_scan_block(
    dense_block: np.ndarray,
    cable_of_link: np.ndarray,
    col_offset: int,
    n_cols: int,
    num_links: int,
) -> tuple[np.ndarray, int]:
    """Cable -> destination incidence of one dense column block.

    One block of the what-if verifier's incidence scan
    (:mod:`repro.analysis.whatif`), shared by its serial column loop and
    the pool workers' sharded scan: returns the sorted unique
    ``cable * n_cols + global_column`` keys of the block plus the count
    of distinct columns holding any entry.  Column ranges partition
    across blocks, so the union of per-block key sets and the sum of
    per-block column counts reproduce a full-matrix scan exactly.
    """
    b_rows, b_cols = np.nonzero(dense_block >= 0)
    ndests = int(np.unique(b_cols).size)
    links = dense_block[b_rows, b_cols].astype(np.int64)
    cols = b_cols.astype(np.int64) + col_offset
    on_cable = cable_of_link[np.clip(links, 0, num_links - 1)]
    on_cable[(links < 0) | (links >= num_links)] = -1
    hit = on_cable >= 0
    keys = np.unique(on_cable[hit] * n_cols + cols[hit])
    return keys, ndests


def tree_core_batch(
    graph: BatchGraphView,
    roots: Sequence[int],
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Destination trees toward K roots at once — bit-equal to one
    heap Dijkstra per column.

    Instead of one heap per destination, the K columns advance together
    in hop-bucketed frontier waves over a ``(V, K)`` distance matrix:
    because hops dominate the lexicographic metric, every switch settled
    at hop ``h + 1`` is reached from a switch settled at hop ``h``, so
    wave ``h`` expands the whole hop-``h`` frontier of every column in a
    handful of flat numpy gathers and a single
    ``lexsort((link, link_weight, weight_sum, column))`` reduction that
    picks each (switch, column) cell's winner.

    Bit-identity with the heap Dijkstra: a cell's final
    ``(hops, weight_sum, parent_link_weight, parent_link_id)`` is in
    both kernels the lexicographic minimum over all in-edges from the
    previous hop level, and the candidate ``weight_sum`` is the same
    single IEEE addition ``wsum[u] + weights[link]`` on identical
    operands — link ids are unique per candidate set, so the minimum is
    unique and the reduction order cannot matter.

    Parameters
    ----------
    graph:
        CSR view (already masked, if the engine masks links), with the
        numpy mirrors ``in_ptr``/``in_src``/``in_link``.
    roots:
        Dense switch index of each destination column (duplicates fine).
    weights:
        Per-link-id weights: ``(num_links,)`` shared by every column
        (minhop), or ``(num_links, K)`` with one column per destination.

    Returns
    -------
    (parent_link, hops):
        ``(V, K)`` int64 arrays over (dense switch index, column): the
        chosen out-link id (-1 for roots and unreached switches) and
        the hop count (:data:`UNREACHED_HOPS` when unreached).  No
        settlement order is produced — only the SSSP family's load
        feedback needs one (:func:`feedback_tree`), and it cannot batch.
    """
    n = graph.num_switches
    root_arr = np.asarray(roots, dtype=np.int64)
    k = root_arr.size
    wts = np.asarray(weights, dtype=np.float64)
    in_ptr, in_src, in_link = graph.in_ptr, graph.in_src, graph.in_link
    per_column = wts.ndim == 2

    hops = np.full((n, k), UNREACHED_HOPS, dtype=np.int64)
    wsum = np.zeros((n, k), dtype=np.float64)
    plid = np.full((n, k), -1, dtype=np.int64)
    if k == 0 or n == 0:
        return plid, hops
    cols = np.arange(k, dtype=np.int64)
    hops[root_arr, cols] = 0
    # Reached-cell count per column: once a column reaches every switch
    # its frontier entries stop expanding — on low-diameter graphs this
    # skips the final wave, whose candidate gather would be the largest
    # of the sweep and yield nothing.
    col_settled = np.bincount(cols, minlength=k)
    f_node, f_col = root_arr, cols
    h = 0
    while f_node.size:
        live_col = col_settled[f_col] < n
        if not live_col.all():
            f_node = f_node[live_col]
            f_col = f_col[live_col]
            if not f_node.size:
                break
        starts = in_ptr[f_node]
        counts = in_ptr[f_node + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break
        # Flat CSR expansion: candidate j belongs to frontier entry
        # reps[j] and reads adjacency slot idx[j].
        reps = np.repeat(np.arange(f_node.size, dtype=np.int64), counts)
        cum = np.zeros(f_node.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=cum[1:])
        idx = np.arange(total, dtype=np.int64) + np.repeat(starts - cum, counts)
        cand_v = in_src[idx]
        cand_c = f_col[reps]
        live = hops[cand_v, cand_c] == UNREACHED_HOPS
        if not live.any():
            break
        cand_v = cand_v[live]
        cand_c = cand_c[live]
        cand_l = in_link[idx[live]]
        src_w = wsum[f_node, f_col][reps[live]]
        wt = wts[cand_l, cand_c] if per_column else wts[cand_l]
        w = src_w + wt
        # One winner per (switch, column) cell: lexicographic minimum of
        # (weight_sum, link_weight, link_id), keys reversed for lexsort.
        vk = cand_v * k + cand_c
        order = np.lexsort((cand_l, wt, w, vk))
        vk_sorted = vk[order]
        first = np.ones(vk_sorted.size, dtype=bool)
        first[1:] = vk_sorted[1:] != vk_sorted[:-1]
        win = order[first]
        wn, wc = cand_v[win], cand_c[win]
        h += 1
        hops[wn, wc] = h
        wsum[wn, wc] = w[win]
        plid[wn, wc] = cand_l[win]
        col_settled += np.bincount(wc, minlength=k)
        f_node, f_col = wn, wc
    return plid, hops


class LevelPlan(NamedTuple):
    """The weight-independent shape of every tree toward one root.

    ``levels[h - 1]`` describes hop level ``h``: the switches settled
    there (``nodes``, ascending dense index) and their candidate parent
    links — every in-link from hop level ``h - 1`` — sorted by the
    switch they leave, as parallel arrays ``(u, link)`` (``u`` is the
    receiving switch one hop closer to the root) with segment ``heads``
    and a per-candidate segment id ``seg``.  ``missing`` lists the
    terminal-hosting switches the tree cannot reach, in ascending dense
    index (empty on a connected view).
    """

    root: int
    levels: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    missing: np.ndarray


def level_plan(graph: BatchGraphView, root: int, hosts: np.ndarray) -> LevelPlan:
    """BFS levels and per-level candidate in-links toward ``root``."""
    in_ptr, in_src, in_link = graph.in_ptr, graph.in_src, graph.in_link
    seen = np.zeros(graph.num_switches, dtype=bool)
    seen[root] = True
    frontier = np.array([root], dtype=np.int64)
    levels = []
    while True:
        starts = in_ptr[frontier]
        counts = in_ptr[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            break
        offsets = np.cumsum(counts) - counts
        idx = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
        v = in_src[idx]
        live = ~seen[v]
        if not live.any():
            break
        order = np.argsort(v[live], kind="stable")
        v = v[live][order]
        u = np.repeat(frontier, counts)[live][order]
        link = in_link[idx[live][order]]
        first = np.empty(v.size, dtype=bool)
        first[0] = True
        np.not_equal(v[1:], v[:-1], out=first[1:])
        heads = np.flatnonzero(first)
        seg = np.cumsum(first) - 1
        nodes = v[heads]
        seen[nodes] = True
        levels.append((nodes, heads, seg, u, link))
        frontier = nodes
    return LevelPlan(root, levels, hosts[~seen[hosts]])


_NO_LINK = np.iinfo(np.int64).max


def feedback_tree(
    plan: LevelPlan, weights: np.ndarray, wsum: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """One destination tree over a planned root, level by level.

    ``weights`` is the float64 per-link-id weight vector; ``wsum`` a
    per-switch scratch vector the tree's weight sums are written into
    (its other entries are never read).  Returns, per hop level
    ``h >= 1``, the settled switches and their parent links in
    *settlement order* — the order a heap Dijkstra pops them:
    ``(weight_sum, link_weight, link_id)`` within the level.

    Each level's winner is the lexicographic minimum of ``(w, W[link],
    link)`` per segment, from three segmented ``np.minimum.reduceat``
    passes (the last two only when the first leaves ties).
    """
    wsum[plan.root] = 0.0
    out = []
    for nodes, heads, seg, u, link in plan.levels:
        wl = weights[link]
        w = wsum[u] + wl
        best_w = np.minimum.reduceat(w, heads)
        tie = w == best_w[seg]
        if np.count_nonzero(tie) == heads.size:
            best_l, best_link = wl[tie], link[tie]
        else:
            best_l = np.minimum.reduceat(np.where(tie, wl, np.inf), heads)
            tie &= wl == best_l[seg]
            best_link = np.minimum.reduceat(np.where(tie, link, _NO_LINK), heads)
        wsum[nodes] = best_w
        order = np.lexsort((best_link, best_l, best_w))
        out.append((nodes[order], best_link[order]))
    return out


def feed_tree_loads(
    levels: list[tuple[np.ndarray, np.ndarray]],
    sources: np.ndarray,
    link_dst_index: np.ndarray,
    weights: np.ndarray,
) -> None:
    """Add one tree's link loads to ``weights`` (the SSSP feedback).

    ``sources[u]`` is the demand injected at dense switch ``u``.  Levels
    drain deepest first, each in settlement order, pushing a switch's
    carry onto its parent link and into its parent's carry — the same
    float additions in the same sequence as a per-switch walk, so every
    link receives exactly one add into ``weights``.
    """
    carry = sources.copy()
    for nodes, links in reversed(levels):
        c = carry[nodes]
        np.add.at(carry, link_dst_index[links], c)
        weights[links] += c
