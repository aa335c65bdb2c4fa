"""Max-min fair bandwidth allocation by progressive filling.

Given flows (each a multiset of links) and per-link capacities,
progressive filling raises every unfrozen flow's rate uniformly until
some link saturates, freezes the flows crossing it, and repeats — the
textbook max-min water-filling (Bertsekas & Gallager).

Two entry points:

* :func:`max_min_fair_rates` — the one-shot call every routing/linter
  consumer uses; builds a :class:`FairnessProblem` and solves it once.
* :class:`FairnessProblem` — the reusable engine behind the flow
  simulator.  Construction compacts the link-id space, deduplicates
  flows with identical link multisets into weighted *flow classes*, and
  lays the link x class incidence out as flat numpy index arrays —
  once.  :meth:`FairnessProblem.rates` and
  :meth:`FairnessProblem.solve_classes` then re-solve under any activity
  mask or class weights without rebuilding anything, which is what
  makes exact ``dynamic``-mode simulation of full-machine all-to-alls
  tractable (the event loop solves once per completion event).

**Blocks.**  One problem may hold many independent sub-problems, its
*blocks* (the simulator makes one block per phase and solves every
phase between two fabric events as one problem).  Blocks never share a
compact link — a link id crossed in two blocks is two compact links —
so the problem is block-diagonal.  Every block runs, in lockstep with
the others, exactly the arithmetic it runs alone: the same compact link
order, the same class order, the same water levels and freezing order,
the same bottleneck hint and the same triangular solve.  Rates are
therefore bit-identical to solving each block as its own problem, while
numpy's fixed per-call cost is paid once per lockstep step instead of
once per block.

The kernel agrees bit-for-bit with the original scipy-CSR
implementation (the oracle ``reference_max_min_fair_rates`` in
``tests/oracles.py``, which the equivalence tests compare against):
link occupancies are exact small-integer sums however they are
accumulated, so the water levels, saturation order, and freezing order
coincide exactly.
"""

from __future__ import annotations

from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.errors import SimulationError
from repro.sim.batch import csr_offsets, flatten_paths, run_starts, spread

#: Relative tolerance for "link is saturated".
_EPS = 1e-9

#: Lazily bound ``scipy.linalg.lapack.dtrtrs`` (the hint fast path's
#: only scipy dependency; deferred so importing this module stays cheap,
#: and called raw because the high-level wrapper costs 5x the solve).
_dtrtrs: Callable[..., tuple[np.ndarray, int]] | None = None


def _get_dtrtrs() -> Callable[..., tuple[np.ndarray, int]]:
    global _dtrtrs
    if _dtrtrs is None:
        from scipy.linalg.lapack import dtrtrs

        _dtrtrs = dtrtrs
    return _dtrtrs


class _Hint(NamedTuple):
    """Bottleneck structure of a previous solve, reusable across masks.

    A max-min allocation is fully described by its *tiers*: the links
    that saturated and froze at least one class, in freezing order, plus
    the tier each class was frozen at (``toc``).  Given the same
    structure and new per-class weights, the tier rates solve a small
    triangular linear system (each tier's link is exactly exhausted by
    its own classes plus the load of earlier, slower tiers crossing it).
    The solution is then *verified* against the max-min optimality
    conditions; since the max-min allocation is unique, any verified
    solution is exact, and a failed verification just falls back to the
    full water-fill.

    Tiers are numbered block after block, each block's contiguous;
    each block's system is its own.
    """

    tiers: np.ndarray  # compact link id per tier, each block in freezing order
    tier_block: np.ndarray  # block per tier
    caps_tiers: np.ndarray  # capacity of each tier's link
    toc: np.ndarray  # tier index per class, -1 = not covered
    covered: np.ndarray  # bool per class: toc >= 0
    all_covered: bool  # every class has a tier (skips the mask check)
    pair_class: np.ndarray  # class id per covered (c, l) crossing
    pair_row: np.ndarray  # toc[c] per covered crossing
    pair_col: np.ndarray  # tier(l) per covered crossing


def _segment_gather(ptr: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Indices covering ``[ptr[i], ptr[i+1])`` for every ``i`` in ``ids``.

    The standard vectorised ragged-segment gather: no Python loop, one
    output element per gathered item.
    """
    if ids.size == 1:
        return np.arange(ptr[ids[0]], ptr[ids[0] + 1])
    starts = ptr[ids]
    lens = ptr[ids + 1] - starts
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    # Offset of each output element within its segment, then add starts.
    seg_ends = lens.cumsum()
    within = np.arange(total) - np.repeat(seg_ends - lens, lens)
    return np.repeat(starts, lens) + within


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integers.

    An LSD radix sort over 16-bit digits: numpy radix-sorts 16-bit keys,
    which is several times faster than its stable sort of wide ones.
    """
    order = np.arange(keys.size)
    top = int(keys.max()) if keys.size else 0
    shift = 0
    while True:
        digit = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digit, kind="stable")]
        shift += 16
        if top >> shift == 0:
            return order


def _compact_links(
    block: np.ndarray, lens: np.ndarray, flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact ``(block, link id)`` keys: block after block, link-id
    order within a block.

    Returns the link id and block of every compact link and, per
    crossing, its block-local compact id.  A dense mark and a rank
    gather do it without a sort whenever the key space is small.
    """
    nnz_block = np.repeat(block, lens)
    width = int(flat.max()) + 1 if flat.size else 1
    key = nnz_block * width + flat
    n_blocks = int(block[-1]) + 1 if block.size else 1
    if n_blocks * width <= 8 * key.size + 4096:
        mark = np.zeros(n_blocks * width, dtype=bool)
        mark[key] = True
        used = mark.nonzero()[0]
        rank = np.empty(mark.size, dtype=np.intp)
        rank[used] = np.arange(used.size)
        compact = rank[key]
    else:
        used, compact = np.unique(key, return_inverse=True)
    link_block = used // width
    start = link_block.searchsorted(np.arange(n_blocks))
    return used % width, link_block, compact - start[nnz_block]


def _dedup_flows(
    block: np.ndarray, lens: np.ndarray, local: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group the flows of each block with identical link multisets.

    Every flow's block-local links are sorted into a fixed-width row,
    padded with the word's largest value (the byte pattern of -1), and
    the rows are deduplicated as opaque byte strings.  Column 0 holds
    the block big-endian, so byte order sorts blocks numerically and,
    within a block, classes keep the byte order of their block-local
    ids — the order a block has alone.  Ids below 0xFFFF order the same
    as 2-byte words as they do as 8-byte words, so small blocks dedup on
    the narrow, cheaper keys.

    Returns the class per flow (-1 for link-less flows) and, per class,
    its path length, block and sorted block-local links (flattened).
    """
    flow_class = np.full(lens.size, -1, dtype=np.intp)
    nonempty = lens.nonzero()[0]
    if not nonempty.size:
        empty = np.empty(0, dtype=np.intp)
        return flow_class, empty, empty, empty
    lmax = int(lens.max())
    narrow = max(int(local.max()) + 1, int(block[-1]) + 1) < 0xFFFF
    word = np.dtype(np.uint16 if narrow else np.uint64)
    rows = np.full((lens.size, lmax + 1), np.iinfo(word).max, dtype=word)
    rows[:, 1:][np.arange(lmax) < lens[:, None]] = local
    rows = rows[nonempty]
    rows[:, 1:].sort(axis=1)
    rows[:, 0] = block[nonempty].astype(word.newbyteorder(">")).view(word)
    key = rows.view(np.dtype((np.void, word.itemsize * (lmax + 1)))).ravel()
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    flow_class[nonempty] = inverse
    rep_lens = lens[nonempty[first]].astype(np.intp)
    class_links = rows[first, 1:][np.arange(lmax) < rep_lens[:, None]]
    return (
        flow_class, rep_lens, block[nonempty[first]],
        class_links.astype(np.intp),
    )


class FairnessProblem:
    """Reusable max-min fairness solver over a fixed flow set.

    Parameters
    ----------
    flow_links:
        Per flow, the link ids it crosses (a path; duplicates allowed
        and counted, matching the reference CSR behaviour).  A flow
        with no links (self send) gets infinite rate when active.
        May be ``None`` when ``prebuilt_flat`` supplies the flattened
        form directly (the batched simulator path).
    link_capacity:
        Capacity per link id (mapping or dense indexable).  Only the
        links actually crossed are read; each must be positive.
    blocks:
        Optional non-decreasing block index per flow (default: one
        block).  Blocks are independent problems solved side by side
        (see the module docs); a link id shared by two blocks is two
        separate links.

    The constructor does all O(total links) work exactly once:

    * **compaction** — the sparse ``(block, link id)`` space maps onto
      ``0..n_links-1``, block after block and in link-id order within a
      block, through a dense mark and a rank gather (no sort);
    * **flow-class dedup** — flows with identical link multisets in one
      block share one column; the solver weighs each class by its
      active multiplicity instead of materialising duplicate columns.
      Classes are ordered by (block, sorted block-local link ids), so a
      block's classes come in the order they would have alone;
    * **incidence layout** — the link x class incidence and its
      transpose are stored as flat ``(ptr, indices)`` index arrays, so
      the water-filling loop is pure ``bincount``/gather numpy with no
      per-call sparse-matrix construction.

    :meth:`rates` solves for any boolean activity mask; masking only
    changes the per-class weights, never the arrays.
    """

    __slots__ = (
        "n_flows", "n_links", "n_classes", "n_blocks", "_flow_class",
        "_has_links", "_caps", "_caps_tol", "_class_ptr", "_class_links",
        "_nnz_class", "_link_ptr", "_link_classes", "_full_counts",
        "_link_block", "_class_block", "_toc", "_tier_of_link", "_hint",
        "_block_edges",
    )

    def __init__(
        self,
        flow_links: Sequence[Sequence[int]] | None,
        link_capacity: Mapping[int, float] | Sequence[float] | np.ndarray,
        *,
        prebuilt_flat: tuple[np.ndarray, np.ndarray] | None = None,
        blocks: np.ndarray | None = None,
    ) -> None:
        if prebuilt_flat is not None:
            # Caller already flattened the paths (message batches carry
            # the CSR form); skip the Python-level pass entirely.
            lens, flat = prebuilt_flat
            n_flows = int(len(lens))
        else:
            if flow_links is None:
                raise SimulationError(
                    "FairnessProblem needs flow_links or prebuilt_flat"
                )
            n_flows = len(flow_links)
            lens, _, flat = flatten_paths(flow_links)
        self.n_flows = n_flows
        self._has_links = lens > 0
        if blocks is None:
            block = np.zeros(n_flows, dtype=np.intp)
        else:
            block = np.asarray(blocks, dtype=np.intp)
        n_blocks = int(block[-1]) + 1 if n_flows else 1
        self.n_blocks = n_blocks
        self._block_edges = np.arange(n_blocks + 1)

        # Link-id compaction per block: the global id space is sparse (a
        # phase touches a fraction of the fabric), the solver's isn't.
        link_ids, self._link_block, local = _compact_links(block, lens, flat)
        n_links = int(link_ids.size)
        self.n_links = n_links
        if isinstance(link_capacity, Mapping):
            caps = np.array(
                [link_capacity[lid] for lid in link_ids.tolist()], dtype=float
            )
        else:
            caps = np.asarray(link_capacity, dtype=float)[link_ids]
        if np.any(caps <= 0):
            raise SimulationError("links must have positive capacity")
        self._caps = caps
        self._caps_tol = caps * (1.0 + _EPS)
        self._hint: _Hint | None = None

        flow_class, rep_lens, class_block, class_links = _dedup_flows(
            block, lens, local
        )
        class_links += np.repeat(
            self._link_block.searchsorted(class_block), rep_lens
        )
        n_classes = int(rep_lens.size)
        self.n_classes = n_classes
        self._flow_class = flow_class
        self._class_block = class_block

        # Incidence (class -> links) and transpose (link -> classes) as
        # flat index arrays.
        self._class_ptr = csr_offsets(rep_lens)
        self._class_links = class_links
        self._nnz_class = np.repeat(np.arange(n_classes), rep_lens)
        t_order = _stable_argsort(class_links)
        self._link_classes = self._nnz_class[t_order]
        self._link_ptr = csr_offsets(np.bincount(class_links, minlength=n_links))
        self._full_counts = np.bincount(
            flow_class[self._has_links], minlength=n_classes
        ).astype(float)
        # Bottleneck structure behind the hint, block-local: tier per
        # class and per link, -1 where none.
        self._toc = np.full(n_classes, -1, dtype=np.intp)
        self._tier_of_link = np.full(n_links, -1, dtype=np.intp)

    # --- solving ----------------------------------------------------------
    def counts(self, active: np.ndarray | None = None) -> np.ndarray:
        """Per-class active flow multiplicity under ``active`` (float)."""
        if active is None:
            return self._full_counts.copy()
        sel = np.asarray(active, dtype=bool) & self._has_links
        return np.bincount(
            self._flow_class[sel], minlength=self.n_classes
        ).astype(float)

    def rates(self, active: np.ndarray | None = None) -> np.ndarray:
        """Max-min fair rate per flow, bytes/second.

        ``active`` is a boolean mask over the problem's flows (default:
        all active).  Inactive flows get rate 0 and contribute no load;
        active link-less flows get ``inf``.  Equivalent to solving the
        sub-problem restricted to the active flows — only the per-class
        weights change, the incidence arrays are reused as-is.

        Masked calls go through :meth:`solve_classes`, which reuses the
        *bottleneck structure* of the previous masked solve (see
        :class:`_Hint`).  Unmasked calls water-fill every block once.
        """
        rates = np.zeros(self.n_flows)
        if active is None:
            act = np.ones(self.n_flows, dtype=bool)
        else:
            act = np.asarray(active, dtype=bool)
        rates[act & ~self._has_links] = np.inf
        if self.n_classes:
            if active is None:
                class_rates = self._water_fill(self._full_counts, False)[0]
            else:
                class_rates = self.solve_classes(self.counts(act))
            sel = act & self._has_links
            rates[sel] = class_rates[self._flow_class[sel]]
        return rates

    @property
    def flow_class(self) -> np.ndarray:
        """Class index per flow (``-1`` for link-less flows)."""
        return self._flow_class

    def solve_classes(self, counts: np.ndarray) -> np.ndarray:
        """Class rates under explicit per-class weights.

        The dynamic event loop's entry point, one call per lockstep
        step of every block: each block tries the hint fast path (see
        :class:`_Hint`), and the blocks whose hint fails verification
        are water-filled together, which re-emits their hints for the
        next call.  Callers that track the active multiplicities
        incrementally skip the per-event ``bincount`` of :meth:`rates`.
        """
        if self._hint is None:
            crates, structure = self._water_fill(counts, True)
            self._set_hint(structure)
            return crates
        crates, failed = self._rates_from_hint(counts)
        if failed.any():
            redo = failed[self._class_block]
            fresh, structure = self._water_fill(
                np.where(redo, counts, 0.0), True
            )
            crates[redo] = fresh[redo]
            self._set_hint(structure, failed)
        return crates

    def _water_fill(
        self, counts: np.ndarray, emit: bool
    ) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """Progressive filling of every block with live classes, in lockstep.

        Each iteration steps every live block once: its level rises by
        the smallest headroom among its live links (a segmented min),
        its saturated links — or, in the numerical corner where none
        saturates, its first tightest link — freeze the classes crossing
        them, and their load leaves the link occupancies.  These are a
        solo water-fill's IEEE operations on the same operands; only
        the per-class work is exactly once, at freezing, and occupancies
        stay exact integer-valued floats throughout.

        With ``emit`` it also returns the bottleneck structure that
        :meth:`_set_hint` turns into the hint: every frozen class's
        *tier* (the first saturated link it crosses, in link order
        within a level) and every tier link's index, block-local and
        pruned to the tiers that froze a class.
        """
        n_links = self.n_links
        link_block = self._link_block
        class_block = self._class_block
        crates = np.zeros(self.n_classes)
        alive = counts > 0
        toc = np.full(self.n_classes, -1, dtype=np.intp)
        first_sat = np.full(self.n_classes, n_links, dtype=np.intp)
        n_tiers = np.zeros(self.n_blocks, dtype=np.intp)
        sats: list[np.ndarray] = []
        level = np.zeros(self.n_blocks)
        link_classes = self._link_classes
        link_ptr = self._link_ptr
        class_links = self._class_links
        class_ptr = self._class_ptr
        n_active = np.bincount(
            class_links, weights=counts[self._nnz_class], minlength=n_links
        )
        cap_left = self._caps.copy()
        eps_caps = _EPS * self._caps
        # Links whose occupancy dropped to zero never come back (classes
        # only freeze), so the per-level arrays shrink as flows drain;
        # a block is done when its last live link drops out.
        live = np.flatnonzero(n_active > 0)
        for _ in range(n_links + 1):
            na = n_active[live]
            keep = na > 0
            if not keep.all():
                live = live[keep]
                na = na[keep]
            if live.size == 0:
                break
            lb = link_block[live]
            starts = run_starts(lb)
            cl = cap_left[live]
            headroom = cl / na
            inc = np.minimum.reduceat(headroom, starts)
            level[lb[starts]] += inc
            inc_per_link = spread(inc, starts, live.size)
            cl = cl - inc_per_link * na
            cap_left[live] = cl
            hit = cl <= eps_caps[live]
            saturated = np.logical_or.reduceat(hit, starts)
            if not saturated.all():
                # Numerical corner: saturate the tightest link explicitly.
                tight = headroom == inc_per_link
                for s in starts[~saturated].tolist():
                    hit[s + int(tight[s:].argmax())] = True
            sat = live[hit]
            # Freeze every still-alive class crossing a saturated link.
            crossing = link_classes[_segment_gather(link_ptr, sat)]
            mask = alive[crossing]
            crossing = crossing[mask]
            if crossing.size == 0:
                raise SimulationError(
                    "progressive filling failed to converge"
                )
            freeze = np.zeros(self.n_classes, dtype=bool)
            freeze[crossing] = True
            cand = freeze.nonzero()[0]
            if emit:
                # Tier = the block's tiers of earlier levels + the rank
                # of the class's first saturated link among the block's
                # saturated links of this level.
                sat_block = link_block[sat]
                if sat.size == 1:
                    toc[cand] = n_tiers[sat_block[0]]
                else:
                    np.minimum.at(
                        first_sat,
                        crossing,
                        sat.repeat(link_ptr[sat + 1] - link_ptr[sat])[mask],
                    )
                    cb = class_block[cand]
                    toc[cand] = (
                        n_tiers[cb]
                        + sat.searchsorted(first_sat[cand])
                        - sat_block.searchsorted(cb)
                    )
                n_tiers += np.bincount(sat_block, minlength=self.n_blocks)
                sats.append(sat)
            crates[cand] = level[class_block[cand]]
            alive[cand] = False
            # Remove the frozen classes' load from the occupancies; on
            # the just-saturated links this lands on exactly zero
            # (integer-valued floats throughout).
            np.subtract.at(
                n_active,
                class_links[_segment_gather(class_ptr, cand)],
                counts[cand].repeat(class_ptr[cand + 1] - class_ptr[cand]),
            )
        else:
            raise SimulationError(
                "progressive filling exceeded its iteration bound"
            )
        # Pathological leftovers (shouldn't occur).
        crates[alive] = level[class_block[alive]]
        if not emit:
            return crates, None
        # Tiers block by block, each in freezing order; saturated links
        # that froze no class (another link of the same level got there
        # first in link order) would add dead rows/columns to the
        # triangular system, so prune them — symmetric phases saturate
        # hundreds of links in one level.
        tiers = np.concatenate(sats) if sats else np.empty(0, dtype=np.intp)
        tiers = tiers[np.argsort(link_block[tiers], kind="stable")]
        cov = toc >= 0
        gtoc = csr_offsets(n_tiers)[class_block[cov]] + toc[cov]
        used = np.zeros(tiers.size, dtype=bool)
        used[gtoc] = True
        rank = np.cumsum(used) - 1
        kept = tiers[used]
        kept_start = csr_offsets(
            np.bincount(link_block[kept], minlength=self.n_blocks)
        )
        tier_of_link = np.full(n_links, -1, dtype=np.intp)
        tier_of_link[kept] = rank[used] - kept_start[link_block[kept]]
        toc[cov] = rank[gtoc] - kept_start[class_block[cov]]
        return crates, (toc, tier_of_link)

    def _set_hint(
        self,
        structure: tuple[np.ndarray, np.ndarray] | None,
        blocks: np.ndarray | None = None,
    ) -> None:
        """Adopt an emitted structure (for ``blocks`` only, if given)."""
        assert structure is not None
        toc, tier_of_link = structure
        if blocks is None:
            self._toc, self._tier_of_link = toc, tier_of_link
        else:
            cm = blocks[self._class_block]
            self._toc[cm] = toc[cm]
            lm = blocks[self._link_block]
            self._tier_of_link[lm] = tier_of_link[lm]
        self._hint = self._build_hint()

    def _build_hint(self) -> _Hint:
        """Precompute the mask-independent arrays of the hint fast path."""
        local = self._tier_of_link
        is_tier = np.flatnonzero(local >= 0)
        tb = self._link_block[is_tier]
        tier_ptr = csr_offsets(np.bincount(tb, minlength=self.n_blocks))
        gid = tier_ptr[tb] + local[is_tier]
        tiers = np.empty(is_tier.size, dtype=np.intp)
        tiers[gid] = is_tier
        tier_of_link = np.full(self.n_links, -1, dtype=np.intp)
        tier_of_link[is_tier] = gid
        covered = self._toc >= 0
        toc = np.where(covered, tier_ptr[self._class_block] + self._toc, -1)
        nl = tier_of_link[self._class_links]
        nc = toc[self._nnz_class]
        valid = (nl >= 0) & (nc >= 0)
        return _Hint(
            tiers=tiers,
            tier_block=self._link_block[tiers],
            caps_tiers=self._caps[tiers],
            toc=toc,
            covered=covered,
            all_covered=bool(covered.all()),
            pair_class=self._nnz_class[valid],
            pair_row=nc[valid],
            pair_col=nl[valid],
        )

    def _rates_from_hint(
        self, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Re-solve every block under its previous bottleneck structure.

        Tier ``t``'s link is exactly exhausted by its own classes plus
        the load of earlier tiers crossing it, so a block's tier rates
        solve a lower-triangular system (no later-frozen class can cross
        an earlier-saturated link — it would have been frozen there).  A
        block's solution is accepted only if it passes the max-min
        optimality conditions: positive rates, every tier at least as
        fast as the earlier tiers crossing its link, and feasibility.

        Returns the class rates and the per-block mask of blocks that
        failed (their rates are meaningless; the caller re-derives their
        structure with a water-fill).
        """
        hint = self._hint
        assert hint is not None
        failed = np.zeros(self.n_blocks, dtype=bool)
        if not hint.all_covered:
            failed[self._class_block[(counts > 0) & ~hint.covered]] = True
        t = hint.tiers.size
        # Only the crossings of active classes carry weight.  The others
        # would add exact zeros to every sum below, so dropping them
        # changes no bit — and it shrinks the work as flows drain.
        pw = counts[hint.pair_class]
        on = (pw > 0).nonzero()[0]
        pw = pw[on]
        rows = hint.pair_row[on]
        cols = hint.pair_col[on]
        off = rows != cols
        diag = np.bincount(cols, weights=np.where(off, 0.0, pw), minlength=t)
        # Tiers whose classes all completed drop out; a tier with an
        # active class always keeps a positive diagonal (the class
        # crosses its own bottleneck link).  Each block's matrix is
        # built compact: crossings into dropped tiers carry load on
        # unsaturated links, covered by the feasibility check.
        keep = diag > 0
        kept = keep.nonzero()[0]
        kb = hint.tier_block[kept]
        kept_ptr = kb.searchsorted(self._block_edges)
        tc = kept_ptr[1:] - kept_ptr[:-1]
        # Block-local index of every kept tier (dropped ones are never read).
        newidx = keep.cumsum() - 1 - kept_ptr[hint.tier_block]
        sel = keep[cols]
        sel_cols = cols[sel]
        pb = hint.tier_block[sel_cols]
        cells = newidx[rows[sel]] * tc[pb] + newidx[sel_cols]
        weights = pw[sel]
        p_at = pb.searchsorted(self._block_edges).tolist()
        k_at = kept_ptr.tolist()
        caps_k = hint.caps_tiers[kept]
        r = np.zeros(kept.size)
        dtrtrs = _get_dtrtrs()
        for b in tc.nonzero()[0].tolist():
            k0, k1 = k_at[b], k_at[b + 1]
            n = k1 - k0
            mc = np.bincount(
                cells[p_at[b]:p_at[b + 1]],
                weights=weights[p_at[b]:p_at[b + 1]],
                minlength=n * n,
            ).reshape(n, n)
            # mc is upper triangular (no later-frozen class crosses an
            # earlier-saturated link), so dtrtrs with trans solves the
            # transposed (lower) system without forming mc.T.
            r[k0:k1], info = dtrtrs(mc, caps_k[k0:k1], lower=0, trans=1)
            if info:
                failed[b] = True
        # Checks below only name failing blocks when something fails.
        bad = r <= 0
        if bad.any():
            failed[kb[bad]] = True
        r_full = np.zeros(t)
        r_full[kept] = r
        # Dropped tiers impose no rate bound of their own.
        r_chk = np.where(keep, r_full, np.inf)
        # Bottleneck validity: no earlier tier crossing this tier's link
        # may be faster, else that link is not these classes' bottleneck.
        # Checked pairwise over the sparse crossings — the dense column
        # max is O(T^2) and dominates when whole levels saturate at once.
        off_row = rows[off]
        bad = r_full[off_row] > r_chk[cols[off]] * (1.0 + _EPS)
        if bad.any():
            failed[hint.tier_block[off_row[bad]]] = True
        if hint.all_covered:
            crates = r_full[hint.toc]
        else:
            crates = np.zeros(self.n_classes)
            cov = hint.covered
            crates[cov] = r_full[hint.toc[cov]]
        load = np.bincount(
            self._class_links,
            weights=(counts * crates)[self._nnz_class],
            minlength=self.n_links,
        )
        bad = load > self._caps_tol
        if bad.any():
            failed[self._link_block[bad]] = True
        return crates, failed


def max_min_fair_rates(
    flow_links: Sequence[Sequence[int]],
    link_capacity: Mapping[int, float] | Sequence[float] | np.ndarray,
) -> np.ndarray:
    """Max-min fair rate for each flow, bytes/second.

    Thin wrapper over :class:`FairnessProblem` (build once, solve once)
    keeping the historical one-shot signature every routing/linter
    caller and the property tests use.

    Parameters
    ----------
    flow_links:
        Per flow, the link ids it crosses.  A flow with no links (self
        send) gets infinite rate.
    link_capacity:
        Capacity per link id (mapping or dense indexable).

    Returns
    -------
    Array of per-flow rates.  Invariants (property-tested):

    * no link's summed rate exceeds its capacity,
    * every flow is bottlenecked — it crosses at least one saturated
      link whose other flows have no higher rate (max-min optimality).
    """
    if len(flow_links) == 0:
        return np.zeros(0)
    return FairnessProblem(flow_links, link_capacity).rates()


def link_loads(
    flow_links: Sequence[Sequence[int]],
    rates: np.ndarray,
) -> dict[int, float]:
    """Aggregate bytes/second crossing each link under the given rates."""
    loads: dict[int, float] = {}
    for links, rate in zip(flow_links, rates):
        if not np.isfinite(rate):
            continue
        for lid in links:
            loads[lid] = loads.get(lid, 0.0) + float(rate)
    return loads
