"""Dense array backing for linear forwarding tables.

:class:`ForwardingTables` stores the fabric's forwarding state as one
``switch x dlid`` integer matrix (-1 = no entry; narrowest dtype that
holds the link-id space, see :func:`table_dtype_for`) behind the exact
dict-of-dicts mapping API the rest of the library — and its tests — use:
``tables[sw][dlid]``, ``tables.get(sw, {})``, ``tables.setdefault(sw,
{})[dlid] = link``, ``del tables[sw][dlid]``, row ``.pop``/``.items()``,
wholesale ``fabric.tables = {...}`` assignment.  The matrix is what
makes the sweep pipeline fast: stale-entry detection, path snapshots,
and channel-dependency extraction become numpy gathers over columns
instead of per-entry Python loops (:func:`walk_dest_columns`).

The *universe* of the matrix is fixed at construction: rows are the
network's switches, columns the sorted LIDs of the fabric's
:class:`~repro.ib.addressing.LidMap`.  Entries outside the universe
(tests install routes at foreign dlids; the linter installs foreign
links) go to an overflow dict so the mapping facade never rejects a
write the plain dicts accepted — no validation happens here, exactly
like before (``Fabric.set_route`` remains the validating entry point).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Mapping, MutableMapping

import numpy as np

from repro.core.chunking import items_per_chunk
from repro.core.errors import RoutingError
from repro.core.parallel import run_walk_job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ib.addressing import LidMap
    from repro.topology.network import Network, SwitchGraph

#: Matrix value marking an absent forwarding entry.
NO_ENTRY = -1


def table_dtype_for(num_links: int) -> np.dtype:
    """The narrowest signed dtype holding every link id (and -1).

    int16 halves the dominant dense allocation on fabrics whose link-id
    space fits (every existing config, up to 32k directed links); the
    10k-endpoint configs cross that line and widen to int32.  All
    writers refuse — loudly, never by wrapping — values outside the
    chosen dtype's range.
    """
    return np.dtype(
        np.int16 if num_links <= np.iinfo(np.int16).max else np.int32
    )


class TableRow(MutableMapping):
    """Mutable mapping view of one switch's linear forwarding table.

    Reads and writes go straight to the backing matrix row (plus the
    switch's overflow dict for out-of-universe dlids).  Iteration yields
    in-universe dlids in ascending LID order, then overflow entries —
    deterministic, which the dict rows never guaranteed either (callers
    that care sort, e.g. ``dump_lft``).
    """

    __slots__ = ("_tables", "_switch", "_row")

    def __init__(self, tables: "ForwardingTables", switch: int, row: int) -> None:
        self._tables = tables
        self._switch = switch
        self._row = row

    def __getitem__(self, dlid: int) -> int:
        col = self._tables._col_of.get(dlid)
        if col is None:
            return self._tables._overflow[self._switch][dlid]
        link = self._tables._m[self._row, col]
        if link < 0:
            raise KeyError(dlid)
        return int(link)

    def __setitem__(self, dlid: int, link_id: int) -> None:
        t = self._tables
        col = t._col_of.get(dlid)
        if col is None:
            t._overflow.setdefault(self._switch, {})[dlid] = int(link_id)
        else:
            if not t._lo <= link_id <= t._hi:
                raise RoutingError(
                    f"link id {link_id} does not fit forwarding-table "
                    f"dtype {t._m.dtype}"
                )
            t._m[self._row, col] = link_id
        t.version += 1

    def __delitem__(self, dlid: int) -> None:
        t = self._tables
        col = t._col_of.get(dlid)
        if col is None:
            del t._overflow[self._switch][dlid]
        else:
            if t._m[self._row, col] < 0:
                raise KeyError(dlid)
            t._m[self._row, col] = NO_ENTRY
        t.version += 1

    def __contains__(self, dlid: object) -> bool:
        col = self._tables._col_of.get(dlid)
        if col is None:
            return dlid in self._tables._overflow.get(self._switch, ())
        return bool(self._tables._m[self._row, col] >= 0)

    def __iter__(self) -> Iterator[int]:
        t = self._tables
        row = t._m[self._row]
        for col in np.flatnonzero(row >= 0):
            yield int(t._dlids[col])
        yield from t._overflow.get(self._switch, ())

    def __len__(self) -> int:
        t = self._tables
        n = int((t._m[self._row] >= 0).sum())
        return n + len(t._overflow.get(self._switch, ()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"TableRow(switch={self._switch}, entries={len(self)})"


class ForwardingTables(MutableMapping):
    """The dense ``switch x dlid`` next-hop store behind ``Fabric.tables``.

    A switch key is *present* once a row was created for it (by
    ``setdefault``, item assignment, or an initial dict) — matching the
    plain dict-of-dicts, where ``tables[sw]`` raised until somebody
    wrote there.  :attr:`version` counts every mutation; the fabric's
    path memo and any derived caches key on it.
    """

    _uid_counter = 0

    def __init__(
        self,
        net: "Network",
        lidmap: "LidMap",
        initial: Mapping[int, Mapping[int, int]] | None = None,
    ) -> None:
        self._net = net
        switches = net.switches
        self._row_of: dict[int, int] = {sw: r for r, sw in enumerate(switches)}
        self._switch_ids = switches
        dlids = sorted(lidmap.owner)
        self._dlids = np.asarray(dlids, dtype=np.int64)
        self._col_of: dict[int, int] = {d: c for c, d in enumerate(dlids)}
        dtype = table_dtype_for(len(net.links))
        self._m = np.full((len(switches), len(dlids)), NO_ENTRY, dtype=dtype)
        info = np.iinfo(dtype)
        self._lo, self._hi = int(info.min), int(info.max)
        #: switch -> {dlid -> link} for out-of-universe dlids.
        self._overflow: dict[int, dict[int, int]] = {}
        #: present switch keys -> row view (or plain dict for switches
        #: outside the universe), in first-write order.
        self._rows: dict[int, MutableMapping] = {}
        #: present keys backed by plain dicts (out-of-universe switches).
        self._foreign: set[int] = set()
        self.version = 0
        #: Process-unique instance id: two table objects never share a
        #: ``(uid, version)`` pair, so caches keyed on it can never
        #: confuse a rebuilt table for the one it replaced.
        ForwardingTables._uid_counter += 1
        self.uid = ForwardingTables._uid_counter
        if initial:
            for sw, entries in initial.items():
                self[sw] = entries

    # --- mapping facade ---------------------------------------------------
    def __getitem__(self, switch: int) -> MutableMapping:
        return self._rows[switch]

    def __setitem__(self, switch: int, entries: Mapping[int, int]) -> None:
        row = self._row_of.get(switch)
        if row is None:
            # Unknown switch id: keep a plain dict so the facade stays
            # permissive (the dict tables accepted any key).
            self._rows[switch] = dict(entries)
            self._foreign.add(switch)
            self.version += 1
            return
        view = self._rows.get(switch)
        if view is None:
            view = TableRow(self, switch, row)
            self._rows[switch] = view
        self._m[row, :] = NO_ENTRY
        self._overflow.pop(switch, None)
        self.version += 1
        for dlid, link_id in entries.items():
            view[dlid] = link_id

    def setdefault(self, switch: int, default=None):  # type: ignore[override]
        # The MutableMapping mixin returns ``default`` itself on a miss.
        # Plain dict tables stored that object, so later writes to it
        # were visible; the matrix copies entries out, so we must hand
        # back the live row view instead.
        try:
            return self._rows[switch]
        except KeyError:
            self[switch] = default if default is not None else {}
            return self._rows[switch]

    def __delitem__(self, switch: int) -> None:
        del self._rows[switch]
        self._foreign.discard(switch)
        row = self._row_of.get(switch)
        if row is not None:
            self._m[row, :] = NO_ENTRY
        self._overflow.pop(switch, None)
        self.version += 1

    def __contains__(self, switch: object) -> bool:
        return switch in self._rows

    def __iter__(self) -> Iterator[int]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Mapping):
            if set(self._rows) != set(other):
                return False
            return all(dict(self[sw]) == dict(other[sw]) for sw in self._rows)
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"ForwardingTables(switches={len(self._rows)}, "
            f"dlids={len(self._col_of)}, version={self.version})"
        )

    # --- dense access ------------------------------------------------------
    @property
    def dense(self) -> np.ndarray:
        """The backing ``(num_switches, num_dlids)`` integer matrix.

        Row/column order follow :attr:`switch_ids` / :attr:`dlids`.
        Callers must treat it as read-only — mutate through the mapping
        API so :attr:`version` stays truthful.
        """
        return self._m

    @property
    def dlids(self) -> np.ndarray:
        """Column universe: all LIDs of the fabric's lidmap, ascending."""
        return self._dlids

    @property
    def switch_ids(self) -> list[int]:
        """Row universe: switch node ids in network order."""
        return list(self._switch_ids)

    def column_of(self, dlid: int) -> int | None:
        """Matrix column of ``dlid``, or ``None`` if out of universe."""
        return self._col_of.get(dlid)

    def row_of(self, switch: int) -> int | None:
        """Matrix row of ``switch``, or ``None`` if out of universe."""
        return self._row_of.get(switch)

    def dense_copy(self) -> np.ndarray:
        """Snapshot of the matrix (plus a copy of the overflow dict)."""
        return self._m.copy()

    def entry_coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every in-universe entry as parallel ``(rows, cols, links)`` arrays.

        Row-major over the dense matrix: rows index :attr:`switch_ids`,
        cols index :attr:`dlids`, ``links[i]`` is the stored link id.
        One ``np.nonzero`` instead of a per-entry Python loop — the
        linter's table-hygiene scan and the what-if verifier's
        cable-to-destination incidence both start here.  Overflow and
        foreign-row entries are not included (see
        :meth:`overflow_items` / :meth:`foreign_switches`).
        """
        rows, cols = np.nonzero(self._m >= 0)
        return rows, cols, self._m[rows, cols]

    def foreign_switches(self) -> tuple[int, ...]:
        """Present keys backed by plain dicts (out-of-universe switches)."""
        return tuple(self._foreign)

    def overflow_items(self) -> Iterator[tuple[int, int, int]]:
        """All out-of-universe entries as ``(switch, dlid, link)``."""
        for sw, entries in self._overflow.items():
            for dlid, link_id in entries.items():
                yield sw, dlid, link_id

    def overflow_copy(self) -> dict[int, dict[int, int]]:
        return {sw: dict(entries) for sw, entries in self._overflow.items()}

    def clear_column(self, dlid: int) -> None:
        """Drop every switch's entry for one destination LID."""
        col = self._col_of.get(dlid)
        if col is not None:
            self._m[:, col] = NO_ENTRY
        for entries in self._overflow.values():
            entries.pop(dlid, None)
        self.version += 1

    def install_column(
        self,
        col: int,
        rows: np.ndarray,
        links: np.ndarray,
        switches: np.ndarray,
    ) -> None:
        """Scatter one destination's entries: ``m[rows[i], col] = links[i]``.

        ``switches[i]`` is the node id of ``rows[i]``; switches written
        for the first time become present keys, in argument order —
        matching a per-entry ``setdefault`` loop.
        """
        self._check_fits(links)
        self._m[rows, col] = links
        present = self._rows
        if len(present) - len(self._foreign) < self._m.shape[0]:
            for sw, row in zip(switches.tolist(), rows.tolist()):
                if sw not in present:
                    present[sw] = TableRow(self, sw, row)
        self.version += 1

    @property
    def is_mmap_backed(self) -> bool:
        """Whether the dense matrix is a memory-mapped cache payload.

        True after :meth:`attach_dense` with an ``np.memmap`` — including
        the in-memory memmap-typed arrays ``copy.deepcopy`` produces from
        one.  The campaign ledger counts these attaches to prove workers
        shared the cache file instead of rebuilding tables.
        """
        return isinstance(self._m, np.memmap)

    def attach_dense(
        self, matrix: np.ndarray, present_switches: "list[int] | None" = None
    ) -> None:
        """Adopt ``matrix`` as the backing store (zero-copy cache attach).

        The matrix must match the universe shape and dtype — it is
        taken as-is, *not* copied, so an ``np.load(..., mmap_mode="c")``
        payload stays page-backed until a re-sweep writes to it
        (copy-on-write keeps the cache file immutable).
        ``present_switches`` lists the in-universe switches to mark
        present, in first-write order (default: every row's switch).
        Overflow and foreign rows are untouched — install those through
        the mapping API afterwards.
        """
        if matrix.shape != self._m.shape:
            raise ValueError(
                f"dense attach shape {matrix.shape} != universe {self._m.shape}"
            )
        if matrix.dtype != self._m.dtype:
            raise ValueError(
                f"dense attach dtype {matrix.dtype} != {self._m.dtype}"
            )
        self._m = matrix
        if present_switches is None:
            present_switches = list(self._switch_ids)
        for sw in present_switches:
            row = self._row_of[sw]
            if sw not in self._rows:
                self._rows[sw] = TableRow(self, sw, row)
        self.version += 1

    def install_row_array(self, switch: int, row_values: np.ndarray) -> None:
        """Bulk-install one switch's row, aligned to :attr:`dlids`.

        Fast path for payload loading; marks the switch present even if
        the row is all :data:`NO_ENTRY`.
        """
        row = self._row_of.get(switch)
        if row is None:
            self[switch] = {
                int(d): int(v)
                for d, v in zip(self._dlids, row_values)
                if v >= 0
            }
            return
        if switch not in self._rows:
            self._rows[switch] = TableRow(self, switch, row)
        self._check_fits(np.asarray(row_values))
        self._m[row, :] = row_values
        self.version += 1

    def _check_fits(self, values: np.ndarray) -> None:
        """Refuse values the matrix dtype cannot hold — array scatters
        would otherwise wrap silently (numpy same-kind casting)."""
        if values.size and not (
            self._lo <= int(values.min()) and int(values.max()) <= self._hi
        ):
            raise RoutingError(
                f"link id range [{int(values.min())}, {int(values.max())}] "
                f"does not fit forwarding-table dtype {self._m.dtype}"
            )


def walk_dest_links(
    matrix: np.ndarray,
    graph: "SwitchGraph",
    dest_cols: np.ndarray,
    dest_nodes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-switch link-id paths toward a set of destination columns.

    The link-recording sibling of :func:`walk_dest_columns`: every
    switch walks ``matrix[cur, col]`` toward every destination
    simultaneously, and the links taken are recorded step by step.
    Verdicts are identical to ``Fabric.resolve`` restricted to the
    switch part of the walk — a switch is ``ok`` precisely when
    ``resolve`` from a terminal on it would succeed, and its recorded
    links are exactly the post-uplink portion of ``resolve``'s path
    (ejection hop included).  A negative column stands for a
    destination the tables do not hold: no switch reaches it.

    Returns
    -------
    (ok, lens, steps):
        ``(D, S)`` reachability, ``(D, S)`` int32 path length in links,
        and a ``(D, K, S)`` int32 array where ``steps[d, k, s]`` is the
        k-th link of switch ``s``'s walk toward destination ``d``
        (undefined past ``lens[d, s]``).  ``K`` is the longest surviving
        walk, 0 when nothing moved.
    """
    n_switches = matrix.shape[0]
    cols = np.asarray(dest_cols, dtype=np.int64)[:, None]
    dest = np.asarray(dest_nodes, dtype=np.int64)[:, None]
    shape = (len(cols), n_switches)
    ok = np.zeros(shape, dtype=bool)
    lens = np.zeros(shape, dtype=np.int32)
    recorded: list[np.ndarray] = []

    link_dst_node = graph.link_dst_node
    link_dst_index = graph.link_dst_index
    link_enabled = graph.link_enabled
    safe_cols = np.maximum(cols, 0)
    cur = np.broadcast_to(np.arange(n_switches, dtype=np.int64), shape)
    walking = np.broadcast_to(cols >= 0, shape)
    # Same pigeonhole loop guard as walk_dest_columns: a valid walk
    # ejects within S steps; anything longer revisited a switch.
    for _ in range(n_switches + 1):
        if not walking.any():
            break
        entry = np.asarray(matrix[cur, safe_cols], dtype=np.int64)
        missing = (entry < 0) | (entry >= len(link_enabled))
        entry_safe = np.where(missing, 0, entry)
        alive = walking & link_enabled[entry_safe] & ~missing
        ejects = alive & (link_dst_node[entry_safe] == dest)
        next_idx = link_dst_index[entry_safe]
        recorded.append(np.where(alive, entry, -1).astype(np.int32))
        lens += alive
        ok |= ejects
        walking = alive & ~ejects & (next_idx >= 0)
        cur = np.where(walking, next_idx, cur)
    if not recorded:
        return ok, lens, np.zeros((shape[0], 0, n_switches), dtype=np.int32)
    return ok, lens, np.stack(recorded, axis=1)


def walk_dest_columns(
    matrix: np.ndarray,
    graph: "SwitchGraph",
    dest_cols: np.ndarray,
    dest_nodes: np.ndarray,
    old_matrix: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Walk every switch toward every destination simultaneously.

    Vectorised equivalent of ``Fabric.resolve`` restricted to the switch
    part of the walk: starting at each switch, repeatedly follow
    ``matrix[current, col]`` until the packet ejects at ``dest_nodes[j]``
    (ok), or hits a missing entry / disabled link / wrong terminal /
    forwarding loop (dead — the exact conditions ``resolve`` raises on;
    the loop guard is the pigeonhole bound instead of a visited set,
    with identical verdicts).

    Parameters
    ----------
    matrix:
        ``(S, D)`` next-hop matrix (:attr:`ForwardingTables.dense`).
    graph:
        Current :meth:`Network.switch_graph` — supplies per-link
        destination/enabled arrays.  Must reflect the same topology
        state the verdicts should be judged under.
    dest_cols, dest_nodes:
        ``(T,)`` matrix column and destination node id per destination.
    old_matrix:
        Optional same-shape matrix; when given, the third result marks
        walks whose *entry at some visited switch* differs between the
        two matrices — exactly the pairs whose resolved path changed
        (paths share their prefix up to the first differing entry and
        diverge there).

    Returns
    -------
    (ok, hops, changed):
        ``(S, T)`` arrays over (start switch, destination): reachability,
        switch-to-switch hop count (valid where ok), and the change flag
        (``None`` when ``old_matrix`` is None; valid where ok).

    Destinations are processed in bounded chunks (the shared budget of
    :mod:`repro.core.chunking`): only the verdict outputs span all T
    destinations; the walk's transient state — current position,
    liveness, per-step gathers — exists for one chunk at a time, which
    is what keeps all-pairs resolution affordable at 10k endpoints.
    Each destination's walk is independent, so chunking cannot change a
    single bit of the outputs.
    """
    n_switches = matrix.shape[0]
    n_dests = len(dest_cols)
    ok = np.zeros((n_switches, n_dests), dtype=bool)
    hops = np.zeros((n_switches, n_dests), dtype=np.int32)
    changed = None if old_matrix is None else np.zeros((n_switches, n_dests), bool)
    if n_switches == 0 or n_dests == 0:
        return ok, hops, changed

    # ~40 transient bytes per (switch, destination) cell across the
    # walk's working arrays.
    chunk = items_per_chunk(n_switches * 40)
    dest_cols = np.asarray(dest_cols)
    dest_nodes = np.asarray(dest_nodes)
    # Destination walks are independent, so the worker pool can shard
    # them with bit-identical verdicts; False falls back to the serial
    # chunk loop below.
    if run_walk_job(
        matrix, graph, dest_cols, dest_nodes, old_matrix,
        ok, hops, changed, chunk,
    ):
        return ok, hops, changed
    for lo in range(0, n_dests, chunk):
        hi = min(lo + chunk, n_dests)
        _walk_dest_block(
            matrix,
            graph,
            np.asarray(dest_cols)[lo:hi],
            np.asarray(dest_nodes)[lo:hi],
            old_matrix,
            ok[:, lo:hi],
            hops[:, lo:hi],
            None if changed is None else changed[:, lo:hi],
        )
    return ok, hops, changed


def _walk_dest_block(
    matrix: np.ndarray,
    graph: "SwitchGraph",
    dest_cols: np.ndarray,
    dest_nodes: np.ndarray,
    old_matrix: np.ndarray | None,
    ok: np.ndarray,
    hops: np.ndarray,
    changed: np.ndarray | None,
) -> None:
    """One destination chunk of :func:`walk_dest_columns`, writing the
    verdicts into the caller's output views."""
    n_switches = matrix.shape[0]
    n_dests = len(dest_cols)
    cur = np.broadcast_to(
        np.arange(n_switches, dtype=np.int64)[:, None], (n_switches, n_dests)
    ).copy()
    walking = np.ones((n_switches, n_dests), dtype=bool)
    col_b = np.broadcast_to(dest_cols[None, :], (n_switches, n_dests))
    dest_b = np.broadcast_to(dest_nodes[None, :], (n_switches, n_dests))
    link_dst_node = graph.link_dst_node
    link_dst_index = graph.link_dst_index
    link_enabled = graph.link_enabled

    # A valid walk ejects within S steps (S-1 switch hops + ejection);
    # anything still walking after that revisited a switch.
    for _ in range(n_switches + 1):
        if not walking.any():
            break
        entry = matrix[cur, col_b]
        if changed is not None:
            changed |= walking & (entry != old_matrix[cur, col_b])
        # Out-of-range positive ids (corrupt "unknown link" entries) are
        # as dead as absent ones; clamping keeps the gathers in bounds.
        missing = (entry < 0) | (entry >= len(link_enabled))
        entry_safe = np.where(missing, 0, entry)
        alive = link_enabled[entry_safe] & ~missing
        ejects = alive & (link_dst_node[entry_safe] == dest_b)
        next_idx = link_dst_index[entry_safe]
        steps = walking & alive & ~ejects & (next_idx >= 0)
        ok |= walking & ejects
        # Dead walks (missing/disabled/wrong terminal) simply stop.
        walking = steps
        cur = np.where(steps, next_idx, cur)
        hops += steps
